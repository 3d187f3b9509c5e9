"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the repository's test suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 900001
TINY = {
    "toy-ablate": workloads.ToyAblate(n_per_class=6, epochs=2, batch_size=4),
    "paper-train": workloads.PaperTrain(n_train=6, n_test=4, t_s=10, t_d=12, embed_dim=8,
                                        vocab=60, sents=(2, 12), words=(3, 9), epochs=1,
                                        batch_size=4),
    "influence-exact": workloads.InfluenceExact(n_articles=12, n_users=200, edge_draws=900,
                                                pool=30, pubs=(2, 4), epochs=1, batch_size=4),
}


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(spec, workload):
    final, report = run.run(workload, SEED, 0, 0, sizes=TINY[workload])
    assert final["correct"], report["worker"]["failures"]
    assert final["failed"] == 0 and final["attempted"] > 0
    assert [m["name"] for m in spec["end_to_end"]] == list(final["metrics"])
    for name, metric in final["metrics"].items():
        assert metric["value"] > 0, name
    reps = report["worker"]["reps"]
    assert len(reps) == 2 and all(r["kind"] == "plain" for r in reps)
    assert report["worker"]["digests"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(spec, workload):
    final, report = run.run(workload, SEED, 0, 1, sizes=TINY[workload])
    assert final["correct"], report["worker"]["failures"]
    assert [m["name"] for m in spec["per_layer"]] == list(final["metrics"])
    values = {name: m["value"] for name, m in final["metrics"].items()}
    assert values["nncore.conv1x2_full.flops"] > 0
    assert values["nncore.conv1x2_full.text.calls"] > 0
    assert values["pipeline.prepare_data.calls"] >= 2
    assert 0 < values["corpus.pad_row_share"] < 1
    assert values["pipeline.train_step_ms.samples"] > 0
    if workload == "influence-exact":
        assert values["social.user_influence.calls"] > 0
        assert 0 < values["social.user_influence.unique_ratio"] <= 1
    else:
        assert values["social.user_influence.calls"] == 0
    kinds = [r["kind"] for r in report["worker"]["reps"]]
    assert kinds == ["plain", "traced"]


def test_same_seed_gives_identical_outputs():
    _, a = run.run("toy-ablate", SEED + 1, 0, 0, sizes=TINY["toy-ablate"])
    _, b = run.run("toy-ablate", SEED + 1, 0, 0, sizes=TINY["toy-ablate"])
    assert a["worker"]["digests"] == b["worker"]["digests"]
    assert a["worker"]["test_accuracy"] == b["worker"]["test_accuracy"]


def test_level_set_influence_hand_case():
    # b and c follow a; d follows b and c; a follows d, closing a cycle
    followers = {"a": {"b", "c"}, "b": {"d"}, "c": {"d"}, "d": {"a"}}
    cases = {("a", None): (2 + 0.5 * 1) / 3, ("a", 1): 2 / 3, ("d", None): (1 + 0.5 * 2) / 3}
    graph = run.import_program().social.graph_from_edges(
        [(f, u) for u, fs in followers.items() for f in fs], p=0.5)
    for (u, d_max), want in cases.items():
        assert checks.level_set_influence(followers, 4, u, 0.5, d_max) == want
        graph.d_max = d_max
        assert run.import_program().social.user_influence(graph, u) == want


def test_fails_without_program_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-ablate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
