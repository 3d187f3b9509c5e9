"""End-to-end command-line runs against a generated corpus."""

import filecmp
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

import fakereal
from fakereal import corpus, pipeline, social
from fakereal.cli import _config_from_args, build_parser, main
from fakereal.fileio import CACHE_DIR

# the model flags of FAST_FLAGS, which eval of its checkpoints takes too
MODEL_FLAGS = ["--dense-width", "8"]
FAST_FLAGS = [*MODEL_FLAGS, "--dropout", "0.0", "--batch-size", "8", "--epochs", "1"]

# the flag of each config key, spelt out so that a change to the rule
# that derives them shows here
CONFIG_FLAGS = {
    "data.train": "--train",
    "data.test": "--test",
    "data.embeddings": "--embeddings",
    "data.publishers": "--publishers",
    "data.edges": "--edges",
    "data.preset": "--preset",
    "model.variant": "--variant",
    "model.filters": "--filters",
    "model.dense_width": "--dense-width",
    "model.dropout": "--dropout",
    "model.t_s": "--t-s",
    "model.t_d": "--t-d",
    "train.lr": "--lr",
    "train.epochs": "--epochs",
    "train.max_epochs": "--max-epochs",
    "train.patience": "--patience",
    "train.val_fraction": "--val-fraction",
    "train.batch_size": "--batch-size",
    "train.stop_at_train_acc": "--stop-at-train-acc",
    "train.seed": "--seed",
    "influence.mode": "--influence-mode",
    "influence.p": "--influence-p",
    "influence.d_max": "--influence-d-max",
    "coldstart.fraction": "--fraction",
}


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_synth"))
    code = main(["synth", "--out", out, "--seed", "3",
                 "--n-real", "8", "--n-fake", "8", "--n-users", "10",
                 "--vocab-size", "20", "--embed-dim", "5",
                 "--signal", "1.0", "--test-fraction", "0.25"])
    assert code == 0
    return out


def data_flags(corpus_dir):
    return ["--train", os.path.join(corpus_dir, "train.jsonl"),
            "--test", os.path.join(corpus_dir, "test.jsonl"),
            "--embeddings", os.path.join(corpus_dir, "embeddings.txt"),
            "--publishers", os.path.join(corpus_dir, "publishers.tsv"),
            "--t-s", "10"]


def read(directory, name):
    with open(os.path.join(str(directory), name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def cli_run(cli_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_run"))
    code = main(["train", *data_flags(cli_corpus), *FAST_FLAGS, "--out", out])
    assert code == 0
    return out


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--epochs", "3"])
        assert args.command == "train" and args.epochs == "3"
        args = parser.parse_args(["synth", "--out", "d", "--n-real", "4"])
        assert args.n_real == 4

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_a_flag_for_each_config_key_and_no_other(self, capsys):
        assert sorted(CONFIG_FLAGS) == sorted(pipeline.CONFIG_SCHEMA)
        for command in ("train", "eval", "ablate", "coldstart", "stats"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
            extra = {"eval": {"--checkpoint"}}.get(command, set())
            assert flags == {"--help", "--config", "--out", *CONFIG_FLAGS.values(), *extra}

    @pytest.mark.parametrize("key", CONFIG_FLAGS)
    def test_a_flag_sets_its_key(self, key):
        args = build_parser().parse_args(["train", CONFIG_FLAGS[key], "V"])
        with mock.patch.object(pipeline, "load_config",
                               lambda path, overrides: overrides):
            assert _config_from_args(args) == {key: "V"}

    def test_an_empty_preset_flag_clears_the_files_preset(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("data.preset = politifact\n", encoding="utf-8")
        args = build_parser().parse_args(["train", "--config", str(path), "--preset", ""])
        config = _config_from_args(args)
        assert (config.preset, config.t_d) == ("", 0)


class TestSynthCommand:
    def test_writes_the_full_layout(self, cli_corpus, capsys):
        for name in ("train.jsonl", "test.jsonl", "publishers.tsv",
                     "edges.txt", "embeddings.txt"):
            assert os.path.exists(os.path.join(cli_corpus, name))

    def test_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        cli, api = str(tmp_path / "cli"), str(tmp_path / "api")
        assert main(["synth", "--out", cli, "--seed", "3"]) == 0
        pipeline.write_synthetic(pipeline.gen_synthetic(pipeline.SynthSpec(), 3), api)
        files = tree(cli)
        assert files == tree(api) and "publishers.tsv" in files
        assert filecmp.cmpfiles(cli, api, files, shallow=False)[1:] == ([], [])

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--n-users", "5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_run_directory(self, cli_run, capsys):
        for name in ("config.snapshot", "train.log", "checkpoint.bin"):
            assert os.path.exists(os.path.join(cli_run, name))

    def test_prints_progress(self, cli_corpus, tmp_path, capsys):
        code = main(["train", *data_flags(cli_corpus), *FAST_FLAGS,
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trained full for 1 epochs" in out
        assert "final train accuracy" in out
        assert "checkpoint:" in out

    def test_config_error_exits_two(self, cli_corpus, tmp_path, capsys):
        code = main(["train", *data_flags(cli_corpus), "--variant", "cnn",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "model.variant" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self, tmp_path, capsys):
        code = main(["train", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown preset 'nope'" in capsys.readouterr().err

    def test_missing_data_exits_two(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path)])
        assert code == 2
        assert "data.train" in capsys.readouterr().err


class TestEvalCommand:
    def test_reads_default_checkpoint(self, cli_corpus, cli_run, capsys):
        code = main(["eval", *data_flags(cli_corpus), *MODEL_FLAGS, "--out", cli_run])
        out = capsys.readouterr().out
        assert code == 0
        assert "test articles: 4" in out
        assert "accuracy:" in out
        assert os.path.exists(os.path.join(cli_run, "report.tsv"))
        assert out == read(cli_run, "report.txt")

    def test_explicit_checkpoint_flag(self, cli_corpus, cli_run, tmp_path, capsys):
        code = main(["eval", *data_flags(cli_corpus), *MODEL_FLAGS, "--out", str(tmp_path),
                     "--checkpoint", os.path.join(cli_run, "checkpoint.bin")])
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "report.txt"))

    def test_missing_checkpoint_exits_one(self, cli_corpus, tmp_path, capsys):
        code = main(["eval", *data_flags(cli_corpus), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cut_checkpoint_exits_one(self, cli_corpus, cli_run, tmp_path, capsys):
        with open(os.path.join(cli_run, "checkpoint.bin"), "rb") as fh:
            good = fh.read()
        cut = tmp_path / "checkpoint.bin"
        cut.write_bytes(good[:len(good) - 10])
        code = main(["eval", *data_flags(cli_corpus), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: damaged checkpoint")
        assert "Traceback" not in err


class TestStatsCommand:
    def test_prints_and_writes_table(self, cli_corpus, tmp_path, capsys):
        code = main(["stats", "--train", os.path.join(cli_corpus, "train.jsonl"),
                     "--publishers", os.path.join(cli_corpus, "publishers.tsv"),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "real mean" in out and "ncf_over_nct" in out
        assert os.path.exists(os.path.join(str(tmp_path), "stats.tsv"))
        assert out == read(tmp_path, "stats.txt")

    def test_needs_a_training_corpus(self, tmp_path, capsys):
        code = main(["stats", "--out", str(tmp_path)])
        assert code == 2
        assert "stats needs" in capsys.readouterr().err

    def test_a_count_too_large_exits_one(self, cli_corpus, tmp_path, capsys):
        publishers = tmp_path / "publishers.tsv"
        publishers.write_text(f"u1\t3\nu2\t{10**30}\n")
        code = main(["stats", "--train", os.path.join(cli_corpus, "train.jsonl"),
                     "--publishers", str(publishers), "--out", str(tmp_path / "stats")])
        assert code == 1
        err = capsys.readouterr().err
        assert "publishers.tsv: line 2: follower count above" in err
        assert "Traceback" not in err


class TestExperimentCommands:
    def test_ablate_prints_all_variants(self, cli_corpus, tmp_path, capsys):
        code = main(["ablate", *data_flags(cli_corpus), *FAST_FLAGS,
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        for variant in ("slcnn", "slcnn_c", "slcnn_i", "full"):
            assert variant in out
            assert os.path.exists(os.path.join(str(tmp_path), variant, "report.tsv"))
        assert out == read(tmp_path, "report.txt")

    def test_coldstart_prints_fraction_rows(self, cli_corpus, tmp_path, capsys):
        code = main(["coldstart", *data_flags(cli_corpus), *FAST_FLAGS,
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("fraction", "0.1", "0.3"):
            assert token in out
        assert os.path.exists(os.path.join(str(tmp_path), "frac_0.2", "report.tsv"))
        assert out == read(tmp_path, "report.txt")

    def test_config_file_flag(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.dense_width = 8\ntrain.epochs = 1\n", encoding="utf-8")
        code = main(["train", *data_flags(cli_corpus), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        snapshot = (tmp_path / "run" / "config.snapshot").read_text(encoding="utf-8")
        assert "model.dense_width = 8\n" in snapshot
        assert "train.epochs = 1\n" in snapshot


class TestModuleEntryPoint:
    def test_python_m_fakereal(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(fakereal.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "fakereal", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: fakereal")


def tree(root):
    """Every file under `root`, by its path relative to `root`."""
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


class TestEdgeListRuns:
    def test_a_warm_cache_gives_the_same_run_directories(self, tmp_path):
        """train, eval and stats with an edge list, first with no cache
        beside the inputs and then with the caches the first run wrote."""
        data = str(tmp_path / "data")
        assert main(["synth", "--out", data, "--seed", "5", "--n-real", "8", "--n-fake", "8",
                     "--n-users", "12", "--vocab-size", "20", "--embed-dim", "5",
                     "--test-fraction", "0.25"]) == 0
        edges = ["--edges", os.path.join(data, "edges.txt"), "--influence-mode", "exact"]
        for run in ("cold", "warm"):
            out = str(tmp_path / run)
            with mock.patch.object(social, "_index_edges", wraps=social._index_edges) as index, \
                    mock.patch.object(social, "_reach_levels", wraps=social._reach_levels) as sweep, \
                    mock.patch.object(corpus, "split_article", wraps=corpus.split_article) as split:
                assert main(["train", *data_flags(data), *edges, *FAST_FLAGS,
                             "--out", out]) == 0
                # the cold train sweeps every publisher once
                assert sweep.call_count == (run == "cold")
                assert main(["eval", *data_flags(data), *edges, *MODEL_FLAGS,
                             "--out", out]) == 0
                assert main(["stats", "--train", os.path.join(data, "train.jsonl"), *edges,
                             "--out", os.path.join(out, "stats")]) == 0
            # the cold run parses the edge list and tokenizes the 16 articles
            # once, and the warm run not at all; eval, stats and the warm run
            # sweep no publisher
            assert index.call_count == (run == "cold")
            assert split.call_count == (16 if run == "cold" else 0)
            assert sweep.call_count == (run == "cold")
            assert sorted(os.listdir(os.path.join(data, CACHE_DIR))) == [
                "edges.txt.graph", "edges.txt.influence", "embeddings.txt.vectors",
                "test.jsonl.tokens", "train.jsonl.tokens"]
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        files = tree(cold)
        assert "report.tsv" in files and os.path.join("stats", "stats.tsv") in files
        assert tree(warm) == files
        assert filecmp.cmpfiles(cold, warm, files, shallow=False)[1:] == ([], [])
