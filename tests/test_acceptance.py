"""End-to-end acceptance checks.

Each test prints one PASS line with the measured values so a -s run reads
as a checklist: architecture width law, end-to-end gradients, influence
oracle equivalence, learning capacity, publisher-signal ablation,
cold-start degradation, metric/normalization invariants, and determinism.
"""

import os

import numpy as np
import pytest

from fakereal import fusion, social
from fakereal.corpus import DATASET_PRESETS
from fakereal.pipeline import (
    SynthSpec,
    evaluate,
    evaluate_model,
    eval_report,
    gen_synthetic,
    prepare_data,
    train,
    write_synthetic,
)
from fakereal.seeds import rng_for
from fakereal.slcnn import required_hcbs

from conftest import grad_check, synth_config, width_trace, with_users

TRAIN_SEEDS = (0, 1, 2, 3, 4)

# corpus with a strong publisher signal and a weak text signal: the
# ablation and cold-start directions are read off this dataset
SIGNAL_SPEC = SynthSpec(
    n_real=100, n_fake=100, publisher_signal=0.9, text_signal=0.3,
    vocab_size=25, marker_rate=0.2,
    sents_min=2, sents_max=4, words_min=4, words_max=7,
)

COLDSTART_FRACTIONS = (0.0, 0.1, 0.2, 0.3)


def median(values):
    return float(np.median(values))


@pytest.fixture(scope="module")
def overfit_paths(tmp_path_factory):
    data = gen_synthetic(SynthSpec(n_real=20, n_fake=20, publisher_signal=0.5), seed=2)
    out = str(tmp_path_factory.mktemp("overfit"))
    paths = write_synthetic(data, out, test_fraction=0.0)
    return dict(paths, test=paths["train"])


@pytest.fixture(scope="module")
def overfit_config(overfit_paths):
    return synth_config(overfit_paths, overrides={
        "train.epochs": "300",
        "train.batch_size": "8",
        "train.stop_at_train_acc": "1.0",
    })


@pytest.fixture(scope="module")
def overfit_bundle(overfit_config):
    return prepare_data(overfit_config)


@pytest.fixture(scope="module")
def signal_paths(tmp_path_factory):
    data = gen_synthetic(SIGNAL_SPEC, seed=100)
    out = str(tmp_path_factory.mktemp("signal"))
    return write_synthetic(data, out, test_fraction=0.5)


def signal_run_config(paths, variant, seed, fraction=0.0):
    return synth_config(paths, overrides={
        "model.variant": variant,
        "train.epochs": "100",
        "train.batch_size": "16",
        "train.stop_at_train_acc": "1.0",
        "train.seed": str(seed),
        "coldstart.fraction": str(fraction),
    })


@pytest.fixture(scope="module")
def signal_runs(signal_paths):
    """Test accuracy per seed for the content-only variant and for the
    fused variant at each cold-start perturbation level."""
    bundle = prepare_data(signal_run_config(signal_paths, "full", 0))
    accs = {"slcnn": [], "full": {f: [] for f in COLDSTART_FRACTIONS}}
    for seed in TRAIN_SEEDS:
        config = signal_run_config(signal_paths, "slcnn", seed)
        result = train(config, bundle=bundle)
        accs["slcnn"].append(evaluate_model(result.model, bundle, config).accuracy)
        for fraction in COLDSTART_FRACTIONS:
            config = signal_run_config(signal_paths, "full", seed, fraction)
            result = train(config, bundle=bundle)
            accs["full"][fraction].append(
                evaluate_model(result.model, bundle, config).accuracy)
    return accs


def test_width_recurrence_reference_values():
    assert required_hcbs(46) == 4
    assert required_hcbs(13) == 2
    trace = width_trace(46)
    assert trace == [46, 45, 44, 22, 21, 20, 10, 9, 8, 4, 3, 2, 1]
    assert DATASET_PRESETS["politifact"]["t_s"] == 46
    print(f"\nPASS width recurrence: required_hcbs(46)=4, required_hcbs(13)=2, "
          f"trace(46)={trace}")


def test_end_to_end_gradient_check(dense_oracle):
    """Backprop against central finite differences, loss to parameters.

    The narrow probe (k=2, dense 8, 10x4 rows, body depth 2) covers the
    three variants whose integrator rows reduce at that width; the fused
    variant's 7-wide rows stall there, so it runs at k=8, its narrowest
    working width.  Probe coordinates are sampled on data chosen to sit
    away from relu kinks and pool ties, where finite differences and the
    subgradient convention legitimately disagree (the routing itself is
    pinned deterministically in the op-level tests).
    """
    checked = 0
    worst = 0.0

    def check(variant, k, data_seed, n_coords, sample_seed):
        rng = np.random.default_rng(data_seed)
        model = fusion.init_model(variant, 10, 2, 4, rng_for(0, "init"), k=k,
                                  dense_width=8, dropout_rate=0.0)
        # each word slot its own table row: the same inputs as dense rows
        ids, vectors = dense_oracle.as_tokens(rng.normal(size=(3, 3, 10, 4)) * 0.5 + 0.3)
        # full EXPLICIT_ORDER rows; only the variant's columns are drawn
        cols = [fusion.EXPLICIT_ORDER.index(name) for name in fusion.VARIANTS[variant]]
        explicit = np.zeros((3, 5))
        explicit[:, cols] = 0.2 + 0.6 * rng.random((3, len(cols)))
        labels = np.array([0, 1, 0])

        def loss_fn():
            return fusion.loss_batch(model, ids, vectors, explicit, labels, "eval")

        return grad_check(loss_fn, model.param_tensors(),
                                 n_coords=n_coords, seed=sample_seed)

    for variant, k, data_seed, n_coords, sample_seed in (
            ("slcnn", 2, 1, 100, 1),
            ("slcnn_c", 2, 0, 100, 1),
            ("slcnn_i", 2, 0, 100, 1),
            ("full", 8, 1, 150, 13)):
        err = check(variant, k, data_seed, n_coords, sample_seed)
        assert err <= 1e-3, f"{variant}: {err}"
        checked += n_coords
        worst = max(worst, err)

    assert checked >= 200
    print(f"\nPASS gradient check: {checked} sampled coordinates across all "
          f"four variants, max relative error {worst:.2e} (tolerance 1e-3)")


class TestInfluenceMatchesBruteforce:
    """The bitmask-sweep influence, one user or a whole table at once, must
    agree with naive level-set enumeration on every graph, not just
    friendly ones."""

    P_CYCLE = (0.0, 0.3, 0.5, 1.0)

    def check_graph(self, edges, n, p, oracle):
        users = [f"u{i}" for i in range(n)]
        g = with_users(social.graph_from_edges(edges, p=p), users)
        followers = {}
        for follower, followed in edges:
            followers.setdefault(followed, set()).add(follower)
        worst = 0.0
        table = social.influence_table(g, users)   # every user in one sweep
        for u in users:
            got = social.user_influence(g, u)
            want = oracle(followers, n, u, p)
            worst = max(worst, abs(got - want))
            assert table[u] == got
        assert worst <= 1e-12
        return n

    def test_hand_cases_exact(self):
        star = social.graph_from_edges([("a", "u"), ("b", "u"), ("c", "u")])
        assert social.user_influence(star, "u") == 1.0
        chain = social.graph_from_edges([("a", "u"), ("b", "a")], p=0.5)
        assert social.user_influence(chain, "u") == 0.75
        print("\nPASS influence hand cases: star=1.0, two-level chain(p=0.5)=0.75")

    def test_exhaustive_small_graphs(self, influence_oracle):
        # the one-node graph has no audience (N - 1 = 0) and is rejected
        with pytest.raises(ValueError, match="at least 2 users"):
            social.user_influence(with_users(social.FollowerGraph(), ["u0"]), "u0")
        checks = 0
        for n in (2, 3, 4):
            pairs = [(f"u{i}", f"u{j}") for i in range(n) for j in range(n) if i != j]
            for mask in range(1 << len(pairs)):
                edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                p = self.P_CYCLE[mask % len(self.P_CYCLE)]
                checks += self.check_graph(edges, n, p, influence_oracle)
        print(f"\nPASS influence exhaustive: every digraph on 2 to 4 nodes, "
              f"{checks} (graph, user) pairs within 1e-12 of enumeration")

    def test_sampled_larger_graphs(self, influence_oracle):
        rng = np.random.default_rng(12)
        checks = 0
        for n, count in ((5, 400), (6, 400), (12, 200)):
            pairs = [(f"u{i}", f"u{j}") for i in range(n) for j in range(n) if i != j]
            for _ in range(count):
                density = float(rng.uniform(0.05, 0.6))
                edges = [e for e in pairs if rng.random() < density]
                p = float(rng.choice(self.P_CYCLE))
                checks += self.check_graph(edges, n, p, influence_oracle)
        print(f"\nPASS influence sampled: 400 random graphs each on 5 and 6 nodes "
              f"plus 200 on 12 nodes, {checks} pairs within 1e-12")


def test_overfit_capacity(overfit_config, overfit_bundle):
    epochs_used = []
    for seed in TRAIN_SEEDS:
        config = overfit_config.with_overrides({"train.seed": str(seed)})
        result = train(config, bundle=overfit_bundle)
        final = result.history[-1]["train_acc"]
        assert final == 1.0, f"seed {seed}: train accuracy {final} after " \
                             f"{result.epochs_run} epochs"
        assert result.epochs_run <= 300
        epochs_used.append(result.epochs_run)
    print(f"\nPASS overfit capacity: 40-article corpus memorized at lr 0.001, "
          f"train accuracy 1.0 within {max(epochs_used)} epochs "
          f"(per seed: {epochs_used})")


def test_publisher_signal_ablation_gap(signal_runs):
    full_med = median(signal_runs["full"][0.0])
    slcnn_med = median(signal_runs["slcnn"])
    gap = full_med - slcnn_med
    assert gap >= 0.10, (f"median accuracy gap {gap:.3f} "
                         f"(full {full_med:.3f}, content-only {slcnn_med:.3f})")
    print(f"\nPASS ablation gap: median accuracy full {full_med:.3f} vs "
          f"content-only {slcnn_med:.3f}, gap {gap:.3f} >= 0.10")


def test_coldstart_degradation_direction(signal_runs):
    meds = [median(signal_runs["full"][f]) for f in COLDSTART_FRACTIONS]
    slcnn_med = median(signal_runs["slcnn"])
    for earlier, later in zip(meds, meds[1:]):
        assert later <= earlier + 0.02, f"medians increase: {meds}"
    for fraction, med in zip(COLDSTART_FRACTIONS, meds):
        assert med >= slcnn_med - 0.02, (
            f"fraction {fraction}: median {med:.3f} fell more than 2 points "
            f"below the content-only baseline {slcnn_med:.3f}")
    print(f"\nPASS cold-start direction: medians {[f'{m:.3f}' for m in meds]} "
          f"at fractions {COLDSTART_FRACTIONS} non-increasing within 0.02 and "
          f">= content-only {slcnn_med:.3f} - 0.02")


def test_metric_and_scaler_invariants():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        t = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        rep = eval_report(t, p)
        tp = sum(1 for a, b in zip(t, p) if a == 1 and b == 1)
        fp = sum(1 for a, b in zip(t, p) if a == 0 and b == 1)
        tn = sum(1 for a, b in zip(t, p) if a == 0 and b == 0)
        fn = sum(1 for a, b in zip(t, p) if a == 1 and b == 0)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
        assert rep.accuracy == (tp + tn) / n
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert (rep.precision, rep.recall, rep.f1) == (prec, rec, f1)

    scaler = social.fit_minmax(np.array([[2.0], [4.0], [10.0]]))
    scaled = social.apply_minmax(scaler, np.array([[2.0], [4.0], [10.0]]))
    assert scaled[:, 0].tolist() == [0.0, 0.25, 1.0]

    for trial in range(50):
        raw = rng.normal(size=(20, 6)) * rng.uniform(0.1, 50.0)
        raw[:, 3] = raw[0, 3]                       # one constant column
        scaler = social.fit_minmax(raw)
        out = social.apply_minmax(scaler, raw)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(out[:, 3] == 0.0)
        for col in (0, 1, 2, 4, 5):
            assert out[:, col].min() == 0.0 and out[:, col].max() == 1.0

    print("\nPASS metric and scaler invariants: 1000 random label sets match the "
          "counting oracle exactly; min-max lands in [0,1] with endpoints "
          "attained and constant columns at 0")


def test_run_determinism(tmp_path_factory):
    data = gen_synthetic(SynthSpec(n_real=8, n_fake=8, n_users=10, vocab_size=20,
                                   embed_dim=5, pubs_max=2), seed=6)
    corpus_dir = str(tmp_path_factory.mktemp("det_corpus"))
    paths = write_synthetic(data, corpus_dir, test_fraction=0.5)
    config = synth_config(paths, overrides={"train.epochs": "15",
                                            "train.batch_size": "8"})
    reports = []
    for name in ("first", "second"):
        out = str(tmp_path_factory.mktemp(f"det_{name}"))
        result = train(config, out_dir=out)
        evaluate(config, result.checkpoint_path, out_dir=out)
        with open(os.path.join(out, "report.tsv"), "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]
    assert b"metric.accuracy" in reports[0]
    print("\nPASS determinism: identical config and seed reproduce report.tsv "
          "byte for byte")
