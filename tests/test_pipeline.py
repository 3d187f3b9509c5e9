"""Config handling, data preparation, training, evaluation, experiments,
and the synthetic corpus generator."""

import dataclasses
import os
import re
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakereal import corpus, fusion, nncore, social
from fakereal import pipeline
from fakereal.corpus import Label, NewsArticle
from fakereal.fileio import atomic_write
from fakereal.fusion import EXPLICIT_ORDER
from fakereal.pipeline import (
    CONFIG_SCHEMA,
    ConfigError,
    RunConfig,
    SynthSpec,
    cold_start_perturb,
    coldstart_experiment,
    eval_report,
    evaluate,
    evaluate_model,
    export_stats,
    gen_synthetic,
    load_config,
    load_graph,
    load_model,
    prepare_data,
    save_model,
    split_corpus,
    train,
    write_config_snapshot,
    write_report_files,
    write_stats,
    write_synthetic,
)
from fakereal.seeds import rng_for
from fakereal.slcnn import required_hcbs

from conftest import (
    ListAdamState,
    assert_same_bits,
    chain_depthwise_pool,
    count_graph,
    float_load_embeddings,
    followers,
    list_adam_step,
    no_hashing,
    synth_config,
)

# desk-scale corpus shared by the data/training tests below
SMALL_SPEC = SynthSpec(
    n_real=10, n_fake=10, n_users=10, vocab_size=30, n_markers=4,
    embed_dim=6, publisher_signal=1.0, text_signal=0.5,
    sents_min=2, sents_max=3, words_min=3, words_max=5,
    pubs_min=1, pubs_max=2,
    followers_real=(3, 6), followers_fake=(0, 2),
)

# filters stay at 8: the feature integrator rows are k + m wide and must
# reduce to width 1, which holds for all four variants at k = 8
FAST_TRAIN = {
    "model.dense_width": "8",
    "model.dropout": "0.0",
    "train.batch_size": "8",
    "train.epochs": "2",
}


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    data = gen_synthetic(SMALL_SPEC, seed=7)
    out = tmp_path_factory.mktemp("synth")
    return write_synthetic(data, str(out), test_fraction=0.3)


@pytest.fixture(scope="module")
def small_config(synth_paths):
    return synth_config(synth_paths, overrides=FAST_TRAIN)


@pytest.fixture(scope="module")
def small_bundle(small_config):
    return prepare_data(small_config)


@pytest.fixture(scope="module")
def trained_run(small_config, small_bundle, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    result = train(small_config, out_dir=out, bundle=small_bundle)
    return result, out


def copy_inputs(paths, root):
    """The files of a write_synthetic() path map copied into `root`, where
    no cache has been written yet; returns their path map."""
    return {key: shutil.copy(path, root) for key, path in paths.items()}


def assert_same_bundle(got, want):
    """Two DataBundles hold the same values, arrays bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, social.MinMaxScaler):
            a, b = np.stack([a.mins, a.maxs]), np.stack([b.mins, b.maxs])
        if isinstance(b, np.ndarray):
            assert_same_bits(a, b)
        else:
            assert a == b, f.name


def _reducible(width):
    try:
        required_hcbs(width)
    except ValueError:
        return False
    return True


# widths a stack of at least one block reduces
REDUCIBLE = [w for w in range(2, 100) if _reducible(w)]
# a config value the flat file format keeps: one line, no surrounding
# whitespace, and no '#' that opens the value or follows whitespace
FILE_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")) | st.just(" "),
                    max_size=20).filter(
    lambda v: v == v.strip() and not re.search(r"(?:^|\s)#", v))


@st.composite
def run_configs(draw):
    """Valid RunConfig values for every key."""
    variant = draw(st.sampled_from(sorted(fusion.VARIANTS)))
    width = len(fusion.VARIANTS[variant])
    values = {
        "model.variant": variant,
        "model.t_s": draw(st.sampled_from(REDUCIBLE)),
        "model.filters": draw(st.sampled_from([k for k in range(1, 70)
                                               if not width or _reducible(k + width)])),
        "data.preset": draw(st.sampled_from(["", *corpus.DATASET_PRESETS])),
        "influence.mode": draw(st.sampled_from(["exact", "follower_count"])),
        "model.dropout": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "coldstart.fraction": draw(st.floats(0.0, 1.0)),
        "train.val_fraction": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "influence.p": draw(st.floats(0.0, 1.0)),
        "train.lr": draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        "train.stop_at_train_acc": draw(st.floats(0.0, 1.0)),
        "train.epochs": draw(st.integers(-1, 10**6)),
    }
    for key, (_, typ, _, _) in CONFIG_SCHEMA.items():
        if key in values:
            continue
        if typ is str:
            values[key] = draw(FILE_TEXT)
        elif typ is int:
            values[key] = draw(st.integers(1, 10**9))
        else:
            values[key] = draw(st.floats())
    return values


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.variant == "full"
        assert config.filters == 8
        assert config.dense_width == 64
        assert config.dropout == 0.5
        assert config.t_s == 46
        assert config.t_d == 0
        assert config.lr == 0.001
        assert config.epochs == -1
        assert config.max_epochs == 200
        assert config.patience == 10
        assert config.val_fraction == 0.1
        assert config.batch_size == 32
        assert config.stop_at_train_acc == 0.0
        assert config.seed == 0
        assert config.influence_mode == "follower_count"
        assert config.influence_p == 0.5
        assert config.influence_d_max == 0
        assert config.coldstart_fraction == 0.0
        assert config.train_path == ""

    def test_values_parse_from_strings(self):
        config = RunConfig({"model.filters": "10", "train.lr": "0.01",
                            "model.variant": "slcnn_c"})
        assert config.filters == 10
        assert config.lr == 0.01
        assert config.variant == "slcnn_c"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            RunConfig().not_a_key

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig({"model.nope": "1"})

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="cannot parse 'abc' as int"):
            RunConfig({"model.filters": "abc"})

    @pytest.mark.parametrize("key,value,message", [
        ("model.variant", "cnn", "model.variant must be one of"),
        ("influence.mode", "bfs", "influence.mode must be"),
        ("data.preset", "buzzfeed", "unknown preset"),
        ("model.dropout", "1.0", r"model.dropout must be in \[0, 1\)"),
        ("coldstart.fraction", "1.5", r"coldstart.fraction must be in \[0, 1\]"),
        ("train.val_fraction", "1.0", r"train.val_fraction must be in \[0, 1\)"),
        ("influence.p", "1.5", r"influence.p must be in \[0, 1\]"),
        ("model.filters", "0", "model.filters must be >= 1"),
        ("model.t_s", "0", "model.t_s must be >= 1"),
        ("model.t_s", "1", "model.t_s: width 1 leaves the text stack no block"),
        ("train.batch_size", "0", "train.batch_size must be >= 1"),
        ("model.t_d", "-1", "model.t_d must be >= 0"),
        ("train.max_epochs", "-1", "train.max_epochs must be >= 0"),
        ("train.patience", "-1", "train.patience must be >= 0"),
        ("influence.d_max", "-1", "influence.d_max must be >= 0"),
        ("train.epochs", "-2", "train.epochs must be >= -1"),
        ("train.lr", "0.0", "train.lr must be > 0"),
        ("train.lr", "-1e-3", "train.lr must be > 0 and finite, got -0.001"),
        ("train.lr", "nan", "train.lr must be > 0 and finite, got nan"),
        ("train.lr", "inf", "train.lr must be > 0 and finite, got inf"),
        ("train.stop_at_train_acc", "nan", r"train.stop_at_train_acc must be in \[0, 1\], got nan"),
        ("train.stop_at_train_acc", "-3", r"train.stop_at_train_acc must be in \[0, 1\]"),
        ("train.stop_at_train_acc", "7", r"train.stop_at_train_acc must be in \[0, 1\], got 7.0"),
        ("train.stop_at_train_acc", "-inf", r"train.stop_at_train_acc must be in \[0, 1\]"),
        # a number that is not a string: an int key takes only an integral non-bool
        ("model.filters", 8.9, "config key model.filters: 8.9 is not an integer"),
        ("train.epochs", True, "config key train.epochs: True is not an integer"),
        ("model.t_s", float("nan"), "config key model.t_s: cannot parse nan as int"),
        ("model.t_s", float("inf"), "config key model.t_s: cannot parse inf as int"),
        ("train.lr", float("nan"), "train.lr must be > 0 and finite, got nan"),
    ])
    def test_validation(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig({key: value})

    def test_int_keys_take_integral_numbers(self):
        config = RunConfig({"model.filters": 6.0, "train.epochs": np.int64(3)})
        assert (config.filters, config.epochs) == (6, 3)
        assert type(config.filters) is int

    @pytest.mark.parametrize("values,message", [
        ({"model.t_s": "6"}, "model.t_s: width 6 cannot reduce to 1"),
        ({"model.t_s": "8"}, "model.t_s: width 8 cannot reduce to 1"),
        ({"model.filters": "4"}, "model.filters = 4 with variant full: integrator width 9 "
                                 "cannot reduce"),
        ({"model.filters": "12", "model.variant": "slcnn_c"},
         "model.filters = 12 with variant slcnn_c: integrator width 15 cannot reduce"),
    ])
    def test_unreducible_shapes_fail_fast(self, values, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(values)

    def test_filters_only_bound_by_the_configured_variant(self):
        # without explicit features there is no integrator to reduce
        assert RunConfig({"model.filters": "4", "model.variant": "slcnn"}).filters == 4
        assert RunConfig({"model.filters": "2", "model.variant": "slcnn_i"}).filters == 2
        with pytest.raises(ConfigError, match="variant full"):
            RunConfig({"model.filters": "4", "model.variant": "slcnn"}).with_overrides(
                {"model.variant": "full"})

    def test_epochs_sentinel_values_allowed(self):
        assert RunConfig({"train.epochs": "-1"}).epochs == -1
        assert RunConfig({"train.epochs": "0"}).epochs == 0

    def test_with_overrides_returns_new_config(self):
        base = RunConfig()
        updated = base.with_overrides({"model.filters": "6"})
        assert updated.filters == 6
        assert base.filters == 8
        with pytest.raises(ConfigError, match="unknown config key"):
            base.with_overrides({"bogus": "1"})

    def test_to_pairs_sorted_with_repr_floats(self):
        pairs = RunConfig().to_pairs()
        keys = [k for k, _ in pairs]
        assert keys == sorted(CONFIG_SCHEMA)
        as_dict = dict(pairs)
        assert as_dict["train.lr"] == "0.001"
        assert as_dict["model.filters"] == "8"
        assert as_dict["data.train"] == ""

    def test_readme_table_lists_every_key_and_default(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            section = fh.read().split("\n## Configuration\n")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([^`]+)` \| *(?:`([^`]*)`)? *\|", section, re.M)
        assert dict(rows) == {key: str(default)
                              for key, (_, _, default, _) in CONFIG_SCHEMA.items()}
        assert len(rows) == len(CONFIG_SCHEMA)


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_file_parsing_with_comments(self, tmp_path):
        path = self.write(tmp_path, (
            "# experiment settings\n"
            "\n"
            "model.variant = slcnn_i\n"
            "train.lr = 0.01   # warm\n"
            "model.t_s = 12\n"
        ))
        config = load_config(path=path)
        assert config.variant == "slcnn_i"
        assert config.lr == 0.01
        assert config.t_s == 12

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = self.write(tmp_path, (
            "data.train = runs/#3/train.jsonl\n"
            "data.test = runs/#3/test.jsonl # held out\n"
            "#model.t_s = 99\n"
            "model.t_s = 12\t# tab before the comment\n"
        ))
        config = load_config(path=path)
        assert config.train_path == "runs/#3/train.jsonl"
        assert config.test_path == "runs/#3/test.jsonl"
        assert config.t_s == 12

    def test_missing_equals_names_line(self, tmp_path):
        path = self.write(tmp_path, "model.variant slcnn\n")
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            load_config(path=path)

    def test_unknown_key_names_path_and_line(self, tmp_path):
        path = self.write(tmp_path, "model.t_s = 12\nmodel.nope = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path=path)
        assert path in str(err.value)
        assert "line 2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(path=str(tmp_path / "absent.cfg"))

    def test_preset_fills_shape_keys(self):
        config = load_config(overrides={"data.preset": "gossipcop"})
        assert (config.t_s, config.t_d) == (46, 85)
        assert config.preset == "gossipcop"

    def test_precedence_preset_then_file_then_overrides(self, tmp_path):
        path = self.write(tmp_path, (
            "data.preset = politifact\n"
            "model.t_d = 5\n"
            "train.seed = 3\n"
        ))
        config = load_config(path=path)
        assert config.t_s == 46          # from the preset
        assert config.t_d == 5           # file beats preset
        config = load_config(path=path, overrides={"model.t_d": "7"})
        assert config.t_d == 7           # override beats file
        assert config.seed == 3

    def test_empty_preset_override_clears_the_files_preset(self, tmp_path):
        path = self.write(tmp_path, "data.preset = politifact\n")
        config = load_config(path=path, overrides={"data.preset": ""})
        assert config.preset == ""
        assert config.t_d == 0           # the default, not the preset's 280

    def test_preset_via_overrides(self):
        config = load_config(overrides={"data.preset": "politifact"})
        assert config.t_d == 280
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(overrides={"data.preset": "nope"})

    def test_snapshot_round_trip(self, tmp_path):
        config = RunConfig({"model.variant": "slcnn_c", "train.lr": "0.0005",
                            "data.train": "x.jsonl"})
        path = str(tmp_path / "config.snapshot")
        write_config_snapshot(config, path)
        assert load_config(path=path).to_pairs() == config.to_pairs()

    @settings(max_examples=200, deadline=None)
    @given(values=run_configs())
    def test_any_snapshot_round_trips(self, tmp_path_factory, values):
        config = RunConfig(values)
        path = str(tmp_path_factory.mktemp("snap") / "config.snapshot")
        write_config_snapshot(config, path)
        back = load_config(path=path)
        assert back.to_pairs() == config.to_pairs()
        for attr, *_ in CONFIG_SCHEMA.values():
            assert type(getattr(back, attr)) is type(getattr(config, attr))

    @pytest.mark.parametrize("text", [
        " lead.jsonl", "trail.jsonl ", "runs/a #1.jsonl", "#x", "a\rb", "a\nb",
        "a\ndata.test = b", "a\u2028#b", "bad\udc80.jsonl",
    ])
    def test_values_that_would_not_reload_are_rejected(self, text):
        with pytest.raises(ConfigError, match=r"config key data\.edges: .* would not reload"):
            RunConfig({"data.edges": text})

    @pytest.mark.parametrize("text", ["runs/a#1.jsonl", "my data/x y.jsonl", "a=b", "",
                                      "caf\u00e9\u2028x.jsonl"])
    def test_values_that_reload_are_kept(self, text):
        assert RunConfig({"data.edges": text}).edges_path == text

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["data.train", "data.test", "data.embeddings",
                                "data.publishers", "data.edges"]),
           text=st.text(st.sampled_from(" \t\r\n\x0b\x1c\x85\u2028#=\udc80")
                        | st.characters(exclude_categories=()), max_size=12))
    def test_any_path_value_reloads_or_is_rejected(self, tmp_path_factory, key, text):
        try:
            config = RunConfig({key: text})
        except ConfigError as exc:
            assert key in str(exc)
            return
        path = str(tmp_path_factory.mktemp("snap") / "config.snapshot")
        write_config_snapshot(config, path)
        back = load_config(path=path)
        assert getattr(back, CONFIG_SCHEMA[key][0]) == text
        assert back.to_pairs() == config.to_pairs()


class TestEvalReport:
    def test_perfect_prediction(self):
        rep = eval_report([1, 0, 1, 0], [1, 0, 1, 0])
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 0, 2, 0)
        assert rep.accuracy == rep.precision == rep.recall == rep.f1 == 1.0
        assert not (rep.precision_undefined or rep.recall_undefined or rep.f1_undefined)
        assert rep.total == 4

    def test_known_confusion_matrix(self):
        # tp=3 fp=1 fn=2 tn=4
        y_true = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
        rep = eval_report(y_true, y_pred)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 4, 2)
        assert rep.accuracy == 0.7
        assert rep.precision == 0.75
        assert rep.recall == 0.6
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_degenerate_all_real_predictor(self):
        rep = eval_report([1, 0, 1, 0], [0, 0, 0, 0])
        assert rep.precision_undefined and rep.f1_undefined
        assert not rep.recall_undefined
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
        assert rep.accuracy == 0.5

    def test_no_fakes_anywhere(self):
        rep = eval_report([0, 0, 0], [0, 0, 0])
        assert rep.recall_undefined and rep.precision_undefined and rep.f1_undefined
        assert rep.accuracy == 1.0

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError, match="empty test set"):
            eval_report([], [])
        with pytest.raises(ValueError, match="parallel vectors"):
            eval_report([0, 1], [0])
        with pytest.raises(ValueError, match="parallel vectors"):
            eval_report([[0, 1]], [[0, 1]])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 26))
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
            assert rep.precision == prec
            assert rep.recall == rec
            expected_f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert rep.f1 == expected_f1


class TestColdStartPerturb:
    """Every feature is nonzero, so the picked rows are the ones whose
    credit columns (nct, ncf) read zero."""

    def features(self, n=10):
        return np.arange(n * 5, dtype=np.float64).reshape(n, 5) + 1.0

    @staticmethod
    def picked(out):
        return np.flatnonzero((out[:, :2] == 0.0).all(axis=1)).tolist()

    def test_zero_fraction_is_identity(self):
        feats = self.features()
        out = cold_start_perturb(feats, 0.0, rng_for(3, "perturb_test"))
        assert self.picked(out) == []
        assert out is not feats
        assert np.array_equal(out, feats)

    def test_zeroes_credit_columns_only(self):
        feats = self.features()
        out = cold_start_perturb(feats, 0.2, rng_for(3, "perturb_test"))
        rows = self.picked(out)
        assert len(rows) == 2
        # the rows that rng.choice draws from the stream
        assert rows == sorted(rng_for(3, "perturb_test").choice(10, size=2, replace=False))
        for i in range(10):
            if i in rows:
                assert np.array_equal(out[i, 2:], feats[i, 2:])
            else:
                assert np.array_equal(out[i], feats[i])

    def test_full_fraction_hits_every_row(self):
        out = cold_start_perturb(self.features(), 1.0, rng_for(0, "perturb_test"))
        assert self.picked(out) == list(range(10))
        assert np.all(out[:, 2:] > 0.0)

    def test_repeatable_for_a_fixed_stream(self):
        first = cold_start_perturb(self.features(), 0.5, rng_for(9, "perturb_test"))
        again = cold_start_perturb(self.features(), 0.5, rng_for(9, "perturb_test"))
        assert np.array_equal(first, again)
        assert len(self.picked(first)) == 5

    def test_errors(self):
        with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
            cold_start_perturb(self.features(), 1.5, rng_for(0, "perturb_test"))
        with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
            cold_start_perturb(self.features(), -0.1, rng_for(0, "perturb_test"))


class TestLoadGraph:
    def test_edge_list_wins_over_counts(self, synth_paths):
        config = synth_config(synth_paths, overrides={"data.edges": synth_paths["edges"]})
        g = load_graph(config)
        assert followers(g)
        assert g.follower is not None

    def test_counts_only(self, synth_paths):
        g = load_graph(synth_config(synth_paths))
        assert g.follower is None
        assert not followers(g)
        assert g.n_users == SMALL_SPEC.n_users

    def test_no_social_files_gives_empty_graph(self, synth_paths):
        config = synth_config(synth_paths, overrides={"data.publishers": ""})
        g = load_graph(config)
        assert g.follower is not None and not followers(g) and g.n_users == 0

    def test_p_and_depth_bound_plumbed(self, synth_paths):
        # to an edge list's graph; a count graph is scored only in
        # follower_count mode, which reads neither
        edges = {"data.edges": synth_paths["edges"]}
        config = synth_config(synth_paths, overrides={**edges, "influence.p": "0.25",
                                                      "influence.d_max": "2"})
        g = load_graph(config)
        assert g.p == 0.25 and g.d_max == 2
        g = load_graph(synth_config(synth_paths, overrides=edges))
        assert g.d_max is None


class TestSynthSpecValidation:
    @pytest.mark.parametrize("fields,message", [
        ({"n_real": 0, "n_fake": 0}, "sum to >= 1"),
        ({"n_real": -1}, "non-negative"),
        ({"publisher_signal": 1.5}, r"publisher_signal must be in \[0, 1\]"),
        ({"text_signal": -0.1}, r"text_signal must be in \[0, 1\]"),
        ({"marker_rate": 2.0}, r"marker_rate must be in \[0, 1\]"),
        ({"n_users": 5}, "even number >= 2"),
        ({"n_users": 0}, "even number >= 2"),
        ({"vocab_size": 0}, "must be >= 1"),
        ({"embed_dim": 0}, "must be >= 1"),
        ({"sents_min": 4, "sents_max": 2}, "sents range"),
        ({"followers_real": (5, 3)}, "followers_real range"),
        ({"words_min": 0, "words_max": 3}, "at least one word"),
        ({"pubs_min": 6, "pubs_max": 6}, "pubs_max cannot exceed"),
    ])
    def test_rejects_bad_specs(self, fields, message):
        base = dict(n_users=10, vocab_size=20, embed_dim=4)
        base.update(fields)
        with pytest.raises(ValueError, match=message):
            gen_synthetic(SynthSpec(**base), seed=0)


class TestGenSynthetic:
    def test_sizes_and_interleaved_labels(self):
        spec = SynthSpec(n_real=7, n_fake=5, n_users=10, vocab_size=20,
                         embed_dim=4, pubs_max=2)
        data = gen_synthetic(spec, seed=1)
        assert len(data.articles) == 12
        assert [a.id for a in data.articles] == [f"a{i:04d}" for i in range(12)]
        labels = [a.label for a in data.articles]
        assert labels[:10] == [Label.REAL, Label.FAKE] * 5
        assert labels[10:] == [Label.REAL, Label.REAL]

    def test_deterministic_per_seed(self):
        spec = SynthSpec(n_real=4, n_fake=4, n_users=6, vocab_size=15,
                         embed_dim=4, pubs_max=2)
        a = gen_synthetic(spec, seed=3)
        b = gen_synthetic(spec, seed=3)
        assert [(x.id, x.headline, x.body, x.publisher_ids) for x in a.articles] == \
               [(x.id, x.headline, x.body, x.publisher_ids) for x in b.articles]
        assert a.follower_counts == b.follower_counts
        assert a.edges == b.edges
        c = gen_synthetic(spec, seed=4)
        assert [x.body for x in a.articles] != [x.body for x in c.articles]

    def test_full_signal_publishers_respect_pools(self):
        data = gen_synthetic(SMALL_SPEC, seed=5)
        real_pool, fake_pool = set(data.real_pool), set(data.fake_pool)
        assert len(real_pool) == len(fake_pool) == SMALL_SPEC.n_users // 2
        for art in data.articles:
            pool = real_pool if art.label is Label.REAL else fake_pool
            assert art.publisher_ids
            assert set(art.publisher_ids) <= pool
            assert len(set(art.publisher_ids)) == len(art.publisher_ids)

    def test_follower_counts_by_pool(self):
        data = gen_synthetic(SMALL_SPEC, seed=5)
        cap = SMALL_SPEC.n_users - 1
        for u in data.real_pool:
            assert 3 <= data.follower_counts[u] <= min(6, cap)
        for u in data.fake_pool:
            assert 0 <= data.follower_counts[u] <= min(8, cap)

    def test_edges_match_counts(self):
        data = gen_synthetic(SMALL_SPEC, seed=5)
        per_user = {}
        for follower, followed in data.edges:
            assert follower != followed
            per_user.setdefault(followed, set()).add(follower)
        for u, count in data.follower_counts.items():
            assert len(per_user.get(u, set())) == count

    def test_embeddings_cover_vocabulary(self):
        data = gen_synthetic(SMALL_SPEC, seed=5)
        words = set(data.embeddings)
        assert f"w{SMALL_SPEC.vocab_size - 1:04d}" in words
        assert "realmark0" in words and "fakemark3" in words
        assert len(words) == SMALL_SPEC.vocab_size + 2 * SMALL_SPEC.n_markers
        for vec in data.embeddings.values():
            assert vec.shape == (SMALL_SPEC.embed_dim,)
            assert np.all(np.abs(vec) <= 0.5)

    def test_publisher_signal_controls_credit_gap(self):
        """Mean fake-vs-real gap in the averaged fake-publication count:
        small when publishers are uninformative, large at full signal.

        At signal 0 the gap still sits near +1, not 0: an article's own
        publication is part of its publishers' tallies.
        """
        def mean_gap(signal):
            gaps = []
            for seed in range(15):
                spec = SynthSpec(n_real=30, n_fake=30, n_users=10, vocab_size=20,
                                 n_markers=4, embed_dim=4, publisher_signal=signal,
                                 pubs_min=1, pubs_max=2,
                                 followers_real=(3, 6), followers_fake=(0, 2))
                data = gen_synthetic(spec, seed)
                ledger = social.tally_credit(data.articles)
                scores = dict.fromkeys(pipeline._publishers(data.articles), 0.0)
                rows = social.explicit_rows(data.articles, ledger, scores)
                ncf = {Label.REAL: [], Label.FAKE: []}
                for art, value in zip(data.articles, rows[:, EXPLICIT_ORDER.index("ncf")]):
                    ncf[art.label].append(value)
                gaps.append(float(np.mean(ncf[Label.FAKE]) - np.mean(ncf[Label.REAL])))
            return float(np.mean(gaps))

        assert mean_gap(0.0) < 2.5
        assert mean_gap(1.0) > 6.0


class TestSplitAndWrite:
    def test_split_is_stratified_and_sorted(self):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        train_arts, test_arts = split_corpus(data.articles, 0.3)
        assert len(test_arts) == 6 and len(train_arts) == 14
        for part in (train_arts, test_arts):
            assert sum(a.label is Label.FAKE for a in part) == len(part) // 2
            assert [a.id for a in part] == sorted(a.id for a in part)
        assert {a.id for a in train_arts} | {a.id for a in test_arts} == \
               {a.id for a in data.articles}
        assert not ({a.id for a in train_arts} & {a.id for a in test_arts})

    def test_split_zero_fraction(self):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        train_arts, test_arts = split_corpus(data.articles, 0.0)
        assert test_arts == [] and len(train_arts) == 20

    def test_split_rejects_bad_fraction(self):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        for bad in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"test_fraction must be in \[0, 1\)"):
                split_corpus(data.articles, bad)

    def test_written_layout_round_trips(self, synth_paths):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        train_arts = corpus.load_corpus(synth_paths["train"])
        test_arts = corpus.load_corpus(synth_paths["test"])
        assert len(train_arts) == 14 and len(test_arts) == 6

        g = social.load_follower_counts(synth_paths["publishers"])
        assert {u: g.direct_followers(u) for u in g.users} == data.follower_counts
        assert list(g.users) == sorted(data.follower_counts)
        lines = open(synth_paths["publishers"], encoding="utf-8").read().splitlines()
        assert lines == sorted(lines)

        ge = social.load_edge_list(synth_paths["edges"])
        expected = social.graph_from_edges(data.edges)
        assert followers(ge) == followers(expected)

        table = corpus.load_embeddings(synth_paths["embeddings"], {"realmark0": 1})
        assert table.shape == (2, SMALL_SPEC.embed_dim)
        assert np.array_equal(table[1], data.embeddings["realmark0"])

    def test_synth_config_wires_paths(self, synth_paths):
        config = synth_config(synth_paths)
        assert config.train_path == synth_paths["train"]
        assert config.test_path == synth_paths["test"]
        assert config.embeddings_path == synth_paths["embeddings"]
        assert config.publishers_path == synth_paths["publishers"]
        assert config.t_s == 10
        assert synth_config(synth_paths, overrides={"model.t_s": "11"}).t_s == 11


class TestPrepareData:
    def test_bundle_shapes(self, small_config, small_bundle):
        b = small_bundle
        th = b.thresholds
        assert th.t_s == 10
        assert b.vectors.shape[1] == 6
        assert b.train_x.shape == (14, th.t_d + 1, 10)
        assert b.train_x.dtype == b.test_x.dtype == np.int32
        assert b.test_x.shape[0] == 6
        assert b.vectors.ndim == 2 and b.vectors.shape[1] == 6
        assert not b.vectors[0].any()
        assert b.train_y.tolist().count(1) == 7
        assert b.explicit_train.shape == (14, 5)
        assert b.explicit_test.shape == (6, 5)
        assert len(b.train_ids) == 14 and len(b.test_ids) == 6

    def test_explicit_features_normalized_on_train(self, small_bundle):
        b = small_bundle
        for split in (b.explicit_train, b.explicit_test):
            assert np.all(split >= 0.0) and np.all(split <= 1.0)
        # fitted on the training split: varying columns attain both endpoints
        for col in range(5):
            if b.scaler.mins[col] != b.scaler.maxs[col]:
                assert b.explicit_train[:, col].min() == 0.0
                assert b.explicit_train[:, col].max() == 1.0

    def test_no_cold_articles_when_all_have_publishers(self, small_bundle):
        assert not small_bundle.cold_train.any()
        assert not small_bundle.cold_test.any()

    def test_token_ids_index_the_dense_tensors(self, small_config, small_bundle, dense_oracle):
        vectors = float_load_embeddings(small_config.embeddings_path)
        for path, ids in ((small_config.train_path, small_bundle.train_x),
                          (small_config.test_path, small_bundle.test_x)):
            articles = corpus.load_corpus(path)
            assert len(articles) == ids.shape[0]
            for art, art_ids in zip(articles, ids):
                want = dense_oracle.build_tensor(corpus.split_article(art), small_bundle.thresholds,
                                                 vectors, small_config.seed).data
                assert np.array_equal(small_bundle.vectors[art_ids], want)

    @pytest.mark.parametrize("overrides", [{}, {"influence.p": "0.25", "influence.d_max": "2"}])
    def test_exact_influence_equals_the_walk(self, synth_paths, influence_walk, overrides):
        # the ni column, scored once per publisher, against the per-article
        # mean of the one-publisher walk, compared with ==
        config = synth_config(synth_paths, overrides={"data.edges": synth_paths["edges"],
                                                      "influence.mode": "exact", **overrides})
        bundle = prepare_data(config)
        graph = load_graph(config)

        def walk_mean(art):
            scores = [influence_walk(graph, u) if graph.known(u) else 0.0
                      for u in art.publisher_ids]
            return sum(scores) / len(scores)

        col = EXPLICIT_ORDER.index("ni")
        want_train = np.array([walk_mean(a) for a in corpus.load_corpus(config.train_path)])
        want_test = np.array([walk_mean(a) for a in corpus.load_corpus(config.test_path)])
        scaler = social.fit_minmax(want_train)
        assert (bundle.scaler.mins[col], bundle.scaler.maxs[col]) == (scaler.mins[0],
                                                                      scaler.maxs[0])
        for got, want in ((bundle.explicit_train, want_train), (bundle.explicit_test, want_test)):
            assert np.array_equal(got[:, col], social.apply_minmax(scaler, want))
        assert want_train.max() > want_train.min() > 0.0

    def test_fixed_depth_override(self, synth_paths):
        config = synth_config(synth_paths, overrides={"model.t_d": "9"})
        bundle = prepare_data(config)
        assert bundle.thresholds.t_d == 9
        assert bundle.train_x.shape[1] == 10

    def test_missing_paths(self, synth_paths):
        with pytest.raises(ConfigError, match="data.train and data.test must be set"):
            prepare_data(RunConfig())
        config = synth_config(synth_paths, overrides={"data.embeddings": ""})
        with pytest.raises(ConfigError, match="data.embeddings must be set"):
            prepare_data(config)

    def test_empty_training_corpus(self, synth_paths, tmp_path):
        # an empty or blank-line file, with a cold and then a warm cache
        paths = copy_inputs(synth_paths, tmp_path)
        for name, text in (("empty.jsonl", ""), ("blank.jsonl", "\n  \n\n")):
            empty = tmp_path / name
            empty.write_text(text, encoding="utf-8")
            for t_d, train_text in (("0", True), ("3", True), ("3", False)):
                config = synth_config(dict(paths, train=str(empty)), {"model.t_d": t_d})
                with pytest.raises(ValueError, match="empty corpus"):
                    prepare_data(config, train_text=train_text)
                with mock.patch.object(corpus, "split_article", side_effect=AssertionError), \
                        pytest.raises(ValueError, match="empty corpus"):
                    prepare_data(config, train_text=train_text)

    @pytest.mark.parametrize("t_d", ["0", "3"])
    def test_empty_test_split(self, synth_paths, tmp_path, t_d):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = synth_config(dict(copy_inputs(synth_paths, tmp_path), test=str(empty)),
                              {"model.t_d": t_d})
        for train_text in (True, False):
            cold = prepare_data(config, train_text=train_text)
            th = cold.thresholds
            assert_same_bits(cold.test_x, np.zeros((0, th.t_d + 1, 10), dtype=np.int32))
            with mock.patch.object(corpus, "split_article", side_effect=AssertionError):
                assert_same_bundle(prepare_data(config, train_text=train_text), cold)

    @pytest.mark.parametrize("t_d", ["0", "3"])
    @pytest.mark.parametrize("train_text", [True, False])
    def test_a_hit_never_tokenizes(self, synth_paths, tmp_path, train_text, t_d):
        # a second prepare_data reads both corpus files' tokens from their
        # caches, evaluate's form at model.t_d = 0 included
        config = synth_config(copy_inputs(synth_paths, tmp_path), {"model.t_d": t_d})
        with mock.patch.object(corpus, "split_article", wraps=corpus.split_article) as split:
            cold = prepare_data(config, train_text=train_text)
        n_train, n_test = len(cold.train_ids), len(cold.test_ids)
        assert split.call_count == n_test + (n_train if train_text or t_d == "0" else 0)
        with mock.patch.object(corpus, "split_article", side_effect=AssertionError):
            assert_same_bundle(prepare_data(config, train_text=train_text), cold)

    @pytest.mark.parametrize("train_text", [True, False])
    def test_a_trusted_hit_never_hashes(self, synth_paths, tmp_path, age, train_text):
        # once the inputs are older than the margin, one call verifies each
        # cache by its digest and stamps it, and the next hashes no file
        paths = copy_inputs(synth_paths, tmp_path)
        config = synth_config(paths, {"model.t_d": "0", "data.edges": paths["edges"],
                                      "influence.mode": "exact"})
        cold = prepare_data(config, train_text=train_text)
        age()
        assert_same_bundle(prepare_data(config, train_text=train_text), cold)
        with no_hashing():
            assert_same_bundle(prepare_data(config, train_text=train_text), cold)


class TestTraining:
    def test_zero_epochs_leaves_initialization(self, small_config, small_bundle):
        config = small_config.with_overrides({"train.epochs": "0"})
        result = train(config, bundle=small_bundle)
        assert result.epochs_run == 0
        assert result.history == []
        assert result.log_lines[-1] == "stopped: no epochs requested"
        th = small_bundle.thresholds
        fresh = fusion.init_model(config.variant, th.t_s, th.t_d,
                                  small_bundle.vectors.shape[1], rng_for(config.seed, "init"),
                                  k=config.filters, dense_width=config.dense_width,
                                  dropout_rate=config.dropout)
        for name, t in result.model.parameters().items():
            assert np.array_equal(t.data, fresh.parameters()[name].data)

    def test_fixed_epoch_count_and_log_format(self, small_config, small_bundle):
        result = train(small_config, bundle=small_bundle)
        assert result.epochs_run == 2
        assert len(result.history) == 2
        first = result.history[0]
        assert first["epoch"] == 1 and first["val_acc"] is None
        assert 0.0 <= first["train_acc"] <= 1.0
        assert result.log_lines[0] == "variant full articles 14 (fit 14 val 0) seed 0"
        assert re.fullmatch(r"epoch    1 loss \d+\.\d{6} train_acc [01]\.\d{4}",
                            result.log_lines[1])
        assert result.log_lines[-1] == "stopped: max epochs reached"

    def test_deterministic_for_fixed_config(self, small_config, small_bundle):
        a = train(small_config, bundle=small_bundle)
        b = train(small_config, bundle=small_bundle)
        assert a.log_lines == b.log_lines
        assert a.history == b.history
        for name, t in a.model.parameters().items():
            assert np.array_equal(t.data, b.model.parameters()[name].data)

    def test_seed_changes_the_run(self, small_config, small_bundle):
        a = train(small_config, bundle=small_bundle)
        b = train(small_config.with_overrides({"train.seed": "1"}), bundle=small_bundle)
        diffs = [name for name, t in a.model.parameters().items()
                 if not np.array_equal(t.data, b.model.parameters()[name].data)]
        assert diffs

    def test_accuracy_target_stops_training(self, small_config, small_bundle):
        config = small_config.with_overrides({"train.epochs": "30",
                                              "train.stop_at_train_acc": "0.1"})
        result = train(config, bundle=small_bundle)
        assert result.epochs_run == 1
        assert result.log_lines[-1] == "stopped: train accuracy reached 0.1"

    def test_early_stopping_tracks_validation(self, small_config, small_bundle):
        config = small_config.with_overrides({
            "train.epochs": "-1", "train.max_epochs": "40",
            "train.patience": "3", "train.val_fraction": "0.3"})
        result = train(config, bundle=small_bundle)
        assert result.log_lines[0] == "variant full articles 14 (fit 10 val 4) seed 0"
        assert all(e["val_acc"] is not None for e in result.history)
        assert "restored epoch" in result.log_lines[-1]
        assert result.log_lines[-1].startswith("stopped: ")

        # the returned model really is the best-validation checkpoint
        n = small_bundle.train_x.shape[0]
        val_count = max(1, int(round(config.val_fraction * n)))
        perm = rng_for(config.seed, "valsplit").permutation(n)
        val_idx = perm[:val_count]
        _, preds = fusion.predict_batch(result.model,
                                        small_bundle.train_x[val_idx], small_bundle.vectors,
                                        small_bundle.explicit_train[val_idx])
        recomputed = float(np.mean(preds == small_bundle.train_y[val_idx]))
        assert recomputed == max(e["val_acc"] for e in result.history)

    def test_non_finite_loss_stops_before_writing(self, small_config, small_bundle, tmp_path):
        config = small_config.with_overrides({"train.lr": "1e300", "train.epochs": "3"})
        out = tmp_path / "diverged"
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"loss nan at epoch 1 batch 2 "):
            train(config, out_dir=str(out), bundle=small_bundle)
        assert not out.exists()

    def test_non_finite_gradient_stops_before_writing(self, small_config, small_bundle,
                                                      tmp_path, monkeypatch):
        # the loss stays finite; one logit's gradient is infinite
        real_head_apply = fusion.head_apply

        def poisoned(*args):
            logits = real_head_apply(*args)
            out = nncore.Tensor(logits.data, (logits,))
            if out.requires_grad:
                def bp():
                    logits.grad = np.zeros_like(logits.data)
                    logits.grad[0, 1] = np.inf
                out._backward = bp
            return out

        monkeypatch.setattr(fusion, "head_apply", poisoned)
        out = tmp_path / "diverged"
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"non-finite gradient at epoch 1 batch 1 \(lr 0\.001\)"):
            train(small_config, out_dir=str(out), bundle=small_bundle)
        assert not out.exists()

    def test_parameters_stay_views_of_the_flat_buffer(self, small_config, small_bundle,
                                                      tmp_path):
        def assert_views(model):
            tensors = model.param_tensors()
            assert all(t.data.base is model.flat for t in tensors)
            assert np.array_equal(model.flat, np.concatenate([t.data.ravel() for t in tensors]))

        config = small_config.with_overrides({
            "train.epochs": "-1", "train.max_epochs": "6",
            "train.patience": "2", "train.val_fraction": "0.3"})
        result = train(config, out_dir=str(tmp_path), bundle=small_bundle)
        assert "restored epoch" in result.log_lines[-1]
        assert_views(result.model)
        model, _ = load_model(result.checkpoint_path)
        assert_views(model)
        assert np.array_equal(model.flat, result.model.flat)

    def test_early_stopping_needs_articles(self, tmp_path):
        spec = SynthSpec(n_real=1, n_fake=0, n_users=4, vocab_size=10,
                         embed_dim=4, pubs_max=1)
        paths = write_synthetic(gen_synthetic(spec, seed=0), str(tmp_path / "one"),
                                test_fraction=0.0)
        config = synth_config(dict(paths, test=paths["train"]), overrides=FAST_TRAIN)
        config = config.with_overrides({"train.epochs": "-1"})
        with pytest.raises(ValueError, match="at least 2 training articles"):
            train(config)

    def test_validation_slice_cannot_swallow_the_split(self, tmp_path):
        spec = SynthSpec(n_real=1, n_fake=1, n_users=4, vocab_size=10,
                         embed_dim=4, pubs_max=1)
        paths = write_synthetic(gen_synthetic(spec, seed=0), str(tmp_path / "two"),
                                test_fraction=0.0)
        config = synth_config(dict(paths, test=paths["train"]), overrides=FAST_TRAIN)
        config = config.with_overrides({"train.epochs": "-1",
                                        "train.val_fraction": "0.9"})
        with pytest.raises(ValueError, match="training split too small"):
            train(config)

    def test_run_directory_files(self, small_config, trained_run):
        result, out = trained_run
        for name in ("config.snapshot", "train.log", "checkpoint.bin"):
            assert os.path.exists(os.path.join(out, name))
        log = open(os.path.join(out, "train.log"), encoding="utf-8").read()
        assert log == "\n".join(result.log_lines) + "\n"
        reloaded = load_config(path=os.path.join(out, "config.snapshot"))
        assert reloaded.to_pairs() == small_config.to_pairs()
        assert result.checkpoint_path == os.path.join(out, "checkpoint.bin")


class TestFusedFormsOracle:
    """A whole run against the forms the fused ones replaced: the per-node
    depthwise conv and pooling chain, the per-tensor Adam loop, and
    prediction in chunks of train.batch_size articles."""

    def run(self, config, bundle, out):
        result = train(config, out_dir=out, bundle=bundle)
        write_report_files(out, config, evaluate_model(result.model, bundle, config))
        return {name: open(os.path.join(out, name), "rb").read()
                for name in ("checkpoint.bin", "train.log", "report.tsv")}

    def test_run_files_are_byte_identical(self, tmp_path, monkeypatch):
        spec = SynthSpec(n_real=30, n_fake=30, n_users=10, vocab_size=30, n_markers=4,
                         embed_dim=6, sents_min=2, sents_max=3, words_min=3, words_max=8)
        paths = write_synthetic(gen_synthetic(spec, seed=11), str(tmp_path / "data"),
                                test_fraction=0.3)
        config = synth_config(paths, overrides={"train.epochs": "3", "train.batch_size": "16",
                                                "model.dense_width": "16"})
        bundle = prepare_data(config)
        assert bundle.train_x.shape[0] > 2 * config.batch_size   # several old chunks
        got = self.run(config, bundle, str(tmp_path / "fused"))

        models = []
        real_init_model = fusion.init_model

        def recording_init_model(*args, **kwargs):
            models.append(real_init_model(*args, **kwargs))
            return models[-1]

        list_states = []

        def per_tensor_adam_step(flat, grad, state):
            tensors = models[-1].param_tensors()
            if not list_states:
                list_states.append(ListAdamState([t.data for t in tensors], lr=state.lr))
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
            list_adam_step([t.data for t in tensors], grads, list_states[0])

        monkeypatch.setattr(fusion, "init_model", recording_init_model)
        monkeypatch.setattr(nncore, "depthwise_pool", chain_depthwise_pool)
        monkeypatch.setattr(nncore, "adam_step", per_tensor_adam_step)
        monkeypatch.setattr(pipeline, "PREDICT_ROWS", config.batch_size * bundle.train_x.shape[1])
        want = self.run(config, bundle, str(tmp_path / "chain"))
        assert len(models) == 1 and list_states[0].step == 3 * 3   # 42 articles, 16 a batch
        assert got == want


class TestAtomicWrites:
    """Output files are replaced whole: a write that fails part-way keeps
    the previous file and leaves no temporary file behind."""

    def test_failed_block_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "report.tsv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["report.tsv"]

    def test_new_file_replaces_the_old_one(self, tmp_path):
        path = tmp_path / "stats.tsv"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["stats.tsv"]

    def test_report_writer_failing_part_way(self, small_config, tmp_path, monkeypatch):
        out = str(tmp_path)
        write_report_files(out, small_config, eval_report([0, 1, 1, 0], [0, 1, 0, 0]))
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(out)}

        def broken(report):
            raise RuntimeError("interrupted")

        # report.tsv has its config lines written when the metric rows fail
        monkeypatch.setattr(pipeline, "_report_rows", broken)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_report_files(out, small_config, eval_report([1, 1], [1, 1]))
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(out)} == before
        assert sorted(before) == ["report.tsv", "report.txt"]

    def test_checkpoint_save_failing_part_way(self, tmp_path):
        path = str(tmp_path / "checkpoint.bin")
        nncore.save_checkpoint(path, {"w": np.ones(3)}, {"format_version": 1})
        before = open(path, "rb").read()

        class Unsaveable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("interrupted")

        # the metadata and "w" go into the archive before "x" fails
        with pytest.raises(RuntimeError, match="interrupted"):
            nncore.save_checkpoint(path, {"w": np.zeros(3), "x": Unsaveable()}, {})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["checkpoint.bin"]


class TestCheckpoints:
    def test_round_trip_restores_weights_and_meta(self, small_config, small_bundle, trained_run):
        result, out = trained_run
        model, meta = load_model(os.path.join(out, "checkpoint.bin"))
        for name, t in result.model.parameters().items():
            assert np.array_equal(t.data, model.parameters()[name].data)
        th = small_bundle.thresholds
        assert meta["variant"] == "full"
        assert (meta["t_s"], meta["t_d"]) == (th.t_s, th.t_d)
        assert meta["embed_dim"] == 6
        assert meta["k"] == 8 and meta["dense_width"] == 8
        assert meta["dropout"] == 0.0 and meta["seed"] == 0
        assert meta["scaler_mins"] == small_bundle.scaler.mins.tolist()
        assert meta["scaler_maxs"] == small_bundle.scaler.maxs.tolist()

    def test_rejects_unknown_format_version(self, trained_run, tmp_path):
        _, out = trained_run
        arrays, meta = nncore.load_checkpoint(os.path.join(out, "checkpoint.bin"))
        bad = str(tmp_path / "bad_version.bin")
        nncore.save_checkpoint(bad, arrays, dict(meta, format_version=99))
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            load_model(bad)

    def test_rejects_missing_parameter(self, trained_run, tmp_path):
        _, out = trained_run
        arrays, meta = nncore.load_checkpoint(os.path.join(out, "checkpoint.bin"))
        name = sorted(arrays)[0]
        del arrays[name]
        bad = str(tmp_path / "bad_layout.bin")
        nncore.save_checkpoint(bad, arrays, meta)
        with pytest.raises(ValueError, match="do not match the model layout"):
            load_model(bad)

    def test_rejects_shape_drift(self, trained_run, tmp_path):
        _, out = trained_run
        arrays, meta = nncore.load_checkpoint(os.path.join(out, "checkpoint.bin"))
        name = sorted(arrays)[0]
        arrays[name] = np.zeros(np.array(arrays[name]).size + 1)
        bad = str(tmp_path / "bad_shape.bin")
        nncore.save_checkpoint(bad, arrays, meta)
        with pytest.raises(ValueError, match="has shape"):
            load_model(bad)


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_cut_or_a_flipped_byte_loads_the_same_or_raises(self, trained_run,
                                                              tmp_path_factory, data):
        # a damaged name can drop an array (the layout check) and a damaged
        # timestamp changes nothing; anything else fails its CRC-32 or the
        # zip structure, and every failure is a ValueError
        result, out = trained_run
        with open(os.path.join(out, "checkpoint.bin"), "rb") as fh:
            good = fh.read()
        if data.draw(st.booleans(), label="cut"):
            damaged = good[:data.draw(st.integers(0, len(good) - 1), label="length")]
        else:
            damaged = bytearray(good)
            damaged[data.draw(st.integers(0, len(good) - 1), label="at")] ^= \
                data.draw(st.integers(1, 255), label="mask")
        path = tmp_path_factory.mktemp("damaged") / "checkpoint.bin"
        path.write_bytes(bytes(damaged))
        want_model, want_meta = load_model(os.path.join(out, "checkpoint.bin"))
        try:
            model, meta = load_model(str(path))
        except ValueError:
            return
        assert meta == want_meta
        for name, t in want_model.parameters().items():
            assert_same_bits(model.parameters()[name].data, t.data)


class TestEvaluate:
    def test_end_to_end_report_and_files(self, small_config, small_bundle,
                                         trained_run, tmp_path):
        result, out = trained_run
        direct = evaluate_model(result.model, small_bundle, small_config)
        eval_dir = str(tmp_path / "eval")
        report = evaluate(small_config, os.path.join(out, "checkpoint.bin"),
                          out_dir=eval_dir)
        assert (report.tp, report.fp, report.tn, report.fn) == \
               (direct.tp, direct.fp, direct.tn, direct.fn)
        assert report.total == 6

        tsv = open(os.path.join(eval_dir, "report.tsv"), encoding="utf-8").read()
        lines = tsv.splitlines()
        assert lines[0].startswith("config.coldstart.fraction\t")
        assert f"metric.accuracy\t{report.accuracy!r}" in lines
        assert f"count.tp\t{report.tp}" in lines
        txt = open(os.path.join(eval_dir, "report.txt"), encoding="utf-8").read()
        assert txt.startswith("test articles: 6\n")
        assert "confusion (fake = positive):" in txt

    def test_undefined_metric_notes_in_text_report(self, tmp_path):
        report = eval_report([0, 0], [0, 0])
        write_report_files(str(tmp_path), RunConfig(), report)
        txt = open(tmp_path / "report.txt", encoding="utf-8").read()
        assert "note: precision undefined (empty denominator), reported as 0" in txt
        assert "note: recall undefined" in txt
        tsv = open(tmp_path / "report.tsv", encoding="utf-8").read()
        assert "flag.precision_undefined\t1" in tsv

    def test_variant_mismatch(self, small_config, trained_run):
        _, out = trained_run
        config = small_config.with_overrides({"model.variant": "slcnn_c"})
        with pytest.raises(ValueError, match="checkpoint is for variant 'full'"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))

    @pytest.mark.parametrize("key, name, value", [("model.filters", "filters", "6"),
                                                  ("model.dense_width", "dense_width", "16")])
    def test_architecture_mismatch(self, small_config, trained_run, tmp_path, monkeypatch,
                                   key, name, value):
        # checked beside the variant, before any data is read, and nothing
        # is written: the checkpoint was trained at 8 filters and width 8
        _, out = trained_run
        monkeypatch.setattr(pipeline, "prepare_data", mock.Mock(side_effect=AssertionError))
        config = small_config.with_overrides({key: value})
        eval_dir = tmp_path / "eval"
        with pytest.raises(ValueError, match=f"^checkpoint is for {name} 8, config says {value}$"):
            evaluate(config, os.path.join(out, "checkpoint.bin"), out_dir=str(eval_dir))
        assert not eval_dir.exists()

    def test_checkpoint_is_checked_before_setup(self, small_config, trained_run, tmp_path,
                                                monkeypatch):
        _, out = trained_run

        def no_setup(*args, **kwargs):
            raise AssertionError("prepare_data was called")

        monkeypatch.setattr(pipeline, "prepare_data", no_setup)
        config = small_config.with_overrides({"model.variant": "slcnn_c"})
        with pytest.raises(ValueError, match="checkpoint is for variant 'full'"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))
        cut = tmp_path / "checkpoint.bin"
        with open(os.path.join(out, "checkpoint.bin"), "rb") as fh:
            cut.write_bytes(fh.read()[:100])
        with pytest.raises(ValueError, match="damaged checkpoint"):
            evaluate(small_config, str(cut))

    def test_threshold_mismatch(self, small_config, trained_run):
        _, out = trained_run
        config = small_config.with_overrides({"model.t_d": "9"})
        with pytest.raises(ValueError, match="thresholds do not match"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))

    def test_embedding_dimension_mismatch(self, small_config, small_bundle,
                                          trained_run, tmp_path):
        _, out = trained_run
        words = {w: np.zeros(4) for w in ("w0000", "w0001")}
        path = str(tmp_path / "narrow.txt")
        corpus.write_embeddings(words, path)
        config = small_config.with_overrides({
            "data.embeddings": path,
            "model.t_d": str(small_bundle.thresholds.t_d)})
        with pytest.raises(ValueError, match="embedding dimension does not match"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))

    def test_different_training_data_is_rejected(self, small_config, small_bundle,
                                                 trained_run, synth_paths):
        _, out = trained_run
        # same shapes, but the ledger and scaler come from the test split now
        config = small_config.with_overrides({
            "data.train": synth_paths["test"],
            "model.t_d": str(small_bundle.thresholds.t_d)})
        with pytest.raises(ValueError, match="different training data"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))

    def test_empty_test_set(self, small_config, small_bundle, trained_run, tmp_path):
        _, out = trained_run
        empty = tmp_path / "no_test.jsonl"
        empty.write_text("", encoding="utf-8")
        config = small_config.with_overrides({
            "data.test": str(empty),
            "model.t_d": str(small_bundle.thresholds.t_d)})
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(config, os.path.join(out, "checkpoint.bin"))

    def test_reruns_are_byte_identical(self, small_config, small_bundle, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            result = train(small_config, out_dir=out, bundle=small_bundle)
            evaluate(small_config, result.checkpoint_path, out_dir=out)
            with open(os.path.join(out, "report.tsv"), "rb") as fh:
                report = fh.read()
            with open(os.path.join(out, "train.log"), "rb") as fh:
                log = fh.read()
            outputs.append((report, log))
        assert outputs[0] == outputs[1]


class TestEvaluateTestSplitOnly:
    """evaluate prepares only the test split's text: its report equals the
    one train and evaluate_model give on the full bundle."""

    def check(self, config, tmp_path):
        full = prepare_data(config)
        result = train(config, out_dir=str(tmp_path / "direct"), bundle=full)
        write_report_files(str(tmp_path / "direct"), config,
                           evaluate_model(result.model, full, config))
        evaluate(config, result.checkpoint_path, out_dir=str(tmp_path / "eval"))
        for name in ("report.tsv", "report.txt"):
            direct, evaluated = tmp_path / "direct" / name, tmp_path / "eval" / name
            assert direct.read_bytes() == evaluated.read_bytes()

        test_only = prepare_data(config, train_text=False)
        assert test_only.train_x is None
        assert test_only.thresholds == full.thresholds
        assert np.array_equal(test_only.vectors[test_only.test_x], full.vectors[full.test_x])
        # the vocabulary is the test split's: every table row but padding is used
        used = np.unique(test_only.test_x[test_only.test_x > 0])
        assert test_only.vectors.shape[0] == len(used) + 1
        assert test_only.vectors.shape[0] < full.vectors.shape[0]
        for name in ("test_ids", "train_ids"):
            assert getattr(test_only, name) == getattr(full, name)
        for name in ("test_y", "train_y", "explicit_test", "explicit_train", "cold_test"):
            assert np.array_equal(getattr(test_only, name), getattr(full, name))
        assert np.array_equal(test_only.scaler.mins, full.scaler.mins)
        assert np.array_equal(test_only.scaler.maxs, full.scaler.maxs)
        return full

    def test_fixed_body_depth(self, synth_paths, tmp_path):
        self.check(synth_config(synth_paths, overrides={**FAST_TRAIN, "model.t_d": "2"}),
                   tmp_path)

    def test_body_depth_from_training_sentence_counts(self, synth_paths, tmp_path):
        # test bodies three times as long: their own counts would give another t_d
        articles = corpus.load_corpus(synth_paths["test"])
        for art in articles:
            art.body = " ".join([art.body] * 3)
        path = str(tmp_path / "long_test.jsonl")
        corpus.write_corpus(articles, path)
        config = synth_config(dict(synth_paths, test=path), overrides=FAST_TRAIN)
        assert config.t_d == 0
        full = self.check(config, tmp_path)
        test_tok = corpus.CorpusTokens.of(map(corpus.split_article, articles))
        assert corpus.compute_thresholds(test_tok, t_s=10).t_d > full.thresholds.t_d

    def test_test_split_without_words(self, synth_paths, tmp_path):
        articles = [NewsArticle(id=f"t{i}", headline="?!", body="... --- !!!",
                                label=Label.FAKE if i % 2 else Label.REAL, publisher_ids=pubs)
                    for i, pubs in enumerate([["u0000"], ["u0009"], [], ["u0001", "u0008"]])]
        path = str(tmp_path / "wordless.jsonl")
        corpus.write_corpus(articles, path)
        config = synth_config(dict(synth_paths, test=path), overrides=FAST_TRAIN)
        self.check(config, tmp_path)
        test_only = prepare_data(config, train_text=False)
        assert test_only.vectors.shape == (1, SMALL_SPEC.embed_dim)
        assert not test_only.test_x.any() and not test_only.vectors.any()


class TestExperiments:
    def test_ablation_checks_every_variant_before_preparing_data(self, small_config,
                                                                 monkeypatch):
        # k = 4 suits the text-only variant but not the widened integrator rows
        config = small_config.with_overrides({"model.filters": "4", "model.variant": "slcnn"})

        def no_prepare(_):
            raise AssertionError("data prepared before the variants were validated")

        monkeypatch.setattr(pipeline, "prepare_data", no_prepare)
        with pytest.raises(ConfigError, match="model.filters = 4 with variant slcnn_c"):
            pipeline.ablate(config)

    def test_coldstart_checks_every_fraction_before_preparing_data(self, small_config,
                                                                   monkeypatch):
        def no_prepare(_):
            raise AssertionError("data prepared before the fractions were validated")

        monkeypatch.setattr(pipeline, "prepare_data", no_prepare)
        with pytest.raises(ConfigError, match="coldstart.fraction must be in"):
            coldstart_experiment(small_config, fractions=(0.0, 1.5))

    def test_ablation_grid(self, small_config, tmp_path):
        config = small_config.with_overrides({"train.epochs": "1"})
        out = str(tmp_path / "ablate")
        results = pipeline.ablate(config, out_dir=out)
        assert tuple(results) == tuple(fusion.VARIANTS)
        for variant, report in results.items():
            assert report.total == 6
            sub = os.path.join(out, variant)
            for name in ("config.snapshot", "train.log", "checkpoint.bin",
                         "report.tsv", "report.txt"):
                assert os.path.exists(os.path.join(sub, name))
            snapshot = open(os.path.join(sub, "config.snapshot"), encoding="utf-8").read()
            assert f"model.variant = {variant}\n" in snapshot
        grid = open(os.path.join(out, "report.tsv"), encoding="utf-8").read()
        for variant in fusion.VARIANTS:
            assert f"variant.{variant}\tmetric.accuracy\t" in grid
        table = open(os.path.join(out, "report.txt"), encoding="utf-8").read()
        assert table.splitlines()[0].split() == ["variant", "accuracy", "precision",
                                                 "recall", "f1"]

    def test_coldstart_grid(self, small_config, tmp_path):
        config = small_config.with_overrides({"train.epochs": "1"})
        out = str(tmp_path / "coldstart")
        results = coldstart_experiment(config, out_dir=out, fractions=(0.0, 0.5))
        assert tuple(results) == (0.0, 0.5)
        assert os.path.isdir(os.path.join(out, "frac_0"))
        assert os.path.isdir(os.path.join(out, "frac_0.5"))
        snapshot = open(os.path.join(out, "frac_0.5", "config.snapshot"),
                        encoding="utf-8").read()
        assert "coldstart.fraction = 0.5\n" in snapshot
        grid = open(os.path.join(out, "report.tsv"), encoding="utf-8").read()
        assert "fraction.0\tmetric.accuracy\t" in grid
        assert "fraction.0.5\tmetric.accuracy\t" in grid

    def test_default_coldstart_fractions(self):
        assert pipeline.COLDSTART_FRACTIONS == (0.0, 0.1, 0.2, 0.3)


class TestPublisherStats:
    def article(self, aid, label, pubs):
        return NewsArticle(id=aid, headline="h", body="b.", label=label,
                           publisher_ids=pubs)

    def hand_corpus(self):
        articles = [
            self.article("r1", Label.REAL, ["pub_r"]),
            self.article("r2", Label.REAL, ["pub_r"]),
            self.article("f1", Label.FAKE, ["pub_f"]),
            self.article("f2", Label.FAKE, ["pub_f"]),
        ]
        graph = count_graph({"pub_r": 10, "pub_f": 2})
        return articles, social.tally_credit(articles), graph

    def test_hand_worked_means(self):
        articles, ledger, graph = self.hand_corpus()
        stats = export_stats(articles, ledger, graph)
        assert stats.means["real"] == {"nct": 2.0, "ncf": 0.0, "ncf_over_nct": 0.0,
                                       "ni": 10.0, "num_p": 1.0}
        assert stats.means["fake"] == {"nct": 2.0, "ncf": 2.0, "ncf_over_nct": 1.0,
                                       "ni": 2.0, "num_p": 1.0}

    def test_empty_class_reports_zeros(self):
        articles, ledger, graph = self.hand_corpus()
        reals = [a for a in articles if a.label is Label.REAL]
        stats = export_stats(reals, ledger, graph)
        assert stats.means["fake"] == {feat: 0.0 for feat in pipeline.STAT_FEATURES}
        assert stats.means["real"]["nct"] == 2.0

    def test_unknown_publisher_gives_zero_ratio(self):
        articles, ledger, graph = self.hand_corpus()
        ghost = self.article("g1", Label.FAKE, ["ghost"])
        stats = export_stats([ghost], ledger, graph)
        assert stats.means["fake"]["nct"] == 0.0
        assert stats.means["fake"]["ncf_over_nct"] == 0.0
        assert stats.means["fake"]["num_p"] == 1.0

    def test_written_stats_files(self, tmp_path):
        articles, ledger, graph = self.hand_corpus()
        stats = export_stats(articles, ledger, graph)
        write_stats(stats, str(tmp_path))
        tsv = open(tmp_path / "stats.tsv", encoding="utf-8").read().splitlines()
        assert tsv[0] == "real\tnct\t2.0"
        assert "fake\tncf_over_nct\t1.0" in tsv
        assert len(tsv) == 10
        txt = open(tmp_path / "stats.txt", encoding="utf-8").read()
        assert txt.splitlines()[0].split() == ["feature", "real", "mean", "fake", "mean"]

    def test_exact_mode_means_follow_the_walk(self, influence_walk):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        ledger = social.tally_credit(data.articles)
        graph = social.graph_from_edges(data.edges, p=0.5)
        stats = export_stats(data.articles, ledger, graph, mode="exact")
        for label, cls in ((Label.REAL, "real"), (Label.FAKE, "fake")):
            per_article = [np.mean([influence_walk(graph, u) for u in a.publisher_ids])
                           for a in data.articles if a.label is label]
            assert stats.means[cls]["ni"] == pytest.approx(np.mean(per_article), abs=1e-12)

    def test_stats_on_generated_corpus_separate_classes(self):
        data = gen_synthetic(SMALL_SPEC, seed=7)
        ledger = social.tally_credit(data.articles)
        graph = count_graph(data.follower_counts)
        stats = export_stats(data.articles, ledger, graph)
        assert stats.means["fake"]["ncf"] > stats.means["real"]["ncf"]
        assert stats.means["real"]["ni"] > stats.means["fake"]["ni"]
