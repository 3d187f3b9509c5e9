"""Feature fusion and the assembled classifier: explicit-feature layout,
integrator reduction, tie-breaking, end-to-end gradients, graph lifetime,
and whole-model logits against the dense-input oracle."""

import gc
import hashlib

import numpy as np
import pytest

from fakereal import nncore, social
from fakereal.corpus import Label, NewsArticle
from fakereal.fusion import (
    EXPLICIT_ORDER,
    VARIANTS,
    forward_batch,
    head_apply,
    init_head,
    init_model,
    integrate_batch,
    integrator_apply,
    loss_batch,
    predict_batch,
)
from fakereal.nncore import Tensor
from fakereal.seeds import rng_for
from fakereal.slcnn import init_hcb_stack

from conftest import assert_same_bits, grad_check, synth_config

# one full explicit row, EXPLICIT_ORDER columns
EXPLICIT = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])


def columns(variant):
    """The EXPLICIT_ORDER columns `variant` reads, by name."""
    return [EXPLICIT_ORDER.index(name) for name in VARIANTS[variant]]


def zero_head(in_dim, hidden=4):
    """An all-zero head: the (w, b) pairs of in_dim -> hidden -> hidden -> 2."""
    return [(Tensor(np.zeros((fan_in, out))), Tensor(np.zeros(out)))
            for fan_in, out in ((in_dim, hidden), (hidden, hidden), (hidden, 2))]


class TestExplicitFeatures:
    def test_variant_widths(self):
        assert {v: len(cols) for v, cols in VARIANTS.items()} == {
            "slcnn": 0, "slcnn_c": 3, "slcnn_i": 2, "full": 5}
        assert VARIANTS["full"] == EXPLICIT_ORDER

    def test_missing_vectors_become_zeros(self):
        cold = NewsArticle(id="a1", headline="h", body="b.", label=Label.REAL, publisher_ids=[])
        rows = social.explicit_rows([cold], {}, {})
        flags = rows[:, EXPLICIT_ORDER.index("num_p_credit")] == 0
        assert np.array_equal(rows, np.zeros((1, 5)))
        assert flags.tolist() == [True]

    @staticmethod
    def logits_by_column(model, explicit):
        """forward_batch's logits on `explicit`, then with each column in turn
        raised by 0.7."""
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 20, size=(explicit.shape[0], 3, 10)).astype(np.int32)
        vectors = rng.normal(size=(20, 4))
        base = forward_batch(model, ids, vectors, explicit, "eval").data
        changed = []
        for col in range(len(EXPLICIT_ORDER)):
            moved = explicit.copy()
            moved[:, col] += 0.7
            changed.append(forward_batch(model, ids, vectors, moved, "eval").data)
        return base, changed, ids, vectors

    @pytest.mark.parametrize("variant,read", [
        ("slcnn", ()), ("slcnn_c", (0, 1, 2)), ("slcnn_i", (3, 4)), ("full", (0, 1, 2, 3, 4))])
    def test_forward_reads_the_variant_columns_of_full_rows(self, variant, read):
        # k + m = 10 reduces 10 -> 4 -> 1 without a pool dropping a slot, so
        # every column the integrator reads reaches the logits
        model = init_model(variant, 10, 2, 4, rng_for(3, "init"), k=10 - len(read),
                           dense_width=8)
        explicit = np.random.default_rng(8).random((4, 5))
        base, changed, ids, vectors = self.logits_by_column(model, explicit)
        for col, logits in enumerate(changed):
            if col in read:
                assert not np.array_equal(logits, base), EXPLICIT_ORDER[col]
            else:
                assert_same_bits(logits, base)
        for bad in (explicit[:, :3], None):
            with pytest.raises(ValueError, match="explicit rows have shape"):
                forward_batch(model, ids, vectors, bad, "eval")

    @pytest.mark.xfail(strict=True, reason="at k = 8 the integrator's pools drop the last "
                       "slots of 11- and 13-wide rows: slcnn_c never reads num_p, and full "
                       "reads only nct and ncf")
    @pytest.mark.parametrize("variant", ["slcnn_c", "full"])
    def test_default_width_reads_every_variant_column(self, variant):
        model = init_model(variant, 10, 2, 4, rng_for(3, "init"), dense_width=8)
        base, changed, _, _ = self.logits_by_column(model, np.random.default_rng(8).random((4, 5)))
        assert all(not np.array_equal(changed[col], base) for col in columns(variant))


class TestIntegrate:
    def test_appends_constant_suffix(self):
        latent = np.arange(32.0).reshape(1, 4, 8)
        out = integrate_batch(Tensor(latent), EXPLICIT).data[0]
        assert out.shape == (4, 13)
        assert np.array_equal(out[:, :8], latent[0])
        for row in out:
            assert np.array_equal(row[8:], [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_batch_form(self):
        latent = Tensor(np.ones((2, 3, 8)))
        explicit = np.array([[1.0] * 5, [2.0] * 5])
        out = integrate_batch(latent, explicit)
        assert out.data.shape == (2, 3, 13)
        assert np.all(out.data[0, :, 8:] == 1.0)
        assert np.all(out.data[1, :, 8:] == 2.0)

    def test_batch_mismatch(self):
        with pytest.raises(ValueError, match="explicit batch"):
            integrate_batch(Tensor(np.ones((2, 3, 8))), np.ones((3, 5)))


class TestIntegratorReduce:
    @pytest.mark.parametrize("m", [5, 3, 2])
    def test_reduces_widened_rows_back_to_k(self, m):
        k = 8
        blocks = init_hcb_stack(k + m, None, k, rng_for(0, "init"))
        assert len(blocks) == 2
        rows = np.random.default_rng(1).random((1, 6, k + m))
        assert integrator_apply(blocks, Tensor(rows)).data.shape == (1, 6, k)


class TestClassify:
    """The eval-mode head through predict_batch, one article at a time."""

    def predict(self, head):
        model = init_model("slcnn", 10, 2, 4, rng_for(0, "init"), k=2, dense_width=4)
        model.head = head
        ids = np.random.default_rng(0).integers(0, 5, size=(1, 3, 10)).astype(np.int32)
        probs, preds = predict_batch(model, ids, np.random.default_rng(1).normal(size=(5, 4)),
                                     np.zeros((1, 5)))
        return probs[0], Label(int(preds[0]))

    def test_probabilities_sum_to_one(self):
        probs, _ = self.predict(init_head(6, 4, rng_for(0, "init")))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tie_predicts_real(self):
        probs, label = self.predict(zero_head(6))
        assert np.allclose(probs, [0.5, 0.5])
        assert label is Label.REAL

    def test_fake_needs_strictly_greater_probability(self):
        head = zero_head(6)
        b3 = head[2][1]
        b3.data[:] = [0.0, 0.3]
        assert self.predict(head)[1] is Label.FAKE
        b3.data[:] = [0.3, 0.0]
        assert self.predict(head)[1] is Label.REAL

    def test_features_must_be_vector(self):
        # each article's flattened features must be one in_dim-wide row
        with pytest.raises(ValueError, match="linear shape mismatch"):
            head_apply(zero_head(6), Tensor(np.ones((2, 3))), 0.0, "eval")


class TestModelAssembly:
    def test_flatten_width_at_published_sizes(self):
        model = init_model("full", 46, 280, 4, rng_for(0, "init"))
        assert model.rows == 281
        assert model.t_s == 46
        assert model.head[0][0].data.shape == (281 * 8, 64)

    def test_latent_only_variant_has_no_integrator(self):
        model = init_model("slcnn", 10, 2, 4, rng_for(0, "init"), k=2, dense_width=8)
        assert model.integrator == []

    def test_parameter_names_are_stable(self):
        model = init_model("slcnn_c", 10, 2, 4, rng_for(0, "init"), k=2, dense_width=8)
        names = list(model.parameters())
        assert names == [
            "slcnn.b0.conv1.w", "slcnn.b0.conv1.b", "slcnn.b0.conv2.w", "slcnn.b0.conv2.b",
            "slcnn.b1.conv1.w", "slcnn.b1.conv1.b", "slcnn.b1.conv2.w", "slcnn.b1.conv2.b",
            "integrator.b0.conv1.w", "integrator.b0.conv1.b",
            "integrator.b0.conv2.w", "integrator.b0.conv2.b",
            "head.w1", "head.b1", "head.w2", "head.b2", "head.w3", "head.b3",
        ]

    @staticmethod
    def stack_shapes(stack, conv1_w0):
        shapes = []
        for i, conv1_w in enumerate((conv1_w0, (8, 2))):
            shapes += [(f"{stack}.b{i}.conv1.w", conv1_w), (f"{stack}.b{i}.conv1.b", (8,)),
                       (f"{stack}.b{i}.conv2.w", (8, 2)), (f"{stack}.b{i}.conv2.b", (8,))]
        return shapes

    @pytest.mark.parametrize("variant,size,digest", [
        ("slcnn", 6034, "9d4f03bbd53c1a941367458f8a652b06bb2a33dc873bd049a2d7ac53bfc67f4a"),
        ("slcnn_c", 6130, "ef7ca030e42eb554a933ca46f352284caa4cfff1ac76d7f6b3cb25ecb6283eed"),
        ("slcnn_i", 6130, "ef7ca030e42eb554a933ca46f352284caa4cfff1ac76d7f6b3cb25ecb6283eed"),
        ("full", 6130, "ef7ca030e42eb554a933ca46f352284caa4cfff1ac76d7f6b3cb25ecb6283eed"),
    ])
    def test_initial_weights_are_pinned(self, variant, size, digest):
        # every draw of init_hcb_stack and init_head, in order: checkpoints,
        # Model.flat and Adam's slots all follow this layout
        model = init_model(variant, 10, 2, 4, rng_for(5, "init"))
        want = self.stack_shapes("slcnn", (8, 2, 4))
        if variant != "slcnn":
            # k + 3, k + 2 and k + 5 all reduce in two blocks
            want += self.stack_shapes("integrator", (8, 2))
        want += [("head.w1", (24, 64)), ("head.b1", (64,)), ("head.w2", (64, 64)),
                 ("head.b2", (64,)), ("head.w3", (64, 2)), ("head.b3", (2,))]
        assert [(name, t.data.shape) for name, t in model.parameters().items()] == want
        assert model.flat.size == size
        assert hashlib.sha256(model.flat.tobytes()).hexdigest() == digest

    def test_parameters_are_views_of_one_buffer(self):
        model = init_model("full", 10, 2, 4, rng_for(0, "init"))
        tensors = model.param_tensors()
        assert np.array_equal(model.flat, np.concatenate([t.data.ravel() for t in tensors]))
        assert all(t.data.base is model.flat for t in tensors)
        model.flat[...] = 0.5
        assert all((t.data == 0.5).all() for t in tensors)

    def test_init_is_deterministic_per_seed(self):
        a = init_model("full", 10, 2, 4, rng_for(5, "init"))
        b = init_model("full", 10, 2, 4, rng_for(5, "init"))
        for ta, tb in zip(a.param_tensors(), b.param_tensors()):
            assert np.array_equal(ta.data, tb.data)

    def test_width_without_a_block_rejected_at_init(self):
        # required_hcbs(1) is 0: a stack of no block could not run a forward
        with pytest.raises(ValueError, match="width 1 leaves the stack no block"):
            init_hcb_stack(1, 4, 2, rng_for(0, "init"))
        with pytest.raises(ValueError, match="width 1 leaves the stack no block"):
            init_model("slcnn", 1, 2, 4, rng_for(0, "init"))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            init_model("bert", 10, 2, 4, rng_for(0, "init"))

    def test_integrator_width_must_be_reducible(self):
        # k=2 with all 5 explicit features would widen rows to 7, which the
        # block recurrence cannot bring down to one slot
        with pytest.raises(ValueError, match="cannot reduce to 1"):
            init_model("full", 10, 2, 4, rng_for(0, "init"), k=2, dense_width=8)


class TestForward:
    def batch(self, rows=3, n=4):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 20, size=(n, rows, 10)).astype(np.int32)
        return ids, rng.normal(size=(20, 4)) * 0.1

    def test_shapes_and_explicit_checks(self):
        model = init_model("slcnn_c", 10, 2, 4, rng_for(1, "init"), k=2, dense_width=8)
        ids, vectors = self.batch()
        logits = forward_batch(model, ids, vectors, np.random.default_rng(1).random((4, 5)), "eval")
        assert logits.data.shape == (4, 2)
        # one full row per article, whichever variant
        for bad in (None, np.ones((4, 3)), np.ones((3, 5)), np.ones(5)):
            with pytest.raises(ValueError, match=r"explicit rows have shape .*, expected \(4, 5\)"):
                forward_batch(model, ids, vectors, bad, "eval")
        with pytest.raises(ValueError, match=r"shape \(2, 10\), model expects \(3, 10\)"):
            forward_batch(model, ids[:, :2], vectors, np.ones((4, 5)), "eval")
        # 11 words also reduce in two blocks, so only the model's t_s rejects them
        wide = np.concatenate([ids, ids[:, :, :1]], axis=2)
        with pytest.raises(ValueError, match=r"shape \(3, 11\), model expects \(3, 10\)"):
            forward_batch(model, wide, vectors, np.ones((4, 5)), "eval")

    def test_latent_only_variant_ignores_explicit(self):
        model = init_model("slcnn", 10, 2, 4, rng_for(1, "init"), k=2, dense_width=8)
        ids, vectors = self.batch()
        logits = forward_batch(model, ids, vectors, np.zeros((4, 5)), "eval")
        assert logits.data.shape == (4, 2)
        assert_same_bits(forward_batch(model, ids, vectors, np.ones((4, 5)), "eval").data,
                         logits.data)

    def test_predict_batch_ties_to_real(self):
        model = init_model("slcnn", 10, 2, 4, rng_for(1, "init"), k=2, dense_width=8)
        model.head = zero_head(3 * 2)
        probs, preds = predict_batch(model, *self.batch(), np.zeros((4, 5)))
        assert np.allclose(probs, 0.5)
        assert np.array_equal(preds, np.zeros(4, dtype=np.int64))

    def test_eval_forward_is_deterministic(self):
        model = init_model("full", 10, 2, 4, rng_for(2, "init"))
        ids, vectors = self.batch()
        ex = np.random.default_rng(2).random((4, 5))
        a = forward_batch(model, ids, vectors, ex, "eval")
        b = forward_batch(model, ids, vectors, ex, "eval")
        assert np.array_equal(a.data, b.data)


class TestEndToEndGradients:
    # data and init seeds are chosen so no unit sits within the finite-
    # difference step of a relu kink or pool tie, where the comparison is
    # meaningless; the tight threshold keeps any drift into one loud.
    # the default-width model is gradient-checked end to end on corpus
    # data in the acceptance suite.
    def check(self, dense_oracle, variant, data_seed):
        rng = np.random.default_rng(data_seed)
        model = init_model(variant, 10, 2, 4, rng_for(0, "init"), k=2,
                           dense_width=8, dropout_rate=0.0)
        # each word slot its own table row: the same inputs as dense rows
        ids, vectors = dense_oracle.as_tokens(rng.normal(size=(3, 3, 10, 4)) * 0.5 + 0.3)
        explicit = np.zeros((3, 5))
        explicit[:, columns(variant)] = 0.2 + 0.6 * rng.random((3, len(VARIANTS[variant])))
        labels = np.array([0, 1, 0])

        def loss_fn():
            return loss_batch(model, ids, vectors, explicit, labels, "eval")

        return grad_check(loss_fn, model.param_tensors(), n_coords=60, seed=4)

    def test_latent_only(self, dense_oracle):
        assert self.check(dense_oracle, "slcnn", data_seed=1) < 1e-6

    def test_with_credit_features(self, dense_oracle):
        assert self.check(dense_oracle, "slcnn_c", data_seed=0) < 1e-6

    def test_with_influence_features(self, dense_oracle):
        assert self.check(dense_oracle, "slcnn_i", data_seed=0) < 1e-6


class TestGraphLifetime:
    """Every op's backward closure reads its own output node, so a graph
    whose links are never dropped waits for the cycle collector."""

    def setup_method(self):
        self.model = init_model("full", 10, 2, 4, rng_for(0, "init"))
        rng = np.random.default_rng(0)
        self.ids = rng.integers(0, 20, size=(4, 3, 10)).astype(np.int32)
        self.vectors = rng.normal(size=(20, 4))
        self.explicit = rng.random((4, 5))

    @staticmethod
    def live_tensors_after(step, times=3):
        def live_tensors():
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Tensor))

        gc.collect()
        gc.disable()
        try:
            start = live_tensors()
            counts = []
            for _ in range(times):
                step()
                counts.append(live_tensors())
        finally:
            gc.enable()
        return start, counts

    def test_backward_frees_the_training_graph_without_the_cycle_collector(self):
        dropout_rng = np.random.default_rng(1)

        def step():
            nncore.zero_grads(self.model.param_tensors())
            loss = loss_batch(self.model, self.ids, self.vectors, self.explicit, [0, 1, 0, 1],
                              "train", dropout_rng)
            loss.backward()

        start, counts = self.live_tensors_after(step)
        assert counts == [start] * 3

    def test_predict_frees_the_eval_graph_without_the_cycle_collector(self):
        start, counts = self.live_tensors_after(
            lambda: predict_batch(self.model, self.ids, self.vectors, self.explicit))
        assert counts == [start] * 3

    def test_eval_forward_without_gradients_builds_no_graph(self):
        want = forward_batch(self.model, self.ids, self.vectors, self.explicit, "eval")
        assert want._parents and want._backward is not None
        params = self.model.param_tensors()
        for t in params:
            t.requires_grad = False
        logits = forward_batch(self.model, self.ids, self.vectors, self.explicit, "eval")
        for t in params:
            t.requires_grad = True
        assert logits._parents == () and logits._backward is None
        assert np.array_equal(logits.data, want.data)
        # predict_batch runs that forward and leaves the parameters trainable
        probs, _ = predict_batch(self.model, self.ids, self.vectors, self.explicit)
        assert np.array_equal(probs, nncore.softmax(want.data))
        assert all(t.requires_grad for t in params)


class TestDenseOracle:
    """Whole-model logits from token ids against the dense oracle, on a
    synthetic corpus prepared the way training prepares it."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        from fakereal import pipeline
        spec = pipeline.SynthSpec(n_real=6, n_fake=6, n_users=6, vocab_size=20, n_markers=3,
                                  embed_dim=5, sents_min=1, sents_max=4, pubs_max=2)
        paths = pipeline.write_synthetic(pipeline.gen_synthetic(spec, seed=3),
                                         str(tmp_path_factory.mktemp("oracle")))
        return pipeline.prepare_data(synth_config(paths, {"model.t_d": "5"}))

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_logits_match_dense_oracle(self, bundle, dense_oracle, variant):
        th = bundle.thresholds
        model = init_model(variant, th.t_s, th.t_d, bundle.vectors.shape[1], rng_for(1, "init"))
        ids, explicit = bundle.train_x, bundle.explicit_train
        assert (~ids.any(axis=2)).any()           # the corpus has padding rows
        got = forward_batch(model, ids, bundle.vectors, explicit, "eval").data
        want = dense_oracle.logits(model, bundle.vectors[ids], explicit[:, columns(variant)]).data
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_logits_do_not_depend_on_batch_neighbours(self, bundle):
        th = bundle.thresholds
        model = init_model("full", th.t_s, th.t_d, bundle.vectors.shape[1], rng_for(2, "init"))
        ids, ex = bundle.train_x, bundle.explicit_train
        whole = forward_batch(model, ids, bundle.vectors, ex, "eval").data
        for picked in ([0, 1, 2], [5, 0, 3], [0]):
            part = forward_batch(model, ids[picked], bundle.vectors, ex[picked], "eval").data
            assert np.max(np.abs(part[picked.index(0)] - whole[0])) <= 1e-12
