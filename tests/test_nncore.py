"""Numeric core: op semantics at batch size 1, gradients vs finite
differences, Adam, dropout, and checkpoint round-trips."""

import platform
import re
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fakereal import nncore
from fakereal.nncore import (
    AdamState,
    Tensor,
    adam_step,
    concat,
    conv1x2_tokens,
    depthwise_pool,
    dropout_t,
    gather_grads,
    gather_rows,
    linear,
    load_checkpoint,
    pack_parameters,
    relu,
    reshape,
    save_checkpoint,
    softmax,
    softmax_xent_batch,
    transpose,
    zero_grads,
)

from conftest import (
    ListAdamState,
    assert_same_bits,
    chain_depthwise_pool,
    conv1x2_depthwise,
    conv1x2_full,
    fan_out_conv,
    grad_check,
    list_adam_step,
    maxpool_pairs,
    token_tap_sums,
)


def tsum(t):
    # scalar sum expressed through existing graph ops
    n = t.data.size
    flat = reshape(t, (1, n))
    w = Tensor(np.ones((n, 1)))
    b = Tensor(np.zeros(1))
    return reshape(linear(flat, w, b), ())


def conv(x, w, b=None):
    """conv1x2_full on one article's (rows, width, depth) input; (k, rows, width-1) out."""
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return conv1x2_full(Tensor(np.asarray(x, dtype=np.float64)[None]), Tensor(w), Tensor(b)).data[0]


def pool(row):
    return maxpool_pairs(Tensor(np.asarray([[[row]]], dtype=np.float64))).data.ravel()


class TestPlainOps:
    """The graph ops on a single instance (batch size 1)."""

    def test_conv_1x2_sliding_sum(self):
        x = np.array([[[1.0], [2.0], [3.0]]])          # (rows 1, width 3, depth 1)
        assert np.array_equal(conv(x, np.ones((1, 2, 1))), [[[3.0, 5.0]]])

    def test_conv_1x2_bias_then_relu(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        assert np.array_equal(conv(x, np.ones((1, 2, 1)), [-4.0]), [[[0.0, 1.0]]])

    def test_conv_1x2_depth_two(self):
        # window ((1,2),(3,4)) with taps (1,0) and (0,1) picks 1 + 4
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(conv(x, [[[1.0, 0.0], [0.0, 1.0]]]), [[[5.0]]])

    def test_conv_1x2_errors(self):
        with pytest.raises(ValueError, match="window larger than input"):
            conv(np.ones((1, 1, 1)), np.ones((1, 2, 1)))
        with pytest.raises(ValueError, match="shape mismatch"):
            conv(np.ones((1, 3, 2)), np.ones((1, 2, 1)))       # depth
        with pytest.raises(ValueError, match="shape mismatch"):
            conv(np.ones((3, 2)), np.ones((1, 2, 1)))          # not (rows, width, depth)
        with pytest.raises(ValueError, match="shape mismatch"):
            conv(np.ones((1, 3, 1)), np.ones((1, 3, 1)))       # not a 1x2 filter

    def test_maxpool2_pairs(self):
        assert np.array_equal(pool([1.0, 3.0, 2.0, 0.0]), [3.0, 2.0])
        assert np.array_equal(pool([1.0, 2.0, 3.0, 4.0]), [2.0, 4.0])

    def test_maxpool2_drops_trailing_odd_slot(self):
        assert np.array_equal(pool([5.0, 1.0, 4.0]), [5.0])

    def test_maxpool2_width_one(self):
        with pytest.raises(ValueError, match="window larger than input"):
            pool([7.0])

    def test_dense_relu_affine(self):
        def dense(x, w, b):
            return relu(linear(Tensor(np.array([x])), Tensor(w), Tensor(np.asarray(b)))).data[0]
        assert np.array_equal(dense([2.0, -3.0], np.eye(2), np.zeros(2)), [2.0, 0.0])
        assert np.array_equal(dense([1.0, 2.0], np.eye(2), [-1.0, 3.0]), [0.0, 5.0])

    def test_dense_shape_mismatch(self):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            linear(Tensor(np.ones((1, 3))), Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_softmax_uniform_and_shift_invariance(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])
        z = np.array([0.3, -1.2, 2.0])
        assert np.allclose(softmax(z), softmax(z + 500.0))
        assert softmax(z).sum() == pytest.approx(1.0, abs=1e-12)

    def test_softmax_xent_frozen_values(self):
        probs, loss = softmax_xent_batch(Tensor(np.array([[0.0, 0.0]])), [1])
        assert np.allclose(probs, [[0.5, 0.5]])
        assert float(loss.data) == pytest.approx(0.6931471805599453, abs=1e-12)
        probs, loss = softmax_xent_batch(Tensor(np.array([[2.0, 0.0]])), [0])
        assert probs[0, 0] == pytest.approx(0.8807970779778824, abs=1e-12)
        assert float(loss.data) == pytest.approx(0.1269280110429726, abs=1e-12)

    def test_softmax_xent_extreme_logits_stay_finite(self):
        _, loss = softmax_xent_batch(Tensor(np.array([[1000.0, -1000.0]])), [1])
        assert np.isfinite(loss.data) and float(loss.data) == pytest.approx(2000.0)


class TestDropout:
    def drop(self, x, rate, mode, rng=None):
        return dropout_t(Tensor(np.asarray(x, dtype=np.float64)), rate, mode, rng).data

    def test_eval_mode_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(self.drop(x, 0.5, "eval"), x)

    def test_rate_zero_is_identity(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(self.drop(x, 0.0, "train", np.random.default_rng(0)), x)

    def test_train_mode_zeroes_or_rescales(self):
        x = np.full(1000, 3.0)
        out = self.drop(x, 0.25, "train", np.random.default_rng(1))
        assert set(np.round(np.unique(out), 12)) == {0.0, 4.0}  # 3 / (1 - 0.25)

    def test_train_mode_reproducible(self):
        x = np.arange(64, dtype=np.float64)
        a = self.drop(x, 0.5, "train", np.random.default_rng(9))
        b = self.drop(x, 0.5, "train", np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(100_000)
        out = self.drop(x, 0.5, "train", np.random.default_rng(5))
        assert abs(out.mean() - 1.0) < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="rate must be in"):
            self.drop(np.ones(3), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValueError, match="rate must be in"):
            self.drop(np.ones(3), -0.1, "eval")
        with pytest.raises(ValueError, match="mode must be"):
            self.drop(np.ones(3), 0.5, "test", np.random.default_rng(0))
        with pytest.raises(ValueError, match="needs an rng"):
            self.drop(np.ones(3), 0.5, "train")

    def test_tensor_form_eval_returns_same_node(self):
        x = Tensor(np.ones(4), requires_grad=True)
        assert dropout_t(x, 0.5, "eval") is x

    def test_tensor_form_gradient_masks_like_forward(self):
        x = Tensor(np.ones(32), requires_grad=True)
        out = dropout_t(x, 0.5, "train", np.random.default_rng(2))
        tsum(out).backward()
        # gradient passes exactly where the forward survived, same scale
        assert np.array_equal(x.grad, out.data)


class TestAdam:
    def test_single_step_frozen_value(self):
        # theta=1, g=1, defaults: mhat=vhat=1 -> 1 - 0.001 / (1 + 1e-8)
        p = np.array([1.0])
        state = AdamState(p)
        adam_step(p, np.array([1.0]), state)
        assert p[0] == pytest.approx(0.99900000001, abs=1e-13)

    def test_zero_gradient_leaves_param_unchanged(self):
        p = np.array([2.0, -7.0])
        state = AdamState(p)
        adam_step(p, np.zeros(2), state)
        assert np.array_equal(p, [2.0, -7.0])

    def test_descends_a_quadratic(self):
        p = np.array([3.0])
        state = AdamState(p, lr=0.1)
        vals = []
        for _ in range(200):
            adam_step(p, 2.0 * p, state)   # d/dp of p^2
            vals.append(abs(p[0]))
        assert vals[-1] < 0.5 and vals[-1] < vals[0]

    def test_scalar_and_nd_params_update_in_place(self):
        p0 = Tensor(np.array(1.0))
        p1 = Tensor(np.ones((2, 3)))
        flat = pack_parameters([p0, p1])
        state = AdamState(flat)
        adam_step(flat, np.ones(7), state)
        assert p0.data.shape == () and p1.data.shape == (2, 3)
        assert p0.data < 1.0 and np.all(p1.data < 1.0)

    def test_misaligned_inputs_rejected(self):
        p = np.ones(2)
        state = AdamState(p)
        with pytest.raises(ValueError, match="must align"):
            adam_step(np.ones(3), np.ones(3), state)
        with pytest.raises(ValueError, match="does not match param shape"):
            adam_step(p, np.ones(3), state)

    @settings(max_examples=50, deadline=None)
    @given(shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                           min_size=1, max_size=5),
           seed=st.integers(0, 2**16), lr=st.sampled_from([0.001, 0.1, 3.0]))
    def test_flat_update_equals_the_per_tensor_loop(self, shapes, seed, lr):
        rng = np.random.default_rng(seed)
        tensors = [Tensor(rng.normal(size=shape)) for shape in shapes]
        separate = [t.data.copy() for t in tensors]
        flat = pack_parameters(tensors)
        state, list_state = AdamState(flat, lr=lr), ListAdamState(separate, lr=lr)
        for _ in range(4):
            grads = [rng.normal(size=shape) * rng.choice([0.0, 1e-6, 1.0, 1e3])
                     for shape in shapes]
            for t, g in zip(tensors, grads):
                t.grad = g
            adam_step(flat, gather_grads(tensors, np.empty_like(flat)), state)
            list_adam_step(separate, grads, list_state)
        for t, want in zip(tensors, separate):
            assert t.data.tobytes() == want.tobytes()


class TestFlatParameters:
    def test_views_share_one_buffer_in_order(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.array(6.0))
        c = Tensor(np.array([7.0, 8.0]))
        flat = pack_parameters([a, b, c])
        assert np.array_equal(flat, np.arange(9.0))
        assert all(t.data.base is flat for t in (a, b, c))
        assert a.data.shape == (2, 3) and b.data.shape == () and c.data.shape == (2,)
        flat[...] = -flat
        assert np.array_equal(a.data, -np.arange(6.0).reshape(2, 3)) and c.data[1] == -8.0

    def test_gather_grads_zero_fills_unreached_tensors(self):
        a, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros(3))
        flat = pack_parameters([a, b])
        b.grad = np.array([1.0, 2.0, 3.0])
        got = gather_grads([a, b], np.full_like(flat, np.nan))
        assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])


class TestGraphOps:
    def test_backward_needs_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar root"):
            relu(x).backward()

    def test_zero_grads_clears(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(x).backward()
        assert x.grad is not None
        zero_grads([x])
        assert x.grad is None

    def test_reused_node_accumulates(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        tsum(concat(x, x, axis=0)).backward()
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_maxpool_pairs_forward_and_tie_routing(self):
        x = Tensor(np.array([1.0, 1.0, 2.0, 5.0]).reshape(1, 1, 1, 4), requires_grad=True)
        out = maxpool_pairs(x)
        assert np.array_equal(out.data.ravel(), [1.0, 5.0])
        tsum(out).backward()
        # tie sends gradient left; strict max sends it to the winner
        assert np.array_equal(x.grad.ravel(), [1.0, 0.0, 0.0, 1.0])

    def test_maxpool_pairs_odd_width_drops_tail(self):
        x = Tensor(np.array([3.0, 1.0, 9.0]).reshape(1, 1, 1, 3), requires_grad=True)
        out = maxpool_pairs(x)
        assert np.array_equal(out.data.ravel(), [3.0])
        tsum(out).backward()
        assert np.array_equal(x.grad.ravel(), [1.0, 0.0, 0.0])

    def test_conv1x2_full_matches_plain_form(self, plain_oracle):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 5, 4))
        w = rng.normal(size=(2, 2, 4))
        b = rng.normal(size=2)
        out = conv1x2_full(Tensor(x), Tensor(w), Tensor(b))
        for f in range(2):
            assert np.allclose(out.data[0, f], plain_oracle.conv_1x2(x[0], w[f], b[f]))

    def test_softmax_xent_batch_matches_plain_mean(self, plain_oracle):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        probs, loss = softmax_xent_batch(Tensor(z), labels)
        per = [plain_oracle.softmax_xent(z[i], int(labels[i])) for i in range(5)]
        assert np.allclose(probs, np.stack([p for p, _ in per]))
        assert float(loss.data) == pytest.approx(np.mean([l for _, l in per]), abs=1e-12)

    def test_transpose_and_reshape_round_trip_gradient(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = reshape(transpose(x, (2, 0, 1)), (4, 6))
        tsum(y).backward()
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))


class TestTokenConv:
    """conv1x2_tokens against conv1x2_full on the looked-up vectors."""

    def inputs(self, seed, shape=(3, 4, 9), vocab=15, depth=6, k=5):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, vocab, size=shape).astype(np.int32)
        ids[0, -1] = 0                                  # one all-padding row
        vectors = rng.normal(size=(vocab, depth))
        vectors[0] = 0.0
        return ids, vectors, rng.normal(size=(k, 2, depth)), rng.normal(size=k) * 0.3

    def test_forward_and_parameter_gradients_match_dense_op(self):
        ids, vectors, w, b = self.inputs(0)
        upstream = np.random.default_rng(1).normal(size=(3, 5, 4, 8))
        outs, grads = [], []
        for op, first in ((conv1x2_tokens, (ids, vectors)), (conv1x2_full, (Tensor(vectors[ids]),))):
            wt, bt = Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
            out = op(*first, wt, bt)
            out.grad = upstream
            out._backward()
            outs.append(out.data)
            grads.append((wt.grad, bt.grad))

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        assert outs[0].shape == (3, 5, 4, 8)
        assert rel(outs[0], outs[1]) <= 1e-12
        assert rel(grads[0][0], grads[1][0]) <= 1e-12      # dW
        assert rel(grads[0][1], grads[1][1]) <= 1e-12      # db

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 3), rows=st.integers(1, 4),
           width=st.integers(2, 9), vocab=st.integers(1, 12), k=st.integers(1, 5))
    def test_weight_gradient_equals_per_filter_bincounts(self, seed, batch, rows, width,
                                                         vocab, k):
        ids, vectors, w, b = self.inputs(seed, (batch, rows, width), vocab, 3, k)
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = conv1x2_tokens(ids, vectors, wt, bt)
        out.grad = np.random.default_rng(seed + 1).normal(size=out.data.shape)
        out._backward()
        per_filter = np.moveaxis(out.grad * (out.data > 0.0), 1, 0).reshape(k, -1)
        dproj = token_tap_sums(ids[:, :, :-1], ids[:, :, 1:], per_filter, vocab)
        assert np.array_equal(wt.grad, (dproj @ vectors).reshape(2, k, -1).transpose(1, 0, 2))

    def test_padding_id_gives_bias_then_relu(self):
        w = Tensor(np.ones((2, 2, 3)))
        b = Tensor(np.array([0.5, -0.5]))
        vectors = np.ones((4, 3))
        vectors[0] = 0.0
        out = conv1x2_tokens(np.zeros((1, 1, 3), dtype=np.int32), vectors, w, b)
        assert np.array_equal(out.data[0, :, 0], [[0.5, 0.5], [0.0, 0.0]])

    def test_rejects_bad_inputs(self):
        ids, vectors, w, b = self.inputs(2)
        w, b = Tensor(w), Tensor(b)
        with pytest.raises(ValueError, match="shape mismatch"):
            conv1x2_tokens(ids.astype(np.float64), vectors, w, b)
        with pytest.raises(ValueError, match="shape mismatch"):
            conv1x2_tokens(ids, vectors[:, :4], w, b)
        with pytest.raises(ValueError, match="out of range"):
            conv1x2_tokens(ids + 15, vectors, w, b)
        with pytest.raises(ValueError, match="out of range"):
            conv1x2_tokens(ids - 1, vectors, w, b)
        with pytest.raises(ValueError, match="window larger than input"):
            conv1x2_tokens(ids[:, :, :1], vectors, w, b)


# few distinct values, so windows and pooled pairs tie often
TIE_PRONE = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])
# signed zeros, ties and magnitudes from 1e-300 to 1e300
EXTREME = (st.sampled_from([-0.0, 0.0, 1.0, -1.0])
           | st.floats(-1e300, 1e300).filter(lambda v: v == 0.0 or abs(v) >= 1e-300))


@st.composite
def depthwise_inputs(draw):
    """A block input (B, C, R, W), or (B, 1, R, W) that the first conv
    fans out to C channels, and one or two per-channel convs, from a small
    value set (ties) with some biases low enough to silence a channel; W
    covers odd and even widths at every conv count."""
    n_convs = draw(st.integers(1, 2))
    channels = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 2)), draw(st.sampled_from([1, channels])),
             draw(st.integers(1, 2)), draw(st.integers(n_convs + 2, 9)))
    x = draw(hnp.arrays(np.float64, shape, elements=TIE_PRONE))
    convs = [(draw(hnp.arrays(np.float64, (channels, 2), elements=TIE_PRONE)),
              draw(hnp.arrays(np.float64, channels, elements=TIE_PRONE | st.just(-50.0))))
             for _ in range(n_convs)]
    return x, convs, draw(st.booleans())


def run_block(op, x, convs, upstream, x_grad=True):
    """op's output and every gradient for one backward from `upstream`."""
    xt = Tensor(x.copy(), requires_grad=x_grad)
    params = [(Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True))
              for w, b in convs]
    out = op(xt, params)
    root = tsum(reshape(linear(reshape(out, (1, out.data.size)),
                               Tensor(upstream.reshape(-1, 1)), Tensor(np.zeros(1))), (1, 1)))
    root.backward()
    return out.data, xt.grad, [(w.grad, b.grad) for w, b in params]


class TestDepthwisePool:
    """The fused block tail against the chain of nodes it replaced
    (tests/conftest.py), compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=depthwise_inputs(), seed=st.integers(0, 2**16))
    def test_forward_and_gradients_equal_the_chain(self, inputs, seed):
        x, convs, x_grad = inputs
        out_shape = (x.shape[0], len(convs[0][1]), x.shape[2], (x.shape[3] - len(convs)) // 2)
        upstream = np.random.default_rng(seed).normal(size=out_shape)
        got = run_block(depthwise_pool, x, convs, upstream, x_grad)
        want = run_block(chain_depthwise_pool, x, convs, upstream, x_grad)
        assert got[0].shape == out_shape
        assert_same_bits(got[0], want[0])
        assert (got[1] is None) == (not x_grad)
        if x_grad:
            assert_same_bits(got[1], want[1])
        for (gw, gb), (ww, wb) in zip(got[2], want[2]):
            assert_same_bits(gw, ww)
            assert_same_bits(gb, wb)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 3), rows=st.integers(1, 3),
           width=st.integers(4, 12), channels=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_fan_out_equals_conv1x2_full_then_the_tail(self, data, batch, rows, width,
                                                       channels, seed):
        # the integrator's first block as it ran before the fan-out was
        # fused: conv1x2_full at depth 1, then depthwise_pool on conv2
        def arrays(shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=EXTREME))

        x = arrays((batch, 1, rows, width))
        convs = [(arrays((channels, 2)), arrays(channels)) for _ in range(2)]
        upstream = np.random.default_rng(seed).normal(size=(batch, channels, rows,
                                                            (width - 2) // 2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = run_block(depthwise_pool, x, convs, upstream)
            want = run_block(lambda xt, params: depthwise_pool(fan_out_conv(xt, *params[0]),
                                                               params[1:]),
                             x, convs, upstream)
        for g, w in zip([got[0], got[1], *got[2][0], *got[2][1]],
                        [want[0], want[1], *want[2][0], *want[2][1]]):
            assert_same_bits(g, w)

    def test_ties_route_left_and_silent_channels_pass_nothing(self):
        # channel 0: identity conv over a row whose pairs tie; channel 1:
        # a bias that keeps every ReLU at zero
        x = np.array([[3.0, 3.0, 5.0, 5.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0]]).reshape(1, 2, 1, 5)
        convs = [(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, -50.0]))]
        upstream = np.array([[2.0, 7.0], [1.0, 1.0]]).reshape(1, 2, 1, 2)
        out, gx, [(gw, gb)] = run_block(depthwise_pool, x, convs, upstream)
        assert_same_bits(out.ravel(), [3.0, 5.0, 0.0, 0.0])
        assert_same_bits(gx.ravel(), [2.0, 0.0, 7.0, 0.0, 0.0] + [0.0] * 5)
        assert_same_bits(gb, [9.0, 0.0])
        assert not gw[1].any()

    def test_rejects_bad_inputs(self):
        x = Tensor(np.ones((1, 2, 1, 4)))
        conv = (Tensor(np.ones((2, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="depthwise_pool shape mismatch"):
            depthwise_pool(x, [(Tensor(np.ones((3, 2))), Tensor(np.zeros(3)))])
        with pytest.raises(ValueError, match="depthwise_pool shape mismatch"):
            depthwise_pool(x, [(Tensor(np.ones((2, 2))), Tensor(np.zeros(3)))])
        with pytest.raises(ValueError, match="at least one convolution"):
            depthwise_pool(x, [])
        with pytest.raises(ValueError, match="window larger than input"):
            depthwise_pool(x, [conv, conv, conv])
        assert depthwise_pool(x, [conv, conv]).data.shape == (1, 2, 1, 1)
        # a one-channel input fans out, but every conv keeps one channel count
        one = Tensor(np.ones((1, 1, 1, 4)))
        assert depthwise_pool(one, [conv, conv]).data.shape == (1, 2, 1, 1)
        with pytest.raises(ValueError, match="depthwise_pool shape mismatch"):
            depthwise_pool(one, [conv, (Tensor(np.ones((3, 2))), Tensor(np.zeros(3)))])
        with pytest.raises(ValueError, match="depthwise_pool shape mismatch"):
            depthwise_pool(one, [(Tensor(np.ones((2, 2, 1))), Tensor(np.zeros(2)))])

    def test_no_gradient_builds_no_graph(self):
        x = Tensor(np.ones((1, 2, 1, 4)))
        out = depthwise_pool(x, [(Tensor(np.ones((2, 2))), Tensor(np.zeros(2)))])
        assert not out.requires_grad and out._parents == () and out._backward is None


class TestGatherRows:
    def test_forward_and_summed_gradient(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        index = np.array([[2, 0], [2, 2]])
        out = gather_rows(x, index)
        assert out.data.shape == (2, 2, 2)
        assert np.array_equal(out.data[1, 0], [4.0, 5.0])
        out.grad = np.arange(8.0).reshape(2, 2, 2)
        out._backward()
        # row 2 was read three times, row 0 once, row 1 never
        assert np.array_equal(x.grad, [[2.0, 3.0], [0.0, 0.0], [0 + 4 + 6.0, 1 + 5 + 7.0]])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(Tensor(np.ones((2, 3))), np.array([0, 2]))
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(Tensor(np.ones((2, 3))), np.array([-1]))


class TestGradCheck:
    def test_token_conv_and_row_gather(self):
        # same kink-free regime as test_conv_pool_stack, on token ids; the
        # gather reads some rows several times, so its backward must sum
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 7, size=(1, 4, 6)).astype(np.int32)
        vectors = rng.normal(size=(7, 4)) * 0.2
        vectors[0] = 0.0
        wf = Tensor(rng.normal(size=(3, 2, 4)) * 0.3, requires_grad=True)
        bf = Tensor(np.full(3, 0.6), requires_grad=True)
        wo = Tensor(rng.normal(size=(5 * 3, 2)) * 0.3, requires_grad=True)
        bo = Tensor(np.zeros(2), requires_grad=True)
        index = np.array([[0, 3, 3, 1, 0], [2, 3, 0, 0, 1]])
        labels = np.array([0, 1])

        def loss_fn():
            h = maxpool_pairs(conv1x2_tokens(ids, vectors, wf, bf))   # (1, 3, 4, 2)
            h = maxpool_pairs(h)                                      # (1, 3, 4, 1)
            rows = transpose(reshape(h, (3, 4)), (1, 0))              # (4, 3)
            flat = reshape(gather_rows(rows, index), (2, 15))
            _, loss = softmax_xent_batch(linear(flat, wo, bo), labels)
            return loss

        assert grad_check(loss_fn, [wf, bf, wo, bo], n_coords=60, seed=1) < 1e-5

    def test_dense_softmax_stack(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 6)))
        w1 = Tensor(rng.normal(size=(6, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.normal(size=5) * 0.1, requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)) * 0.5, requires_grad=True)
        b2 = Tensor(np.zeros(2), requires_grad=True)
        labels = np.array([0, 1, 0, 1])

        def loss_fn():
            h = relu(linear(x, w1, b1))
            _, loss = softmax_xent_batch(linear(h, w2, b2), labels)
            return loss

        assert grad_check(loss_fn, [w1, b1, w2, b2], n_coords=47) < 1e-6

    def test_conv_pool_stack(self):
        # data chosen to keep every unit away from relu kinks and pool
        # ties, where subgradients and finite differences legitimately
        # disagree; tie routing has its own deterministic test
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 6, 4)) * 0.2)
        wf = Tensor(rng.normal(size=(3, 2, 4)) * 0.3, requires_grad=True)
        bf = Tensor(np.full(3, 0.6), requires_grad=True)
        wd = Tensor(rng.uniform(0.25, 0.75, size=(3, 2)), requires_grad=True)
        bd = Tensor(np.full(3, 0.05), requires_grad=True)
        labels = np.array([0, 1])
        wo = Tensor(rng.normal(size=(3 * 3, 2)) * 0.3, requires_grad=True)
        bo = Tensor(np.zeros(2), requires_grad=True)

        def loss_fn():
            h = conv1x2_full(x, wf, bf)            # (2, 3, 3, 5)
            h = depthwise_pool(h, [(wd, bd)])      # (2, 3, 3, 2)
            h = maxpool_pairs(h)                   # (2, 3, 3, 1)
            flat = reshape(h, (2, 9))
            _, loss = softmax_xent_batch(linear(flat, wo, bo), labels)
            return loss

        err = grad_check(loss_fn, [wf, bf, wd, bd, wo, bo], n_coords=60, seed=1)
        assert err < 1e-5

    def test_two_conv_block_with_input_gradients(self):
        # a later block of the stack: two per-channel convs, then the pool,
        # with the gradient flowing on to the block input
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(0.2, 1.0, size=(2, 3, 2, 7)), requires_grad=True)
        w1 = Tensor(rng.uniform(0.25, 0.75, size=(3, 2)), requires_grad=True)
        b1 = Tensor(np.full(3, 0.05), requires_grad=True)
        w2 = Tensor(rng.uniform(0.25, 0.75, size=(3, 2)), requires_grad=True)
        b2 = Tensor(np.full(3, -0.1), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3, 2, 2)))

        def loss_fn():
            h = depthwise_pool(x, [(w1, b1), (w2, b2)])   # (2, 3, 2, 2)
            flat = reshape(h, (1, h.data.size))
            return reshape(linear(flat, reshape(weights, (h.data.size, 1)), Tensor(np.zeros(1))),
                           ())

        assert grad_check(loss_fn, [x, w1, b1, w2, b2], n_coords=80, seed=2) < 1e-6

    def test_fan_out_block_with_input_gradients(self):
        # the integrator's first block: one channel fanned out to three,
        # a per-channel conv, then the pool, with the gradient flowing on
        # to the widened rows
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(0.2, 1.0, size=(2, 1, 3, 7)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b1 = Tensor(np.full(3, 0.6), requires_grad=True)
        w2 = Tensor(rng.uniform(0.25, 0.75, size=(3, 2)), requires_grad=True)
        b2 = Tensor(np.full(3, 0.05), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3, 3, 2)))

        def loss_fn():
            h = depthwise_pool(x, [(w1, b1), (w2, b2)])   # (2, 3, 3, 2)
            flat = reshape(h, (1, h.data.size))
            return reshape(linear(flat, reshape(weights, (h.data.size, 1)), Tensor(np.zeros(1))),
                           ())

        assert grad_check(loss_fn, [x, w1, b1, w2, b2], n_coords=80, seed=3) < 1e-6

    def test_input_gradients_too(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 2, 5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)) * 0.5, requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)

        def loss_fn():
            return tsum(maxpool_pairs(conv1x2_full(x, w, b)))

        assert grad_check(loss_fn, [x, w, b], n_coords=45, seed=3) < 1e-5

    def test_no_parameters_is_vacuous(self):
        def loss_fn():
            return Tensor(np.array(1.5))
        assert grad_check(loss_fn, []) == 0.0

    def test_non_finite_loss_rejected(self):
        def loss_fn():
            return Tensor(np.array(np.inf))
        with pytest.raises(ValueError, match="non-finite loss"):
            grad_check(loss_fn, [Tensor(np.ones(1), requires_grad=True)])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        arrays = {
            "layer0.w": rng.normal(size=(3, 4)),
            "layer0.b": rng.normal(size=4),
            "scalar": np.array(0.1),
        }
        meta = {"variant": "full", "seed": 3, "mins": [0.0, 2.5], "nested": {"a": 1}}
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, arrays, meta)
        back, meta_back = load_checkpoint(path)
        assert meta_back == meta
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert np.array_equal(back[name], arr)

    @settings(max_examples=100, deadline=None)
    @given(arrays=st.dictionaries(
               st.from_regex(r"[a-z][a-z0-9_.]{0,15}", fullmatch=True),
               hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                       max_side=4)),
               max_size=6),
           meta=st.dictionaries(st.text(max_size=8), st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.text(max_size=8),
               lambda inner: st.lists(inner, max_size=4)
               | st.dictionaries(st.text(max_size=8), inner, max_size=4),
               max_leaves=12), max_size=6))
    def test_any_arrays_and_meta_round_trip(self, tmp_path_factory, arrays, meta):
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
        save_checkpoint(path, arrays, meta)
        back, meta_back = load_checkpoint(path)
        assert meta_back == meta
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()   # bit for bit, NaN payloads too

    def test_exact_filename_is_used(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, {"a": np.zeros(2)}, {})
        assert path.exists()
        assert not (tmp_path / "checkpoint.bin.npz").exists()

    def test_every_crc_is_checked(self, tmp_path):
        # '<f8' -> '<f4' in a large array's header: numpy reads half of the
        # member, so only a check of every CRC-32 sees the damage
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, {"w": np.arange(10000.0)}, {})
        damaged = path.read_bytes().replace(b"'<f8'", b"'<f4'", 1)
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="damaged checkpoint .*CRC-32 for 'w.npy'"):
            load_checkpoint(path)

    def test_damage_is_a_value_error_naming_the_path(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, {"w": np.ones(3)}, {"a": 1})
        good = path.read_bytes()
        for damaged in (b"", good[:40], good[:-1], b"not a zip archive"):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: damaged checkpoint"):
                load_checkpoint(path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.bin")

    def test_reserved_array_name(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(tmp_path / "c.bin", {"__meta__": np.zeros(1)}, {})


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's")
class TestFreedMemory:
    def test_freed_arrays_are_reused_without_page_faults(self):
        # one round is 64 MB of activations freed at once, as at the end of
        # a training step; glibc's default trims it and faults it in again
        def round_faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            arrays = [np.ones(1 << 20) for _ in range(8)]
            del arrays
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults = [round_faults() for _ in range(4)]
        assert max(faults[2:]) < 200, faults
