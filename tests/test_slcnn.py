"""Sentence-level CNN: block-count law, width traces, shapes, the
row-independence of the convolutional stack, and the token-id forward
against the dense-input oracle."""

import numpy as np
import pytest

from fakereal import nncore
from fakereal.nncore import Tensor
from fakereal.seeds import rng_for
from fakereal.slcnn import (
    CONV_BIAS_INIT,
    hcb_apply,
    init_hcb_stack,
    required_hcbs,
    slcnn_apply,
    stack_apply,
)

from conftest import grad_check, width_trace


def tensors(blocks):
    """A stack's parameters in block order: w1, b1, w2, b2 of each block."""
    return [t for block in blocks for pair in block for t in pair]


class TestRequiredHcbs:
    def test_reference_widths(self):
        assert required_hcbs(46) == 4
        assert required_hcbs(13) == 2
        assert required_hcbs(11) == 2
        assert required_hcbs(10) == 2

    def test_small_widths(self):
        assert required_hcbs(1) == 0
        assert required_hcbs(4) == 1
        assert required_hcbs(5) == 1
        assert required_hcbs(12) == 2

    def test_stalling_widths(self):
        with pytest.raises(ValueError, match="width 8 cannot reduce to 1: recurrence stalls at 3"):
            required_hcbs(8)
        for w in (2, 3, 6, 7, 9):
            with pytest.raises(ValueError, match="cannot reduce to 1"):
                required_hcbs(w)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            required_hcbs(0)

    def test_width_trace_46(self):
        assert width_trace(46) == [46, 45, 44, 22, 21, 20, 10, 9, 8, 4, 3, 2, 1]

    def test_width_trace_follows_two_convs_then_pool(self):
        assert width_trace(10) == [10, 9, 8, 4, 3, 2, 1]
        assert width_trace(1) == [1]

    def test_trace_consistent_with_block_count(self):
        for w in (4, 5, 10, 11, 12, 13, 46):
            # every block contributes three width states after the start
            assert len(width_trace(w)) == 1 + 3 * required_hcbs(w)


class TestBlockConfig:
    def test_only_1x2_convolutions(self):
        # both block convs take exactly two taps along the width
        ids, vectors = np.ones((1, 2, 5), dtype=np.int32), np.ones((2, 5))
        with pytest.raises(ValueError, match="conv1x2_tokens shape mismatch"):
            nncore.conv1x2_tokens(ids, vectors, Tensor(np.ones((4, 3, 5))), Tensor(np.zeros(4)))
        for channels in (2, 1):
            x = Tensor(np.ones((1, channels, 3, 5)))
            with pytest.raises(ValueError, match="depthwise_pool shape mismatch"):
                nncore.depthwise_pool(x, [(Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))])


class TestInitStack:
    def test_structure(self):
        blocks = init_hcb_stack(46, 5, 8, rng_for(0, "init"))
        assert len(blocks) == 4
        for i, [(w1, b1), (w2, b2)] in enumerate(blocks):
            assert w1.data.shape == ((8, 2, 5) if i == 0 else (8, 2))
            assert w2.data.shape == (8, 2)
            assert np.all(b1.data == CONV_BIAS_INIT)
            assert np.all(b2.data == 0.0)
        assert all(t.requires_grad for t in tensors(blocks))

    def test_pair_kernels_start_positive(self):
        # per-channel kernels have no cross-channel mixing, so a kernel with
        # two non-positive taps would silence its channel permanently
        blocks = init_hcb_stack(46, 5, 8, rng_for(1, "init"))
        for [(w1, _), _] in blocks[1:]:
            assert np.all(w1.data > 0.0)
        for [_, (w2, _)] in blocks:
            assert np.all(w2.data > 0.0)

    def test_fan_out_stack_draws_the_depth_one_weights(self):
        # a one-channel stack's first conv is (k, 2): the He-uniform draws
        # of the (k, 2, 1) full-depth weight it replaced, in the same order
        for width in (13, 10, 46):
            fan_out = tensors(init_hcb_stack(width, None, 8, rng_for(3, "init")))
            full = tensors(init_hcb_stack(width, 1, 8, rng_for(3, "init")))
            assert fan_out[0].data.shape == (8, 2)
            assert np.array_equal(fan_out[0].data, full[0].data[:, :, 0])
            assert len(fan_out) == len(full)
            for ta, tb in zip(fan_out[1:], full[1:]):
                assert np.array_equal(ta.data, tb.data)
        # an embedding axis of one stays full-depth
        assert init_hcb_stack(10, 1, 4, rng_for(0, "init"))[0][0][0].data.shape == (4, 2, 1)

    def test_deterministic_for_seed(self):
        a = tensors(init_hcb_stack(10, 3, 4, rng_for(7, "init")))
        b = tensors(init_hcb_stack(10, 3, 4, rng_for(7, "init")))
        assert len(a) == len(b) == 8
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.data, tb.data)


class TestForward:
    def test_block_width_arithmetic(self, dense_oracle):
        rng = rng_for(0, "init")
        blocks = init_hcb_stack(46, 3, 2, rng)
        h = dense_oracle.block(blocks[0], np.random.default_rng(0).normal(size=(1, 5, 46, 3)))
        assert h.data.shape == (1, 2, 5, 22)
        h = hcb_apply(blocks[1], h)
        assert h.data.shape == (1, 2, 5, 10)
        fan_out = init_hcb_stack(13, None, 2, rng)
        h = hcb_apply(fan_out[0], Tensor(np.random.default_rng(1).normal(size=(1, 1, 5, 13))))
        assert h.data.shape == (1, 2, 5, 5)

    def test_block_rejects_narrow_input(self):
        blocks = init_hcb_stack(4, None, 1, rng_for(0, "init"))
        with pytest.raises(ValueError, match="block cannot reduce input of width 3"):
            hcb_apply(blocks[0], Tensor(np.ones((1, 1, 2, 3))))

    def test_stack_output_width_one(self, dense_oracle):
        blocks = init_hcb_stack(10, 3, 4, rng_for(2, "init"))
        out = stack_apply(blocks[1:], dense_oracle.block(blocks[0], np.ones((2, 6, 10, 3))))
        assert out.data.shape == (2, 6, 4)
        out = stack_apply(init_hcb_stack(10, None, 4, rng_for(2, "init")),
                          Tensor(np.ones((2, 1, 6, 10))))
        assert out.data.shape == (2, 6, 4)

    def test_plain_block_form_matches_graph_form(self, plain_oracle, dense_oracle):
        # one article through the full-depth block, one filter and channel at a time
        blk = init_hcb_stack(10, 3, 4, rng_for(3, "init"))[0]
        x = np.random.default_rng(1).normal(size=(5, 10, 3))
        graph = dense_oracle.block(blk, x[None]).data[0]
        assert graph.shape == (4, 5, 4)
        (w1, b1), (w2, b2) = blk
        for f in range(4):
            h = plain_oracle.conv_1x2(x, w1.data[f], b1.data[f])
            h = plain_oracle.conv_1x2(h[:, :, None], w2.data[f][:, None], b2.data[f])
            assert np.allclose(graph[f], plain_oracle.maxpool2(h))

    def test_latent_shape_politifact_sizes(self, dense_oracle):
        blocks = init_hcb_stack(46, 4, 8, rng_for(0, "init"))
        ids, vectors = dense_oracle.as_tokens(np.random.default_rng(2).normal(size=(1, 281, 46, 4)))
        latent = slcnn_apply(blocks, ids, vectors)
        assert latent.data.shape == (1, 281, 8)

    def test_rows_processed_independently(self, dense_oracle):
        # shared weights and no row mixing: permuting input rows permutes
        # the latent rows and changes nothing else
        blocks = init_hcb_stack(10, 3, 4, rng_for(4, "init"))
        ids, vectors = dense_oracle.as_tokens(np.random.default_rng(3).normal(size=(1, 7, 10, 3)))
        perm = np.random.default_rng(4).permutation(7)
        assert np.allclose(slcnn_apply(blocks, ids, vectors).data[0][perm],
                           slcnn_apply(blocks, ids[:, perm], vectors).data[0])

    def test_zero_input_zero_bias_gives_zero_latent(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(5, "init"))
        for [(_, b1), (_, b2)] in blocks:
            b1.data[...] = 0.0
            b2.data[...] = 0.0
        latent = slcnn_apply(blocks, np.zeros((1, 3, 10), dtype=np.int32), np.zeros((1, 3)))
        assert np.all(latent.data == 0.0)

    def test_padding_rows_give_equal_latent_rows(self, dense_oracle):
        blocks = init_hcb_stack(10, 3, 4, rng_for(6, "init"))
        x = np.zeros((1, 4, 10, 3))
        x[0, 0] = np.random.default_rng(5).normal(size=(10, 3))
        latent = slcnn_apply(blocks, *dense_oracle.as_tokens(x)).data[0]
        assert np.array_equal(latent[1], latent[2])
        assert np.array_equal(latent[2], latent[3])
        # the shared padding row is the latent the dense stack gives a zero row
        assert np.allclose(latent, dense_oracle.latent(blocks, x).data[0], rtol=1e-12, atol=1e-12)

    def test_unreducible_t_s_rejected_at_init(self):
        with pytest.raises(ValueError, match="cannot reduce to 1"):
            init_hcb_stack(8, 4, 2, rng_for(0, "init"))

    def test_input_must_match_model(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(0, "init"))
        vectors = np.ones((5, 3))
        with pytest.raises(ValueError, match="does not match model"):
            slcnn_apply(blocks, np.ones((1, 3, 4), dtype=np.int32), vectors)
        with pytest.raises(ValueError, match="width 9 cannot reduce to 1"):
            slcnn_apply(blocks, np.ones((1, 3, 9), dtype=np.int32), vectors)
        with pytest.raises(ValueError, match=r"does not match model \(E=3\)"):
            slcnn_apply(blocks, np.ones((1, 3, 10), dtype=np.int32), np.ones((5, 2)))
        with pytest.raises(ValueError, match="must be 3D"):
            slcnn_apply(blocks, np.ones((3, 10), dtype=np.int32), vectors)
        with pytest.raises(ValueError, match="out of range"):
            slcnn_apply(blocks, np.full((1, 3, 10), 5, dtype=np.int32), vectors)

    def test_block_count_consistency_checked(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(0, "init"))
        with pytest.raises(ValueError, match="does not match model block count 1"):
            slcnn_apply(blocks[:1], np.ones((1, 3, 10), dtype=np.int32), np.ones((2, 3)))


class TestTokenForward:
    """slcnn_apply on token ids against the dense oracle: every row, padding
    included, through conv1x2_full on the looked-up word vectors."""

    def batch(self, seed, n=3, rows=6, t_s=10, vocab=12):
        rng = np.random.default_rng(seed)
        ids = rng.integers(1, vocab, size=(n, rows, t_s)).astype(np.int32)
        lengths = rng.integers(0, t_s + 1, size=(n, rows))
        ids[np.arange(t_s) >= lengths[:, :, None]] = 0    # ragged rows, some all padding
        vectors = rng.normal(size=(vocab, 3))
        vectors[0] = 0.0
        return ids, vectors

    def test_matches_dense_oracle(self, dense_oracle):
        blocks = init_hcb_stack(10, 3, 4, rng_for(7, "init"))
        ids, vectors = self.batch(0)
        assert (~ids.any(axis=2)).any() and ids.any(axis=2).any()
        got = slcnn_apply(blocks, ids, vectors).data
        want = dense_oracle.latent(blocks, vectors[ids]).data
        assert got.shape == want.shape == (3, 6, 4)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_latent_does_not_depend_on_batch_neighbours(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(8, "init"))
        ids, vectors = self.batch(1, n=4)
        together = slcnn_apply(blocks, ids, vectors).data
        for i in range(4):
            alone = slcnn_apply(blocks, ids[i:i + 1], vectors).data[0]
            assert np.array_equal(alone, together[i])
        swapped = slcnn_apply(blocks, ids[[2, 0]], vectors).data
        assert np.array_equal(swapped[1], together[0])

    def test_all_padding_batch(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(9, "init"))
        latent = slcnn_apply(blocks, np.zeros((2, 3, 10), dtype=np.int32), np.zeros((4, 3))).data
        assert np.all(latent == latent[0, 0])

    def test_gradients_match_dense_oracle(self, dense_oracle):
        ids, vectors = self.batch(2)
        upstream = np.random.default_rng(3).normal(size=(3, 6, 4))
        grads = []
        for forward in (lambda m: slcnn_apply(m, ids, vectors),
                        lambda m: dense_oracle.latent(m, vectors[ids])):
            blocks = init_hcb_stack(10, 3, 4, rng_for(10, "init"))
            out = forward(blocks)
            loss = nncore.linear(nncore.reshape(out, (1, out.data.size)),
                                 Tensor(upstream.reshape(-1, 1)), Tensor(np.zeros(1)))
            nncore.reshape(loss, ()).backward()
            grads.append([t.grad for t in tensors(blocks)])
        for got, want in zip(*grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_grad_check_through_token_conv_and_row_gather(self):
        blocks = init_hcb_stack(10, 3, 4, rng_for(11, "init"))
        # conv2 starts with zero bias, so a channel fed by dead conv1 units
        # sits exactly on its relu kink, where finite differences average
        # the two one-sided slopes; move it off the kink
        for [_, (_, b2)] in blocks:
            b2.data[...] = 0.05
        ids, vectors = self.batch(4)
        upstream = Tensor(np.random.default_rng(5).normal(size=(3 * 6 * 4, 1)))

        def loss_fn():
            out = slcnn_apply(blocks, ids, vectors)
            flat = nncore.reshape(out, (1, out.data.size))
            return nncore.reshape(nncore.linear(flat, upstream, Tensor(np.zeros(1))), ())

        assert grad_check(loss_fn, tensors(blocks), n_coords=80, seed=1) < 1e-6
