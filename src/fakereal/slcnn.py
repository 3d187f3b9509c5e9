"""Sentence-level CNN over articles stored as token ids.

Each sentence row is pushed through a stack of horizontal convolutional
blocks (HCB): two 1x2 convolutions with ReLU, then max pooling over
adjacent pairs.  One block maps row width w to (w-2)//2, so a stack sized
by required_hcbs() reduces every row to a single k-vector.  Rows share
weights, so the latent matrix is row-permutation-equivariant.

A block is its two convolutions' parameters as the list of (w, b) pairs
that nncore.depthwise_pool takes, and a stack is a list of blocks.  The
first convolution of the first block fans out to k channels; every other
convolution is per-channel with an independent 1x2 kernel.  On article
text that first conv is full-depth: it reads token ids and the frozen
word-vector table and consumes the embedding axis, so its weight is
(k, 2, E) (nncore.conv1x2_tokens).  The integrator's stack reads one
channel, which its first conv fans out to k.  Every block's per-channel
convolutions and its pooling run as one graph node
(nncore.depthwise_pool).
"""

import numpy as np

from . import nncore
from .nncore import Tensor

CONV_BIAS_INIT = 0.01


def required_hcbs(width: int) -> int:
    """Number of blocks needed to reduce a row of this width to exactly 1.

    Applies w <- (w-2)//2 until hitting 1; widths that stall above 1
    (anything reaching 2 or 3) are rejected.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    n = 0
    w = width
    while w > 1:
        if w < 4:
            raise ValueError(f"width {width} cannot reduce to 1: recurrence stalls at {w}")
        w = (w - 2) // 2
        n += 1
    return n


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def _depthwise_init(rng, k):
    # positive, roughly sum-1 kernels: a zero-mean draw leaves ~25% of
    # channel-layers with two negative taps, and with no cross-channel
    # mixing those channels stay silent forever
    return rng.uniform(0.25, 0.75, (k, 2))


def _param(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def init_hcb_stack(width: int, in_depth: int | None, k: int, rng) -> list:
    """Build the parameter blocks for one reduction stack, each block
    [(w1, b1), (w2, b2)].

    Block 1's first conv fans out to k channels with He-uniform weights:
    (k, 2, in_depth) over an embedding axis, or (k, 2) over a one-channel
    input when in_depth is None.  Everything after is per-channel (k, 2)
    with positive init (see _depthwise_init).  The fan-out conv gets a
    small positive bias so no output channel starts all-negative.
    """
    if width == 1:
        raise ValueError("width 1 leaves the stack no block to run")
    blocks = []
    for b in range(required_hcbs(width)):
        if b == 0 and in_depth is None:
            w1 = _he_uniform(rng, (k, 2), 2)
        elif b == 0:
            w1 = _he_uniform(rng, (k, 2, in_depth), 2 * in_depth)
        else:
            w1 = _depthwise_init(rng, k)
        w2 = _depthwise_init(rng, k)
        blocks.append([(_param(w1), _param(np.full(k, CONV_BIAS_INIT))),
                       (_param(w2), _param(np.zeros(k)))])
    return blocks


def hcb_apply(block: list, x: Tensor) -> Tensor:
    """One block on a batched graph tensor: (B, k, R, W), or (B, 1, R, W)
    that conv1 fans out, to (B, k, R, (W-2)//2), as one
    nncore.depthwise_pool node.
    """
    width = x.data.shape[3]
    if width < 4:
        raise ValueError(f"block cannot reduce input of width {width}")
    return nncore.depthwise_pool(x, block)


def stack_apply(blocks: list, x: Tensor) -> Tensor:
    """Run blocks until width 1: input (B, k, R, W), or (B, 1, R, W) that
    the first block fans out; output (B, R, k)."""
    h = x
    for block in blocks:
        h = hcb_apply(block, h)
    if h.data.shape[3] != 1:
        raise ValueError(f"stack left width {h.data.shape[3]}, expected 1")
    h = nncore.reshape(h, h.data.shape[:3])
    return nncore.transpose(h, (0, 2, 1))


def slcnn_apply(blocks: list, ids, vectors) -> Tensor:
    """Graph forward of the text stack `blocks` (init_hcb_stack(t_s, E, k)):
    token ids (B, rows, t_s) into the frozen vector table (V, E) -> latent
    (B, rows, k).  Id 0 is padding.

    Rows never mix, and every all-padding row has the same latent, so the
    stack runs once on the rows holding a word plus one padding row; a
    row gather then spreads the results back to (B, rows, k).  A row's
    latent does not depend on which other rows share its batch.
    """
    ids = np.asarray(ids)
    if ids.ndim != 3:
        raise ValueError(f"token ids must be 3D (batch, rows, t_s), got shape {ids.shape}")
    if required_hcbs(ids.shape[2]) != len(blocks):
        raise ValueError(f"token id shape {ids.shape} does not match model block count "
                         f"{len(blocks)}")
    (w1, b1), *rest = blocks[0]
    embed_dim = w1.data.shape[2]
    if np.ndim(vectors) != 2 or np.shape(vectors)[1] != embed_dim:
        raise ValueError(f"vector table shape {np.shape(vectors)} does not match model "
                         f"(E={embed_dim})")
    batch, rows, width = ids.shape
    flat = ids.reshape(batch * rows, width)
    words = flat.any(axis=1)
    n_words = int(np.count_nonzero(words))
    source = np.full(batch * rows, n_words)      # padding rows read the last computed row
    source[words] = np.arange(n_words)
    computed = np.concatenate([flat[words], np.zeros((1, width), dtype=ids.dtype)])

    h = nncore.conv1x2_tokens(computed[None], vectors, w1, b1)
    h = nncore.depthwise_pool(h, rest)
    latent = stack_apply(blocks[1:], h)
    latent = nncore.reshape(latent, latent.data.shape[1:])
    return nncore.gather_rows(latent, source.reshape(batch, rows))
