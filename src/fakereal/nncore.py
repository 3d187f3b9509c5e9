"""Minimal dense-tensor numeric core.

Exactly the operations the classifier needs: 1x2 convolutions (over
word vectors and per-channel), pairwise max pooling, dense layers,
inverted dropout, softmax cross-entropy, and Adam, with reverse-mode
gradients.  float64 throughout, row-major numpy storage.

Graph ops (conv1x2_tokens, depthwise_pool, linear, relu, reshape,
transpose, concat, gather_rows, dropout_t, softmax_xent_batch) build a
tape of `Tensor` nodes over batched arrays.  depthwise_pool is a conv
block's per-channel convs with ReLU, then pairwise max pooling, as one
node; its first conv may fan a one-channel input out to every channel (a
depthwise conv with a channel multiplier).  A result that needs no
gradient (no input requires grad) records no parents and no backward
closure, so an evaluation forward builds no tape.

pack_parameters moves a parameter list into one flat buffer, and
adam_step updates such a buffer from the flat gradient that gather_grads
collects.
"""

import ctypes
import json
import platform
import zipfile
import zlib

import numpy as np

from .fileio import atomic_write


def _hold_freed_memory():
    """Keep glibc from handing freed array memory back to the OS.

    A training step allocates and frees tens of MB of activations and
    gradients; each graph is freed by reference counting as soon as its
    step ends.  By default glibc then trims the freed top of the heap (and
    returns large blocks to the OS with munmap), so the next step faults
    the same pages in again, and how often that happens depends on the
    process's allocation history.  Fixed thresholds (the dynamic mmap
    threshold is off once one is set) keep blocks up to 32 MB on the heap
    and the freed heap mapped, so every step reuses the same memory.
    """
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    m_trim_threshold, m_mmap_threshold = -1, -3   # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)   # glibc's upper limit on 64-bit
    mallopt(m_trim_threshold, 256 << 20)


_hold_freed_memory()


class Tensor:
    """A value in the computation graph.

    Holds a float64 ndarray, an optional gradient of the same shape and,
    when it requires grad, the parent nodes it was computed from and a
    backprop closure that routes this node's gradient to the parents.
    Leaves with requires_grad=True are the trainable parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # without a gradient to route there is no tape: the inputs are not
        # kept alive, and are freed as soon as the caller drops them
        self._parents = tuple(parents) if self.requires_grad else ()

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        """Reverse-mode gradient of this scalar wrt all reachable leaves.

        Runs once per graph: every reached node's closure and parent links
        are dropped as the pass goes."""
        if self.data.shape != ():
            raise ValueError("backward requires a scalar root")
        topo = self._topo_order()
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
            # each closure reads its own output node; dropping it and the
            # parent links lets reference counting free the spent graph
            node._backward = None
            node._parents = ()

    def _topo_order(self):
        """Every node reachable from this one, each after its parents."""
        # iterative topo sort; the graph is shallow but recursion is fragile
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return topo

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accum(t, g):
    # never in-place: g may be a view of a finalized upstream gradient
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def pack_parameters(tensors):
    """Move the values of `tensors` into one float64 buffer, in order, and
    make each Tensor's data a view of its slice; returns the buffer.

    Writing into the buffer (an optimizer step, a restore) updates every
    Tensor at once.  Keep the views: write values with `[...] =`, never
    rebind a Tensor's data."""
    flat = np.concatenate([t.data.ravel() for t in tensors])
    start = 0
    for t in tensors:
        stop = start + t.data.size
        t.data = flat[start:stop].reshape(t.data.shape)
        start = stop
    return flat


def gather_grads(tensors, out):
    """Write the gradients of `tensors` into the flat array `out`, laid
    out as pack_parameters lays out their values; a tensor the last
    backward pass did not reach contributes zeros."""
    np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1)
                    for t in tensors], out=out)
    return out


# ---------------------------------------------------------------------------
# graph ops


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), (x,))
    if out.requires_grad:
        def bp():
            _accum(x, out.grad * (out.data > 0.0))
        out._backward = bp
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(B, n) @ (n, m) + (m,) affine map, no activation."""
    xb, wb, bb = x.data, w.data, b.data
    if xb.ndim != 2 or wb.ndim != 2 or xb.shape[1] != wb.shape[0] or bb.shape != (wb.shape[1],):
        raise ValueError(f"linear shape mismatch: x{xb.shape} w{wb.shape} b{bb.shape}")
    out = Tensor(xb @ wb + bb, (x, w, b))
    if out.requires_grad:
        def bp():
            g = out.grad
            _accum(x, g @ wb.T)
            _accum(w, xb.T @ g)
            _accum(b, g.sum(axis=0))
        out._backward = bp
    return out


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    out = Tensor(x.data.reshape(shape), (x,))
    if out.requires_grad:
        def bp():
            _accum(x, out.grad.reshape(old))
        out._backward = bp
    return out


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.data, axes), (x,))
    if out.requires_grad:
        def bp():
            _accum(x, np.transpose(out.grad, inv))
        out._backward = bp
    return out


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    out = Tensor(np.concatenate([a.data, b.data], axis=axis), (a, b))
    split = a.data.shape[axis]
    if out.requires_grad:
        def bp():
            ga, gb = np.split(out.grad, [split], axis=axis)
            _accum(a, ga)
            _accum(b, gb)
        out._backward = bp
    return out


def conv1x2_tokens(ids, vectors, w: Tensor, b: Tensor) -> Tensor:
    """Full-depth 1x2 convolution with fused ReLU over rows of token ids
    into a frozen vector table.

    ids: (B, R, W) integer rows indexing vectors (V, E); w: (k, 2, E)
    stacked filters; b: (k,).  Returns (B, k, R, W-1): filter f at slot t
    is ReLU(w[f, 0] . vectors[id_t] + w[f, 1] . vectors[id_{t+1}] + b[f]),
    spanning two adjacent width slots across the whole embedding axis; rows
    share weights.  The table takes no gradient, so the conv is linear in
    it: every table row is projected once, P = vectors @ [W0; W1]^T, and
    each output is P0[id_t] + P1[id_{t+1}] + b.  Backward scatter-adds the
    masked gradient into per-token rows of dP and takes dW = dP^T @ vectors.
    """
    ids = np.asarray(ids)
    vb, wb, bb = np.asarray(vectors, dtype=np.float64), w.data, b.data
    if (ids.ndim != 3 or ids.dtype.kind not in "iu" or vb.ndim != 2 or wb.ndim != 3
            or wb.shape[1] != 2 or vb.shape[1] != wb.shape[2] or bb.shape != (wb.shape[0],)):
        raise ValueError(f"conv1x2_tokens shape mismatch: ids{ids.shape} "
                         f"vectors{vb.shape} w{wb.shape} b{bb.shape}")
    if ids.shape[2] < 2:
        raise ValueError("window larger than input")
    k, vocab = wb.shape[0], vb.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"token id out of range for a table of {vocab} rows")
    i0 = ids[:, :, :-1]
    i1 = ids[:, :, 1:]
    # (2k, V): rows 0..k-1 project onto tap 0, rows k..2k-1 onto tap 1
    proj = np.concatenate([wb[:, 0, :], wb[:, 1, :]]) @ vb.T
    pre = (np.take(proj[:k], i0, axis=1) + np.take(proj[k:], i1, axis=1)
           + bb[:, None, None, None])
    out = Tensor(np.ascontiguousarray(np.moveaxis(np.maximum(pre, 0.0), 0, 1)), (w, b))
    if out.requires_grad:
        def bp():
            gm = out.grad * (out.data > 0.0)
            _accum(b, gm.sum(axis=(0, 2, 3)))
            per_filter = np.moveaxis(gm, 1, 0).reshape(k, -1)
            # one bincount over bins (tap*k + f)*V + id; each bin still sums
            # its weights in (B, R, T) order, as one bincount per filter did
            bins = np.arange(2 * k).reshape(2, k, 1) * vocab
            keys = bins + np.stack([i0.reshape(-1), i1.reshape(-1)])[:, None, :]
            weights = np.broadcast_to(per_filter, (2,) + per_filter.shape)
            dproj = np.bincount(keys.reshape(-1), weights=weights.reshape(-1),
                                minlength=2 * k * vocab).reshape(2 * k, vocab)
            _accum(w, (dproj @ vb).reshape(2, k, -1).transpose(1, 0, 2))
        out._backward = bp
    return out


def gather_rows(x: Tensor, index) -> Tensor:
    """out[i] = x[index[i]] along axis 0; the output has shape
    index.shape + x.shape[1:].  Rows of x may be gathered any number of
    times, and backward sums their gradients with one bincount."""
    xb = x.data
    index = np.asarray(index)
    if index.dtype.kind not in "iu" or (index.size and (index.min() < 0
                                                         or index.max() >= xb.shape[0])):
        raise ValueError(f"gather_rows index out of range for {xb.shape[0]} rows")
    out = Tensor(xb[index], (x,))
    if out.requires_grad:
        def bp():
            width = int(np.prod(xb.shape[1:]))
            keys = (index.reshape(-1, 1) * width + np.arange(width)).ravel()
            g = np.bincount(keys, weights=out.grad.ravel(), minlength=xb.size)
            _accum(x, g.reshape(xb.shape))
        out._backward = bp
    return out


def depthwise_pool(x: Tensor, convs) -> Tensor:
    """A conv block's per-channel convs and its pooling as one graph node.

    x: (B, C, R, W), or (B, 1, R, W); convs: one or more (w, b) pairs, w
    (C, 2) one independent 1x2 kernel per channel and b (C,).  On a
    one-channel input the first conv fans out: every channel's kernel reads
    the same row.  Each conv is followed by ReLU, then stride-2 max pooling
    over adjacent width slots: (B, C, R, (W - len(convs)) // 2).  A
    trailing slot at odd width is dropped, and a tie routes the gradient to
    the left element only.  Channels never mix.
    """
    xb = x.data
    convs = list(convs)
    if not convs:
        raise ValueError("depthwise_pool needs at least one convolution")
    channels = convs[0][0].data.shape[:1]    # (C,) when the first kernel is well formed
    for w, b in convs:
        if (xb.ndim != 4 or xb.shape[1:2] not in ((1,), channels)
                or w.data.shape != channels + (2,) or b.data.shape != channels):
            raise ValueError(f"depthwise_pool shape mismatch: x{xb.shape} w{w.data.shape} "
                             f"b{b.data.shape}")
    if xb.shape[3] - len(convs) < 2:
        raise ValueError("window larger than input")
    taps = [(w.data[:, 0].reshape(1, -1, 1, 1), w.data[:, 1].reshape(1, -1, 1, 1))
            for w, _ in convs]
    inputs = []          # what each conv reads; the later ones are ReLU outputs
    h = xb
    for (w0, w1), (_, b) in zip(taps, convs):
        inputs.append(h)
        pre = h[:, :, :, :-1] * w0
        pre += h[:, :, :, 1:] * w1
        pre += b.data.reshape(1, -1, 1, 1)
        h = np.maximum(pre, 0.0, out=pre)
    width = h.shape[3]
    half = width // 2
    a = h[:, :, :, 0:2 * half:2]
    c = h[:, :, :, 1:2 * half:2]
    out = Tensor(np.maximum(a, c), (x,) + tuple(t for wb in convs for t in wb))
    if out.requires_grad:
        left = a >= c
        last_shape = h.shape
        del h, a, c

        def bp():
            # the pool's winner mask routes the gradient straight into the
            # last conv's masked gradient; a winner passed its ReLU iff the
            # pooled value is positive.  Signed zeros follow the chain of
            # nodes this replaced, which added each gradient into zeros: a
            # slot that gets nothing, or only -0.0, holds +0.0
            passed = out.data > 0.0
            gm = np.empty(last_shape)
            for start, won in ((0, left), (1, ~left)):
                routed = out.grad * won
                routed += 0.0
                routed *= passed
                gm[:, :, :, start:2 * half:2] = routed
            if width % 2:
                gm[:, :, :, -1] = 0.0
            for i in range(len(convs) - 1, -1, -1):
                (w, b), (w0, w1), xi = convs[i], taps[i], inputs[i]
                _accum(b, gm.sum(axis=(0, 2, 3)))
                _accum(w, np.stack([np.einsum("bcrt,bcrt->c", gm, xi[:, :, :, :-1]),
                                    np.einsum("bcrt,bcrt->c", gm, xi[:, :, :, 1:])], axis=1))
                if i == 0 and not x.requires_grad:
                    break
                gx = np.empty_like(xi)
                if xi.shape[1] == gm.shape[1]:
                    np.multiply(gm, w0, out=gx[:, :, :, :-1])
                    np.multiply(gm[:, :, :, -1:], w1, out=gx[:, :, :, -1:])
                    gx[:, :, :, 1:-1] += gm[:, :, :, :-1] * w1
                else:
                    # the fanned-out input: each tap sums over the channels
                    gx[:, 0, :, :-1] = np.einsum("bcrt,c->brt", gm, w.data[:, 0])
                    tap1 = np.einsum("bcrt,c->brt", gm, w.data[:, 1])
                    gx[:, 0, :, -1] = tap1[:, :, -1]
                    gx[:, 0, :, 1:-1] += tap1[:, :, :-1]
                gx += 0.0     # -0.0 to +0.0, as the chain's sum into zeros gave
                if i == 0:
                    _accum(x, gx)
                else:
                    gx *= xi > 0.0       # xi is the previous conv's ReLU output
                    gm = gx
        out._backward = bp
    return out


def dropout_t(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: train mode zeroes each element with probability
    `rate` and scales survivors by 1/(1-rate); eval mode is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, (x,))
    if out.requires_grad:
        def bp():
            _accum(x, out.grad * keep)
        out._backward = bp
    return out


def softmax_xent_batch(logits: Tensor, labels):
    """Softmax + mean cross-entropy over a batch.

    logits (B, n), labels (B,) int class indices.  Returns (probs ndarray,
    scalar loss Tensor).  Log-sum-exp is max-stabilized so the loss stays
    finite for any finite logits.
    """
    z = logits.data
    labels = np.asarray(labels)
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError(f"softmax_xent shape mismatch: logits{z.shape} labels{labels.shape}")
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    idx = np.arange(z.shape[0])
    losses = np.log(denom[:, 0]) - zs[idx, labels]
    out = Tensor(losses.mean(), (logits,))
    if out.requires_grad:
        def bp():
            g = probs.copy()
            g[idx, labels] -= 1.0
            _accum(logits, g * (float(out.grad) / z.shape[0]))
        out._backward = bp
    return probs, out


def softmax(logits):
    """Row-wise softmax over the last axis of a plain array."""
    z = np.asarray(logits, dtype=np.float64)
    zs = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(zs)
    return ez / ez.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# optimization


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam accumulators for a flat parameter buffer."""

    def __init__(self, params, lr=0.001):
        self.lr = float(lr)
        self.step = 0
        self.m = np.zeros(np.shape(params))
        self.v = np.zeros(np.shape(params))


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update with bias correction.

    params is a float64 buffer updated in place (pack_parameters' buffer,
    so every Tensor viewing it sees the new values); grads has its shape.
    Each element takes exactly the arithmetic of the textbook update, so
    the result does not depend on how the parameters are grouped.
    """
    if np.shape(params) != state.m.shape:
        raise ValueError("params, grads, and state must align")
    if np.shape(grads) != np.shape(params):
        raise ValueError(f"grad shape {np.shape(grads)} does not match param shape "
                         f"{np.shape(params)}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    denom = np.sqrt(v / c2)
    denom += ADAM_EPS
    step = m / c1
    step *= state.lr
    step /= denom
    params -= step


# ---------------------------------------------------------------------------
# checkpointing


_META_KEY = "__meta__"


def save_checkpoint(path, arrays: dict, meta: dict):
    """Write named parameter arrays plus a JSON metadata blob.

    Bit-exact: float64 arrays round-trip unchanged.  Written through an
    open handle so the target name is used verbatim, and replaced whole
    (fileio.atomic_write), so a failed save leaves the old file.
    """
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **{_META_KEY: blob, **arrays})


def load_checkpoint(path):
    """Inverse of save_checkpoint: (arrays dict, meta dict).

    Every stored CRC-32 is checked before anything is read, so a file cut
    short or with a damaged byte raises ValueError naming the path.  A
    damaged name can still drop or rename an array, which the caller's
    layout check must catch."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as z:
                damaged = z.zip.testzip()
                if damaged is not None:
                    raise ValueError(f"bad CRC-32 for {damaged!r}")
                meta = json.loads(bytes(z[_META_KEY].tobytes()).decode("utf-8"))
                arrays = {k: z[k] for k in z.files if k != _META_KEY}
        except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, NotImplementedError,
                OSError, RuntimeError, ValueError) as exc:
            raise ValueError(f"{path}: damaged checkpoint ({exc})") from exc
    return arrays, meta
