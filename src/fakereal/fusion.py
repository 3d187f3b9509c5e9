"""Feature integration and classification head.

The integrator appends the article's explicit publisher features (credit
and influence vectors) to every row of the latent matrix, then reduces
each widened row back to k values with its own HCB stack, reading the
row as one channel that the stack's first conv fans out to k.  The head
flattens the matrix row-major and applies dense(64)+ReLU, dropout,
dense(64)+ReLU, dropout, dense(2), softmax.

A model's parameters are the (w, b) pairs its graph ops take: each stack
is a list of blocks, each block [(w1, b1), (w2, b2)] (see slcnn), and the
head is its three dense layers' [(w1, b1), (w2, b2), (w3, b3)].

Every variant is handed full EXPLICIT_ORDER rows and reads its columns:
  slcnn    - none; the integrator is skipped entirely
  slcnn_c  - credit only (nct, ncf, num_p)
  slcnn_i  - influence only (ni, num_p)
  full     - all five
num_p rides along in both source vectors, so the full row width is k+5.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nncore
from .nncore import Tensor
from .slcnn import _he_uniform, _param, init_hcb_stack, slcnn_apply, stack_apply
from .social import EXPLICIT_ORDER

VARIANTS = {
    "slcnn": (),
    "slcnn_c": ("nct", "ncf", "num_p_credit"),
    "slcnn_i": ("ni", "num_p_influence"),
    "full": EXPLICIT_ORDER,
}

# each variant's columns of an EXPLICIT_ORDER row
_COLUMNS = {variant: np.array([EXPLICIT_ORDER.index(name) for name in names], dtype=np.intp)
            for variant, names in VARIANTS.items()}


def integrate_batch(latent: Tensor, explicit: np.ndarray) -> Tensor:
    """Append each article's explicit row to all of its latent rows:
    latent (B, R, k) + explicit (B, m) -> (B, R, k+m)."""
    b, rows, _ = latent.data.shape
    if explicit.shape[0] != b:
        raise ValueError(f"explicit batch {explicit.shape[0]} != latent batch {b}")
    tiled = np.repeat(explicit[:, None, :], rows, axis=1)
    return nncore.concat(latent, Tensor(tiled), axis=2)


def integrator_apply(blocks: list, x: Tensor) -> Tensor:
    """Reduce integrated rows back to k-vectors: (B, R, W) -> (B, R, k).
    The widened rows are one channel, which the stack's first conv fans
    out to k."""
    b, rows, width = x.data.shape
    return stack_apply(blocks, nncore.reshape(x, (b, 1, rows, width)))


def init_head(in_dim: int, hidden: int, rng) -> list:
    """The dense layers in_dim -> hidden -> hidden -> 2 as three (w, b)
    pairs: He-uniform weights drawn in layer order, zero biases."""
    return [(_param(_he_uniform(rng, (fan_in, out), fan_in)), _param(np.zeros(out)))
            for fan_in, out in ((in_dim, hidden), (hidden, hidden), (hidden, 2))]


def head_apply(head: list, flat: Tensor, dropout_rate: float,
               mode: str, rng=None) -> Tensor:
    """(B, in_dim) flattened features -> (B, 2) logits."""
    (w1, b1), (w2, b2), (w3, b3) = head
    h = nncore.relu(nncore.linear(flat, w1, b1))
    h = nncore.dropout_t(h, dropout_rate, mode, rng)
    h = nncore.relu(nncore.linear(h, w2, b2))
    h = nncore.dropout_t(h, dropout_rate, mode, rng)
    return nncore.linear(h, w3, b3)


# ---------------------------------------------------------------------------
# the assembled model


@dataclass
class Model:
    variant: str
    slcnn: list           # the text stack's blocks
    integrator: list      # the integrator stack's blocks; [] for slcnn
    head: list            # three (w, b) pairs
    rows: int
    t_s: int
    k: int
    dropout_rate: float
    flat: np.ndarray = field(init=False, repr=False)   # every parameter's values

    def __post_init__(self):
        # one buffer for the optimizer, snapshots and restores; each
        # parameter Tensor's data is a view of its slice
        self.flat = nncore.pack_parameters(self.param_tensors())

    def parameters(self) -> dict:
        """Name -> leaf Tensor, in a stable order (drives Adam slots and
        checkpoints)."""
        params = {}
        for stack, blocks in (("slcnn", self.slcnn), ("integrator", self.integrator)):
            for i, block in enumerate(blocks):
                for conv, (w, b) in enumerate(block, 1):
                    params[f"{stack}.b{i}.conv{conv}.w"] = w
                    params[f"{stack}.b{i}.conv{conv}.b"] = b
        for layer, (w, b) in enumerate(self.head, 1):
            params[f"head.w{layer}"] = w
            params[f"head.b{layer}"] = b
        return params

    def param_tensors(self) -> list:
        return list(self.parameters().values())


def init_model(variant: str, t_s: int, t_d: int, embed_dim: int, rng,
               k: int = 8, dense_width: int = 64, dropout_rate: float = 0.5) -> Model:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    rows = t_d + 1
    text = init_hcb_stack(t_s, embed_dim, k, rng)
    m = len(VARIANTS[variant])
    integrator = init_hcb_stack(k + m, None, k, rng) if m else []
    head = init_head(rows * k, dense_width, rng)
    return Model(variant=variant, slcnn=text, integrator=integrator, head=head,
                 rows=rows, t_s=t_s, k=k, dropout_rate=dropout_rate)


def forward_batch(model: Model, ids: np.ndarray, vectors: np.ndarray, explicit: np.ndarray,
                  mode: str, rng=None) -> Tensor:
    """Batched articles as token ids (B, rows, t_s) into the word-vector
    table (V, E) + full EXPLICIT_ORDER rows (B, 5) -> logits (B, 2)."""
    if ids.shape[1:] != (model.rows, model.t_s):
        raise ValueError(f"batch has articles of shape {ids.shape[1:]}, model expects "
                         f"{(model.rows, model.t_s)} (rows, t_s)")
    if np.shape(explicit) != (ids.shape[0], len(EXPLICIT_ORDER)):
        raise ValueError(f"explicit rows have shape {np.shape(explicit)}, expected "
                         f"{(ids.shape[0], len(EXPLICIT_ORDER))} (EXPLICIT_ORDER columns)")
    latent = slcnn_apply(model.slcnn, ids, vectors)
    if model.integrator:
        latent = integrator_apply(model.integrator,
                                  integrate_batch(latent, explicit[:, _COLUMNS[model.variant]]))
    flat = nncore.reshape(latent, (ids.shape[0], model.rows * model.k))
    return head_apply(model.head, flat, model.dropout_rate, mode, rng)


def loss_batch(model: Model, ids, vectors, explicit, labels, mode: str, rng=None) -> Tensor:
    """Forward plus softmax cross-entropy; labels are 0=Real / 1=Fake ints.
    Returns the scalar loss Tensor."""
    logits = forward_batch(model, ids, vectors, explicit, mode, rng)
    return nncore.softmax_xent_batch(logits, labels)[1]


def predict_batch(model: Model, ids, vectors, explicit):
    """Eval-mode predictions: (probs (B, 2), int labels (B,)); ties go Real.
    Raises ValueError when a probability is not finite.

    The forward runs with the parameters not requiring grad, so it builds
    no graph: each activation is freed once the next layer has read it."""
    params = model.param_tensors()
    trainable = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        logits = forward_batch(model, ids, vectors, explicit, "eval")
    finally:
        for t, flag in zip(params, trainable):
            t.requires_grad = flag
    probs = nncore.softmax(logits.data)
    if not np.isfinite(probs).all():
        raise ValueError("non-finite class probabilities: the model or its inputs hold "
                         "a nan or an infinity")
    preds = (probs[:, 1] > probs[:, 0]).astype(np.int64)
    return probs, preds
