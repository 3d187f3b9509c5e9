"""Shared fixtures: independent reference implementations used by the unit
and acceptance suites."""

import types
from dataclasses import dataclass

import numpy as np
import pytest

from fakereal import fusion, nncore, slcnn
from fakereal.nncore import Tensor


@pytest.fixture(scope="session")
def influence_oracle():
    """Naive reference for the level-walk influence score.

    Materializes every follower level by full neighborhood expansion (the
    raw recurrence), then sums first-reach counts obtained by explicit set
    differences against all earlier levels.  Deliberately a different
    algorithm from the production breadth-first walk.
    """

    def oracle(followers, n_users, u, p, d_max=None):
        cap = n_users if d_max is None else min(d_max, n_users)
        levels = []
        current = set(followers.get(u, ())) - {u}
        for _ in range(cap):
            levels.append(current)
            nxt = set()
            for x in current:
                nxt |= set(followers.get(x, ()))
            current = nxt - {u}
        seen = set()
        total = 0.0
        for i, level in enumerate(levels, start=1):
            new = level - seen
            total += (p ** (i - 1)) * len(new)
            seen |= level
        return total / (n_users - 1)

    return oracle


@pytest.fixture(scope="session")
def influence_walk():
    """The breadth-first walk over Python sets that scored one publisher
    at a time before social.influence_table: frontier by frontier, each
    level adds p^(level-1) per user it reaches first, down to g.d_max."""

    def walk(g, u):
        n = g.n_users
        if n < 2:
            raise ValueError(f"influence needs at least 2 users, got N={n}")
        if g.counts is not None and not g.followers:
            raise ValueError("graph holds only follower counts; use follower_count_influence")
        frontier = g.followers.get(u, set()) - {u}
        reached = set(frontier)
        total = float(len(frontier))
        level = 1
        weight = 1.0
        while frontier:
            level += 1
            if g.d_max is not None and level > g.d_max:
                break
            weight *= g.p
            nxt = set()
            for x in frontier:
                nxt |= g.followers.get(x, set())
            nxt -= reached
            nxt.discard(u)
            total += weight * len(nxt)
            reached |= nxt
            frontier = nxt
        return total / (n - 1)

    return walk


@pytest.fixture(scope="session")
def plain_oracle():
    """Single-instance numpy forms of the graph ops, written out directly
    from their definitions: one 1x2 convolution filter, pairwise max
    pooling, and softmax cross-entropy for one logit vector."""

    def conv_1x2(x, w, b):
        """ReLU(w . window + b) over every 1x2 window of x (rows, width,
        depth), for one filter w (2, depth) and a scalar bias b."""
        x = np.asarray(x, dtype=np.float64)
        return np.maximum(x[:, :-1, :] @ w[0] + x[:, 1:, :] @ w[1] + b, 0.0)

    def maxpool2(x):
        """Max over adjacent pairs along the last axis; an odd tail slot is dropped."""
        half = x.shape[-1] // 2
        return np.maximum(x[..., 0:2 * half:2], x[..., 1:2 * half:2])

    def softmax_xent(z, label):
        """(probabilities, -log p[label]) for one logit vector."""
        zs = np.asarray(z, dtype=np.float64) - np.max(z)
        ez = np.exp(zs)
        return ez / ez.sum(), float(np.log(ez.sum()) - zs[label])

    return types.SimpleNamespace(conv_1x2=conv_1x2, maxpool2=maxpool2,
                                 softmax_xent=softmax_xent)


# ---------------------------------------------------------------------------
# dense-input oracle: articles as (t_d+1, t_s, E) word-vector tensors, and
# the text CNN's first conv as conv1x2_full over them


@dataclass
class ArticleTensor:
    data: np.ndarray


def embed_word(table, word):
    """Vector for one word: stored if in vocabulary, stable-random if OOV,
    zeros for the padding token."""
    return table.lookup(word)


def build_tensor(tok, th, table):
    """Fixed-shape (t_d+1, t_s, E) tensor for one article: row 0 the
    headline, rows 1..t_d the first t_d body sentences, each row the
    vectors of its first t_s words; every other slot is zero."""
    data = np.zeros((th.t_d + 1, th.t_s, table.dimension))
    rows = [tok.headline_tokens] + tok.body_sentences[: th.t_d]
    for r, words in enumerate(rows):
        for c, word in enumerate(words[: th.t_s]):
            data[r, c, :] = embed_word(table, word)
    return ArticleTensor(data)


def dense_latent(model, x):
    """Word vectors (B, rows, t_s, E) -> latent (B, rows, k), every row,
    padding included, through conv1x2_full and the rest of the stack."""
    return slcnn.stack_apply(model.blocks, Tensor(x))


def dense_logits(model, x, explicit, mode="eval", rng=None):
    """fusion.forward_batch on word vectors (B, rows, t_s, E)."""
    latent = dense_latent(model.slcnn, x)
    if model.integrator:
        latent = fusion.integrator_apply(model.integrator, fusion.integrate_batch(latent, explicit))
    flat = nncore.reshape(latent, (x.shape[0], model.rows * model.k))
    return fusion.head_apply(model.head, flat, model.dropout_rate, mode, rng)


def as_tokens(x):
    """Word vectors (..., E) as (ids, vectors) with vectors[ids] == x: each
    slot holding a nonzero vector gets its own table row, and all-zero
    slots get the padding id 0."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    live = flat.any(axis=1)
    ids = np.zeros(flat.shape[0], dtype=np.int32)
    ids[live] = np.arange(1, np.count_nonzero(live) + 1)
    vectors = np.concatenate([np.zeros((1, x.shape[-1])), flat[live]])
    return ids.reshape(x.shape[:-1]), vectors


@pytest.fixture(scope="session")
def dense_oracle():
    return types.SimpleNamespace(ArticleTensor=ArticleTensor, embed_word=embed_word,
                                 build_tensor=build_tensor, latent=dense_latent,
                                 logits=dense_logits, as_tokens=as_tokens)
