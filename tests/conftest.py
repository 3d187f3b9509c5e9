"""Shared fixtures: independent reference implementations used by the unit
and acceptance suites, and test-only helpers that test modules import from
here (`from conftest import grad_check`)."""

import os
import shutil
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from unittest import mock

import numpy as np
import pytest

from fakereal import corpus, fileio, fusion, nncore, slcnn
from fakereal.corpus import CorpusError
from fakereal.nncore import Tensor, _accum
from fakereal.pipeline import RunConfig
from fakereal.social import FollowerGraph


def assert_same_bits(got, want):
    """got and want hold the same bits: dtype, shape and bytes.  Unlike
    np.array_equal, -0.0 differs from 0.0 and a NaN matches only the
    same NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes()


def grad_check(loss_fn, params, n_coords=200, h=1e-4, seed=0):
    """Max relative error between backprop and central finite differences.

    loss_fn() must rebuild the graph from the current parameter values and
    return a scalar Tensor; params is the list of leaf Tensors to probe.
    Up to n_coords coordinates are sampled without replacement.  Relative
    error is |g_an - g_fd| / max(1e-8, |g_an| + |g_fd|).
    """
    nncore.zero_grads(params)
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise ValueError("non-finite loss")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if not coords:
        return 0.0
    if len(coords) > n_coords:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[int(i)] for i in picked]

    worst = 0.0
    for i, j in coords:
        flat = params[i].data.flat
        orig = flat[j]
        flat[j] = orig + h
        up = float(loss_fn().data)
        flat[j] = orig - h
        down = float(loss_fn().data)
        flat[j] = orig
        fd = (up - down) / (2.0 * h)
        an = analytic[i].flat[j]
        rel = abs(an - fd) / max(1e-8, abs(an) + abs(fd))
        worst = max(worst, rel)
    return worst


@pytest.fixture
def age(monkeypatch):
    """age(): from then on, every file on disk is old enough for a trusted
    stamp, as fileio's clock runs two margins ahead.  os.utime cannot do
    this: it sets the ctime, which the stamp holds, to now."""
    def age():
        monkeypatch.setattr(fileio, "time_ns",
                            lambda: time.time_ns() + 2 * fileio.STAMP_MARGIN_NS)
    return age


@contextmanager
def no_hashing():
    """A block in which hashing an input file raises."""
    with mock.patch.object(fileio, "file_digest", side_effect=AssertionError("hashed")), \
            mock.patch.object(fileio, "hashed_text", side_effect=AssertionError("hashed")):
        yield


def flip_line(data, line):
    """`data` with the first byte of its line number `line` (0 the first)
    flipped: line 1 of a cache file is its digest, line 2 its stamp."""
    at = 0
    for _ in range(line):
        at = data.index(b"\n", at) + 1
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def counted(load, parse):
    """(load(), the calls it made to `parse`, a (module, name) pair, and
    the input files it hashed)."""
    with mock.patch.object(*parse, wraps=getattr(*parse)) as parsed, \
            mock.patch.object(fileio, "file_digest", wraps=fileio.file_digest) as digests, \
            mock.patch.object(fileio, "hashed_text", wraps=fileio.hashed_text) as texts:
        got = load()
    return got, parsed.call_count, digests.call_count + texts.call_count


STAMP_CASES = ["younger than the margin", "a shutil.copy2 copy",
               "a same-size rewrite with its mtime put back"]


def check_stamp_case(case, path, load, parse, age, same_size_text):
    """One of STAMP_CASES for the cache of the input file `path`: load()
    gives what the cache holds as plain values, `parse` is the (module,
    name) of what a miss runs, and `same_size_text` is another content of
    the file's size.

    - A file younger than the margin is hashed on every hit, and its
      cache file is never rewritten.
    - Once the file is old enough, the first hit is verified by the digest
      and refreshes the stamp, and the next hashes nothing; so does a hit
      after the file is replaced by a shutil.copy2 copy, a new inode with
      the same mtime.
    - A same-size rewrite whose mtime os.utime puts back is a miss: the
      ctime differs."""
    cache_dir = path.parent / fileio.CACHE_DIR

    def cache_files():
        return {name: (cache_dir / name).read_bytes() for name in os.listdir(cache_dir)}

    want, parsed, hashed = counted(load, parse)
    assert parsed and hashed
    if case == STAMP_CASES[0]:
        files = cache_files()
        for _ in range(2):
            assert counted(load, parse) == (want, 0, 1)
        assert cache_files() == files
        return
    age()
    assert counted(load, parse) == (want, 0, 1)
    assert counted(load, parse) == (want, 0, 0)
    before = os.stat(path)
    if case == STAMP_CASES[1]:
        copy = path.with_name(path.name + ".copy")
        shutil.copy2(path, copy)
        os.replace(copy, path)
        assert os.stat(path).st_ino != before.st_ino
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns
        assert counted(load, parse) == (want, 0, 1)
        assert counted(load, parse) == (want, 0, 0)
        return
    path.write_text(same_size_text, encoding="utf-8")
    assert os.stat(path).st_size == before.st_size
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    while os.stat(path).st_ctime_ns == before.st_ctime_ns:   # within one tick of the stamp's
        time.sleep(0.001)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    got, parsed, hashed = counted(load, parse)
    assert parsed and hashed and got != want
    shutil.rmtree(cache_dir)
    assert got == load()


def synth_config(paths, overrides=None) -> RunConfig:
    """RunConfig pointing at a pipeline.write_synthetic() layout."""
    base = {
        "data.train": paths["train"],
        "data.test": paths["test"],
        "data.embeddings": paths["embeddings"],
        "data.publishers": paths["publishers"],
        "model.t_s": "10",
    }
    base.update(overrides or {})
    return RunConfig(base)


def width_trace(width: int) -> list:
    """Every intermediate width (after each conv and pool) from `width` to 1."""
    n = slcnn.required_hcbs(width)
    trace = [width]
    w = width
    for _ in range(n):
        trace.extend([w - 1, w - 2, (w - 2) // 2])
        w = (w - 2) // 2
    return trace


def followers(g) -> dict:
    """{user: frozenset of the users who follow it}, for the users with
    followers: a FollowerGraph's edge arrays as sets (none for a graph of
    follower counts), or a SetGraph's own mapping."""
    if isinstance(g, SetGraph):
        return g.followers
    if g.follower is None:
        return {}
    names = list(g.users)
    sets = {}
    for a, b in zip(g.follower.tolist(), g.followed.tolist()):
        sets.setdefault(names[b], set()).add(names[a])
    return {u: frozenset(fs) for u, fs in sets.items()}


def with_users(g, users):
    """g after add_user of each of `users` in order: how a test sets N,
    the number of users a graph holds."""
    for user in users:
        g.add_user(user)
    return g


def count_graph(counts: dict, **kw) -> FollowerGraph:
    """The graph load_follower_counts reads from a file listing the
    {user: follower count} table in its order."""
    return FollowerGraph(users=dict(zip(counts, range(len(counts)))), follower=None,
                         followed=None, in_degree=np.array(list(counts.values()), dtype=np.int64),
                         **kw)


def level_followers(g, u: str, i: int) -> set:
    """Level-i follower set: followers of followers, i deep, minus u itself.

    This is the raw recurrence (level i = followers of everyone at level
    i-1), so on cyclic graphs a user can appear at several levels."""
    if i < 1:
        raise ValueError(f"level must be >= 1, got {i}")
    if not g.known(u):
        raise ValueError(f"unknown user {u!r}")
    sets = followers(g)
    level = sets.get(u, set()) - {u}
    for _ in range(i - 1):
        nxt = set()
        for x in level:
            nxt |= sets.get(x, set())
        level = nxt - {u}
    return set(level)


# ---------------------------------------------------------------------------
# the dict-of-sets follower graph and loader that social.FollowerGraph's
# edge arrays replaced, and the int32 index built from it


class SetGraph:
    """followers[u] is the set of users who follow u, filled one add_edge
    at a time; the users in order of first appearance.  Duck-types the
    FollowerGraph attributes that influence_walk and level_followers read;
    followers() hands its mapping back as it is."""

    def __init__(self, p=0.5, d_max=None):
        self.p = float(p)
        self.d_max = d_max
        self.followers = {}
        self.users = {}

    def add_edge(self, follower: str, followed: str):
        self.followers.setdefault(followed, set()).add(follower)
        self.users.setdefault(follower)
        self.users.setdefault(followed)

    def add_user(self, user: str):
        self.users.setdefault(user)

    @property
    def n_users(self):
        return len(self.users)

    def known(self, user: str) -> bool:
        return user in self.users

    def follower_count(self, user: str) -> float:
        return float(len(self.followers.get(user, set()) - {user}))


def load_set_graph(path, p=0.5, d_max=None) -> SetGraph:
    """Edge-list text file: one `follower_id followed_id` pair per line."""
    g = SetGraph(p=p, d_max=d_max)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'follower followed'")
            g.add_edge(parts[0], parts[1])
    return g


def followed_by_follower(g: SetGraph):
    """The follower sets as int32 arrays: (ids, followed, starts, follower).

    `ids` numbers every user that follows or is followed, followed users
    first.  The CSR form followed -> followers comes first: `indices`
    lists the followers of user 0, then of user 1, and so on, `degree`
    of each.  Its edges are then sorted by follower: `followed` holds the
    followed user of each edge, and the edges of follower[i] start at
    starts[i]."""
    ids = {u: i for i, u in enumerate(g.followers)}
    for u in set().union(*g.followers.values()).difference(ids):
        ids[u] = len(ids)
    degree = np.fromiter(map(len, g.followers.values()), dtype=np.int64, count=len(g.followers))
    indices = np.fromiter((ids[f] for fs in g.followers.values() for f in fs),
                          dtype=np.int32, count=int(degree.sum()))
    order = np.argsort(indices, kind="stable")
    followed = np.repeat(np.arange(len(g.followers), dtype=np.int32), degree)[order]
    by_follower = indices[order]
    starts = np.flatnonzero(np.diff(by_follower, prepend=-1))
    return ids, followed, starts, by_follower[starts]


# ---------------------------------------------------------------------------
# the op chain, optimizer and scatter that nncore's fused forms replaced


def conv1x2_full(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Full-depth 1x2 convolution with fused ReLU.

    x: (B, R, W, E) input rows; w: (k, 2, E) stacked filters; b: (k,).
    Returns (B, k, R, W-1).  Each filter spans two adjacent width slots
    across the whole depth axis; rows share weights.
    """
    xb, wb, bb = x.data, w.data, b.data
    if xb.ndim != 4 or wb.ndim != 3 or wb.shape[1] != 2 or xb.shape[3] != wb.shape[2]:
        raise ValueError(f"conv1x2_full shape mismatch: x{xb.shape} w{wb.shape}")
    if xb.shape[2] < 2:
        raise ValueError("window larger than input")
    x0 = xb[:, :, :-1, :]
    x1 = xb[:, :, 1:, :]
    pre = (np.einsum("brte,fe->bfrt", x0, wb[:, 0, :])
           + np.einsum("brte,fe->bfrt", x1, wb[:, 1, :])
           + bb[None, :, None, None])
    out = Tensor(np.maximum(pre, 0.0), (x, w, b))
    assert out.data.shape[3] == xb.shape[2] - 1
    if out.requires_grad:
        def bp():
            gm = out.grad * (out.data > 0.0)
            _accum(b, gm.sum(axis=(0, 2, 3)))
            gw = np.stack([np.einsum("bfrt,brte->fe", gm, x0),
                           np.einsum("bfrt,brte->fe", gm, x1)], axis=1)
            _accum(w, gw)
            if x.requires_grad:
                gx = np.zeros_like(xb)
                gx[:, :, :-1, :] += np.einsum("bfrt,fe->brte", gm, wb[:, 0, :])
                gx[:, :, 1:, :] += np.einsum("bfrt,fe->brte", gm, wb[:, 1, :])
                _accum(x, gx)
        out._backward = bp
    return out


def fan_out_conv(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A one-channel input (B, 1, R, W) fanned out by the kernels w (C, 2)
    as the integrator's first conv once ran it: conv1x2_full at depth 1,
    through reshape nodes.  Returns (B, C, R, W-1)."""
    batch, _, rows, width = x.data.shape
    return conv1x2_full(nncore.reshape(x, (batch, rows, width, 1)),
                        nncore.reshape(w, w.data.shape + (1,)), b)


def conv1x2_depthwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel 1x2 convolution with fused ReLU, one graph node.

    x: (B, C, R, W); w: (C, 2) one independent kernel per channel; b: (C,).
    Returns (B, C, R, W-1); channels never mix.
    """
    xb, wb, bb = x.data, w.data, b.data
    if xb.ndim != 4 or wb.shape != (xb.shape[1], 2) or bb.shape != (xb.shape[1],):
        raise ValueError(f"conv1x2_depthwise shape mismatch: x{xb.shape} w{wb.shape}")
    if xb.shape[3] < 2:
        raise ValueError("window larger than input")
    x0 = xb[:, :, :, :-1]
    x1 = xb[:, :, :, 1:]
    w0 = wb[:, 0].reshape(1, -1, 1, 1)
    w1 = wb[:, 1].reshape(1, -1, 1, 1)
    pre = x0 * w0 + x1 * w1 + bb.reshape(1, -1, 1, 1)
    out = Tensor(np.maximum(pre, 0.0), (x, w, b))
    if out.requires_grad:
        def bp():
            gm = out.grad * (out.data > 0.0)
            _accum(b, gm.sum(axis=(0, 2, 3)))
            gw = np.stack([np.einsum("bcrt,bcrt->c", gm, x0),
                           np.einsum("bcrt,bcrt->c", gm, x1)], axis=1)
            _accum(w, gw)
            if x.requires_grad:
                gx = np.zeros_like(xb)
                gx[:, :, :, :-1] += gm * w0
                gx[:, :, :, 1:] += gm * w1
                _accum(x, gx)
        out._backward = bp
    return out


def maxpool_pairs(x: Tensor) -> Tensor:
    """Stride-2 max over adjacent width slots, one graph node; x (B, C, R,
    W) -> (B, C, R, W//2).  A trailing slot at odd width is dropped.  Ties
    route the gradient to the left element only."""
    xb = x.data
    width = xb.shape[3]
    if width < 2:
        raise ValueError("window larger than input")
    half = width // 2
    a = xb[:, :, :, 0:2 * half:2]
    c = xb[:, :, :, 1:2 * half:2]
    out = Tensor(np.maximum(a, c), (x,))
    if out.requires_grad:
        left = a >= c
        def bp():
            gx = np.zeros_like(xb)
            gx[:, :, :, 0:2 * half:2] += out.grad * left
            gx[:, :, :, 1:2 * half:2] += out.grad * ~left
            _accum(x, gx)
        out._backward = bp
    return out


def chain_depthwise_pool(x, convs):
    """nncore.depthwise_pool as the chain of nodes it fused: one
    conv1x2_depthwise per (w, b), then maxpool_pairs.  A one-channel input
    that the first conv fans out goes through fan_out_conv instead."""
    convs = list(convs)
    w, b = convs[0]
    if x.data.shape[1] == 1 < w.data.shape[0]:
        x = fan_out_conv(x, w, b)
        convs = convs[1:]
    for w, b in convs:
        x = conv1x2_depthwise(x, w, b)
    return maxpool_pairs(x)


class ListAdamState:
    """Adam accumulators for an ordered list of parameter arrays."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
        self.v = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]


def list_adam_step(params, grads, state: ListAdamState):
    """The per-tensor Adam loop that nncore.adam_step replaced: one
    in-place update per parameter array, through `[...]`."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        mhat = state.m[i] / c1
        vhat = state.v[i] / c2
        p[...] = p - state.lr * mhat / (np.sqrt(vhat) + state.eps)


def token_tap_sums(i0, i1, per_filter, vocab):
    """The (2k, V) scatter of conv1x2_tokens' backward as one bincount per
    tap and filter: row tap*k + f sums filter f's masked gradient over the
    slots whose tap-`tap` id is each table row."""
    return np.stack([np.bincount(taps.ravel(), weights=per_filter[f], minlength=vocab)
                     for taps in (i0, i1) for f in range(per_filter.shape[0])])


# ---------------------------------------------------------------------------
# corpus and feature loops that batched forms replaced


def article_token_ids(tok, th, vocab):
    """The per-article loop corpus.token_ids replaced: the (t_d+1, t_s)
    int32 ids of one article, extending `vocab` word by word with
    setdefault."""
    ids = np.zeros((th.t_d + 1, th.t_s), dtype=np.int32)
    rows = [tok.headline_tokens] + tok.body_sentences[: th.t_d]
    for r, words in enumerate(rows):
        for c, word in enumerate(words[: th.t_s]):
            ids[r, c] = vocab.setdefault(word, len(vocab) + 1)
    return ids


def split_token_ids(toks, th, vocab):
    """The token_ids that corpus.token_ids replaced, over the list of
    TokenizedArticle `toks` that split_article yields: the (n, t_d+1,
    t_s) int32 ids, extending `vocab` in order of first occurrence."""
    lengths = np.zeros((len(toks), th.t_d + 1), dtype=np.int64)
    words = []
    for i, tok in enumerate(toks):
        rows = [row[: th.t_s] for row in [tok.headline_tokens] + tok.body_sentences[: th.t_d]]
        lengths[i, : len(rows)] = [len(row) for row in rows]
        words.extend(chain.from_iterable(rows))
    new = [word for word in dict.fromkeys(words) if word not in vocab]
    vocab.update(zip(new, range(len(vocab) + 1, len(vocab) + 1 + len(new))))
    ids = np.zeros((len(toks), th.t_d + 1, th.t_s), dtype=np.int32)
    # the filled slots of each row are its first `length` ones, and a
    # boolean mask visits them in the order `words` lists them
    ids[np.arange(th.t_s) < lengths[..., None]] = np.fromiter(
        map(vocab.__getitem__, words), dtype=np.int32, count=len(words))
    return ids


def float_load_embeddings(path):
    """The reader corpus.load_embeddings replaced: every line split into
    components and parsed with a Python float() loop, and checked (a nan
    or infinite component is refused too).  Returns
    {word: vector}; a word seen again keeps its first position and takes
    its last vector."""
    vectors, dim = {}, None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if not values:
                raise CorpusError(f"{path}: line {lineno}: no vector components")
            dim = dim or len(values)
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise CorpusError(f"{path}: line {lineno}: non-numeric vector component") from None
            if vec.shape != (dim,):
                raise CorpusError(
                    f"{path}: line {lineno}: expected {dim} components, got {vec.shape[0]}"
                )
            if not np.isfinite(vec).all():
                raise CorpusError(f"{path}: line {lineno}: non-finite vector component in the "
                                  f"vector of {word!r}")
            vectors[word] = vec
    if not vectors:
        raise CorpusError(f"{path}: empty embeddings file")
    return vectors


def oracle_vector(vectors, word, oov_seed=0):
    """The vector load_embeddings gives `word`, from float_load_embeddings'
    {word: vector}: the word's own, or for a word the file lacks the OOV
    draw that test_corpus pins."""
    if word in vectors:
        return vectors[word]
    return corpus._oov_vector(word, oov_seed, len(next(iter(vectors.values()))))


def oracle_table(vectors, vocab, oov_seed=0):
    """load_embeddings(path, vocab, oov_seed) built word by word from
    float_load_embeddings(path)."""
    table = np.zeros((len(vocab) + 1, len(next(iter(vectors.values())))))
    for word, i in vocab.items():
        table[i] = oracle_vector(vectors, word, oov_seed)
    return table


def raw_article_credit(article, ledger):
    """The per-article credit vector social.explicit_rows replaced: (nct,
    ncf, num_p, cold), the mean (uct, ucf) over the article's publishers
    plus the publisher count.  No publishers -> zeros, cold."""
    pubs = article.publisher_ids
    if not pubs:
        return 0.0, 0.0, 0.0, True
    pairs = [ledger.get(u, (0, 0)) for u in pubs]
    nct = sum(p[0] for p in pairs) / len(pairs)
    ncf = sum(p[1] for p in pairs) / len(pairs)
    return float(nct), float(ncf), float(len(pubs)), False


def raw_article_influence(article, scores):
    """The per-article influence vector social.explicit_rows replaced: (ni,
    num_p, cold), the mean publisher score from a {user: score} table
    plus the publisher count.  No publishers -> zeros, cold."""
    pubs = article.publisher_ids
    if not pubs:
        return 0.0, 0.0, True
    values = [scores[u] for u in pubs]
    return float(sum(values) / len(values)), float(len(pubs)), False


def article_explicit_rows(articles, ledger, scores):
    """The per-article loop social.explicit_rows replaced: (rows, cold),
    the (n, 5) EXPLICIT_ORDER rows and the cold flags."""
    rows = np.zeros((len(articles), 5))
    cold = np.zeros(len(articles), dtype=bool)
    for i, art in enumerate(articles):
        nct, ncf, num_p, cold[i] = raw_article_credit(art, ledger)
        ni, num_p_influence, _ = raw_article_influence(art, scores)
        rows[i] = (nct, ncf, num_p, ni, num_p_influence)
    return rows, cold


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
        sets = followers(g)
        if not isinstance(g, SetGraph) and g.follower is None:
            raise ValueError("graph holds only follower counts; use follower_count_influence")
        frontier = sets.get(u, set()) - {u}
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
                nxt |= sets.get(x, set())
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


def build_tensor(tok, th, vectors, oov_seed=0):
    """Fixed-shape (t_d+1, t_s, E) tensor for one article: row 0 the
    headline, rows 1..t_d the first t_d body sentences, each row the
    vectors of its first t_s words (oracle_vector of float_load_embeddings'
    `vectors`); every other slot is zero."""
    data = np.zeros((th.t_d + 1, th.t_s, len(next(iter(vectors.values())))))
    rows = [tok.headline_tokens] + tok.body_sentences[: th.t_d]
    for r, words in enumerate(rows):
        for c, word in enumerate(words[: th.t_s]):
            data[r, c, :] = oracle_vector(vectors, word, oov_seed)
    return ArticleTensor(data)


def dense_block(block, x):
    """The text stack's first block [(w1, b1), (w2, b2)] on word vectors:
    (B, rows, t_s, E) -> (B, k, rows, (t_s-2)//2), conv1 as conv1x2_full."""
    (w1, b1), conv2 = block
    return nncore.depthwise_pool(conv1x2_full(Tensor(x), w1, b1), [conv2])


def dense_latent(blocks, x):
    """Word vectors (B, rows, t_s, E) -> latent (B, rows, k), every row,
    padding included, through conv1x2_full and the rest of the text stack
    `blocks`."""
    return slcnn.stack_apply(blocks[1:], dense_block(blocks[0], x))


def dense_logits(model, x, explicit, mode="eval", rng=None):
    """fusion.forward_batch on word vectors (B, rows, t_s, E); `explicit`
    holds only the model variant's columns (B, m), and a latent-only
    model ignores it."""
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
    return types.SimpleNamespace(ArticleTensor=ArticleTensor, build_tensor=build_tensor,
                                 block=dense_block, latent=dense_latent, logits=dense_logits,
                                 as_tokens=as_tokens)
