"""Publisher features: activity credibility and follower influence.

Credibility is a per-user pair (uct, ucf) = (articles published, fake
articles published), tallied from the training split only so test labels
never leak into features; the ledger is a plain {user: (uct, ucf)} dict.
Influence is the expected fraction of the network a user's post reaches:
direct followers count fully, followers at level i count with weight
p^(i-1) and only on first reach.  It is read from a FollowerGraph: an
edge list's, or a follower-count file's graph of users with no edges,
which only the follower-count mode can score.  Per article, the
publisher list is masked against these tables and averaged, then
min-max normalized with statistics fitted on training articles.

Exact influence is folded from each publisher's integer first-reach
counts per level.  A graph read by load_edge_list keeps those counts in
`__fakereal_cache__/<name>.influence` beside the edge list, keyed by the
file's sha256 (the digest its graph cache already took) and d_max, so
influence_scores sweeps only the publishers no earlier call has scored;
p and N are applied when the counts are folded.  influence_table and
user_influence always sweep and never touch the disk.  fileio.ContentCache
checks the bytes of both cache files, and this module what they mean.
"""

import re
from dataclasses import dataclass

import numpy as np

from .corpus import Label
from .fileio import ContentCache


def tally_credit(train_articles) -> dict:
    """The credit ledger: {user: (uct, ucf)} for each user who published
    one of `train_articles`.  A user the ledger lacks has no history,
    (0, 0)."""
    ledger = {}
    for art in train_articles:
        fake = art.label is Label.FAKE
        for user in art.publisher_ids:
            uct, ucf = ledger.get(user, (0, 0))
            ledger[user] = (uct + 1, ucf + 1 if fake else ucf)
    return ledger


_NO_EDGES = np.zeros(0, dtype=np.int32)


class FollowerGraph:
    """Directed follower structure.

    `users` numbers every user the graph holds, name -> id, in order of
    first appearance.  The edges are two int32 arrays, `follower` and
    `followed`: one entry per distinct (follower, followed) pair, sorted
    by follower and then by followed.  N, the audience size used for
    normalization, is the number of users held.  p is the reshare
    probability applied per extra level; d_max bounds the traversal
    depth (None = until exhaustion, i.e. the graph diameter).
    graph_from_edges and load_edge_list build graphs with edges; add_user
    adds a user without any.  A graph of a follower-count file
    (load_follower_counts) has no known edges: `follower` and `followed`
    are None, and `in_degree` gives each user's direct followers by id,
    so it scores only the follower-count influence mode.
    `influence_cache` is the ContentCache of the per-level reach counts
    of the edge file the graph was read from, or None for a graph that no
    file is known to hold.
    """

    def __init__(self, p=0.5, d_max=None, users=None, follower=_NO_EDGES, followed=_NO_EDGES,
                 in_degree=None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"share probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.d_max = d_max
        self.users = {} if users is None else users
        self.follower = follower
        self.followed = followed
        self.influence_cache = None
        # direct followers of each user, a self-follow not counted; a graph
        # without edges is given them
        self._in_degree = (in_degree if follower is None else
                           np.bincount(followed[follower != followed], minlength=len(self.users)))

    def add_user(self, user: str):
        self.users.setdefault(user, len(self.users))

    @property
    def n_users(self):
        return len(self.users)

    def direct_followers(self, user: str) -> int:
        """How many other users follow `user`; 0 for a user the graph
        gives no followers."""
        i = self.users.get(user, len(self._in_degree))
        return int(self._in_degree[i]) if i < len(self._in_degree) else 0

    def known(self, user: str) -> bool:
        return user in self.users


def graph_from_edges(edges, p=0.5, d_max=None) -> FollowerGraph:
    """Build from (follower, followed) pairs; duplicates collapse."""
    names = []
    for follower, followed in edges:
        names += (str(follower), str(followed))
    users = {}
    return FollowerGraph(p, d_max, *_index_edges(users, [_number(names, users)]))


def _number(names, users):
    """The ids of `names` as int32, after giving each name new to `users`
    (name -> id) the next id, in order of first appearance."""
    for name in dict.fromkeys(names):
        users.setdefault(name, len(users))
    return np.fromiter(map(users.__getitem__, names), dtype=np.int32, count=len(names))


def _index_edges(users, ids):
    """(users, follower, followed) of FollowerGraph for the edges
    flat[0] -> flat[1], flat[2] -> flat[3], and so on, where flat is the
    concatenation of the int32 arrays `ids`."""
    flat = np.concatenate(ids)
    n = max(len(users), 1)
    # one key per distinct pair, in (follower, followed) order; a sort
    # and a mask, as np.unique takes 20x longer on numpy 2.4
    keys = np.sort(flat[0::2].astype(np.int64) * n + flat[1::2])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    follower, followed = np.divmod(keys, n)
    return users, follower.astype(np.int32), followed.astype(np.int32)


# names numbered at a time by load_edge_list; bounds the strings held at once
_NAME_CHUNK = 8192


# the first lines of the edge-list cache files (fileio.ContentCache): the
# graph, and the per-level reach counts of its publishers
_GRAPH_MAGIC = b"fakereal graph cache 3\n"
_INFLUENCE_MAGIC = b"fakereal influence cache 3\n"


def load_edge_list(path, p=0.5, d_max=None) -> FollowerGraph:
    """Edge-list text file: one `follower_id followed_id` pair per line.

    The users and edge arrays are kept in a cache file beside the edge
    list, `__fakereal_cache__/<name>.graph`, so a later call on the same
    file content builds the same graph without reading a line of it; a
    cache file that does not hold a graph is a miss.  When the graph is
    known to hold the content of that digest, it also carries the cache
    of its influence level counts (influence_scores)."""
    cache = ContentCache(path, ".graph", _GRAPH_MAGIC)
    edges = cache.load(_edges_from_cache)
    matches = edges is not None
    if edges is None:
        users, ids, names = {}, [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 'follower followed'")
                names += parts
                if len(names) == _NAME_CHUNK:
                    ids.append(_number(names, users))
                    names = []
        ids.append(_number(names, users))
        edges = _index_edges(users, ids)
        matches = cache.unchanged()
        if matches:
            text = "".join(u + "\n" for u in users).encode("utf-8")
            cache.store({"users": len(users)}, {"names": np.frombuffer(text, np.uint8),
                                                "edges": np.stack(edges[1:])})
    g = FollowerGraph(p, d_max, *edges)
    if matches:
        g.influence_cache = cache.sibling(".influence", _INFLUENCE_MAGIC)
    return g


def _edges_from_cache(meta, arrays):
    """(users, follower, followed) of a graph cache: the user names in id
    order, newline-terminated UTF-8, and the edges, one (2, E) int32 array.
    Raises ValueError, KeyError or TypeError when they make no graph."""
    n = meta["users"]
    *names, rest = arrays["names"].tobytes().decode("utf-8").split("\n")
    users = dict(zip(names, range(n)))
    follower, followed = edges = arrays["edges"]
    # one id per name, the ids index the users, and the pairs are
    # distinct and in order
    if rest or len(names) != n or len(users) != n or (edges.size and (
            edges.min() < 0 or edges.max() >= n or (
                np.diff(follower.astype(np.int64) * n + followed) <= 0).any())):
        raise ValueError("corrupt graph cache")
    return users, follower, followed


# the largest follower count an in-degree holds
_MAX_COUNT = np.iinfo(np.int64).max
# ASCII digits only: int() would also take "1_000", "+7", " 7 " and other
# scripts' digits.  A leading "-" parses, to be refused as negative.
_COUNT = re.compile(r"-?[0-9]+")


def load_follower_counts(path) -> FollowerGraph:
    """Tab-separated `user_id<TAB>follower_count` table for count mode:
    a graph of the listed users, numbered in file order, each with its
    count of direct followers and no known edges.  Each user is listed
    once, with a count of ASCII digits that fits in int64.  The graph
    keeps the default p and d_max: follower-count scoring reads neither."""
    lines, counts = {}, []   # user -> line number, and the counts in that order
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>count'")
            user, count = parts
            if user in lines:
                raise ValueError(f"{path}: user {user!r} listed twice, on lines "
                                 f"{lines[user]} and {lineno}")
            if not _COUNT.fullmatch(count):
                raise ValueError(f"{path}: line {lineno}: count must be an integer")
            count = int(count)
            if count < 0:
                raise ValueError(f"{path}: line {lineno}: negative follower count")
            if count > _MAX_COUNT:
                raise ValueError(f"{path}: line {lineno}: follower count above {_MAX_COUNT}")
            lines[user] = lineno
            counts.append(count)
    return FollowerGraph(users=dict(zip(lines, range(len(lines)))), follower=None, followed=None,
                         in_degree=np.array(counts, dtype=np.int64))


def user_influence(g: FollowerGraph, u: str) -> float:
    """Expected reached fraction of the network for one publisher; see
    influence_table, which scores many publishers in one pass."""
    return influence_table(g, [u])[u]


SWEEP_WIDTH = 64   # publishers per sweep: one bit each of a uint64 word


def influence_table(g: FollowerGraph, users) -> dict:
    """Exact influence of each of `users`: {user: expected reached fraction}.

    Direct followers count in full; a user first reached at level i counts
    with weight p^(i-1); already-reached users never recount; the
    publisher itself is excluded.  Normalized by N-1 (the audience
    excludes the publisher), so a score lies in [0, 1].  Users without
    followers in the graph, unknown ones included, score 0.0.

    Each call walks the levels of up to 64 publishers at a time over the
    graph's edge arrays (multi-source BFS, Then et al., VLDB 2014): bit j
    of a user's uint64 `reached` and `frontier` words says whether
    publisher j has reached that user, in total and at the current level.
    The per-level first-reach counts are integers, folded into the score
    by the recurrence of a one-publisher walk, so a score does not depend
    on which publishers share a sweep.
    """
    return _fold_levels(g, users, None)


def _fold_levels(g, users, cache):
    """influence_table(g, users), its level counts read from and added to
    `cache`, the ContentCache of g's edge file, unless that is None."""
    n = g.n_users
    if n < 2:
        raise ValueError(f"influence needs at least 2 users, got N={n}")
    if g.follower is None:
        raise ValueError("graph holds only follower counts; use follower_count_influence")
    users = list(dict.fromkeys(users))
    # counts walked to another depth are a miss
    levels = {} if cache is None else cache.load(
        lambda meta, _: meta["levels"] if meta["d_max"] == g.d_max else {}) or {}
    missing = [u for u in users if u not in levels]
    if missing:
        levels.update(_reach_levels(g, missing))
        if cache is not None:
            cache.store({"d_max": g.d_max, "levels": levels}, {})
    return {u: _reach_score(levels[u], g.p) / (n - 1) for u in users}


def _reach_levels(g, users):
    """{user: [first reaches at level 1, 2, ...]} for each of `users`
    (distinct), up to g.d_max levels; a level list may end in zeros."""
    ids = g.users
    # the edges of follower[starts[i]] start at starts[i]
    starts = np.flatnonzero(np.diff(g.follower, prepend=-1))
    follower, followed = g.follower[starts], g.followed
    levels = {u: [] for u in users}
    # a user nobody follows reaches no one
    sources = [u for u in users if g.direct_followers(u)]
    for first in range(0, len(sources), SWEEP_WIDTH):
        chunk = sources[first:first + SWEEP_WIDTH]
        reached = np.zeros(len(ids), dtype=np.uint64)
        # each publisher starts out reached by itself, so it never counts
        reached[[ids[u] for u in chunk]] = np.left_shift(
            np.uint64(1), np.arange(len(chunk), dtype=np.uint64))
        frontier = reached.copy()
        counts = []   # per level: first reaches per bit
        level = 1
        while level == 1 or g.d_max is None or level <= g.d_max:
            nxt = np.zeros_like(reached)
            # a user joins the next level when it follows someone on this one
            nxt[follower] = np.bitwise_or.reduceat(frontier[followed], starts)
            nxt &= ~reached
            new = nxt[nxt != 0]
            if not new.size:
                break
            bits = np.unpackbits(new.astype("<u8", copy=False).view(np.uint8), bitorder="little")
            counts.append(bits.reshape(-1, 64).sum(axis=0)[:len(chunk)])
            reached |= nxt
            frontier = nxt
            level += 1
        per_source = np.array(counts, dtype=np.int64).reshape(-1, len(chunk)).T.tolist()
        levels.update(zip(chunk, per_source))
    return levels


def _reach_score(levels, p):
    """sum_i p^(i-1) * levels[i-1], accumulated level by level in the
    order a single walk adds them, so the float result is the same."""
    if not levels:
        return 0.0
    total = float(levels[0])
    weight = 1.0
    for count in levels[1:]:
        weight *= p
        total += weight * count
    return total


def follower_count_influence(g: FollowerGraph, u: str) -> float:
    """The simplified influence mode: just the direct follower count."""
    return float(g.direct_followers(u))


# ---------------------------------------------------------------------------
# explicit feature rows


@dataclass
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray


def fit_minmax(rows) -> MinMaxScaler:
    """Per-feature min/max over training rows (n, features)."""
    data = np.asarray(rows, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot fit scaler on empty input")
    if data.ndim == 1:
        data = data[:, None]
    return MinMaxScaler(mins=data.min(axis=0), maxs=data.max(axis=0))


def apply_minmax(scaler: MinMaxScaler, x) -> np.ndarray:
    """(x - min)/(max - min) clamped to [0, 1]; constant features map to 0."""
    x = np.asarray(x, dtype=np.float64)
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0.0, span, 1.0)
    out = np.where(span > 0.0, (x - scaler.mins) / safe, 0.0)
    return np.clip(out, 0.0, 1.0)


INFLUENCE_MODES = ("exact", "follower_count")


def influence_scores(g: FollowerGraph, users, mode="follower_count") -> dict:
    """Influence of each of `users` under `mode`: the exact level-walk
    score (influence_table) or the plain follower count.  In exact mode a
    user the graph does not know scores 0.0 without being looked up, so a
    corpus whose publishers are all unknown needs no graph, and the level
    counts of a graph's influence_cache are read, and the counts of the
    users it lacks added to it, so each publisher of an edge file is swept
    once.  The scores equal influence_table's either way."""
    if mode not in INFLUENCE_MODES:
        raise ValueError(f"unknown influence mode {mode!r}")
    users = list(dict.fromkeys(users))
    if mode == "follower_count":
        return {u: follower_count_influence(g, u) for u in users}
    known = [u for u in users if g.known(u)]
    table = _fold_levels(g, known, g.influence_cache) if known else {}
    return {u: table.get(u, 0.0) for u in users}


# the columns of an explicit row; num_p, the publisher count, rides along
# with both the credit and the influence features
EXPLICIT_ORDER = ("nct", "ncf", "num_p_credit", "ni", "num_p_influence")


def explicit_rows(articles, ledger: dict, scores: dict) -> np.ndarray:
    """Pre-normalization explicit rows, (len(articles), 5) in EXPLICIT_ORDER
    columns: the mean (uct, ucf) of each article's publishers from
    `ledger` (tally_credit's {user: (uct, ucf)}; (0, 0) if absent), their
    count, their mean influence from `scores` (a {user: score} table such
    as influence_scores gives), and the count again.  An article without
    publishers gets a row of zeros.  Each mean is a Python sum in
    publisher order: a numpy reduction adds in another order, which can
    change the last bit of a mean influence."""
    rows = np.zeros((len(articles), len(EXPLICIT_ORDER)))
    for i, art in enumerate(articles):
        pubs = art.publisher_ids
        if not pubs:
            continue
        n = len(pubs)
        pairs = [ledger.get(u, (0, 0)) for u in pubs]
        rows[i] = (sum(p[0] for p in pairs) / n, sum(p[1] for p in pairs) / n, n,
                   sum(scores[u] for u in pubs) / n, n)
    return rows
