"""Publisher features: activity credibility and follower influence.

Credibility is a per-user pair (uct, ucf) = (articles published, fake
articles published), tallied from the training split only so test labels
never leak into features.  Influence is the expected fraction of the
network a user's post reaches: direct followers count fully, followers at
level i count with weight p^(i-1) and only on first reach.  Per article,
the publisher list is masked against these tables and averaged, then
min-max normalized with statistics fitted on training articles.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Label


class CreditLedger:
    """Per-user publishing history: user id -> (uct, ucf)."""

    def __init__(self):
        self._tally = {}

    def record(self, user: str, fake: bool):
        uct, ucf = self._tally.get(user, (0, 0))
        self._tally[user] = (uct + 1, ucf + 1 if fake else ucf)

    def credit(self, user: str):
        """(uct, ucf) for a user; unknown users have no history."""
        return self._tally.get(user, (0, 0))

    def users(self):
        return self._tally.keys()

    def __len__(self):
        return len(self._tally)


def tally_credit(train_articles) -> CreditLedger:
    ledger = CreditLedger()
    for art in train_articles:
        fake = art.label is Label.FAKE
        for user in art.publisher_ids:
            ledger.record(user, fake)
    return ledger


class FollowerGraph:
    """Directed follower structure.

    `followers[u]` is the set of users who follow u.  N is the audience
    size used for normalization (defaults to the number of distinct users
    seen).  p is the reshare probability applied per extra level; d_max
    bounds the traversal depth (None = until exhaustion, i.e. the graph
    diameter).  A graph may instead carry only per-user follower counts,
    which supports the follower-count influence mode alone.  Edges go in
    through add_edge, which also drops the follower index that
    influence_table keeps on the graph between calls.
    """

    def __init__(self, p=0.5, d_max=None, n_users=None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"share probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.d_max = d_max
        self.followers = {}
        self.counts = None
        self._users = set()
        self._n_override = n_users
        self._follower_index = None   # _followed_by_follower(self), built on first use

    def add_edge(self, follower: str, followed: str):
        self.followers.setdefault(followed, set()).add(follower)
        self._users.add(follower)
        self._users.add(followed)
        self._follower_index = None

    def add_user(self, user: str):
        self._users.add(user)

    @property
    def n_users(self):
        if self._n_override is not None:
            return self._n_override
        if self.counts is not None and not self._users:
            return len(self.counts)
        return len(self._users)

    def known(self, user: str) -> bool:
        if user in self._users:
            return True
        return self.counts is not None and user in self.counts


def graph_from_edges(edges, p=0.5, d_max=None, n_users=None) -> FollowerGraph:
    """Build from (follower, followed) pairs; duplicates collapse."""
    g = FollowerGraph(p=p, d_max=d_max, n_users=n_users)
    for follower, followed in edges:
        g.add_edge(str(follower), str(followed))
    return g


def load_edge_list(path, p=0.5, d_max=None, n_users=None) -> FollowerGraph:
    """Edge-list text file: one `follower_id followed_id` pair per line."""
    g = FollowerGraph(p=p, d_max=d_max, n_users=n_users)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'follower followed'")
            g.add_edge(parts[0], parts[1])
    return g


def load_follower_counts(path, p=0.5, d_max=None, n_users=None) -> FollowerGraph:
    """Tab-separated `user_id<TAB>follower_count` table for count mode.
    Each user is listed once."""
    g = FollowerGraph(p=p, d_max=d_max, n_users=n_users)
    g.counts = {}
    seen = {}   # user -> line number
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>count'")
            user, count = parts
            first = seen.setdefault(user, lineno)
            if first != lineno:
                raise ValueError(f"{path}: user {user!r} listed twice, on lines {first} "
                                 f"and {lineno}")
            try:
                g.counts[user] = int(count)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: count must be an integer") from None
            if g.counts[user] < 0:
                raise ValueError(f"{path}: line {lineno}: negative follower count")
    return g


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

    The follower sets are indexed once as int32 arrays, kept on the graph
    for later calls until add_edge changes it; each call then walks
    the levels of up to 64 publishers at a time (multi-source BFS, Then
    et al., VLDB 2014): bit j of a user's uint64 `reached` and `frontier`
    words says whether publisher j has reached that user, in total and at
    the current level.  The per-level first-reach counts are integers,
    folded into the score by the recurrence of a one-publisher walk, so a
    score does not depend on which publishers share a sweep.
    """
    n = g.n_users
    if n < 2:
        raise ValueError(f"influence needs at least 2 users, got N={n}")
    if g.counts is not None and not g.followers:
        raise ValueError("graph holds only follower counts; use follower_count_influence")
    users = list(dict.fromkeys(users))
    if g._follower_index is None:
        g._follower_index = _followed_by_follower(g)
    ids, followed, starts, follower = g._follower_index
    scores = {u: 0.0 for u in users}
    sources = [u for u in users if u in ids]
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
        for u, levels in zip(chunk, per_source):
            scores[u] = _reach_score(levels, g.p) / (n - 1)
    return scores


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


def _followed_by_follower(g: FollowerGraph):
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


def follower_count_influence(g: FollowerGraph, u: str) -> float:
    """The simplified influence mode: just the direct follower count."""
    if g.counts is not None:
        return float(g.counts.get(u, 0))
    return float(len(g.followers.get(u, set()) - {u}))


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


def influence_scores(g: FollowerGraph, users, mode="follower_count") -> dict:
    """Influence of each of `users` under `mode`: the exact level-walk
    score (influence_table) or the plain follower count.  In exact mode a
    user the graph does not know scores 0.0 without being looked up, so a
    corpus whose publishers are all unknown needs no graph."""
    if mode not in ("exact", "follower_count"):
        raise ValueError(f"unknown influence mode {mode!r}")
    users = list(dict.fromkeys(users))
    if mode == "follower_count":
        return {u: follower_count_influence(g, u) for u in users}
    known = [u for u in users if g.known(u)]
    table = influence_table(g, known) if known else {}
    return {u: table.get(u, 0.0) for u in users}


# the columns of an explicit row; num_p, the publisher count, rides along
# with both the credit and the influence features
EXPLICIT_ORDER = ("nct", "ncf", "num_p_credit", "ni", "num_p_influence")


def explicit_rows(articles, ledger: CreditLedger, scores: dict) -> np.ndarray:
    """Pre-normalization explicit rows, (len(articles), 5) in EXPLICIT_ORDER
    columns: the mean (uct, ucf) of each article's publishers, their
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
        pairs = [ledger.credit(u) for u in pubs]
        rows[i] = (sum(p[0] for p in pairs) / n, sum(p[1] for p in pairs) / n, n,
                   sum(scores[u] for u in pubs) / n, n)
    return rows
