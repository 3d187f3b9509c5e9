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
    which supports the follower-count influence mode alone.
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

    def add_edge(self, follower: str, followed: str):
        self.followers.setdefault(followed, set()).add(follower)
        self._users.add(follower)
        self._users.add(followed)

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
    """Tab-separated `user_id<TAB>follower_count` table for count mode."""
    g = FollowerGraph(p=p, d_max=d_max, n_users=n_users)
    g.counts = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>count'")
            user, count = parts
            try:
                g.counts[user] = int(count)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: count must be an integer") from None
            if g.counts[user] < 0:
                raise ValueError(f"{path}: line {lineno}: negative follower count")
    return g


def level_followers(g: FollowerGraph, u: str, i: int) -> set:
    """Level-i follower set: followers of followers, i deep, minus u itself.

    This is the raw recurrence (level i = followers of everyone at level
    i-1), so on cyclic graphs a user can appear at several levels."""
    if i < 1:
        raise ValueError(f"level must be >= 1, got {i}")
    if not g.known(u):
        raise ValueError(f"unknown user {u!r}")
    level = g.followers.get(u, set()) - {u}
    for _ in range(i - 1):
        nxt = set()
        for x in level:
            nxt |= g.followers.get(x, set())
        level = nxt - {u}
    return set(level)


def user_influence(g: FollowerGraph, u: str) -> float:
    """Expected reached fraction of the network for one publisher.

    Direct followers count in full; a user first reached at level i counts
    with weight p^(i-1); already-reached users never recount; u itself is
    excluded.  Normalized by N-1 (the audience excludes the publisher), so
    the result lies in [0, 1].
    """
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


def follower_count_influence(g: FollowerGraph, u: str) -> float:
    """The simplified influence mode: just the direct follower count."""
    if g.counts is not None:
        return float(g.counts.get(u, 0))
    return float(len(g.followers.get(u, set()) - {u}))


# ---------------------------------------------------------------------------
# per-article vectors


@dataclass
class CreditVector:
    nct: float
    ncf: float
    num_p: float
    cold: bool = False


@dataclass
class InfluenceVector:
    ni: float
    num_p: float
    cold: bool = False


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


def raw_article_credit(article, ledger: CreditLedger) -> CreditVector:
    """Pre-normalization credit vector: mean (uct, ucf) over the article's
    publishers plus the publisher count.  No publishers -> zeros, cold."""
    pubs = article.publisher_ids
    if not pubs:
        return CreditVector(0.0, 0.0, 0.0, cold=True)
    pairs = [ledger.credit(u) for u in pubs]
    nct = sum(p[0] for p in pairs) / len(pairs)
    ncf = sum(p[1] for p in pairs) / len(pairs)
    return CreditVector(float(nct), float(ncf), float(len(pubs)))


def raw_article_influence(article, g: FollowerGraph, mode="follower_count") -> InfluenceVector:
    """Pre-normalization influence vector: mean publisher influence plus
    the publisher count.  `mode` picks the exact level-walk score or the
    plain follower count."""
    if mode not in ("exact", "follower_count"):
        raise ValueError(f"unknown influence mode {mode!r}")
    pubs = article.publisher_ids
    if not pubs:
        return InfluenceVector(0.0, 0.0, cold=True)
    if mode == "exact":
        scores = [user_influence(g, u) if g.known(u) else 0.0 for u in pubs]
    else:
        scores = [follower_count_influence(g, u) for u in pubs]
    return InfluenceVector(float(sum(scores) / len(scores)), float(len(pubs)))
