"""Publisher history tallies, follower-graph influence, and the min-max
feature scaling."""

import hashlib
import json
import os
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fakereal import fileio, social
from fakereal.fileio import CACHE_DIR
from fakereal.corpus import Label, NewsArticle
from fakereal.social import (
    EXPLICIT_ORDER,
    FollowerGraph,
    apply_minmax,
    explicit_rows,
    fit_minmax,
    follower_count_influence,
    graph_from_edges,
    influence_scores,
    influence_table,
    load_edge_list,
    load_follower_counts,
    tally_credit,
    user_influence,
)

from conftest import (
    REWRITES,
    STAMP_CASES,
    SetGraph,
    article_explicit_rows,
    assert_same_bits,
    check_stamp_case,
    counted,
    flip_line,
    followed_by_follower,
    followers,
    level_followers,
    load_set_graph,
    no_hashing,
    rewriter,
    with_users,
)


def art(pubs, label=Label.REAL, art_id="a1"):
    return NewsArticle(id=art_id, headline="h", body="b.", label=label,
                       publisher_ids=list(pubs))


class TestCreditLedger:
    def test_counts_total_and_fake(self):
        arts = [
            art(["u1", "u2"], Label.REAL, "a1"),
            art(["u1"], Label.FAKE, "a2"),
            art(["u1", "u3"], Label.FAKE, "a3"),
        ]
        ledger = tally_credit(arts)
        assert ledger == {"u1": (3, 2), "u2": (1, 0), "u3": (1, 1)}
        # the ledger holds plain ints, in order of first publication
        assert list(ledger) == ["u1", "u2", "u3"]
        assert all(type(n) is int for pair in ledger.values() for n in pair)

    def test_unknown_user_has_no_history(self):
        assert tally_credit([]) == {}
        ledger = tally_credit([art(["u"])])
        row = explicit_rows([art(["u", "ghost"])], ledger, {"u": 0.0, "ghost": 0.0})[0]
        # ghost counts as (0, 0): the means are (1 + 0) / 2 and 0 / 2
        assert row[:3].tolist() == [0.5, 0.0, 2.0]

    def test_fake_count_never_exceeds_total(self):
        rng = np.random.default_rng(0)
        arts = [art([f"u{rng.integers(5)}" for _ in range(rng.integers(1, 4))],
                    Label.FAKE if rng.random() < 0.5 else Label.REAL, f"a{i}")
                for i in range(50)]
        ledger = tally_credit(arts)
        assert len(ledger) > 0
        for uct, ucf in ledger.values():
            assert 0 <= ucf <= uct

    def test_ledger_accumulates_per_record(self):
        ledger = tally_credit([art(["u"], Label.REAL, "a1"), art(["u"], Label.FAKE, "a2"),
                               art(["u"], Label.FAKE, "a3")])
        assert ledger["u"] == (3, 2)


class TestFollowerGraph:
    def test_edge_and_membership(self):
        g = graph_from_edges([("alice", "bob")])     # alice follows bob
        assert followers(g)["bob"] == {"alice"}
        assert g.known("alice") and g.known("bob") and not g.known("carol")
        assert g.n_users == 2

    def test_invalid_share_probability(self):
        with pytest.raises(ValueError, match="share probability"):
            FollowerGraph(p=1.5)
        with pytest.raises(ValueError, match="share probability"):
            FollowerGraph(p=-0.1)

    def test_graph_from_edges_collapses_duplicates(self):
        g = graph_from_edges([("a", "b"), ("a", "b"), ("c", "b")])
        assert followers(g)["b"] == {"a", "c"}


class TestLoaders:
    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nc b\n\nb a\n")
        g = load_edge_list(path)
        assert followers(g)["b"] == {"a", "c"}
        assert followers(g)["a"] == {"b"}

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nonly_one\n")
        with pytest.raises(ValueError, match=r"edges.txt: line 2: expected 'follower followed'"):
            load_edge_list(path)

    def test_counts_file(self, tmp_path):
        path = tmp_path / "publishers.tsv"
        path.write_text("u1\t10\nu2\t0\n")
        g = load_follower_counts(path)
        # the users in file order, each count its direct followers, no edges
        assert g.users == {"u1": 0, "u2": 1}
        assert g.direct_followers("u1") == 10 and g.direct_followers("u2") == 0
        assert g.follower is None and g.followed is None
        assert follower_count_influence(g, "u1") == 10.0
        assert g.known("u2") and not g.known("u3")
        assert g.n_users == 2

    def test_counts_graph_from_the_constructor(self):
        g = FollowerGraph(users={"u1": 0, "u2": 1}, follower=None, followed=None,
                          in_degree=np.array([10, 0]))
        assert follower_count_influence(g, "u1") == 10.0
        assert follower_count_influence(g, "u3") == 0.0
        assert g.n_users == 2
        with pytest.raises(ValueError, match="only follower counts"):
            influence_table(g, ["u1"])

    def test_counts_graph_add_user(self, tmp_path):
        path = tmp_path / "publishers.tsv"
        path.write_text("u1\t10\nu2\t0\nu3\t4\n")
        g = load_follower_counts(path)
        g.add_user("x")
        assert g.n_users == 4
        assert g.known("x") and g.known("u1")
        assert g.users == {"u1": 0, "u2": 1, "u3": 2, "x": 3}
        assert follower_count_influence(g, "x") == 0.0
        assert follower_count_influence(g, "u3") == 4.0

    def test_counts_file_errors(self, tmp_path):
        bad_tab = tmp_path / "a.tsv"
        bad_tab.write_text("u1 10\n")
        with pytest.raises(ValueError, match="expected 'user<TAB>count'"):
            load_follower_counts(bad_tab)
        bad_int = tmp_path / "b.tsv"
        # int() takes all but the first; a count is ASCII digits alone
        for count in ("many", "1_000", " +7 ", "+7", "7 ", "\u0667", "--3", ""):
            bad_int.write_text(f"u1\t3\nu2\t{count}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="b.tsv: line 2: count must be an integer"):
                load_follower_counts(bad_int)
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(b"u1\t7\r\nu2\t0\r\n")
        assert [follower_count_influence(load_follower_counts(crlf), u)
                for u in ("u1", "u2")] == [7.0, 0.0]
        negative = tmp_path / "c.tsv"
        negative.write_text("u1\t-3\n")
        with pytest.raises(ValueError, match="negative follower count"):
            load_follower_counts(negative)
        # a count an int64 in-degree cannot hold; 2**63 - 1 is the largest
        huge = tmp_path / "d.tsv"
        huge.write_text(f"u1\t{2**63 - 1}\nu2\t{10**30}\n")
        with pytest.raises(ValueError, match=r"d.tsv: line 2: follower count above "
                                             r"9223372036854775807"):
            load_follower_counts(huge)
        huge.write_text(f"u1\t{2**63 - 1}\n")
        assert follower_count_influence(load_follower_counts(huge), "u1") == float(2**63 - 1)

    def test_counts_file_lists_each_user_once(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1\t10\nu2\t3\n\nu1\t12\n")
        with pytest.raises(ValueError, match=r"dup.tsv: user 'u1' listed twice, on lines 1 and 4"):
            load_follower_counts(path)


EDGE_NAMES = ("a", "b", "u1", "caf\u00e9", "x_y")
EDGE_GAPS = (" ", "\t", "\x0c", "\xa0", "\u2028", " \t ")


@st.composite
def edge_files(draw):
    """Edge-list text over a few names: blank and whitespace-only lines,
    tabs, form feeds, no-break and line-separator spaces inside lines,
    \\n and \\r\\n line ends, self-loops and repeated edges, and now and
    then a line with one or three names."""
    name = st.sampled_from(EDGE_NAMES)
    gap = st.sampled_from(EDGE_GAPS)
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 5)) == 0:
            text = draw(st.sampled_from(["", " ", "\t", "\x0c", "\xa0 "]))
        else:
            text = draw(st.sampled_from(["", " ", "\u2028"])) + draw(name) + draw(gap) + draw(name)
            text += draw(st.sampled_from(["", " ", "\t\xa0"]))
        lines.append(text + draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from(["a", "a b c", "\xa0a\t", "a b\u2028c"]))
        lines.insert(draw(st.integers(0, len(lines))), bad + "\n")
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestEdgeListLoader:
    """load_edge_list, a parse and then a cache hit, against the
    dict-of-sets loader it replaced (tests/conftest.py)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_set_graph_loader(self, tmp_path_factory, influence_walk, data):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(data.draw(edge_files()).encode("utf-8"))
        p = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        d_max = data.draw(st.sampled_from([None, 1, 2]))
        want = outcome(load_set_graph, path, p, d_max)
        if isinstance(want, str):
            for _ in range(2):
                assert outcome(load_edge_list, path, p, d_max) == want
            assert not (path.parent / CACHE_DIR).exists()   # parse errors are not cached
            return
        extra = [f"extra{i}" for i in range(data.draw(st.integers(0, 3)))]
        want = with_users(load_set_graph(path, p, d_max), extra)
        names = [*EDGE_NAMES, "nobody"]
        chunk = data.draw(st.sampled_from([2, 6, social._NAME_CHUNK]))   # names numbered at once
        for parses in (True, False):
            with mock.patch.object(social, "_index_edges", wraps=social._index_edges) as index, \
                    mock.patch.object(social, "_NAME_CHUNK", chunk):
                g = with_users(load_edge_list(path, p, d_max), extra)
            assert index.called == parses   # the second load is a cache hit
            assert list(g.users) == list(want.users)
            assert g.n_users == want.n_users
            assert [g.known(u) for u in names] == [want.known(u) for u in names]
            assert followers(g) == want.followers
            assert influence_scores(g, names) == {u: want.follower_count(u) for u in names}
            got = outcome(influence_table, g, names)
            if isinstance(got, str):
                assert got == outcome(influence_walk, want, names[0])
                continue
            assert_same_bits(np.array(list(got.values())),
                             np.array([influence_walk(want, u) for u in names]))


def recoded(change):
    """A spoil that stores, through the graph cache's codec, what
    change(meta, names, edges) makes of the cache's contents (names a
    bytearray, edges a writable copy): the CRC-32 holds, so only the graph
    checks can refuse it.  A lambda, as the other spoils are, so that the
    test ids number them all in one sequence."""
    return lambda data, other, codec: _recode(codec, change)


def _recode(codec, change):
    meta, arrays = codec.load(lambda meta, arrays: (meta, arrays))
    names, edges = bytearray(arrays["names"]), arrays["edges"].copy()
    change(meta, names, edges)
    codec.store(meta, {"names": np.frombuffer(names, np.uint8), "edges": edges})
    assert codec.load(lambda meta, arrays: True)
    with open(codec.path, "rb") as fh:
        return fh.read()


class TestEdgeListCache:
    """The cache file beside an edge list: a hit is the graph a parse
    builds, and anything else is a miss that parses and rewrites it."""

    TEXT = "a u\nb u\nc a\nu a\nb u\n"

    def cache_file(self, path):
        return path.parent / CACHE_DIR / (path.name + ".graph")

    def assert_same_graph(self, got, want):
        assert list(got.users) == list(want.users)
        assert_same_bits(got.follower, want.follower)
        assert_same_bits(got.followed, want.followed)
        users = list(want.users)
        assert_same_bits(np.array(list(influence_table(got, users).values())),
                         np.array(list(influence_table(want, users).values())))

    def load_without_parse(self, path):
        with mock.patch.object(social, "_index_edges", side_effect=AssertionError):
            return load_edge_list(path)

    def test_a_hit_equals_a_parse(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        want = load_edge_list(path)
        assert os.listdir(tmp_path / CACHE_DIR) == ["edges.txt.graph"]
        self.assert_same_graph(self.load_without_parse(path), want)
        self.assert_same_graph(want, graph_from_edges(
            [line.split() for line in self.TEXT.splitlines()]))

    def test_keyed_by_the_sha256_of_the_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        load_edge_list(path)
        head = self.cache_file(path).read_bytes().split(b"\n", 2)[:2]
        assert head == [b"fakereal graph cache 3",
                        hashlib.sha256(self.TEXT.encode()).hexdigest().encode()]

    def test_an_empty_edge_list_is_cached(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("\n \n")
        load_edge_list(path)
        g = self.load_without_parse(path)
        assert g.users == {} and len(g.follower) == 0 and g.n_users == 0

    @pytest.mark.parametrize("spoil", [
        lambda data, other, codec: data[: len(data) // 2],     # truncated
        lambda data, other, codec: data[:-3],                  # a partial last id
        lambda data, other, codec: b"\x00" * len(data),        # overwritten
        lambda data, other, codec: b"",
        # another version
        lambda data, other, codec: data.replace(b"cache 3\n", b"cache 2\n", 1),
        lambda data, other, codec: other,                      # another file content
        lambda data, other, codec: flip_line(data, 1),         # a flipped byte in the digest
        lambda data, other, codec: flip_line(data, 2),         # and in the stamp
        # the recoded cases have a valid CRC-32 and reach the graph checks:
        # a head that lies
        recoded(lambda meta, names, edges: meta.update(users=5)),
        # an id out of range
        recoded(lambda meta, names, edges: edges.__setitem__((1, -1), -1)),
        # the last two followers swapped: pairs out of order
        recoded(lambda meta, names, edges: edges.__setitem__((0, [2, 3]), edges[0, [3, 2]])),
        # the last pair a copy of the one before
        recoded(lambda meta, names, edges: edges.__setitem__((slice(None), -1), edges[:, -2])),
        # a user renamed, b -> z
        lambda data, other, codec: data.replace(b"\nb\n", b"\nz\n", 1),
        # an id past the last user
        recoded(lambda meta, names, edges: edges.__setitem__((1, -1), 4)),
        # two users of one name
        recoded(lambda meta, names, edges: names.__setitem__(slice(2, 3), b"a")),
        # a name more than the head counts
        recoded(lambda meta, names, edges: names.extend(b"q\n")),
        # bytes after the last name's newline
        recoded(lambda meta, names, edges: names.extend(b"q")),
    ])
    def test_a_spoilt_cache_is_a_miss_and_is_rewritten(self, tmp_path, spoil):
        other = tmp_path / "other" / "edges.txt"
        other.parent.mkdir()
        other.write_text(self.TEXT.replace("c a", "c b"))
        load_edge_list(other)
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        want = load_edge_list(path)
        cache = self.cache_file(path)
        good = cache.read_bytes()
        codec = fileio.ContentCache(path, ".graph", social._GRAPH_MAGIC)
        spoilt = spoil(good, self.cache_file(other).read_bytes(), codec)
        assert spoilt != good
        cache.write_bytes(spoilt)
        self.assert_same_graph(load_edge_list(path), want)
        assert cache.read_bytes() == good
        self.assert_same_graph(self.load_without_parse(path), want)

    @pytest.mark.parametrize("case", STAMP_CASES)
    def test_the_stamp(self, tmp_path, age, case):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)

        def load():
            g = load_edge_list(path)
            return list(g.users), g.follower.tolist(), g.followed.tolist()

        check_stamp_case(case, path, load, (social, "_index_edges"), age,
                         self.TEXT.replace("c a", "c b"))

    def test_a_trusted_hit_never_hashes(self, tmp_path, age):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        want = load_edge_list(path)
        age()
        self.assert_same_graph(load_edge_list(path), want)   # verified by the digest
        with no_hashing():
            g = self.load_without_parse(path)
        self.assert_same_graph(g, want)
        assert g.influence_cache.digest == hashlib.sha256(self.TEXT.encode()).hexdigest()

    def test_a_file_rewritten_between_calls_is_parsed_again(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        load_edge_list(path)
        path.write_text(self.TEXT + "d c\n")
        g = load_edge_list(path)
        assert followers(g)["c"] == {"d"} and g.n_users == 5
        assert os.listdir(tmp_path / CACHE_DIR) == ["edges.txt.graph"]
        self.assert_same_graph(self.load_without_parse(path), g)

    @pytest.mark.parametrize("case", REWRITES)
    def test_a_file_rewritten_during_the_parse_is_not_cached(self, tmp_path, age, case):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        edit = rewriter(case, path, age, self.TEXT.replace("c a", "c b"))
        index = social._index_edges

        def rewrite_then_index(*args):
            edit()
            return index(*args)

        with mock.patch.object(social, "_index_edges", side_effect=rewrite_then_index):
            assert followers(load_edge_list(path)) == {"u": {"a", "b"}, "a": {"c", "u"}}
        assert not (tmp_path / CACHE_DIR).exists()
        assert followers(load_edge_list(path)) == {"u": {"a", "b"}, "a": {"u"}, "b": {"c"}}

    def test_a_cold_miss_of_an_old_file_hashes_it_once(self, tmp_path, age):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        age()
        _, parsed, hashed = counted(lambda: load_edge_list(path), (social, "_index_edges"))
        assert (parsed, hashed) == (1, 1)

    def test_parse_errors_are_not_cached(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nc\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="edges.txt: line 2: expected 'follower followed'"):
                load_edge_list(path)
        assert not (tmp_path / CACHE_DIR).exists()

    @pytest.mark.parametrize("block", ["file in the way", "read-only directory",
                                       "cache path is a directory"])
    def test_an_unwritable_cache_means_no_caching(self, tmp_path, block):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        if block == "file in the way":
            (tmp_path / CACHE_DIR).write_text("")
        elif block == "cache path is a directory":
            self.cache_file(path).mkdir(parents=True)
        want = graph_from_edges([line.split() for line in self.TEXT.splitlines()])
        if block == "read-only directory":
            # what a directory without write permission does to the
            # temporary file; root would be allowed to write anyway
            refuse = mock.patch.object(fileio, "atomic_write", side_effect=PermissionError)
        else:
            refuse = mock.patch.object(fileio, "atomic_write", wraps=fileio.atomic_write)
        with refuse:
            for _ in range(2):
                self.assert_same_graph(load_edge_list(path), want)
        assert not self.cache_file(path).is_file()


class TestLevelFollowers:
    def chain(self):
        # b follows a, a follows u
        return graph_from_edges([("a", "u"), ("b", "a")])

    def test_levels_walk_outward(self):
        g = self.chain()
        assert level_followers(g, "u", 1) == {"a"}
        assert level_followers(g, "u", 2) == {"b"}
        assert level_followers(g, "u", 3) == set()

    def test_publisher_never_appears(self):
        g = graph_from_edges([("a", "u"), ("u", "a")])   # mutual follow
        assert level_followers(g, "u", 2) == set()       # only u follows a

    def test_raw_recurrence_revisits_on_cycles(self):
        # a and b follow each other; a also follows u
        g = graph_from_edges([("a", "u"), ("b", "a"), ("a", "b")])
        assert level_followers(g, "u", 1) == {"a"}
        assert level_followers(g, "u", 2) == {"b"}
        assert level_followers(g, "u", 3) == {"a"}
        assert level_followers(g, "u", 4) == {"b"}

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="level must be >= 1"):
            level_followers(self.chain(), "u", 0)

    def test_unknown_user(self):
        with pytest.raises(ValueError, match="unknown user 'ghost'"):
            level_followers(self.chain(), "ghost", 1)


class TestUserInfluence:
    def test_star_reaches_everyone(self):
        g = graph_from_edges([("a", "u"), ("b", "u"), ("c", "u")])
        assert user_influence(g, "u") == 1.0

    def test_chain_discounts_second_level(self):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=0.5)
        assert user_influence(g, "u") == pytest.approx(0.75)

    def test_mutual_follow_pair(self):
        g = graph_from_edges([("a", "u"), ("u", "a")], p=0.5)
        assert user_influence(g, "u") == 1.0

    def test_rejoining_paths_count_once(self):
        # c follows both a and b, who follow u
        g = graph_from_edges([("a", "u"), ("b", "u"), ("c", "a"), ("c", "b")], p=0.5)
        assert user_influence(g, "u") == pytest.approx((2 + 0.5) / 3)

    def test_already_reached_user_never_recounts(self):
        # b follows u directly and also follows a
        g = graph_from_edges([("a", "u"), ("b", "u"), ("b", "a")], p=0.5)
        assert user_influence(g, "u") == 1.0

    def test_p_zero_keeps_only_direct_followers(self):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=0.0)
        assert user_influence(g, "u") == 0.5

    def test_p_one_counts_all_reachable(self):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=1.0)
        assert user_influence(g, "u") == 1.0

    def test_depth_cap_truncates(self):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=0.5, d_max=1)
        assert user_influence(g, "u") == 0.5

    def test_isolated_publisher_scores_zero(self):
        g = graph_from_edges([("a", "b")])
        g.add_user("u")
        assert user_influence(g, "u") == 0.0

    def test_needs_two_users(self):
        g = FollowerGraph()
        g.add_user("u")
        with pytest.raises(ValueError, match="at least 2 users"):
            user_influence(g, "u")

    def test_counts_only_graph_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("u\t5\nv\t1\n")
        g = load_follower_counts(path)
        with pytest.raises(ValueError, match="only follower counts"):
            user_influence(g, "u")

    def test_score_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            users = [f"u{i}" for i in range(n)]
            edges = [(a, b) for a in users for b in users if a != b and rng.random() < 0.3]
            g = graph_from_edges(edges, p=float(rng.random()))
            for x in users:
                g.add_user(x)
            for x in users:
                assert 0.0 <= user_influence(g, x) <= 1.0

    def test_new_follower_never_hurts(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            users = [f"u{i}" for i in range(6)]
            edges = [(a, b) for a in users for b in users
                     if a != b and rng.random() < 0.25]
            g = with_users(graph_from_edges(edges, p=0.6), users)
            before = user_influence(g, "u0")
            outsider = [x for x in users if x not in followers(g).get("u0", set())]
            if not outsider or outsider == ["u0"]:
                continue
            extra = next(x for x in outsider if x != "u0")
            g = with_users(graph_from_edges(edges + [(extra, "u0")], p=0.6), users)
            assert user_influence(g, "u0") >= before - 1e-12

    def test_matches_naive_level_oracle(self, influence_oracle):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            users = [str(i) for i in range(n)]
            p = float(rng.random())
            edges = [(a, b) for a in users for b in users if a != b and rng.random() < 0.35]
            g = graph_from_edges(edges, p=p)
            for x in users:
                g.add_user(x)
            follower_sets = {}
            for a, b in edges:
                follower_sets.setdefault(b, set()).add(a)
            for x in users:
                want = influence_oracle(follower_sets, n, x, p)
                assert user_influence(g, x) == pytest.approx(want, abs=1e-12)


@st.composite
def influence_cases(draw, min_users=2, max_users=12, min_edges_per_user=0):
    """A random follower graph (self-loops and repeated edges allowed), its
    p and depth bound, and a user list that also names unknown users."""
    n = draw(st.integers(min_users, max_users))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=min_edges_per_user * n, max_size=4 * n))
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    d_max = draw(st.sampled_from([1, 2, 3, None]))
    g = graph_from_edges([(f"u{a}", f"u{b}") for a, b in edges], p=p, d_max=d_max)
    # every user, and up to n + 2 that no edge or user list names
    with_users(g, [f"u{i}" for i in range(n)] + [f"x{i}" for i in range(draw(
        st.integers(0, n + 2)))])
    users = [f"u{i}" for i in draw(st.permutations(range(n)))] + ["ghost", "u-1"]
    return g, users


class TestInfluenceTable:
    """The 64-publisher bitmask sweep against the one-publisher set walk
    it replaced (tests/conftest.py), compared with ==: the sweep folds
    integer level counts with the walk's own float recurrence."""

    @settings(max_examples=300, deadline=None)
    @given(influence_cases())
    def test_equals_walk(self, influence_walk, case):
        g, users = case
        assert influence_table(g, users) == {u: influence_walk(g, u) for u in users}

    @settings(max_examples=40, deadline=None)
    @given(influence_cases(min_users=70, max_users=160, min_edges_per_user=3))
    def test_equals_walk_across_sweeps(self, influence_walk, case):
        # more than 64 publishers with edges: the later ones land in a second sweep
        g, users = case
        assume(len(set(followers(g)).union(*followers(g).values())) > 64)
        assert influence_table(g, users) == {u: influence_walk(g, u) for u in users}

    def test_sweep_boundary_on_a_long_chain(self, influence_walk):
        # u{i+1} follows u{i}: every level reaches one new user, 130 deep
        g = graph_from_edges([(f"u{i + 1}", f"u{i}") for i in range(130)], p=0.9)
        users = [f"u{i}" for i in range(131)]
        table = influence_table(g, users)
        assert table == {u: influence_walk(g, u) for u in users}
        assert influence_table(g, users[64:70]) == {u: table[u] for u in users[64:70]}

    def test_one_call_equals_one_user_at_a_time(self):
        rng = np.random.default_rng(5)
        edges = [(f"u{a}", f"u{b}") for a, b in rng.integers(0, 80, size=(300, 2))]
        g = graph_from_edges(edges, p=0.7, d_max=4)
        users = [f"u{i}" for i in range(80)]
        table = influence_table(g, users + users[:10])
        assert list(table) == users
        assert table == {u: user_influence(g, u) for u in users}

    def test_self_loops_and_unknown_users(self):
        g = graph_from_edges([("u", "u"), ("a", "u"), ("a", "a")])
        assert influence_table(g, ["u", "a", "ghost"]) == {"u": 1.0, "a": 0.0, "ghost": 0.0}

    def test_graph_without_edges(self):
        g = FollowerGraph()
        g.add_user("a")
        g.add_user("b")
        assert influence_table(g, ["a", "b", "c"]) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_checks_run_in_order(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2 users"):
            influence_table(with_users(FollowerGraph(), ["u"]), ["u"])
        path = tmp_path / "p.tsv"
        path.write_text("u\t5\n")
        with pytest.raises(ValueError, match="at least 2 users"):
            influence_table(load_follower_counts(path), ["u"])
        path.write_text("u\t5\nv\t1\n")
        with pytest.raises(ValueError, match="only follower counts"):
            influence_table(load_follower_counts(path), ["u"])

    def test_edge_arrays_equal_the_old_index(self):
        """The graph's arrays hold the edges of the int32 index that
        influence_table once built from the follower sets, by name."""
        rng = np.random.default_rng(8)
        edges = [(f"u{a}", f"u{b}") for a, b in rng.integers(0, 30, size=(90, 2))]
        g = graph_from_edges(edges)
        old = SetGraph()
        for follower, followed in edges:
            old.add_edge(follower, followed)
        ids, followed, starts, follower = followed_by_follower(old)
        names, ends = list(ids), [*starts[1:], len(followed)]
        want = {(names[f], names[d])
                for f, lo, hi in zip(follower, starts, ends) for d in followed[lo:hi]}
        users = list(g.users)
        got = [(users[f], users[d]) for f, d in zip(g.follower, g.followed)]
        assert len(got) == len(want) and set(got) == want
        # distinct pairs, sorted by follower and then by followed
        assert (np.diff(g.follower.astype(np.int64) * len(users) + g.followed) > 0).all()
        assert users == list(old.users)   # numbered in order of first appearance

    def test_add_user_counts_in_later_calls(self, influence_walk):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=0.5)
        assert user_influence(g, "u") == 1.5 / 2
        g.add_user("c")
        assert user_influence(g, "u") == influence_walk(g, "u") == 1.5 / 3
        g.add_user("a")
        g.add_user("d")
        assert user_influence(g, "u") == influence_walk(g, "u") == 1.5 / 4

    def test_exact_scores_skip_unknown_publishers(self):
        # no graph at all: unknown publishers score 0 and nothing is walked
        assert influence_scores(FollowerGraph(), ["a", "b"], mode="exact") == {"a": 0.0, "b": 0.0}
        g = with_users(graph_from_edges([("a", "u1"), ("b", "a")], p=0.5), ["c"])
        assert influence_scores(g, ["u1", "ghost", "u1"], mode="exact") == {
            "u1": (1 + 0.5) / 3, "ghost": 0.0}


def write_edges(path, g):
    """Write g's edges to `path` as an edge list, one pair per line."""
    names = list(g.users)
    path.write_text("".join(f"{names[a]} {names[b]}\n" for a, b in zip(g.follower, g.followed)))


class TestInfluenceCache:
    """The per-level reach counts kept beside an edge list: scores read
    through the cache equal a fresh sweep, whichever calls scored which
    publishers, and any cache file but a good one is a miss."""

    TEXT = "a u\nb u\nc a\nu a\nb u\nd c\n"
    USERS = ["u", "a", "b", "c", "d", "ghost"]

    def cache_file(self, path):
        return path.parent / CACHE_DIR / (path.name + ".influence")

    def scores(self, path, users=USERS, p=0.5, d_max=None, extra=()):
        """influence_scores in exact mode on a fresh load of `path`, with
        the users `extra` added, and the users it swept (None for no
        sweep)."""
        g = with_users(load_edge_list(path, p, d_max), extra)
        with mock.patch.object(social, "_reach_levels", wraps=social._reach_levels) as sweep:
            got = influence_scores(g, users, mode="exact")
        assert sweep.call_count <= 1
        return got, sweep.call_args[0][1] if sweep.called else None

    def want(self, p=0.5, d_max=None, extra=()):
        g = graph_from_edges([line.split() for line in self.TEXT.splitlines()], p, d_max)
        return influence_table(with_users(g, extra), self.USERS)

    def edge_file(self, directory, text=TEXT):
        directory.mkdir(exist_ok=True)
        path = directory / "edges.txt"
        path.write_text(text)
        return path

    def _merged_tables(self, tmp_path_factory, influence_walk, case, data):
        g, users = case
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        write_edges(path, g)
        scored = set()
        for _ in range(data.draw(st.integers(2, 4))):
            lo, hi = sorted(data.draw(st.lists(st.integers(0, len(users)), min_size=2,
                                               max_size=2)))
            subset = users[lo:hi] + users[lo:lo + 1]
            p = data.draw(st.one_of(st.sampled_from([0.0, 1.0, g.p]), st.floats(0.0, 1.0)))
            # the users no edge names, and up to 3 more
            extra = [f"y{i}" for i in range(data.draw(st.integers(0, 3)))]
            loaded = with_users(load_edge_list(path, p, g.d_max), [*g.users, *extra])
            with mock.patch.object(social, "_reach_levels", wraps=social._reach_levels) as sweep:
                got = influence_scores(loaded, subset, mode="exact")
            # only the known users that no earlier call scored are swept
            missing = [u for u in dict.fromkeys(subset) if loaded.known(u) and u not in scored]
            assert [c[0][1] for c in sweep.call_args_list] == ([missing] if missing else [])
            scored.update(missing)
            assert got == influence_table(loaded, subset)
            assert got == {u: influence_walk(loaded, u) for u in subset}

    @settings(max_examples=150, deadline=None)
    @given(case=influence_cases(), data=st.data())
    def test_merged_tables_equal_a_fresh_sweep(self, tmp_path_factory, influence_walk, case,
                                               data):
        self._merged_tables(tmp_path_factory, influence_walk, case, data)

    @settings(max_examples=20, deadline=None)
    @given(case=influence_cases(min_users=70, max_users=160, min_edges_per_user=3),
           data=st.data())
    def test_merged_tables_equal_a_fresh_sweep_across_sweeps(self, tmp_path_factory,
                                                             influence_walk, case, data):
        # more than 64 publishers with edges: a call may sweep more than once
        g, _ = case
        assume(len(set(followers(g)).union(*followers(g).values())) > 64)
        self._merged_tables(tmp_path_factory, influence_walk, case, data)

    def test_keyed_by_the_sha256_of_the_file_and_d_max(self, tmp_path, age):
        path = self.edge_file(tmp_path)
        age()   # a stamp of the file's stat, not "-"
        assert self.scores(path, d_max=2) == (self.want(d_max=2), self.USERS[:5])
        head, digest, stamp, crc, spec, arrays = self.cache_file(path).read_bytes().split(b"\n")
        assert head == b"fakereal influence cache 3"
        assert digest == hashlib.sha256(self.TEXT.encode()).hexdigest().encode()
        st = os.stat(path)
        assert stamp == b"%d %d %d %d" % (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
        assert crc == b"%08x" % zlib.crc32(b"\n".join([digest, stamp, spec, b""]))
        # integer counts per level (c's last level is one its sweep
        # mates reached), and no arrays; p and N are applied on read
        assert json.loads(spec) == {"meta": {"d_max": 2, "levels": {
            "u": [2, 1], "a": [2, 2], "b": [], "c": [1, 0], "d": []}}, "arrays": []}
        assert arrays == b""
        assert sorted(os.listdir(tmp_path / CACHE_DIR)) == ["edges.txt.graph",
                                                            "edges.txt.influence"]

    def test_p_n_users_and_add_user_still_hit(self, tmp_path):
        path = self.edge_file(tmp_path)
        self.scores(path)
        for p, extra in [(0.5, ()), (0.0, ()), (1.0, ("e", "f", "g", "h")), (0.3, ("e",))]:
            assert self.scores(path, p=p, extra=extra) == (self.want(p, None, extra), None)
        g = load_edge_list(path)
        g.add_user("e")
        # a user new to the cache is swept, and only it
        want = self.want(extra=("e",))
        for sweeps in (["e"], None):
            with mock.patch.object(social, "_reach_levels", wraps=social._reach_levels) as sweep:
                assert influence_scores(g, ["e", "u", "a"], mode="exact") == {
                    "e": 0.0, "u": want["u"], "a": want["a"]}
            assert (sweep.call_args[0][1] if sweep.called else None) == sweeps

    def test_another_d_max_is_a_miss_and_overwrites(self, tmp_path):
        path = self.edge_file(tmp_path)
        swept = self.USERS[:5]
        for d_max, sweeps in [(1, swept), (None, swept), (None, None), (1, swept), (1, None)]:
            assert self.scores(path, d_max=d_max) == (self.want(d_max=d_max), sweeps)

    def test_d_max_is_read_when_the_call_is_made(self, tmp_path):
        path = self.edge_file(tmp_path)
        g = load_edge_list(path)
        g.d_max = np.int64(1)   # stored as the int 1
        assert influence_scores(g, self.USERS, mode="exact") == self.want(d_max=1)
        assert self.scores(path, d_max=1) == (self.want(d_max=1), None)
        g.d_max = None
        assert influence_scores(g, self.USERS, mode="exact") == self.want()
        assert self.scores(path) == (self.want(), None)

    @pytest.mark.parametrize("spoil", [
        lambda data, other: data[: len(data) // 2],             # truncated
        lambda data, other: data[:-2] + data[-1:],             # the closing brace cut
        lambda data, other: b"",
        # a count flipped, 2 -> 3: still JSON, but not what the CRC-32 covers
        lambda data, other: data.replace(b'"u": [2', b'"u": [3', 1),
        lambda data, other: data[:-2] + bytes([data[-2] ^ 0x01]) + data[-1:],
        lambda data, other: data.replace(b"cache 3\n", b"cache 2\n", 1),   # another version
        lambda data, other: other,                              # another file content
        lambda data, other: flip_line(data, 1),                 # a flipped byte in the digest
        lambda data, other: flip_line(data, 2),                 # and in the stamp
    ])
    def test_a_spoilt_cache_is_a_miss_and_is_rewritten(self, tmp_path, spoil):
        other = self.edge_file(tmp_path / "other", self.TEXT.replace("c a", "c b"))
        self.scores(other)
        path = self.edge_file(tmp_path)
        self.scores(path)
        cache = self.cache_file(path)
        good = cache.read_bytes()
        spoilt = spoil(good, self.cache_file(other).read_bytes())
        assert spoilt != good
        cache.write_bytes(spoilt)
        assert self.scores(path) == (self.want(), self.USERS[:5])
        assert cache.read_bytes() == good
        assert self.scores(path) == (self.want(), None)

    @pytest.mark.parametrize("case", STAMP_CASES)
    def test_the_stamp(self, tmp_path, age, case):
        path = self.edge_file(tmp_path)
        check_stamp_case(case, path,
                         lambda: influence_scores(load_edge_list(path), self.USERS, mode="exact"),
                         (social, "_reach_levels"), age, self.TEXT.replace("c a", "c b"))

    def test_a_trusted_hit_never_hashes(self, tmp_path, age):
        path = self.edge_file(tmp_path)
        self.scores(path)
        age()
        assert self.scores(path) == (self.want(), None)   # verified by the digest
        with no_hashing():
            assert self.scores(path) == (self.want(), None)

    @pytest.mark.parametrize("block", ["read-only directory", "cache path is a directory"])
    def test_an_unwritable_cache_means_no_caching(self, tmp_path, block):
        path = self.edge_file(tmp_path)
        if block == "read-only directory":
            # what a directory without write permission does to the
            # temporary file; root would be allowed to write anyway
            refuse = mock.patch.object(fileio, "atomic_write", side_effect=PermissionError)
        else:
            self.cache_file(path).mkdir(parents=True)
            refuse = mock.patch.object(fileio, "atomic_write", wraps=fileio.atomic_write)
        with refuse:
            for _ in range(2):
                assert self.scores(path) == (self.want(), self.USERS[:5])
        assert not self.cache_file(path).is_file()

    def test_a_file_rewritten_during_the_load_is_not_cached(self, tmp_path):
        path = self.edge_file(tmp_path)
        index = social._index_edges

        def rewrite_then_index(*args):
            path.write_text("x y\n")
            return index(*args)

        with mock.patch.object(social, "_index_edges", side_effect=rewrite_then_index):
            g = load_edge_list(path)
        assert g.influence_cache is None
        assert influence_scores(g, self.USERS, mode="exact") == self.want()
        assert not (tmp_path / CACHE_DIR).exists()

    def test_errors_are_the_same_on_a_hit_and_a_miss(self, tmp_path):
        path = self.edge_file(tmp_path, "a a\n")

        def graph(spoil):
            """A graph of `path` that scores, or, spoilt, one of a single user."""
            if spoil:
                return load_edge_list(path)
            return with_users(load_edge_list(path), ["u", "v"])

        want = outcome(influence_table, graph(True), ["a", "u"])
        assert "at least 2 users, got N=1" in want
        for cached in (False, True):   # a miss, then a hit
            assert self.cache_file(path).is_file() == cached
            with mock.patch.object(social, "_reach_levels", side_effect=AssertionError):
                assert outcome(influence_scores, graph(True), ["a", "u"], "exact") == want
            influence_scores(graph(False), ["a", "u"], mode="exact")

    def test_only_exact_influence_scores_of_a_loaded_graph_write_the_cache(self, tmp_path,
                                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self.edge_file(tmp_path)
        g = load_edge_list(path)
        counts = tmp_path / "p.tsv"
        counts.write_text("u\t5\nv\t1\n")
        assert load_follower_counts(counts).influence_cache is None
        built = graph_from_edges([line.split() for line in self.TEXT.splitlines()])
        assert built.influence_cache is None
        assert user_influence(g, "u") == influence_table(g, ["u"])["u"] == 2.75 / 4
        influence_scores(g, self.USERS)
        influence_scores(built, self.USERS, mode="exact")
        assert os.listdir(tmp_path / CACHE_DIR) == ["edges.txt.graph"]
        assert sorted(os.listdir(tmp_path)) == sorted([CACHE_DIR, "edges.txt", "p.tsv"])


class TestFollowerCountInfluence:
    def test_adjacency_graph_counts_direct_followers(self):
        g = graph_from_edges([("a", "u"), ("b", "u"), ("c", "u")])
        assert follower_count_influence(g, "u") == 3.0
        assert follower_count_influence(g, "a") == 0.0

    def test_counts_table_wins_when_present(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("u\t7\n")
        g = load_follower_counts(path)
        assert follower_count_influence(g, "u") == 7.0
        assert follower_count_influence(g, "ghost") == 0.0

    def test_self_follow_ignored(self):
        g = graph_from_edges([("u", "u"), ("a", "u")])
        assert follower_count_influence(g, "u") == 1.0


class TestCountFileEqualsEdgeList:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_scores_and_rows(self, data, tmp_path_factory):
        """Any edge list, duplicates and self-follows included, and a count
        file listing each of its users' direct followers in any order:
        the same follower-count scores and explicit rows, for publishers
        the graph may not know."""
        user = st.sampled_from(USERS)
        edges = data.draw(st.lists(st.tuples(user, user), max_size=30))
        names = list(dict.fromkeys(u for edge in edges for u in edge))
        direct = {u: len({a for a, b in edges if b == u != a}) for u in names}
        path = tmp_path_factory.mktemp("counts") / "publishers.tsv"
        path.write_text("".join(f"{u}\t{direct[u]}\n" for u in data.draw(st.permutations(names))))
        articles = [art(pubs, Label.FAKE if i % 2 else Label.REAL, f"a{i}") for i, pubs in
                    enumerate(data.draw(st.lists(st.lists(user, max_size=4), max_size=6)))]
        pubs = [u for a in articles for u in a.publisher_ids]
        ledger = tally_credit(articles)
        want = influence_scores(graph_from_edges(edges), pubs)
        got = influence_scores(load_follower_counts(path), pubs)
        assert got == want
        assert_same_bits(explicit_rows(articles, ledger, got),
                         explicit_rows(articles, ledger, want))


class TestMinMax:
    def test_frozen_example(self):
        scaler = fit_minmax(np.array([[2.0], [4.0], [10.0]]))
        assert apply_minmax(scaler, [4.0]) == pytest.approx([0.25])
        assert apply_minmax(scaler, [2.0]) == pytest.approx([0.0])
        assert apply_minmax(scaler, [10.0]) == pytest.approx([1.0])

    def test_out_of_range_values_clamp(self):
        scaler = fit_minmax(np.array([[0.0], [5.0]]))
        assert apply_minmax(scaler, [-3.0]) == pytest.approx([0.0])
        assert apply_minmax(scaler, [99.0]) == pytest.approx([1.0])

    def test_constant_feature_maps_to_zero(self):
        scaler = fit_minmax(np.array([[3.0, 1.0], [3.0, 2.0]]))
        out = apply_minmax(scaler, [3.0, 1.5])
        assert out[0] == 0.0 and out[1] == pytest.approx(0.5)

    def test_one_dimensional_rows_promoted(self):
        scaler = fit_minmax(np.array([1.0, 3.0]))
        assert apply_minmax(scaler, [2.0]) == pytest.approx([0.5])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            fit_minmax(np.zeros((0, 3)))


class TestArticleVectors:
    def ledger(self):
        return {"u1": (5, 1), "u2": (9, 3)}

    def row(self, pubs, scores=None):
        """The explicit row of one article, by column name; influence
        scores default to 0.0."""
        scores = dict.fromkeys(pubs, 0.0) if scores is None else scores
        return dict(zip(EXPLICIT_ORDER, explicit_rows([art(pubs)], self.ledger(), scores)[0]))

    def test_raw_credit_averages_publishers(self):
        vec = self.row(["u1", "u2"])
        assert (vec["nct"], vec["ncf"], vec["num_p_credit"]) == (7.0, 2.0, 2.0)
        assert vec["num_p_credit"] != 0   # not cold

    def test_raw_credit_publisher_order_irrelevant(self):
        a = self.row(["u1", "u2"])
        b = self.row(["u2", "u1"])
        assert (a["nct"], a["ncf"], a["num_p_credit"]) == (b["nct"], b["ncf"], b["num_p_credit"])

    def test_no_publishers_is_cold_zeros(self):
        vec = self.row([])
        assert (vec["nct"], vec["ncf"], vec["num_p_credit"]) == (0.0, 0.0, 0.0)
        assert vec["num_p_credit"] == 0   # cold

    def test_raw_influence_count_mode(self):
        g = graph_from_edges([("a", "u1"), ("b", "u1"), ("c", "u2")])
        vec = self.row(["u1", "u2"], influence_scores(g, ["u1", "u2"]))
        assert (vec["ni"], vec["num_p_influence"]) == (1.5, 2.0)

    def test_raw_influence_exact_mode_unknown_publisher_scores_zero(self):
        g = with_users(graph_from_edges([("a", "u1"), ("b", "a")], p=0.5), ["c"])
        scores = influence_scores(g, ["u1", "ghost"], mode="exact")
        vec = self.row(["u1", "ghost"], scores)
        assert vec["ni"] == pytest.approx(((1 + 0.5) / 3) / 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown influence mode"):
            influence_scores(FollowerGraph(), ["u1"], mode="bfs")

    def test_normalized_credit(self):
        scaler = fit_minmax(np.array([[0.0, 0.0, 1.0], [10.0, 4.0, 3.0]]))
        raw = self.row(["u1", "u2"])
        vec = apply_minmax(scaler, [raw["nct"], raw["ncf"], raw["num_p_credit"]])
        assert vec == pytest.approx([0.7, 0.5, 0.5])

    def test_normalized_influence_keeps_cold_flag(self):
        scaler = fit_minmax(np.array([[0.0, 0.0], [2.0, 4.0]]))
        g = graph_from_edges([("a", "u1")])
        raw = self.row([], influence_scores(g, []))
        assert raw["num_p_influence"] == 0   # cold
        assert np.array_equal(apply_minmax(scaler, [raw["ni"], raw["num_p_influence"]]),
                              [0.0, 0.0])


USERS = [f"u{i}" for i in range(8)]


class TestExplicitRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_article_oracle(self, data):
        """Articles with 0-6 publishers, repeats allowed, over users that
        the ledger or the graph may not know, in both influence modes."""
        user = st.sampled_from(USERS)
        articles = [art(pubs, art_id=f"a{i}") for i, pubs in
                    enumerate(data.draw(st.lists(st.lists(user, max_size=6), max_size=8)))]
        ledger = tally_credit(
            [art([u], Label.FAKE if fake else Label.REAL)
             for u, fake in data.draw(st.lists(st.tuples(user, st.booleans()), max_size=20))])
        edges = data.draw(st.lists(st.tuples(user, user).filter(lambda e: e[0] != e[1]),
                                   min_size=1, max_size=20))
        g = graph_from_edges(edges, p=data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                             d_max=data.draw(st.sampled_from([None, 1, 2])))
        pubs = [u for a in articles for u in a.publisher_ids]
        for mode in ("follower_count", "exact"):
            scores = influence_scores(g, pubs, mode)
            want, cold = article_explicit_rows(articles, ledger, scores)
            got = explicit_rows(articles, ledger, scores)
            assert got.shape == (len(articles), len(EXPLICIT_ORDER))
            assert_same_bits(got, want)
            assert np.array_equal(got[:, EXPLICIT_ORDER.index("num_p_credit")] == 0, cold)
