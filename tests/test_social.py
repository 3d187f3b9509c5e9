"""Publisher history tallies, follower-graph influence, and the min-max
feature scaling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fakereal import social
from fakereal.corpus import Label, NewsArticle
from fakereal.social import (
    EXPLICIT_ORDER,
    CreditLedger,
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

from conftest import article_explicit_rows, assert_same_bits, level_followers


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
        assert ledger.credit("u1") == (3, 2)
        assert ledger.credit("u2") == (1, 0)
        assert ledger.credit("u3") == (1, 1)

    def test_unknown_user_has_no_history(self):
        assert tally_credit([]).credit("ghost") == (0, 0)

    def test_fake_count_never_exceeds_total(self):
        rng = np.random.default_rng(0)
        arts = [art([f"u{rng.integers(5)}" for _ in range(rng.integers(1, 4))],
                    Label.FAKE if rng.random() < 0.5 else Label.REAL, f"a{i}")
                for i in range(50)]
        ledger = tally_credit(arts)
        assert len(ledger) > 0
        for u in ledger.users():
            uct, ucf = ledger.credit(u)
            assert 0 <= ucf <= uct

    def test_ledger_accumulates_per_record(self):
        ledger = CreditLedger()
        ledger.record("u", fake=False)
        ledger.record("u", fake=True)
        ledger.record("u", fake=True)
        assert ledger.credit("u") == (3, 2)


class TestFollowerGraph:
    def test_edge_and_membership(self):
        g = FollowerGraph()
        g.add_edge("alice", "bob")     # alice follows bob
        assert g.followers["bob"] == {"alice"}
        assert g.known("alice") and g.known("bob") and not g.known("carol")
        assert g.n_users == 2

    def test_n_users_override(self):
        g = FollowerGraph(n_users=100)
        g.add_edge("a", "b")
        assert g.n_users == 100

    def test_invalid_share_probability(self):
        with pytest.raises(ValueError, match="share probability"):
            FollowerGraph(p=1.5)
        with pytest.raises(ValueError, match="share probability"):
            FollowerGraph(p=-0.1)

    def test_graph_from_edges_collapses_duplicates(self):
        g = graph_from_edges([("a", "b"), ("a", "b"), ("c", "b")])
        assert g.followers["b"] == {"a", "c"}


class TestLoaders:
    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nc b\n\nb a\n")
        g = load_edge_list(path)
        assert g.followers["b"] == {"a", "c"}
        assert g.followers["a"] == {"b"}

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nonly_one\n")
        with pytest.raises(ValueError, match=r"edges.txt: line 2: expected 'follower followed'"):
            load_edge_list(path)

    def test_counts_file(self, tmp_path):
        path = tmp_path / "publishers.tsv"
        path.write_text("u1\t10\nu2\t0\n")
        g = load_follower_counts(path)
        assert g.counts == {"u1": 10, "u2": 0}
        assert follower_count_influence(g, "u1") == 10.0
        assert g.n_users == 2

    def test_counts_file_errors(self, tmp_path):
        bad_tab = tmp_path / "a.tsv"
        bad_tab.write_text("u1 10\n")
        with pytest.raises(ValueError, match="expected 'user<TAB>count'"):
            load_follower_counts(bad_tab)
        bad_int = tmp_path / "b.tsv"
        bad_int.write_text("u1\tmany\n")
        with pytest.raises(ValueError, match="count must be an integer"):
            load_follower_counts(bad_int)
        negative = tmp_path / "c.tsv"
        negative.write_text("u1\t-3\n")
        with pytest.raises(ValueError, match="negative follower count"):
            load_follower_counts(negative)

    def test_counts_file_lists_each_user_once(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1\t10\nu2\t3\n\nu1\t12\n")
        with pytest.raises(ValueError, match=r"dup.tsv: user 'u1' listed twice, on lines 1 and 4"):
            load_follower_counts(path)


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
            g = FollowerGraph(p=float(rng.random()))
            for x in users:
                g.add_user(x)
            for a in users:
                for b in users:
                    if a != b and rng.random() < 0.3:
                        g.add_edge(a, b)
            for x in users:
                assert 0.0 <= user_influence(g, x) <= 1.0

    def test_new_follower_never_hurts(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            users = [f"u{i}" for i in range(6)]
            edges = [(a, b) for a in users for b in users
                     if a != b and rng.random() < 0.25]
            g = graph_from_edges(edges, p=0.6, n_users=6)
            before = user_influence(g, "u0")
            outsider = [x for x in users if x not in g.followers.get("u0", set())]
            if not outsider or outsider == ["u0"]:
                continue
            extra = next(x for x in outsider if x != "u0")
            g.add_edge(extra, "u0")
            assert user_influence(g, "u0") >= before - 1e-12

    def test_matches_naive_level_oracle(self, influence_oracle):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            users = [str(i) for i in range(n)]
            p = float(rng.random())
            g = FollowerGraph(p=p)
            for x in users:
                g.add_user(x)
            followers = {}
            for a in users:
                for b in users:
                    if a != b and rng.random() < 0.35:
                        g.add_edge(a, b)
                        followers.setdefault(b, set()).add(a)
            for x in users:
                want = influence_oracle(followers, n, x, p)
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
    override = draw(st.one_of(st.none(), st.integers(2, 2 * n + 2)))
    g = graph_from_edges([(f"u{a}", f"u{b}") for a, b in edges], p=p, d_max=d_max,
                         n_users=override)
    for i in range(n):
        g.add_user(f"u{i}")
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
        assume(len(set(g.followers).union(*g.followers.values())) > 64)
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
            influence_table(FollowerGraph(n_users=1), ["u"])
        path = tmp_path / "p.tsv"
        path.write_text("u\t5\n")
        with pytest.raises(ValueError, match="at least 2 users"):
            influence_table(load_follower_counts(path), ["u"])
        path.write_text("u\t5\nv\t1\n")
        with pytest.raises(ValueError, match="only follower counts"):
            influence_table(load_follower_counts(path), ["u"])

    def test_follower_index_built_once_per_graph(self, monkeypatch):
        builds = []
        build = social._followed_by_follower
        monkeypatch.setattr(social, "_followed_by_follower",
                            lambda g: builds.append(g) or build(g))
        rng = np.random.default_rng(8)
        g = graph_from_edges([(f"u{a}", f"u{b}") for a, b in rng.integers(0, 30, size=(90, 2))])
        scores = [user_influence(g, f"u{i}") for i in range(12)]
        assert len(builds) == 1
        assert influence_table(g, [f"u{i}" for i in range(12)]) == {
            f"u{i}": score for i, score in enumerate(scores)}
        assert len(builds) == 1

    def test_add_edge_drops_the_follower_index(self, influence_walk):
        g = graph_from_edges([("a", "u"), ("b", "a")], p=0.5, n_users=5)
        assert user_influence(g, "u") == 1.5 / 4
        g.add_edge("c", "b")
        assert user_influence(g, "u") == influence_walk(g, "u") == 1.75 / 4
        g.add_edge("d", "u")
        assert user_influence(g, "u") == influence_walk(g, "u") == 2.75 / 4

    def test_exact_scores_skip_unknown_publishers(self):
        # no graph at all: unknown publishers score 0 and nothing is walked
        assert influence_scores(FollowerGraph(), ["a", "b"], mode="exact") == {"a": 0.0, "b": 0.0}
        g = graph_from_edges([("a", "u1"), ("b", "a")], p=0.5, n_users=4)
        assert influence_scores(g, ["u1", "ghost", "u1"], mode="exact") == {
            "u1": (1 + 0.5) / 3, "ghost": 0.0}


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
        ledger = CreditLedger()
        for _ in range(4):
            ledger.record("u1", fake=False)
        ledger.record("u1", fake=True)
        for _ in range(6):
            ledger.record("u2", fake=False)
        for _ in range(3):
            ledger.record("u2", fake=True)
        # u1: (5, 1), u2: (9, 3)
        return ledger

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
        g = graph_from_edges([("a", "u1"), ("b", "a")], p=0.5, n_users=4)
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
        ledger = CreditLedger()
        for u, fake in data.draw(st.lists(st.tuples(user, st.booleans()), max_size=20)):
            ledger.record(u, fake)
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
