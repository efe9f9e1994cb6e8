"""Homophily, top-rank composition, reply latency and role subgraphs."""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_corpus, random_corpus, union_sets
from leadnet.analytics import (
    GENDER_GROUPS,
    ROLE_GROUPS,
    Subgraph,
    active_user_indices,
    homophily,
    response_stats,
    role_subgraph,
    top_mass,
    user_codes,
)
from leadnet.ingest import Gender, Role, UserRef
from leadnet.multiplex import build_tensor, window_events
from leadnet.rank import RankVector


def user(uid, role=Role.consultant, gender=Gender.unknown):
    return UserRef(user_id=uid, role=role, gender=gender)


def gender_of(corpus):
    return user_codes(corpus)[0]


def everyone(corpus):
    """Every user's index, as the active users of a window all post in."""
    return np.arange(corpus.n_users)


def window_homophily(corpus, window):
    return homophily(window_events(window, corpus), gender_of(corpus))


def window_response_stats(corpus, window, group_by):
    gender, role = user_codes(corpus)
    codes, groups = {"author_role": (role, ROLE_GROUPS),
                     "author_gender": (gender, GENDER_GROUPS)}[group_by]
    return response_stats(window_events(window, corpus), codes, groups)


WOMEN_AND_MEN = {
    "W1": user("W1", gender=Gender.female),
    "W2": user("W2", gender=Gender.female),
    "M1": user("M1", gender=Gender.male),
    "M2": user("M2", gender=Gender.male),
}


class TestHomophily:
    def test_rates_follow_comment_recipients(self):
        corpus, window = make_corpus(
            [
                ("t0", "W1", [("W2", "hi"), ("M1", "hello")]),
                ("t1", "M1", [("W2", "ciao"), ("M2", "salve")]),
            ],
            users=WOMEN_AND_MEN,
        )
        entry = window_homophily(corpus, window)
        assert entry.p_ww == pytest.approx(0.5)   # W2->W1 yes, W2->M1 no
        assert entry.p_mm == pytest.approx(0.5)   # M1->W1 no, M2->M1 yes
        assert entry.w_comments == 2 and entry.m_comments == 2
        assert entry.prior_w == pytest.approx(0.5)
        assert entry.prior_m == pytest.approx(0.5)
        assert entry.threads_known == 2

    def test_mentions_redirect_the_recipient(self):
        corpus, window = make_corpus(
            [("t0", "M1", [("W1", "ciao"), ("W2", "@W1 concordo")])],
            users=WOMEN_AND_MEN,
        )
        entry = window_homophily(corpus, window)
        # W1 answered the man; W2 answered W1 through the mention.
        assert entry.p_ww == pytest.approx(0.5)
        assert entry.w_comments == 2

    def test_unknown_gender_drops_from_both_sides(self):
        users = dict(WOMEN_AND_MEN)
        users["X"] = user("X")
        corpus, window = make_corpus(
            [
                ("t0", "X", [("W1", "a")]),     # unknown recipient
                ("t1", "W1", [("X", "b")]),     # unknown commenter
                ("t2", "W1", [("W2", "c")]),
            ],
            users=users,
        )
        entry = window_homophily(corpus, window)
        assert entry.w_comments == 1
        assert entry.p_ww == pytest.approx(1.0)
        # thread by X does not enter the authorship prior
        assert entry.threads_known == 2
        assert entry.prior_w == pytest.approx(1.0)

    def test_empty_denominators_become_none(self):
        corpus, window = make_corpus(
            [("t0", "W1", [("W2", "a")])], users=WOMEN_AND_MEN)
        entry = window_homophily(corpus, window)
        assert entry.p_mm is None and entry.m_comments == 0
        assert entry.p_ww == pytest.approx(1.0)

    def test_no_gendered_threads_gives_none_priors(self):
        corpus, window = make_corpus([("t0", "X", [])])
        entry = window_homophily(corpus, window)
        assert entry.prior_w is None and entry.prior_m is None
        assert entry.p_ww is None and entry.p_mm is None


class TestTopMass:
    def corpus(self):
        users = {
            "a": user("a", gender=Gender.female),
            "b": user("b", gender=Gender.male),
            "c": user("c", gender=Gender.female),
            "d": user("d", gender=Gender.male),
            "e": user("e"),
        }
        corpus, window = make_corpus(
            [("t0", "a", [("b", "x"), ("c", "y"), ("d", "z"), ("e", "w")])],
            users=users,
        )
        return corpus, window

    def rank(self, scores):
        vec = np.asarray(scores, dtype=float)
        return RankVector(scores=vec / vec.sum())

    def test_counts_women_in_the_top_k(self):
        corpus, _window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])   # a, b, c, d, e
        entry = top_mass(rank, gender_of(corpus), everyone(corpus), k=2)
        assert entry.mass_w == pytest.approx(0.5)     # {a, b}
        assert top_mass(rank, gender_of(corpus), everyone(corpus), k=3).mass_w == \
            pytest.approx(2 / 3)

    def test_score_ties_break_by_user_id(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0, 1.0, 1.0, 1.0, 1.0])
        entry = top_mass(rank, gender_of(corpus), everyone(corpus), k=2)
        assert entry.mass_w == pytest.approx(0.5)     # {a, b} alphabetical

    def test_unknown_gender_takes_a_slot_without_counting(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0, 1.0, 1.0, 1.0, 100.0])  # e on top
        entry = top_mass(rank, gender_of(corpus), everyone(corpus), k=1)
        assert entry.mass_w == 0.0

    def test_full_depth_equals_the_prior(self):
        corpus, _window = self.corpus()
        rank = self.rank([3.0, 1.0, 4.0, 1.0, 5.0])
        entry = top_mass(rank, gender_of(corpus), everyone(corpus), k=corpus.n_users)
        women = sum(u.gender is Gender.female for u in corpus.users)
        assert entry.n_active == corpus.n_users
        assert entry.mass_w == pytest.approx(women / entry.n_active) == \
            pytest.approx(0.4)

    def test_default_k_is_the_top_decile_floored_at_one(self):
        corpus, _window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])
        entry = top_mass(rank, gender_of(corpus), everyone(corpus))
        assert entry.k == 1 and entry.n_active == 5
        assert entry.mass_w == pytest.approx(1.0)

    def test_oversized_k_clamps_to_the_active_count(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0] * 5)
        entry = top_mass(rank, gender_of(corpus), everyone(corpus), k=12)
        assert entry.k == entry.n_active == 5

    def test_active_subset_restricts_the_ranking(self):
        corpus, _window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])
        idx = corpus.user_index
        entry = top_mass(rank, gender_of(corpus), active={idx["c"], idx["d"]},
                         k=1)
        assert entry.n_active == 2
        assert entry.mass_w == pytest.approx(1.0)     # c outranks d
        # at full depth, the women's share among the active users only
        assert top_mass(rank, gender_of(corpus), active={idx["c"], idx["d"]},
                        k=2).mass_w == pytest.approx(0.5)

    def test_rejects_empty_active_set_and_bad_k(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0] * 5)
        with pytest.raises(ValueError):
            top_mass(rank, gender_of(corpus), active=set())
        with pytest.raises(ValueError):
            top_mass(rank, gender_of(corpus), everyone(corpus), k=0)


class TestActiveUsers:
    def test_authors_commenters_and_raters_are_active(self):
        corpus, window = make_corpus(
            [("t0", "a", [("b", "x")]), ("t1", "c", [])],
            [("d", "t0m1", 1)],
            users={"e": user("e")},
        )
        active = active_user_indices(window_events(window, corpus))
        names = {corpus.users[i].user_id for i in active}
        assert names == {"a", "b", "c", "d"}


class TestResponseStats:
    def corpus(self):
        users = {
            "mgr": user("mgr", role=Role.manager, gender=Gender.female),
            "con": user("con", role=Role.consultant, gender=Gender.male),
            "unk": user("unk", role=Role.unknown),
        }
        return make_corpus(
            [
                ("t0", "mgr", [("con", "a"), ("con", "b")]),
                ("t1", "con", [("mgr", "c")]),
                ("t2", "con", []),
                ("t3", "unk", [("con", "d")]),
            ],
            users=users,
        )

    def test_groups_by_role_with_latency_from_first_comment(self):
        corpus, window = self.corpus()
        stats = {s.group: s for s in
                 window_response_stats(corpus, window, "author_role")}
        assert sorted(stats) == ["consultant", "manager"]
        assert stats["manager"].mean_latency_s == pytest.approx(60.0)
        assert stats["manager"].comment_count == 2
        assert stats["consultant"].comment_count == 1
        assert stats["consultant"].mean_latency_s == pytest.approx(60.0)

    def test_commentless_group_has_none_latency(self):
        users = {"con": user("con", role=Role.consultant)}
        corpus, window = make_corpus([("t0", "con", [])], users=users)
        (only,) = window_response_stats(corpus, window, "author_role")
        assert only.mean_latency_s is None
        assert only.comment_count == 0

    def test_groups_by_gender(self):
        corpus, window = self.corpus()
        stats = window_response_stats(corpus, window, "author_gender")
        assert [s.group for s in stats] == ["female", "male"]
        assert [s.comment_count for s in stats] == [2, 1]
        assert [s.mean_latency_s for s in stats] == [60.0, 60.0]


class TestRoleSubgraph:
    def corpus(self):
        users = {
            "a": user("a", role=Role.manager),
            "b": user("b", role=Role.manager),
            "c": user("c", role=Role.consultant),
            "d": user("d", role=Role.manager),
        }
        corpus, window = make_corpus(
            [
                ("t0", "a", [("b", "x"), ("c", "y")]),
                ("t1", "c", [("d", "z")]),
            ],
            users=users,
        )
        return corpus, build_tensor(window, corpus)

    def test_induced_union_keeps_isolated_members(self):
        corpus, tensor = self.corpus()
        sub, warnings = role_subgraph(tensor, corpus, [Role.manager])
        idx = corpus.user_index
        assert sub.nodes == (idx["a"], idx["b"], idx["d"])
        assert sub.edges == ((idx["a"], idx["b"]),)
        assert warnings == []

    def test_empty_match_warns(self):
        corpus, tensor = self.corpus()
        sub, warnings = role_subgraph(tensor, corpus, [Role.partner])
        assert sub.nodes == () and sub.edges == ()
        assert len(warnings) == 1 and "partner" in warnings[0]

    def test_multiple_roles_union(self):
        corpus, tensor = self.corpus()
        sub, _ = role_subgraph(
            tensor, corpus, [Role.manager, Role.consultant])
        assert len(sub.nodes) == 4
        idx = corpus.user_index
        assert (idx["c"], idx["d"]) in sub.edges
        assert (idx["a"], idx["c"]) in sub.edges


def neighbor_set_role_subgraph(tensor, corpus, roles):
    """The role subgraph read off neighbor sets built from the stored
    edges: a reference that shares no code with the sparse union."""
    neighbors = union_sets(tensor)
    nodes = tuple(i for i, ref in enumerate(corpus.users) if ref.role in roles)
    keep = set(nodes)
    edges = sorted((i, j) for i in nodes for j in neighbors[i]
                   if j in keep and i < j)
    return Subgraph(nodes=nodes, edges=tuple(edges))


class TestRoleSubgraphMatchesNeighborSets:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_windows_and_role_sets(self, seed):
        rng = random.Random(9700 + seed)
        corpus, window, _t, _r = random_corpus(rng, n_users=12, n_threads=10)
        tensor = build_tensor(window, corpus)
        roles = sorted((r for r in Role if r is not Role.unknown),
                       key=lambda role: role.value)
        corpus = replace(corpus, users=tuple(
            replace(ref, role=rng.choice(roles)) for ref in corpus.users))
        for wanted in ([rng.choice(roles)], rng.sample(roles, 2),
                       rng.sample(roles, 4), roles):
            sub, _warnings = role_subgraph(tensor, corpus, wanted)
            assert sub == neighbor_set_role_subgraph(tensor, corpus,
                                                     set(wanted))


def sorted_top_mass(rank, corpus, active, k):
    """top_mass as it ranked with a Python sort keyed by (-score,
    user_id), the reference for its lexsort."""
    indices = sorted(active)
    effective = min(k, len(indices))
    order = sorted(
        indices, key=lambda i: (-rank.scores[i], corpus.users[i].user_id))
    women_top = sum(corpus.users[i].gender is Gender.female
                    for i in order[:effective])
    return effective, len(indices), women_top / effective


class TestTopMassMatchesSortedOrder:
    @pytest.mark.parametrize("seed", range(40))
    def test_tied_scores_and_random_active_sets(self, seed):
        rng = random.Random(4100 + seed)
        corpus, _window, _t, _r = random_corpus(rng, n_users=rng.randint(1, 15),
                                                n_threads=3)
        genders = list(Gender)
        corpus = replace(corpus, users=tuple(
            replace(ref, gender=rng.choice(genders)) for ref in corpus.users))
        # few distinct scores, zeros among them, so most users tie
        raw = np.array([rng.choice([0.0, 1.0, 1.0, 2.0, 3.0])
                        for _ in corpus.users])
        raw[rng.randrange(raw.size)] += 1.0
        rank = RankVector(scores=raw / raw.sum())
        for _ in range(5):
            active = set(rng.sample(range(corpus.n_users),
                                    rng.randint(1, corpus.n_users)))
            k = rng.randint(1, corpus.n_users + 2)
            entry = top_mass(rank, gender_of(corpus), active, k)
            assert (entry.k, entry.n_active, entry.mass_w) == \
                sorted_top_mass(rank, corpus, active, k)
