"""Homophily, top-rank composition, reply latency and role subgraphs."""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_corpus, random_corpus, union_sets, window_figures
from leadnet.analytics import active_user_indices, top_mass, user_codes
from leadnet.export import write_role_graph_dot
from leadnet.ingest import Gender, Role, UserRef
from leadnet.multiplex import build_tensor, window_events


def user(uid, role=Role.consultant, gender=Gender.unknown):
    return UserRef(user_id=uid, role=role, gender=gender)


def gender_of(corpus):
    return user_codes(corpus)[0]


def everyone(corpus):
    """Every user's index, as the active users of a window all post in."""
    return np.arange(corpus.n_users)


def latency_figures(corpus, window, kind):
    """{group: (mean latency, comment count)} of the window's
    response_latency_mean_s rows by author ``kind`` (role or gender)."""
    return {group.removeprefix(kind + ":"): figure
            for (metric, group), figure in window_figures(corpus, window).items()
            if metric == "response_latency_mean_s" and group.startswith(kind + ":")}


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
        f = window_figures(corpus, window)
        # W2->W1 yes, W2->M1 no; M1->W1 no, M2->M1 yes
        assert f["homophily_p_ww", ""] == (pytest.approx(0.5), 2)
        assert f["homophily_p_mm", ""] == (pytest.approx(0.5), 2)
        assert f["prior_w", ""] == (pytest.approx(0.5), 2)
        assert f["prior_m", ""] == (pytest.approx(0.5), 2)

    def test_mentions_redirect_the_recipient(self):
        corpus, window = make_corpus(
            [("t0", "M1", [("W1", "ciao"), ("W2", "@W1 concordo")])],
            users=WOMEN_AND_MEN,
        )
        f = window_figures(corpus, window)
        # W1 answered the man; W2 answered W1 through the mention.
        assert f["homophily_p_ww", ""] == (pytest.approx(0.5), 2)

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
        f = window_figures(corpus, window)
        assert f["homophily_p_ww", ""] == (pytest.approx(1.0), 1)
        # thread by X does not enter the authorship prior
        assert f["prior_w", ""] == (pytest.approx(1.0), 2)

    def test_empty_denominators_become_none(self):
        corpus, window = make_corpus(
            [("t0", "W1", [("W2", "a")])], users=WOMEN_AND_MEN)
        f = window_figures(corpus, window)
        assert f["homophily_p_mm", ""] == (None, 0)
        assert f["homophily_p_ww", ""] == (pytest.approx(1.0), 1)

    def test_no_gendered_threads_gives_none_priors(self):
        corpus, window = make_corpus([("t0", "X", [])])
        f = window_figures(corpus, window)
        for metric in ("prior_w", "prior_m", "homophily_p_ww",
                       "homophily_p_mm"):
            assert f[metric, ""][0] is None


class TestTopMass:
    """``top_mass`` rows over users a..e (a, c women; b, d men; e of
    unknown gender), all of whom post in the window."""

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
        return vec / vec.sum()

    def test_counts_women_in_the_top_k(self):
        corpus, _window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])   # a, b, c, d, e
        # {a, b}, then {a, b, c}
        assert top_mass(rank, gender_of(corpus), everyone(corpus), k=2) == \
            ("k=2", repr(0.5), "5")
        assert top_mass(rank, gender_of(corpus), everyone(corpus), k=3) == \
            ("k=3", repr(2 / 3), "5")

    def test_score_ties_break_by_user_id(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0, 1.0, 1.0, 1.0, 1.0])
        # {a, b} alphabetical
        assert top_mass(rank, gender_of(corpus), everyone(corpus), k=2) == \
            ("k=2", repr(0.5), "5")

    def test_unknown_gender_takes_a_slot_without_counting(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0, 1.0, 1.0, 1.0, 100.0])  # e on top
        assert top_mass(rank, gender_of(corpus), everyone(corpus), k=1) == \
            ("k=1", repr(0.0), "5")

    def test_full_depth_equals_the_prior(self):
        corpus, _window = self.corpus()
        rank = self.rank([3.0, 1.0, 4.0, 1.0, 5.0])
        women = sum(u.gender is Gender.female for u in corpus.users)
        assert top_mass(rank, gender_of(corpus), everyone(corpus),
                        k=corpus.n_users) == \
            (f"k={corpus.n_users}", repr(women / corpus.n_users), "5")
        assert women / corpus.n_users == pytest.approx(0.4)

    def test_default_k_is_the_top_decile_floored_at_one(self):
        corpus, window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])
        assert top_mass(rank, gender_of(corpus), everyone(corpus)) == \
            ("k=1", repr(1.0), "5")
        # the window's row, with no --top-k, is that same row
        assert window_figures(corpus, window, rank)["top_mass_w", "k=1"] == \
            (1.0, 5)

    def test_oversized_k_clamps_to_the_active_count(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0] * 5)
        group, _value, count = top_mass(rank, gender_of(corpus),
                                        everyone(corpus), k=12)
        assert group == "k=5" and count == "5"

    def test_active_subset_restricts_the_ranking(self):
        corpus, _window = self.corpus()
        rank = self.rank([5.0, 4.0, 3.0, 2.0, 1.0])
        idx = corpus.user_index
        # c outranks d
        assert top_mass(rank, gender_of(corpus), active={idx["c"], idx["d"]},
                        k=1) == ("k=1", repr(1.0), "2")
        # at full depth, the women's share among the active users only
        assert top_mass(rank, gender_of(corpus), active={idx["c"], idx["d"]},
                        k=2) == ("k=2", repr(0.5), "2")

    def test_no_active_users_give_the_k0_row(self):
        corpus, _window = self.corpus()
        rank = self.rank([1.0] * 5)
        for k in (None, 1, 3):
            assert top_mass(rank, gender_of(corpus), set(), k) == \
                ("k=0", "", "0")


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
        stats = latency_figures(corpus, window, "role")
        assert sorted(stats) == ["consultant", "manager"]
        assert stats["manager"] == (pytest.approx(60.0), 2)
        assert stats["consultant"] == (pytest.approx(60.0), 1)

    def test_commentless_group_has_none_latency(self):
        users = {"con": user("con", role=Role.consultant)}
        corpus, window = make_corpus([("t0", "con", [])], users=users)
        assert latency_figures(corpus, window, "role") == {
            "consultant": (None, 0)}

    def test_groups_by_gender(self):
        corpus, window = self.corpus()
        stats = latency_figures(corpus, window, "gender")
        assert list(stats) == ["female", "male"]
        assert list(stats.values()) == [(60.0, 2), (60.0, 1)]


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

    def written(self, tmp_path, roles):
        """The corpus, the role_graph.dot text written for ``roles`` and
        the warning lines."""
        corpus, tensor = self.corpus()
        path = tmp_path / "role_graph.dot"
        warnings = write_role_graph_dot(path, tensor, corpus, roles)
        return corpus, path.read_text(encoding="utf-8"), warnings

    def test_induced_union_keeps_isolated_members(self, tmp_path):
        corpus, text, warnings = self.written(tmp_path, [Role.manager])
        idx = corpus.user_index
        assert text == rendered_role_graph(
            corpus, (idx["a"], idx["b"], idx["d"]), ((idx["a"], idx["b"]),))
        assert warnings == []

    def test_empty_match_warns(self, tmp_path):
        corpus, text, warnings = self.written(tmp_path, [Role.partner])
        assert text == rendered_role_graph(corpus, (), ())
        assert len(warnings) == 1 and "partner" in warnings[0]

    def test_multiple_roles_union(self, tmp_path):
        corpus, text, _ = self.written(
            tmp_path, [Role.manager, Role.consultant])
        lines = text.splitlines()[1:-1]
        assert len([line for line in lines if " -- " not in line]) == 4
        assert '  "c" -- "d";' in lines
        assert '  "a" -- "c";' in lines


def rendered_role_graph(corpus, nodes, edges):
    """role_graph.dot as it renders the given user indices and index
    pairs, each id quoted with its backslashes and quotes escaped."""
    def dot_id(i):
        text = corpus.users[i].user_id
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "".join(["graph leadnet_roles {\n",
                    *(f"  {dot_id(i)};\n" for i in nodes),
                    *(f"  {dot_id(i)} -- {dot_id(j)};\n" for i, j in edges),
                    "}\n"])


def neighbor_set_role_subgraph(tensor, corpus, roles):
    """The role subgraph's (nodes, edges) read off neighbor sets built
    from the stored edges: a reference that shares no code with the
    sparse union."""
    neighbors = union_sets(tensor)
    nodes = tuple(i for i, ref in enumerate(corpus.users) if ref.role in roles)
    keep = set(nodes)
    edges = sorted((i, j) for i in nodes for j in neighbors[i]
                   if j in keep and i < j)
    return nodes, tuple(edges)


class TestRoleSubgraphMatchesNeighborSets:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_windows_and_role_sets(self, seed, tmp_path):
        rng = random.Random(9700 + seed)
        corpus, window, _t, _r = random_corpus(rng, n_users=12, n_threads=10)
        tensor = build_tensor(window, corpus)
        roles = sorted((r for r in Role if r is not Role.unknown),
                       key=lambda role: role.value)
        corpus = replace(corpus, users=tuple(
            replace(ref, role=rng.choice(roles)) for ref in corpus.users))
        for wanted in ([rng.choice(roles)], rng.sample(roles, 2),
                       rng.sample(roles, 4), roles):
            path = tmp_path / "role_graph.dot"
            warnings = write_role_graph_dot(path, tensor, corpus, wanted)
            nodes, edges = neighbor_set_role_subgraph(tensor, corpus,
                                                      set(wanted))
            assert path.read_text(encoding="utf-8") == \
                rendered_role_graph(corpus, nodes, edges)
            assert (warnings == []) == bool(nodes)


def sorted_top_mass(scores, corpus, active, k):
    """top_mass's row as it ranked with a Python sort keyed by (-score,
    user_id), the reference for its lexsort."""
    indices = sorted(active)
    effective = min(k, len(indices))
    order = sorted(
        indices, key=lambda i: (-scores[i], corpus.users[i].user_id))
    women_top = sum(corpus.users[i].gender is Gender.female
                    for i in order[:effective])
    return f"k={effective}", repr(women_top / effective), str(len(indices))


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
        scores = raw / raw.sum()
        for _ in range(5):
            active = set(rng.sample(range(corpus.n_users),
                                    rng.randint(1, corpus.n_users)))
            k = rng.randint(1, corpus.n_users + 2)
            assert top_mass(scores, gender_of(corpus), active, k) == \
                sorted_top_mass(scores, corpus, active, k)
