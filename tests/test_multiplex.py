"""Layer construction: weights, normalization, mention resolution."""

import random
from collections import defaultdict
from dataclasses import replace
from datetime import timedelta

import pytest

import oracles
from conftest import (
    T0,
    make_corpus,
    make_layer,
    message_author_map,
    random_corpus,
    resolve_like_package,
    window_ratings,
)
from leadnet.ingest import (
    WindowConfig,
    WindowSlice,
    whole_span_slice,
    window_partition,
)
from leadnet.multiplex import (
    ORIENT_RECEIVER,
    ORIENT_SENDER,
    build_tensor,
    comment_weight,
    union_adjacency,
    window_events,
)


class TestCommentWeight:
    def test_first_answer_weighs_one(self):
        assert comment_weight(1) == 1.0

    def test_second_answer_weighs_three_quarters(self):
        assert comment_weight(2) == 0.75

    def test_decreases_toward_half(self):
        weights = [comment_weight(k) for k in range(1, 200)]
        assert weights == sorted(weights, reverse=True)
        assert weights[-1] > 0.5

    def test_positions_start_at_one(self):
        with pytest.raises(ValueError):
            comment_weight(0)


class TestEmpowerment:
    def test_distinct_commenters_give_unit_indicators(self):
        corpus, window = make_corpus([
            ("t1", "A", [("B", "x"), ("C", "x"), ("B", "again")]),
        ])
        layer = build_tensor(window, corpus).empowerment
        at = corpus.user_index
        assert layer.edges == {
            (at["A"], at["B"]): 1.0,
            (at["A"], at["C"]): 1.0,
        }
        assert layer.orientation == ORIENT_RECEIVER

    def test_normalized_over_each_commenters_empowerers(self):
        corpus, window = make_corpus([
            ("t1", "A", [("C", "x")]),
            ("t2", "B", [("C", "x")]),
            ("t3", "B", [("C", "x")]),
        ])
        layer = build_tensor(window, corpus).empowerment
        at = corpus.user_index
        assert layer.edges[(at["A"], at["C"])] == pytest.approx(1.0 / 3.0)
        assert layer.edges[(at["B"], at["C"])] == pytest.approx(2.0 / 3.0)

    def test_self_comments_ignored(self):
        corpus, window = make_corpus([
            ("t1", "A", [("A", "bump"), ("B", "x")]),
        ])
        layer = build_tensor(window, corpus).empowerment
        at = corpus.user_index
        assert set(layer.edges) == {(at["A"], at["B"])}


class TestCollaboration:
    def test_positional_weights_normalize_over_recipient(self):
        corpus, window = make_corpus([
            ("t1", "A", [("B", "first"), ("C", "second")]),
        ])
        layer = build_tensor(window, corpus).collaboration
        at = corpus.user_index
        # raw: B->A 1.0, C->A 0.75; incoming mass at A is 1.75
        assert layer.edges[(at["B"], at["A"])] == 0.5714285714285714
        assert layer.edges[(at["C"], at["A"])] == 0.42857142857142855

    def test_mention_of_prior_participant_redirects(self):
        corpus, window = make_corpus([
            ("t1", "A", [("B", "first"), ("C", "@B, agreed")]),
        ])
        layer = build_tensor(window, corpus).collaboration
        at = corpus.user_index
        assert layer.edges[(at["C"], at["B"])] == 1.0
        assert layer.edges[(at["B"], at["A"])] == 1.0

    def test_mention_of_outsider_falls_back_to_author(self):
        corpus, window = make_corpus([
            ("t1", "A", [("B", "@Z hello"), ("C", "@ghost @B ok")]),
        ])
        layer = build_tensor(window, corpus).collaboration
        at = corpus.user_index
        assert (at["B"], at["A"]) in layer.edges
        assert (at["C"], at["B"]) in layer.edges

    def test_self_reply_dropped(self):
        corpus, window = make_corpus([
            ("t1", "A", [("B", "x"), ("B", "@B note to self")]),
        ])
        layer = build_tensor(window, corpus).collaboration
        at = corpus.user_index
        assert set(layer.edges) == {(at["B"], at["A"])}

    def test_author_answering_own_thread_dropped(self):
        corpus, window = make_corpus([
            ("t1", "A", [("A", "bump")]),
        ])
        layer = build_tensor(window, corpus).collaboration
        assert layer.edges == {}


class TestCredibility:
    def test_trust_normalizes_over_rated_authors(self):
        corpus, window = make_corpus(
            [("t1", "A", [("B", "x")]), ("t2", "B", [])],
            [
                ("R", "t1", 1),               # trust(R->A) = 1.0
                ("R", "t2", 1), ("R", "t1m1", -1),
            ],
        )
        # R on B saw +1 and -1 across B's messages: mean 0 -> trust 0.5,
        # against trust 1.0 for A, so A takes twice B's share
        layer = build_tensor(window, corpus).credibility
        at = corpus.user_index
        assert layer.edges[(at["R"], at["A"])] == pytest.approx(2.0 / 3.0)
        assert layer.edges[(at["R"], at["B"])] == pytest.approx(1.0 / 3.0)
        assert layer.orientation == ORIENT_SENDER

    def test_all_dislike_rater_spreads_uniformly(self):
        corpus, window = make_corpus(
            [("t1", "A", []), ("t2", "B", [])],
            [("R", "t1", -1), ("R", "t2", -1)],
        )
        layer = build_tensor(window, corpus).credibility
        at = corpus.user_index
        assert layer.edges[(at["R"], at["A"])] == 0.5
        assert layer.edges[(at["R"], at["B"])] == 0.5

    def test_self_ratings_ignored(self):
        corpus, window = make_corpus(
            [("t1", "A", [])],
            [("A", "t1", 1)],
        )
        assert build_tensor(window, corpus).credibility.edges == {}

    def test_unrated_pair_has_no_score(self):
        corpus, window = make_corpus([("t1", "A", [("B", "x")])],
                                     [("R", "t1", 1)])
        at = corpus.user_index
        layer = build_tensor(window, corpus).credibility
        assert layer.edges == {(at["R"], at["A"]): 1.0}


class TestOracleParity:
    def remap(self, weights, index):
        return {(index[i], index[j]): w for (i, j), w in weights.items()}

    @pytest.mark.parametrize("seed", range(30))
    def test_random_corpora_match_reference_weights(self, seed):
        rng = random.Random(6000 + seed)
        corpus, window, thread_events, rating_events = random_corpus(rng)
        at = corpus.user_index

        expected_e = self.remap(
            oracles.empowerment_weights(thread_events), at)
        got_e = build_tensor(window, corpus).empowerment.edges
        assert got_e == pytest.approx(expected_e)

        expected_c = self.remap(
            oracles.collaboration_weights(thread_events,
                                          resolve_like_package), at)
        got_c = build_tensor(window, corpus).collaboration.edges
        assert got_c == pytest.approx(expected_c)

        expected_t = self.remap(
            oracles.credibility_weights(rating_events), at)
        got_t = build_tensor(window, corpus).credibility.edges
        assert got_t == pytest.approx(expected_t)

    @pytest.mark.parametrize("seed", range(10))
    def test_layer_stochasticity(self, seed):
        rng = random.Random(7000 + seed)
        corpus, window, _threads, _ratings = random_corpus(rng)
        tensor = build_tensor(window, corpus)
        for name in ("empowerment", "collaboration"):
            layer = tensor.layer(name)
            incoming = {}
            for (_i, j), w in layer.edges.items():
                incoming[j] = incoming.get(j, 0.0) + w
            for j, total in incoming.items():
                assert total == pytest.approx(1.0, abs=1e-12), (name, j)
        outgoing = {}
        for (i, _j), w in tensor.credibility.edges.items():
            outgoing[i] = outgoing.get(i, 0.0) + w
        for i, total in outgoing.items():
            assert total == pytest.approx(1.0, abs=1e-12)


class TestRelabelingInvariance:
    def test_user_ids_only_relabel_indices(self):
        specs = [
            ("t1", "A", [("B", "x"), ("C", "@B ok")]),
            ("t2", "B", [("A", "y"), ("A", "again")]),
        ]
        ratings = [("C", "t2", 1), ("A", "t1m1", -1)]
        corpus1, window1 = make_corpus(specs, ratings)

        rename = {"A": "zz_A", "B": "mm_B", "C": "aa_C"}

        def rn(text):
            for old, new in rename.items():
                text = text.replace(f"@{old}", f"@{new}")
            return text

        specs2 = [
            (tid, rename[author], [(rename[c], rn(t)) for c, t in comments])
            for tid, author, comments in specs
        ]
        ratings2 = [(rename[r], m, v) for r, m, v in ratings]
        corpus2, window2 = make_corpus(specs2, ratings2)

        tensor1 = build_tensor(window1, corpus1)
        tensor2 = build_tensor(window2, corpus2)
        mapping = {
            corpus1.user_index[old]: corpus2.user_index[new]
            for old, new in rename.items()
        }
        for name, layer in tensor1.layers():
            relabeled = {
                (mapping[i], mapping[j]): w for (i, j), w in layer.edges.items()
            }
            assert relabeled == pytest.approx(tensor2.layer(name).edges)


class TestLayerUnion:
    def test_union_is_symmetric_support(self):
        corpus, window = make_corpus(
            [("t1", "A", [("B", "x")])],
            [("C", "t1", 1)],
        )
        tensor = build_tensor(window, corpus)
        at = corpus.user_index
        a, b, c = at["A"], at["B"], at["C"]
        lo, hi = union_adjacency(tensor)
        assert list(zip(lo.tolist(), hi.tolist())) \
            == sorted({tuple(sorted(pair)) for pair in [(a, b), (a, c)]})


# ---------------------------------------------------------------------------
# differential: the array layers against dict accumulation, bit for bit

def dict_empowerment(window, corpus):
    index = corpus.user_index
    raw = defaultdict(float)
    for thread in window.threads:
        i = index[thread.author.user_id]
        seen = set()
        for comment in thread.comments:
            j = index[comment.author.user_id]
            if j == i or j in seen:
                continue
            seen.add(j)
            raw[(i, j)] += 1.0
    return dict_receiver_normalize(raw)


def dict_collaboration(window, corpus):
    index = corpus.user_index
    raw = defaultdict(float)
    for thread in window.threads:
        for k, (comment, recipient) in enumerate(
                zip(thread.comments, thread.recipients), start=1):
            i = index[comment.author.user_id]
            j = index[recipient]
            if i != j:
                raw[(i, j)] += 0.5 + 0.5 / k
    return dict_receiver_normalize(raw)


def dict_receiver_normalize(raw):
    incoming = defaultdict(float)
    for (_i, j), w in raw.items():
        incoming[j] += w
    return {(i, j): w / incoming[j] for (i, j), w in raw.items()}


def dict_credibility(window, corpus):
    authors = message_author_map(window.threads)
    index = corpus.user_index
    deltas = defaultdict(list)
    for event in window_ratings(corpus, window):
        i = index[event.rater_id]
        j = index[authors[event.target_message_id].user_id]
        if i != j:
            deltas[(i, j)].append(event.value)
    trust = defaultdict(dict)
    for (i, j), ds in deltas.items():
        trust[i][j] = 0.5 + 0.5 * (sum(ds) / len(ds))
    edges = {}
    for i, trusts in trust.items():
        total = sum(trusts.values())
        for j, t in trusts.items():
            edges[(i, j)] = t / total if total > 0 else 1.0 / len(trusts)
    return edges


DICT_BUILDERS = {
    "empowerment": dict_empowerment,
    "collaboration": dict_collaboration,
    "credibility": dict_credibility,
}


def assert_layers_match_dicts(window, corpus):
    tensor = build_tensor(window, corpus)
    for name, layer in tensor.layers():
        want = DICT_BUILDERS[name](window, corpus)
        assert dict(layer.edges) == want, (name, window.index)
        assert list(layer.edges) == sorted(want)
        gainer, giver, weight = layer.flow
        flipped = layer.orientation == ORIENT_SENDER
        assert dict(zip(zip(gainer.tolist(), giver.tolist()),
                        weight.tolist())) \
            == {((j, i) if flipped else (i, j)): w for (i, j), w in want.items()}
        assert list(zip(gainer.tolist(), giver.tolist())) \
            == sorted(zip(gainer.tolist(), giver.tolist()))


def all_slices(corpus):
    return [whole_span_slice(corpus), *window_partition(
        corpus, WindowConfig.from_string("days:1"))]


class TestArraysMatchDicts:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_corpora(self, seed):
        rng = random.Random(9100 + seed)
        corpus, window, _threads, _ratings = random_corpus(
            rng, n_users=rng.randrange(3, 12), n_threads=rng.randrange(1, 40))
        assert_layers_match_dicts(window, corpus)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_corpora_over_daily_windows(self, seed):
        rng = random.Random(9200 + seed)
        corpus, _window, _threads, _ratings = random_corpus(
            rng, n_users=10, n_threads=60)
        for window in all_slices(corpus):
            assert_layers_match_dicts(window, corpus)

    def test_self_loops(self):
        corpus, window = make_corpus(
            [("t1", "A", [("A", "bump"), ("B", "@B me"), ("A", "@A again"),
                          ("C", "@C")])],
            [("A", "t1", 1), ("B", "t1m2", -1), ("C", "t1m1", 1)],
        )
        assert_layers_match_dicts(window, corpus)
        for _name, layer in build_tensor(window, corpus).layers():
            assert all(i != j for i, j in layer.edges)

    def test_rater_who_disliked_everything(self):
        corpus, window = make_corpus(
            [("t1", "A", [("B", "x")]), ("t2", "B", [("C", "y")]),
             ("t3", "C", [])],
            [("R", "t1", -1), ("R", "t2", -1), ("R", "t1m1", -1),
             ("R", "t3", -1), ("S", "t3", -1), ("S", "t1", 1)],
        )
        assert_layers_match_dicts(window, corpus)
        at = corpus.user_index
        edges = build_tensor(window, corpus).credibility.edges
        assert edges[(at["R"], at["C"])] == 1.0 / 3.0
        assert edges[(at["S"], at["C"])] == 0.0

    def test_rated_duplicate_ids_within_and_across_windows(self):
        # thread "t0m1" reuses the id of t0's first comment, in the same
        # day; thread "t1m1" (25 hours later) reuses t1's, a day later
        specs = [("t0", "A", [("B", "x")]), ("t1", "C", [("D", "y")]),
                 ("t0m1", "E", [("F", "z")])]
        specs += [(f"f{k}", "G", []) for k in range(22)]
        specs += [("t1m1", "H", [("A", "w")])]
        corpus, _window = make_corpus(
            specs,
            [("R", "t0m1", 1), ("S", "t0m1", -1), ("R", "t1m1", -1),
             ("S", "t1m1", 1), ("R", "t1m1m1", 1)],
        )
        slices = all_slices(corpus)
        assert len(slices) == 3
        assert [window_events(s, corpus).rater.size for s in slices] == [5, 4, 3]
        for window in slices:
            assert_layers_match_dicts(window, corpus)
        at = corpus.user_index
        day0, day1 = (build_tensor(s, corpus).credibility for s in slices[1:])
        assert (at["R"], at["B"]) in day0.edges   # t0m1 is B's comment
        assert (at["R"], at["H"]) in day1.edges   # t1m1 is H's thread

    def test_thread_log_out_of_time_order(self):
        rng = random.Random(9300)
        corpus, _window, _threads, _ratings = random_corpus(
            rng, n_users=9, n_threads=40)
        hours = list(range(len(corpus.threads)))
        rng.shuffle(hours)
        shuffled = replace(corpus, threads=tuple(
            replace(thread, published_at=T0 + timedelta(hours=3 * h))
            for thread, h in zip(corpus.threads, hours)))
        for window in all_slices(shuffled):
            assert_layers_match_dicts(window, shuffled)

    def test_empty_window(self):
        corpus, window = make_corpus([("t1", "A", [("B", "x")])],
                                     [("B", "t1", 1)])
        empty = WindowSlice(index=1, start=window.end,
                            end=window.end + timedelta(days=1),
                            threads=())
        assert_layers_match_dicts(empty, corpus)
        tensor = build_tensor(empty, corpus)
        assert all(layer.edges == {} for _name, layer in tensor.layers())
        assert all(ends.size == 0 for ends in union_adjacency(tensor))


class TestLayerFromMapping:
    def test_mapping_round_trips_and_is_read_only(self):
        layer = make_layer({(2, 0): 0.25, (0, 1): 0.0, (0, 2): 1.0},
                           ORIENT_SENDER)
        assert list(layer.edges.items()) == [((0, 1), 0.0), ((0, 2), 1.0),
                                             ((2, 0), 0.25)]
        # the sender-normalized flow is the transpose, in (dst, src) order
        assert [array.tolist() for array in layer.flow] == [[0, 1, 2],
                                                            [2, 0, 0],
                                                            [0.25, 0.0, 1.0]]
        with pytest.raises(TypeError):
            layer.edges[(1, 1)] = 1.0
        for array in (layer.weight, *layer.flow):
            with pytest.raises(ValueError):
                array[0] = 2.0

    def test_self_loop_is_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_layer({(0, 1): 0.5, (2, 2): 0.5}, ORIENT_RECEIVER)
