"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
gate stays readable inside a captured pytest run.  Tolerances and corpus
sizes are frozen here on purpose; loosening them is a behavior change.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import make_corpus, window_figures
from test_rank import FLOW, random_layer, random_tensor, solo_pagerank
from leadnet import cli
from leadnet.analytics import active_user_indices, top_mass, user_codes
from leadnet.ingest import (
    WindowConfig,
    whole_span_slice,
    window_partition,
)
from leadnet.multiplex import ORIENT_RECEIVER, ORIENT_SENDER, build_tensor, window_events
from leadnet.rank import MprParams, brokerage, multiplex_pagerank
from leadnet.synth import SyntheticSpec, generate, pool_of_ngram
from leadnet.topics import TopicConfig, bron_kerbosch, chain_streams, topics_in_window


@pytest.fixture()
def gate(capfd):
    """Yields a context manager that prints one [PASS]/[FAIL] line per
    wrapped check on the real stdout, past pytest's capture."""

    @contextmanager
    def criterion(number, title):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[FAIL] {number:02d} {title}", flush=True)
            raise
        with capfd.disabled():
            print(f"[PASS] {number:02d} {title}", flush=True)

    return criterion


def test_01_layer_stochasticity(gate):
    with gate(1, "synthetic layers are properly normalized in < 5 s"):
        began = time.perf_counter()
        corpus = generate(SyntheticSpec(n_users=200, n_threads=1000, seed=101))
        tensor = build_tensor(whole_span_slice(corpus), corpus)
        for layer in (tensor.empowerment, tensor.collaboration):
            assert layer.orientation == ORIENT_RECEIVER
            sums = {}
            for (_src, dst), weight in layer.edges.items():
                sums[dst] = sums.get(dst, 0.0) + weight
            assert sums, "layer unexpectedly empty"
            for total in sums.values():
                assert abs(total - 1.0) <= 1e-9
        assert tensor.credibility.orientation == ORIENT_SENDER
        sums = {}
        for (src, _dst), weight in tensor.credibility.edges.items():
            sums[src] = sums.get(src, 0.0) + weight
        assert sums, "credibility layer unexpectedly empty"
        for total in sums.values():
            assert abs(total - 1.0) <= 1e-9
        assert time.perf_counter() - began < 5.0


def test_02_monoplex_reduction(gate):
    with gate(2, "zero coupling reduces the chain to plain "
                      "ranking in < 10 s"):
        began = time.perf_counter()
        rng = random.Random(2024)
        params = MprParams(beta=0.0, gamma=0.0, tol=1e-12)
        for _case in range(50):
            n = rng.randrange(2, 201)
            tensor = random_tensor(rng, n)
            chained = multiplex_pagerank(tensor, params)
            for position, name in enumerate(params.layer_order):
                solo, _flow = solo_pagerank(n, tensor.layer(name),
                                            alpha=params.alpha[position],
                                            tol=1e-12)
                gap = np.max(np.abs(getattr(chained, name).scores - solo))
                assert gap < 1e-8
        assert time.perf_counter() - began < 10.0


def test_03_pagerank_against_dense_oracle(gate):
    with gate(3, "power iteration matches a dense solve on 100 "
                      "random layers"):
        rng = random.Random(3003)
        for _case in range(100):
            n = rng.randrange(2, 51)
            orientation = rng.choice([ORIENT_RECEIVER, ORIENT_SENDER])
            alpha = rng.uniform(0.5, 0.95)
            layer = random_layer(rng, n, orientation)
            got, flow = solo_pagerank(n, layer, alpha=alpha, tol=1e-13,
                                      max_iter=100000)
            want = oracles.dense_pagerank(n, layer.edges, flow, alpha)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_04_chained_ranking_against_dense_oracle(gate):
    with gate(4, "chained ranking matches an independent dense "
                      "fixed point on 20 tensors"):
        rng = random.Random(4004)
        for _case in range(20):
            n = rng.randrange(3, 11)
            tensor = random_tensor(rng, n)
            order = ["empowerment", "collaboration", "credibility"]
            rng.shuffle(order)
            alphas = tuple(rng.uniform(0.6, 0.95) for _ in range(3))
            beta, gamma = rng.choice([(1.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
            params = MprParams(alpha=alphas, beta=beta, gamma=gamma,
                               layer_order=tuple(order), tol=1e-12,
                               max_iter=200000)
            result = multiplex_pagerank(tensor, params)
            want = oracles.dense_multiplex_pagerank(
                n,
                [tensor.layer(name).edges for name in order],
                [FLOW[name] for name in order],
                alphas, beta, gamma,
            )
            for name, expected in zip(order, want):
                gap = np.max(np.abs(getattr(result, name).scores - expected))
                assert gap <= 1e-8


def test_05_cliques_against_brute_force(gate):
    with gate(5, "maximal cliques equal brute-force enumeration on "
                      "200 graphs"):
        rng = random.Random(5005)
        for _case in range(200):
            n = rng.randrange(1, 13)
            p = rng.choice([0.15, 0.3, 0.5, 0.75])
            names = [f"g{i}" for i in range(n)]
            adj = {name: set() for name in names}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        adj[names[i]].add(names[j])
                        adj[names[j]].add(names[i])
            assert bron_kerbosch(adj) == oracles.brute_force_cliques(adj)


def test_06_homophily_recovery(gate):
    with gate(6, "planted reply homophily 0.48 and prior 0.24 are "
                      "recovered (5 seeds)"):
        for seed in range(1, 6):
            spec = SyntheticSpec(n_users=400, n_threads=40000,
                                 comments_mean=0.25, homophily_p_ww=0.48,
                                 gender_prior_w=0.24, seed=seed)
            corpus = generate(spec)
            comments = sum(len(t.comments) for t in corpus.threads)
            assert 9000 <= comments <= 11000
            figures = window_figures(corpus, whole_span_slice(corpus))
            p_ww, _count = figures["homophily_p_ww", ""]
            prior_w, _count = figures["prior_w", ""]
            assert abs(p_ww - 0.48) <= 0.02, (seed, p_ww)
            assert abs(prior_w - 0.24) <= 0.01, (seed, prior_w)


def _top_decile_mass(uplift, seed):
    spec = SyntheticSpec(n_users=200, n_threads=1000,
                         women_activity_uplift=uplift, seed=seed)
    corpus = generate(spec)
    window = whole_span_slice(corpus)
    tensor = build_tensor(window, corpus)
    result = multiplex_pagerank(tensor, MprParams())
    active = active_user_indices(window_events(window, corpus))
    _k, mass_w, _n_active = top_mass(result.leadership.scores,
                                     user_codes(corpus)[0], active)
    return float(mass_w)


def test_07_leadership_uplift_property(gate):
    with gate(7, "a planted 2x women activity uplift lifts "
                      "top-decile mass above the prior (20 seeds)"):
        lifted = [_top_decile_mass(2.0, seed) for seed in range(1, 21)]
        flat = [_top_decile_mass(1.0, seed) for seed in range(1, 21)]
        assert sum(lifted) / len(lifted) > 0.24
        assert abs(sum(flat) / len(flat) - 0.24) <= 0.05


def test_08_planted_topic_streams(gate, synth_lexicon):
    with gate(8, "two disjoint concept pools come out as exactly "
                      "two pure topic streams"):
        corpus = generate(SyntheticSpec())
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        lexicon = synth_lexicon
        config = TopicConfig()
        per_window = [topics_in_window(s, lexicon, config) for s in slices]
        streams = chain_streams(per_window, config.theta_h)
        assert len(streams) == 2
        pools = []
        for entries in streams.values():
            labels = {
                pool_of_ngram(gram)
                for _w, topic in entries
                for gram in topic.members
            }
            assert len(labels) == 1 and None not in labels
            pools.append(labels.pop())
        assert sorted(pools) == ["cloud", "payments"]


def test_09_end_to_end_determinism(gate, tmp_path):
    with gate(9, "the full pipeline is byte-identical across reruns "
                      "and worker counts, in < 10 s"):
        fixture = tmp_path / "fixture"
        assert cli.main(["synth", "--out", str(fixture), "--seed", "11"]) == 0

        def run_all(out, jobs):
            argv = ["all",
                    "--input", str(fixture / "threads.jsonl"),
                    "--ratings", str(fixture / "ratings.jsonl"),
                    "--lexicon", str(fixture / "lexicon.tsv"),
                    "--stopwords", str(fixture / "stopwords.txt"),
                    "--window", "week", "--jobs", str(jobs),
                    "--out", str(out)]
            began = time.perf_counter()
            assert cli.main(argv) == 0
            assert time.perf_counter() - began < 10.0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = run_all(tmp_path / "run1", 1)
        second = run_all(tmp_path / "run2", 1)
        parallel = run_all(tmp_path / "run8", 8)
        assert first == second
        assert first == parallel


def test_10_degenerate_inputs(gate, synth_lexicon):
    with gate(10, "degenerate corpora produce valid outputs"):
        # a silent middle week: windows stay on the grid, empty analytics
        corpus, _span = make_corpus([
            ("t0", "A", [("B", "ciao")]),
            ("t1", "A", []),
        ])
        object.__setattr__(corpus.threads[1], "published_at",
                           corpus.threads[0].published_at.replace(day=20))
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        assert len(slices) == 3 and not slices[1].threads
        empty = slices[1]
        tensor = build_tensor(empty, corpus)
        result = multiplex_pagerank(tensor, MprParams())
        assert result.leadership.scores == pytest.approx([0.5, 0.5])
        figures = window_figures(corpus, empty, result.leadership.scores)
        assert figures["homophily_p_ww", ""][0] is None
        assert figures["prior_w", ""][0] is None
        assert topics_in_window(empty, synth_lexicon, TopicConfig()) == []

        # no ratings at all: credibility falls back to teleporting only
        corpus, window = make_corpus([("t0", "A", [("B", "ciao")])])
        tensor = build_tensor(window, corpus)
        assert tensor.credibility.edges == {}
        result = multiplex_pagerank(tensor, MprParams())
        assert result.leadership.scores.sum() == pytest.approx(1.0)
        assert np.all(result.leadership.scores > 0)

        # one lonely user: every score concentrates on them
        solo = generate(SyntheticSpec(n_users=1, n_threads=10, seed=3))
        assert solo.ratings == ()
        window = whole_span_slice(solo)
        tensor = build_tensor(window, solo)
        result = multiplex_pagerank(tensor, MprParams())
        assert result.leadership.scores == pytest.approx([1.0])
        assert brokerage(tensor).scores == pytest.approx([1.0])

        # a rater who only dislikes still spreads uniform trust
        corpus, window = make_corpus(
            [("t0", "A", [("B", "x")]), ("t1", "B", [])],
            [("C", "t0", -1), ("C", "t1", -1)],
        )
        tensor = build_tensor(window, corpus)
        c = corpus.user_index["C"]
        a = corpus.user_index["A"]
        b = corpus.user_index["B"]
        assert tensor.credibility.edges == {(c, a): 0.5, (c, b): 0.5}
        result = multiplex_pagerank(tensor, MprParams())
        assert result.leadership.scores.sum() == pytest.approx(1.0)
