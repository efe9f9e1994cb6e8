"""The window's event rows feed both the layers and the analytics.

The analytics used to walk each window's thread, comment and rating
objects themselves.  ``ParentWalkers`` keeps those walks as they were,
and the ``analytics.csv`` rows read off ``window_events`` rows must
equal the rows rendered from theirs, as the same text, on random
corpora, on the daily windows of synthetic corpora, and on the
hand-built edge cases of ``data/analytics_edges.jsonl``.  The last tests count the
walks a run makes.
"""

import random
from collections import defaultdict
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import T0, random_corpus, window_ratings
from leadnet import cli, multiplex
from leadnet.analytics import active_user_indices, analytics_rows, user_codes
from leadnet.ingest import (
    Gender,
    Role,
    UserRef,
    WindowConfig,
    build_corpus,
    format_timestamp,
    parse_ratings,
    parse_thread_log,
    whole_span_slice,
    window_partition,
)
from leadnet.multiplex import window_events
from leadnet.synth import SyntheticSpec, generate

DATA = Path(__file__).parent / "data"


def merged(corpus, user_id):
    """The user's merged role and gender, as ``corpus.users`` holds them."""
    return corpus.users[corpus.user_index[user_id]]


class ParentWalkers:
    """The analytics as they walked a window's objects before they read
    its event rows; each returns the fields of the entry it made.  A
    user's role and gender are the merged ones of ``corpus.users``."""

    @staticmethod
    def homophily(slice, corpus):
        ww = w_all = mm = m_all = 0
        threads_w = threads_m = 0
        for thread in slice.threads:
            thread_gender = merged(corpus, thread.author.user_id).gender
            if thread_gender is Gender.female:
                threads_w += 1
            elif thread_gender is Gender.male:
                threads_m += 1
            for comment, recipient in zip(thread.comments, thread.recipients):
                author_gender = merged(corpus, comment.author.user_id).gender
                recipient_gender = merged(corpus, recipient).gender
                if author_gender is Gender.unknown \
                        or recipient_gender is Gender.unknown:
                    continue
                if author_gender is Gender.female:
                    w_all += 1
                    if recipient_gender is Gender.female:
                        ww += 1
                else:
                    m_all += 1
                    if recipient_gender is Gender.male:
                        mm += 1
        threads_known = threads_w + threads_m

        def rate(num, den):
            return num / den if den else None

        return (rate(ww, w_all), rate(mm, m_all),
                rate(threads_w, threads_known), rate(threads_m, threads_known),
                w_all, m_all, threads_known)

    @staticmethod
    def active_user_indices(slice, corpus):
        active = set()
        for thread in slice.threads:
            active.add(corpus.user_index[thread.author.user_id])
            for comment in thread.comments:
                active.add(corpus.user_index[comment.author.user_id])
        for event in window_ratings(corpus, slice):
            active.add(corpus.user_index[event.rater_id])
        return active

    @staticmethod
    def top_mass(scores, corpus, active, k):
        indices = sorted(active)
        wanted = k if k is not None else max(1, len(indices) // 10)
        effective = min(wanted, len(indices))
        idx = np.asarray(indices)
        top = idx[np.lexsort((idx, -scores[idx]))[:effective]].tolist()
        women_top = sum(1 for i in top
                        if corpus.users[i].gender is Gender.female)
        return effective, len(indices), women_top / effective

    @staticmethod
    def response_stats(slice, corpus, group_by):
        latencies = defaultdict(list)
        comments = defaultdict(int)
        threads = defaultdict(int)
        for thread in slice.threads:
            author = merged(corpus, thread.author.user_id)
            if group_by == "author_role":
                if author.role is Role.unknown:
                    continue
                group = author.role.value
            else:
                if author.gender is Gender.unknown:
                    continue
                group = author.gender.name
            threads[group] += 1
            comments[group] += len(thread.comments)
            if thread.comments:
                first = thread.comments[0].created_at
                latencies[group].append(
                    (first - thread.published_at).total_seconds())
        return [(group,
                 sum(latencies[group]) / len(latencies[group])
                 if latencies[group] else None,
                 comments[group])
                for group in sorted(threads)]


def cell(value):
    """A figure as ``analytics.csv`` writes it: a float by its repr, None
    as an empty cell."""
    return "" if value is None else repr(value)


def parent_rows(window, corpus, scores, k):
    """The window's ``analytics.csv`` rows, less their window start,
    rendered from the figures of ``ParentWalkers``."""
    p_ww, p_mm, prior_w, prior_m, w_all, m_all, known = \
        ParentWalkers.homophily(window, corpus)
    active = ParentWalkers.active_user_indices(window, corpus)
    top = ("k=0", "", "0")
    if active:
        effective, n_active, mass = ParentWalkers.top_mass(
            scores, corpus, active, k)
        top = (f"k={effective}", cell(mass), str(n_active))
    rows = [("homophily_p_ww", "", cell(p_ww), str(w_all)),
            ("homophily_p_mm", "", cell(p_mm), str(m_all)),
            ("prior_w", "", cell(prior_w), str(known)),
            ("prior_m", "", cell(prior_m), str(known)),
            ("top_mass_w", *top)]
    for kind, group_by in (("role", "author_role"),
                           ("gender", "author_gender")):
        rows += [("response_latency_mean_s", f"{kind}:{group}", cell(mean),
                  str(comments)) for group, mean, comments in
                 ParentWalkers.response_stats(window, corpus, group_by)]
    return rows


def check_window(corpus, window, rng):
    events = window_events(window, corpus)
    active = active_user_indices(events)
    assert active.tolist() == sorted(
        ParentWalkers.active_user_indices(window, corpus))
    scores, top_ks = np.zeros(corpus.n_users), (None,)
    if active.size:
        # few distinct scores, so most users tie
        raw = np.array([rng.choice([0.0, 1.0, 1.0, 2.0]) for _ in corpus.users])
        raw[rng.randrange(raw.size)] += 1.0
        scores = raw / raw.sum()
        top_ks = (None, 1, rng.randint(1, active.size + 2))
    start = format_timestamp(window.start)
    for k in top_ks:
        got = analytics_rows(start, events, scores, user_codes(corpus), k)
        assert got == [(start, *row)
                       for row in parent_rows(window, corpus, scores, k)]


def windows(corpus):
    yield whole_span_slice(corpus)
    for spec in ("week", "days:1"):
        yield from window_partition(corpus, WindowConfig.from_string(spec))


def dressed(corpus, rng):
    """``corpus`` rebuilt through ``build_corpus`` with random genders and
    roles (a user may carry two), publication times over three weeks,
    reply times that may predate the thread, and a duplicated message
    id, so that every analytics rule is exercised."""
    def ref(user_id):
        return UserRef(user_id, rng.choice(list(Role)), rng.choice(list(Gender)))

    threads = []
    for thread in corpus.threads:
        published = T0 + timedelta(minutes=rng.randrange(21 * 24 * 60))
        at = published - timedelta(minutes=rng.randrange(3))
        comments = []
        for comment in thread.comments:
            at += timedelta(seconds=rng.randrange(0, 5000))
            comments.append(replace(comment, created_at=at,
                                    author=ref(comment.author.user_id)))
        threads.append(replace(thread, published_at=published,
                               author=ref(thread.author.user_id),
                               comments=tuple(comments)))
    if len(threads) > 1 and threads[0].comments and threads[-1].comments:
        last = threads[-1]
        twin = replace(last.comments[0],
                       comment_id=threads[0].comments[0].comment_id)
        threads[-1] = replace(last, comments=(twin, *last.comments[1:]))
    ratings = list(corpus.ratings)
    if ratings:
        ratings.append(replace(ratings[0], rater_id="silent"))
    return build_corpus(threads, ratings)[0]


class TestAnalyticsMatchTheObjectWalks:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_corpora(self, seed):
        rng = random.Random(5300 + seed)
        corpus, _window, _t, _r = random_corpus(
            rng, n_users=rng.randint(2, 12), n_threads=rng.randint(1, 14))
        corpus = dressed(corpus, rng)
        for window in windows(corpus):
            check_window(corpus, window, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_daily_windows_of_synthetic_corpora(self, seed):
        rng = random.Random(seed)
        corpus = generate(SyntheticSpec(n_users=40, n_threads=150,
                                        span_days=14, seed=seed))
        daily = window_partition(corpus, WindowConfig.from_string("days:1"))
        assert len(daily) >= 14
        for window in daily:
            check_window(corpus, window, rng)

    def test_hand_built_edge_cases(self):
        threads, _diags = parse_thread_log(DATA / "analytics_edges.jsonl")
        ratings, _diags = parse_ratings(DATA / "analytics_edges_ratings.jsonl")
        corpus, diags = build_corpus(threads, ratings)
        assert any("conflicting gender" in line for line in diags)
        assert any(line.startswith("duplicate message id") for line in diags)
        weeks = window_partition(corpus, WindowConfig.from_string("week"))
        assert not weeks[1].threads
        rng = random.Random(7)
        for window in windows(corpus):
            check_window(corpus, window, rng)


class TestEventRows:
    def test_thread_rows_follow_the_window(self):
        threads, _diags = parse_thread_log(DATA / "analytics_edges.jsonl")
        corpus, _diags = build_corpus(threads)
        span = whole_span_slice(corpus)
        events = window_events(span, corpus)
        assert events.thread_author.tolist() == [
            corpus.user_index[t.author.user_id] for t in span.threads]
        latency = events.first_reply_s.tolist()
        for thread, seconds in zip(span.threads, latency):
            if thread.comments:
                assert seconds == (thread.comments[0].created_at
                                   - thread.published_at).total_seconds()
            else:
                assert np.isnan(seconds)
        # t1's first comment predates it and is clamped to 0 s
        assert latency[0] == 0.0
        assert events.position.size == sum(len(t.comments)
                                           for t in span.threads)


def corpus_args(corpus_s):
    return ["--input", corpus_s / "threads.jsonl",
            "--ratings", corpus_s / "ratings.jsonl",
            "--lexicon", corpus_s / "lexicon.tsv",
            "--stopwords", corpus_s / "stopwords.txt"]


class TestOneWalkPerWindow:
    @pytest.fixture
    def walks(self, monkeypatch):
        walked = []
        walk = multiplex.window_events

        def counting(slice, corpus):
            walked.append(slice)
            return walk(slice, corpus)

        monkeypatch.setattr(multiplex, "window_events", counting)
        monkeypatch.setattr(cli, "window_events", counting)
        return walked

    def test_all_walks_each_window_once_and_the_span_once(
            self, corpus_s, tmp_path, walks):
        out = tmp_path / "all"
        assert cli.main(["all", "--out", str(out), "--window", "week",
                         *map(str, corpus_args(corpus_s))]) == 0
        n_windows = len(list(out.glob("rankings_w*.csv")))
        assert n_windows > 1
        assert [s.index for s in walks[:-1]] == list(range(n_windows))
        assert len(walks) == n_windows + 1
        span = walks[-1]
        assert len(span.threads) == sum(len(s.threads) for s in walks[:-1])

    def test_analytics_walks_each_window_once(self, corpus_s, tmp_path,
                                              walks):
        out = tmp_path / "analytics"
        assert cli.main(["analytics", "--out", str(out), "--window", "week",
                         *map(str, corpus_args(corpus_s)[:4])]) == 0
        starts = {line.split(",")[0] for line in
                  (out / "analytics.csv").read_text().splitlines()[1:]}
        assert [s.index for s in walks] == list(range(len(starts)))
