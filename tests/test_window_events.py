"""The window's event rows feed both the layers and the analytics.

The analytics used to walk each window's thread, comment and rating
objects themselves.  ``ParentWalkers`` keeps those walks as they were,
and every analytics figure read off ``window_events`` rows must equal
theirs field for field, with the same Python types, on random corpora,
on the daily windows of synthetic corpora, and on the hand-built edge
cases of ``data/analytics_edges.jsonl``.  The last tests count the
walks a run makes.
"""

import random
from collections import defaultdict
from dataclasses import astuple, replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import T0, random_corpus, window_ratings
from leadnet import cli, multiplex
from leadnet.analytics import (
    GENDER_GROUPS,
    ROLE_GROUPS,
    active_user_indices,
    homophily,
    response_stats,
    top_mass,
    user_codes,
)
from leadnet.ingest import (
    Gender,
    Role,
    UserRef,
    WindowConfig,
    build_corpus,
    parse_ratings,
    parse_thread_log,
    whole_span_slice,
    window_partition,
)
from leadnet.multiplex import window_events
from leadnet.rank import RankVector
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
    def top_mass(rank, corpus, active, k):
        indices = sorted(active)
        wanted = k if k is not None else max(1, len(indices) // 10)
        effective = min(wanted, len(indices))
        idx = np.asarray(indices)
        top = idx[np.lexsort((idx, -rank.scores[idx]))[:effective]].tolist()
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


def same(got, want):
    """Equal, and of the same Python type field by field."""
    assert got == want
    assert [type(value) for value in got] == [type(value) for value in want]


def check_window(corpus, window, rng):
    events = window_events(window, corpus)
    gender, role = user_codes(corpus)
    same(astuple(homophily(events, gender)), ParentWalkers.homophily(window, corpus))
    for codes, groups, group_by in ((role, ROLE_GROUPS, "author_role"),
                                    (gender, GENDER_GROUPS, "author_gender")):
        got = [astuple(s) for s in response_stats(events, codes, groups)]
        want = ParentWalkers.response_stats(window, corpus, group_by)
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            same(got_row, want_row)
    active = active_user_indices(events)
    assert active.tolist() == sorted(
        ParentWalkers.active_user_indices(window, corpus))
    if not active.size:
        return
    # few distinct scores, so most users tie
    raw = np.array([rng.choice([0.0, 1.0, 1.0, 2.0]) for _ in corpus.users])
    raw[rng.randrange(raw.size)] += 1.0
    rank = RankVector(scores=raw / raw.sum())
    for k in (None, 1, rng.randint(1, active.size + 2)):
        same(astuple(top_mass(rank, gender, active, k)),
             ParentWalkers.top_mass(rank, corpus, active.tolist(), k))


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
