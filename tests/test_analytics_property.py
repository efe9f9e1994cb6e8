"""``analytics.analytics_rows`` against the reference analytics, row for
row as text, on random event rows: unknown gender and role codes, threads
without comments (a NaN first-reply latency), tied leadership scores,
empty windows, and ``top_k`` unset, 1 or past the active count."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from analytics_reference import window_rows  # noqa: E402
from leadnet.analytics import ROLE_GROUPS, analytics_rows  # noqa: E402
from leadnet.multiplex import WindowEvents  # noqa: E402

START = "2014-01-06T00:00:00Z"


@st.composite
def windows(draw):
    """(events, leadership scores, (gender, role) codes, top_k) of a
    window over 1 to 8 users."""
    n = draw(st.integers(1, 8))
    user = st.integers(0, n - 1)
    codes = tuple(np.array(draw(st.lists(st.integers(-1, top), min_size=n,
                                         max_size=n)), dtype=np.int64)
                  for top in (1, len(ROLE_GROUPS) - 1))
    threads = draw(st.lists(st.tuples(
        user, st.lists(st.tuples(user, user), max_size=4),
        st.floats(0, 1e6)), max_size=6))
    rows = [(p, commenter, recipient, k)
            for p, (_author, comments, _latency) in enumerate(threads)
            for k, (commenter, recipient) in enumerate(comments, start=1)]
    raters = draw(st.lists(user, max_size=4))

    def column(values, dtype=np.int64):
        return np.array(values, dtype=dtype)

    events = WindowEvents(
        column([author for author, _c, _l in threads]),
        column([latency if comments else math.nan
                for _a, comments, latency in threads], dtype=float),
        *(column([row[i] for row in rows]) for i in range(4)),
        column(raters), column([0] * len(raters)), column([1] * len(raters)))
    # few distinct scores, so most users tie
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0]),
                                 min_size=n, max_size=n)))
    raw[draw(user)] += 1.0
    top_k = draw(st.one_of(st.none(), st.just(1), st.integers(1, n + 3)))
    return events, raw / raw.sum(), codes, top_k


@settings(max_examples=300, deadline=None)
@given(windows())
def test_rows_match_the_reference(window):
    events, scores, codes, top_k = window
    assert analytics_rows(START, events, scores, codes, top_k) == \
        window_rows(START, events, scores, codes, top_k)
