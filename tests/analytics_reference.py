"""Reference analytics: the per-window figures and their ``analytics.csv``
rows as they stood before ``analytics.analytics_rows`` built the rows
itself.

Kept as the oracle of ``test_analytics_property.py``.  Three result
records carry the figures of ``homophily``, ``top_mass`` and
``response_stats``; ``export_rows`` (once ``export.analytics_rows``)
flattens them into rows through ``render``, and ``window_rows`` joins
the two as the command line did.  So the package's rows are compared
against code that kept each figure apart from its rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from leadnet.analytics import FEMALE, GENDER_GROUPS, ROLE_GROUPS, active_user_indices
from leadnet.multiplex import WindowEvents
from leadnet.rank import RankVector


def _tally(codes: np.ndarray, n: int) -> list[int]:
    """How many rows hold each code 0..n-1; -1 (unknown) is not counted."""
    return np.bincount(codes + 1, minlength=n + 1)[1:].tolist()


@dataclass(frozen=True)
class HomophilyEntry:
    """Per-window homophily rates with the denominators behind them.

    p_ww: fraction of women's comments answering a woman, among the
    w_comments women's comments whose recipient gender is known; p_mm
    and m_comments mirror it for men.  prior_w / prior_m: fraction of
    thread authorships by women / men, among the threads_known threads
    with a gender-known author.
    """

    p_ww: float | None
    p_mm: float | None
    prior_w: float | None
    prior_m: float | None
    w_comments: int
    m_comments: int
    threads_known: int


def _rate(num: int, den: int) -> float | None:
    return num / den if den else None


def homophily(events: WindowEvents, gender: np.ndarray) -> HomophilyEntry:
    """Who answers whom, by gender, over the window's comment rows; the
    recipient is the one the collaboration layer reads.  A comment counts
    only when both its commenter's and its recipient's genders are known."""
    by, to = gender[events.commenter], gender[events.recipient]
    # pair code 2 * commenter + recipient, where female is 0 and male 1
    ww, wm, mw, mm = _tally(np.where((by >= 0) & (to >= 0), 2 * by + to, -1), 4)
    by_women, by_men = _tally(gender[events.thread_author], 2)  # threads
    threads_known = by_women + by_men
    return HomophilyEntry(
        p_ww=_rate(ww, ww + wm),
        p_mm=_rate(mm, mw + mm),
        prior_w=_rate(by_women, threads_known),
        prior_m=_rate(by_men, threads_known),
        w_comments=ww + wm,
        m_comments=mw + mm,
        threads_known=threads_known,
    )


@dataclass(frozen=True)
class TopMassEntry:
    """Share of women among the top-k of a rank vector.

    Ranking covers the given active users; ties at the cutoff score break
    by user_id so the set is reproducible.  Unknown-gender users occupy
    rank slots but never count as women, so mass_w at k = n_active is
    the women's share among the active users.
    """

    k: int
    n_active: int
    mass_w: float


def top_mass(rank: RankVector, gender: np.ndarray, active: Iterable[int],
             k: int | None = None) -> TopMassEntry:
    """mass_w = women among the top-k of the ``active`` users / k, over
    ``gender`` codes.  k defaults to the top decile of the active users
    (at least 1) and is clamped to their count."""
    idx = np.unique(np.fromiter(active, dtype=np.int64))
    if not idx.size:
        raise ValueError("no active users to rank")
    wanted = k if k is not None else max(1, idx.size // 10)
    if wanted < 1:
        raise ValueError("k must be >= 1")
    effective = min(wanted, idx.size)
    # users are indexed in user_id order, so ties break by index
    top = idx[np.lexsort((idx, -rank.scores[idx]))[:effective]]
    women_top = int(np.count_nonzero(gender[top] == FEMALE))
    return TopMassEntry(
        k=effective,
        n_active=idx.size,
        mass_w=women_top / effective,
    )


@dataclass(frozen=True)
class ResponseGroupStats:
    """Reply behavior for threads grouped by their author's role/gender.

    mean_latency_s averages (first comment time - published time) over
    the group's threads that have comments; None when none do.
    comment_count totals comments across the group's threads.
    """

    group: str
    mean_latency_s: float | None
    comment_count: int


def response_stats(
    events: WindowEvents, codes: np.ndarray, groups: tuple[str, ...],
) -> list[ResponseGroupStats]:
    """Group the window's threads by their author's code, which indexes
    ``groups`` (``user_codes`` gives the gender and role codes); threads
    whose author's code is -1 (unknown) are left out.  Latencies are
    summed in thread order."""
    group = codes[events.thread_author]
    threads = _tally(group, len(groups))
    comments = _tally(group[events.position], len(groups))
    replied = np.where(np.isnan(events.first_reply_s), -1, group)
    n_replied = _tally(replied, len(groups))
    # a thread without comments adds its NaN to bin 0, which is dropped
    latency = np.bincount(replied + 1, weights=events.first_reply_s,
                          minlength=len(groups) + 1)[1:].tolist()
    return [ResponseGroupStats(group=name, comment_count=comments[g],
                               mean_latency_s=_rate(latency[g], n_replied[g]))
            for g, name in enumerate(groups) if threads[g]]


def render(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_rows(
    window_start: str,
    homophily_entry: HomophilyEntry,
    top_entry: TopMassEntry | None,
    role_stats: Iterable[ResponseGroupStats],
    gender_stats: Iterable[ResponseGroupStats],
) -> list[tuple[str, str, str, str, str]]:
    """Flatten one window's analytics into ``analytics.csv`` rows.  A
    window without active users has no ``top_entry``: its top_mass_w row
    reads k=0 with an empty value and a count of 0."""
    h = homophily_entry
    top = ("k=0", "", "0") if top_entry is None else (
        f"k={top_entry.k}", render(top_entry.mass_w), str(top_entry.n_active))
    rows = [
        (window_start, "homophily_p_ww", "", render(h.p_ww), str(h.w_comments)),
        (window_start, "homophily_p_mm", "", render(h.p_mm), str(h.m_comments)),
        (window_start, "prior_w", "", render(h.prior_w), str(h.threads_known)),
        (window_start, "prior_m", "", render(h.prior_m), str(h.threads_known)),
        (window_start, "top_mass_w", *top),
    ]
    for stats in role_stats:
        rows.append((window_start, "response_latency_mean_s",
                     f"role:{stats.group}", render(stats.mean_latency_s),
                     str(stats.comment_count)))
    for stats in gender_stats:
        rows.append((window_start, "response_latency_mean_s",
                     f"gender:{stats.group}", render(stats.mean_latency_s),
                     str(stats.comment_count)))
    return rows


def window_rows(window_start: str, events: WindowEvents, scores: np.ndarray,
                codes: tuple[np.ndarray, np.ndarray],
                top_k: int | None) -> list[tuple[str, str, str, str, str]]:
    """One window's rows, as the command line joined the figures."""
    gender, role = codes
    active = active_user_indices(events)
    return export_rows(
        window_start, homophily(events, gender),
        top_mass(RankVector(scores=scores), gender, active, top_k)
        if active.size else None,
        response_stats(events, role, ROLE_GROUPS),
        response_stats(events, gender, GENDER_GROUPS))
