"""Gender and role analytics over windows and rank vectors.

Per-window figures read the window's event rows, the ones its layers
are built from (``multiplex.window_events``), and each user's gender and
role code (``user_codes``).  Unknown gender or role never contributes to
a rate's numerator or denominator; rates whose denominator is empty are
reported as None rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import Corpus, Role
from .multiplex import MultiplexTensor, WindowEvents, union_adjacency
from .rank import RankVector

# A user's gender code indexes GENDER_GROUPS and their role code
# ROLE_GROUPS; -1 is unknown.  Both are sorted, as grouped rows are.
GENDER_GROUPS = ("female", "male")
ROLE_GROUPS = tuple(sorted(role.value for role in Role if role is not Role.unknown))
FEMALE = GENDER_GROUPS.index("female")


def user_codes(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Each user's gender code and role code, in user index order."""
    def codes(names, groups):
        return np.array([groups.index(name) if name in groups else -1
                         for name in names], dtype=np.int64)
    return (codes([u.gender.name for u in corpus.users], GENDER_GROUPS),
            codes([u.role.value for u in corpus.users], ROLE_GROUPS))


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


def active_user_indices(events: WindowEvents) -> np.ndarray:
    """The users of the window, sorted: its thread authors, its
    commenters, and the raters of the ratings attached to it."""
    return np.unique(np.concatenate((events.thread_author, events.commenter,
                                     events.rater)))


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


@dataclass(frozen=True)
class Subgraph:
    """An undirected induced subgraph over corpus user indices; matching
    users stay as nodes even when isolated."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def role_subgraph(
    tensor: MultiplexTensor, corpus: Corpus, roles: Iterable[Role]
) -> tuple[Subgraph, list[str]]:
    """Layer-union graph restricted to users holding one of the roles.
    Returns the subgraph plus warnings (e.g. when nothing matches)."""
    wanted = set(roles)
    nodes = tuple(
        i for i, ref in enumerate(corpus.users) if ref.role in wanted
    )
    warnings: list[str] = []
    if not nodes:
        names = ", ".join(sorted(r.value for r in wanted)) or "(none)"
        warnings.append(f"role filter [{names}] matches no users; empty subgraph")
    member = np.zeros(tensor.n, dtype=bool)
    member[list(nodes)] = True
    lo, hi = union_adjacency(tensor)
    both = member[lo] & member[hi]
    edges = tuple(zip(lo[both].tolist(), hi[both].tolist()))
    return Subgraph(nodes=nodes, edges=edges), warnings
