"""Gender and role analytics over windows and rank vectors.

Unknown gender or role never contributes to a rate's numerator or
denominator; rates whose denominator is empty are reported as None
rather than raising.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from .ingest import Corpus, Gender, Role, WindowSlice
from .multiplex import MultiplexTensor, union_adjacency
from .rank import RankVector


@dataclass(frozen=True)
class HomophilyEntry:
    """Per-window homophily rates with the counts behind them.

    p_ww: fraction of women's comments answering a woman, among women's
    comments whose recipient gender is known; p_mm mirrors it for men.
    prior_w / prior_m: fraction of thread authorships by women / men,
    among threads with a gender-known author.
    """

    window: int
    p_ww: float | None
    p_mm: float | None
    prior_w: float | None
    prior_m: float | None
    ww_comments: int
    w_comments: int
    mm_comments: int
    m_comments: int
    threads_w: int
    threads_m: int
    threads_known: int


def _rate(num: int, den: int) -> float | None:
    return num / den if den else None


def homophily(slice: WindowSlice) -> HomophilyEntry:
    """Who answers whom, by gender; recipients are the threads'
    ``recipients``, the record the collaboration layer reads too."""
    ww = w_all = mm = m_all = 0
    threads_w = threads_m = 0
    for thread in slice.threads:
        if thread.author.gender is Gender.female:
            threads_w += 1
        elif thread.author.gender is Gender.male:
            threads_m += 1
        for comment, recipient in zip(thread.comments, thread.recipients):
            author_gender = comment.author.gender
            if author_gender is Gender.unknown \
                    or recipient.gender is Gender.unknown:
                continue
            if author_gender is Gender.female:
                w_all += 1
                if recipient.gender is Gender.female:
                    ww += 1
            else:
                m_all += 1
                if recipient.gender is Gender.male:
                    mm += 1
    threads_known = threads_w + threads_m
    return HomophilyEntry(
        window=slice.index,
        p_ww=_rate(ww, w_all),
        p_mm=_rate(mm, m_all),
        prior_w=_rate(threads_w, threads_known),
        prior_m=_rate(threads_m, threads_known),
        ww_comments=ww,
        w_comments=w_all,
        mm_comments=mm,
        m_comments=m_all,
        threads_w=threads_w,
        threads_m=threads_m,
        threads_known=threads_known,
    )


@dataclass(frozen=True)
class TopMassEntry:
    """Share of women among the top-k of a rank vector.

    Ranking covers the given active users; ties at the cutoff score break
    by user_id so the set is reproducible.  Unknown-gender users occupy
    rank slots but never count as women, keeping mass_w at k = n_active
    exactly equal to prior_w.
    """

    label: str
    k: int
    n_active: int
    mass_w: float
    prior_w: float
    clamped: bool


def active_user_indices(slice: WindowSlice, corpus: Corpus) -> set[int]:
    """Users appearing in the window as thread author, commenter or rater."""
    active: set[int] = set()
    for thread in slice.threads:
        active.add(corpus.user_index[thread.author.user_id])
        for comment in thread.comments:
            active.add(corpus.user_index[comment.author.user_id])
    for event in slice.ratings:
        active.add(corpus.user_index[event.rater.user_id])
    return active


def top_mass(
    rank: RankVector,
    corpus: Corpus,
    active: Iterable[int] | None = None,
    k: int | None = None,
) -> TopMassEntry:
    """mass_w = women among the top-k / k.  k defaults to the top decile
    of the active users (at least 1) and is clamped to their count."""
    indices = sorted(active) if active is not None else list(range(corpus.n_users))
    if not indices:
        raise ValueError("no active users to rank")
    wanted = k if k is not None else max(1, len(indices) // 10)
    if wanted < 1:
        raise ValueError("k must be >= 1")
    clamped = wanted > len(indices)
    effective = min(wanted, len(indices))
    # users are indexed in user_id order, so ties break by index
    idx = np.asarray(indices)
    top = idx[np.lexsort((idx, -rank.scores[idx]))[:effective]].tolist()
    women_top = sum(1 for i in top if corpus.users[i].gender is Gender.female)
    women_active = sum(
        1 for i in indices if corpus.users[i].gender is Gender.female
    )
    return TopMassEntry(
        label=rank.label,
        k=effective,
        n_active=len(indices),
        mass_w=women_top / effective,
        prior_w=women_active / len(indices),
        clamped=clamped,
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
    thread_count: int


def response_stats(
    slice: WindowSlice, group_by: str = "author_role"
) -> list[ResponseGroupStats]:
    """Group threads by author role or author gender; threads with an
    unknown group value are left out."""
    if group_by not in ("author_role", "author_gender"):
        raise ValueError(f"unknown grouping {group_by!r}")
    latencies: dict[str, list[float]] = defaultdict(list)
    comments: dict[str, int] = defaultdict(int)
    threads: dict[str, int] = defaultdict(int)
    for thread in slice.threads:
        if group_by == "author_role":
            if thread.author.role is Role.unknown:
                continue
            group = thread.author.role.value
        else:
            if thread.author.gender is Gender.unknown:
                continue
            group = thread.author.gender.name
        threads[group] += 1
        comments[group] += len(thread.comments)
        if thread.comments:
            first = thread.comments[0].created_at
            latencies[group].append((first - thread.published_at).total_seconds())
    return [
        ResponseGroupStats(
            group=group,
            mean_latency_s=(
                sum(latencies[group]) / len(latencies[group])
                if latencies[group] else None
            ),
            comment_count=comments[group],
            thread_count=threads[group],
        )
        for group in sorted(threads)
    ]


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
    keep = set(nodes)
    upper = sparse.triu(union_adjacency(tensor), k=1).tocoo()
    edges = sorted((i, j) for i, j in zip(upper.row.tolist(),
                                          upper.col.tolist())
                   if i in keep and j in keep)
    return Subgraph(nodes=nodes, edges=tuple(edges)), warnings
