"""Gender and role analytics over windows and rank vectors.

``analytics_rows`` builds each window's ``analytics.csv`` rows from its
event rows (``multiplex.window_events``), the ones its layers are built
from, and each user's gender and role code (``user_codes``).  Unknown
gender or role never enters a rate's numerator or denominator.  A rate
is written as its ``repr``, so it round-trips, and as an empty cell,
not a zero, when its denominator is empty.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .ingest import Corpus, Role
from .multiplex import WindowEvents

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


def _rate(num: int | float, den: int) -> str:
    """num / den as its cell: the float's repr, empty when den is 0."""
    return repr(num / den) if den else ""


def active_user_indices(events: WindowEvents) -> np.ndarray:
    """The users of the window, sorted: its thread authors, its
    commenters, and the raters of the ratings attached to it (those whose
    target message is in the window), whether or not they posted."""
    return np.unique(np.concatenate((events.thread_author, events.commenter,
                                     events.rater)))


def top_mass(scores: np.ndarray, gender: np.ndarray, active: Iterable[int],
             k: int | None = None) -> tuple[str, str, str]:
    """The ``top_mass_w`` row's (group, value, count): ``k=<k>``, the
    share of women among the top k of the ``active`` users by ``scores``,
    and the number of active users.  k defaults to the top decile of the
    active users (at least 1) and is clamped to their count.  Ties at the
    cutoff break by user_id (users are indexed in user_id order), and a
    user of unknown gender takes a slot without counting as a woman.
    Without active users the row reads ``k=0``, an empty value and 0."""
    idx = np.unique(np.fromiter(active, dtype=np.int64))
    if not idx.size:
        return "k=0", "", "0"
    k = min(max(1, idx.size // 10) if k is None else k, idx.size)
    top = idx[np.lexsort((idx, -scores[idx]))[:k]]
    women = int(np.count_nonzero(gender[top] == FEMALE))
    return f"k={k}", _rate(women, k), str(idx.size)


def _latency_rows(events: WindowEvents, codes: np.ndarray,
                  groups: tuple[str, ...], kind: str) -> list[tuple[str, ...]]:
    """The ``response_latency_mean_s`` rows, as ``<kind>:<group>``, of
    the groups whose code (indexing ``groups``) an author of the window's
    threads holds; -1 (unknown) has no row.  The value is the mean over
    the group's threads with comments of the seconds from publication to
    the first comment (clamped on ingest to be no earlier), summed in
    thread order; the count is the comments on the group's threads."""
    group = codes[events.thread_author]
    threads = _tally(group, len(groups))
    comments = _tally(group[events.position], len(groups))
    replied = np.where(np.isnan(events.first_reply_s), -1, group)
    n_replied = _tally(replied, len(groups))
    # a thread without comments adds its NaN to bin 0, which is dropped
    latency = np.bincount(replied + 1, weights=events.first_reply_s,
                          minlength=len(groups) + 1)[1:].tolist()
    return [("response_latency_mean_s", f"{kind}:{name}",
             _rate(latency[g], n_replied[g]), str(comments[g]))
            for g, name in enumerate(groups) if threads[g]]


def analytics_rows(window_start: str, events: WindowEvents,
                   leadership_scores: np.ndarray, codes: tuple[np.ndarray, ...],
                   top_k: int | None) -> list[tuple[str, ...]]:
    """One window's ``analytics.csv`` rows (window_start, metric, group,
    value, count), read off its event rows with the gender and role
    ``codes`` of ``user_codes``.

    ``homophily_p_ww`` is the share of women's comments that answer a
    woman, over the women's comments whose recipient's gender is known;
    ``homophily_p_mm`` mirrors it for men.  A comment answers the user
    the collaboration layer reads: the first @-mention of an earlier
    participant, else the thread author.  Unlike the layers, homophily
    keeps a comment that answers its own author, as a same-gender
    answer.  ``prior_w`` and ``prior_m``
    are the shares of thread authorships by women and men, over the
    threads whose author's gender is known.  Then come the
    ``top_mass_w`` row of the window's active users and the
    ``response_latency_mean_s`` rows by author role, then gender."""
    gender, role = codes
    by, to = gender[events.commenter], gender[events.recipient]
    # pair code 2 * commenter + recipient, where female is 0 and male 1
    ww, wm, mw, mm = _tally(np.where((by >= 0) & (to >= 0), 2 * by + to, -1), 4)
    by_women, by_men = _tally(gender[events.thread_author], 2)  # threads
    known = by_women + by_men
    rows = [
        ("homophily_p_ww", "", _rate(ww, ww + wm), str(ww + wm)),
        ("homophily_p_mm", "", _rate(mm, mw + mm), str(mw + mm)),
        ("prior_w", "", _rate(by_women, known), str(known)),
        ("prior_m", "", _rate(by_men, known), str(known)),
        ("top_mass_w", *top_mass(leadership_scores, gender,
                                 active_user_indices(events), top_k)),
        *_latency_rows(events, role, ROLE_GROUPS, "role"),
        *_latency_rows(events, gender, GENDER_GROUPS, "gender"),
    ]
    return [(window_start, *row) for row in rows]
