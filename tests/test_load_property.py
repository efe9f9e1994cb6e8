"""Corpus assembly that merges each clean ref once, against the merge at
every occurrence that it replaced."""

from datetime import datetime, timedelta, timezone

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from leadnet.ingest import (  # noqa: E402
    CommentRecord,
    Corpus,
    Gender,
    RatingEvent,
    Role,
    ThreadRecord,
    UserRef,
    build_corpus,
)

UTC = timezone.utc
T0 = datetime(2014, 1, 1, tzinfo=UTC)


# ---------------------------------------------------------------------------
# build_corpus against a merge at every occurrence

def occurrence_merge(attrs, ref, diags):
    """The field-wise merge as it ran on every occurrence of every ref."""
    role, gender = attrs.get(ref.user_id, (Role.unknown, Gender.unknown))
    if ref.role is not Role.unknown:
        if role is Role.unknown:
            role = ref.role
        elif role is not ref.role:
            diags.append(f"conflicting role for {ref.user_id}: keeping"
                         f" {role.value}, saw {ref.role.value}")
    if ref.gender is not Gender.unknown:
        if gender is Gender.unknown:
            gender = ref.gender
        elif gender is not ref.gender:
            diags.append(f"conflicting gender for {ref.user_id}: keeping"
                         f" {gender.value}, saw {ref.gender.value}")
    attrs[ref.user_id] = (role, gender)


def reference_build_corpus(threads, ratings):
    """build_corpus with every ref merged at every occurrence and its
    message ids kept in a set."""
    diags, attrs = [], {}
    for thread in threads:
        occurrence_merge(attrs, thread.author, diags)
        for comment in thread.comments:
            occurrence_merge(attrs, comment.author, diags)
    users = {u: UserRef(u, *attrs[u]) for u in attrs}
    for event in ratings:  # a rater who never posts has no known attribute
        users.setdefault(event.rater_id, UserRef(event.rater_id))
    users = tuple(users[u] for u in sorted(users))

    message_ids = set()
    for thread in threads:
        messages = [("thread", thread.thread_id)]
        messages += [("comment", c.comment_id) for c in thread.comments]
        for kind, message_id in messages:
            if message_id in message_ids:
                diags.append(
                    f"duplicate message id {message_id} in thread"
                    f" {thread.thread_id}; {kind} kept, rating targets"
                    " resolve to the first occurrence")
            message_ids.add(message_id)
    fixed_ratings = []
    for event in ratings:
        if event.target_message_id not in message_ids:
            diags.append(f"rating by {event.rater_id} targets unknown"
                         f" message {event.target_message_id}; dropped")
            continue
        fixed_ratings.append(event)
    corpus = Corpus(users=users,
                    user_index={r.user_id: i for i, r in enumerate(users)},
                    threads=tuple(threads),
                    ratings=tuple(fixed_ratings))
    return corpus, diags


# few ids and few values, so refs of one user conflict often; a pool
# may hold equal refs as distinct objects
refs = st.builds(UserRef, st.sampled_from(["u0", "u1", "u2"]),
                 st.sampled_from([Role.unknown, Role.manager, Role.director]),
                 st.sampled_from(list(Gender)))


@st.composite
def conflicting_logs(draw):
    """Threads and ratings whose refs are drawn from one pool by
    position, so one ref object recurs; raters are ids that may or may
    not post.  A comment id may repeat one of another thread, equal the
    first thread's id or be the id of the next thread."""
    pool = draw(st.lists(refs, min_size=1, max_size=6))
    pick = st.sampled_from(range(len(pool))).map(pool.__getitem__)
    threads, message_ids = [], ["ghost"]
    for t in range(draw(st.integers(min_value=1, max_value=6))):
        published = T0 + timedelta(hours=t)
        comments = tuple(
            CommentRecord(
                comment_id=draw(st.sampled_from(
                    [f"t{t}c{k}", "t0c0", "t0", f"t{t + 1}"])),
                text="", created_at=published + timedelta(minutes=k),
                author=draw(pick))
            for k in range(1, draw(st.integers(min_value=0, max_value=5)) + 1))
        threads.append(ThreadRecord(
            thread_id=f"t{t}", title="", description="",
            published_at=published, tags=(), author=draw(pick),
            comments=comments))
        message_ids += [f"t{t}", *(c.comment_id for c in comments)]
    ratings = [
        RatingEvent(draw(st.sampled_from(["u0", "u1", "u2", "u3"])),
                    draw(st.sampled_from(message_ids)),
                    draw(st.sampled_from([-1, 1])))
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    return threads, ratings


@settings(max_examples=300, deadline=None)
@given(conflicting_logs())
def test_build_corpus_matches_merge_at_every_occurrence(log):
    threads, ratings = log
    corpus, diags = build_corpus(threads, ratings)
    expected, expected_diags = reference_build_corpus(threads, ratings)
    assert diags == expected_diags
    assert corpus == expected
    # every thread and every kept rating is the record as given
    assert all(a is b for a, b in zip(corpus.threads, expected.threads))
    assert [a is b for a, b in zip(corpus.ratings, ratings)] \
        == [a is b for a, b in zip(expected.ratings, ratings)]

