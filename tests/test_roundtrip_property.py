"""Property: a corpus written as JSON Lines re-parses to an equal corpus."""

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from leadnet.ingest import (  # noqa: E402
    CommentRecord,
    Gender,
    RatingEvent,
    Role,
    ThreadRecord,
    UserRef,
    build_corpus,
    parse_ratings,
    parse_thread_log,
    write_ratings_jsonl,
    write_threads_jsonl,
)

UTC = timezone.utc
T0 = datetime(2014, 1, 1, tzinfo=UTC)

texts = st.text(max_size=12)  # Hypothesis leaves out lone surrogates
user_ids = st.sampled_from(["u0", "u1", "u2", "u3", "ü4", 'q"5'])
users = st.builds(UserRef, user_ids, st.sampled_from(list(Role)),
                  st.sampled_from(list(Gender)))
seconds = st.integers(min_value=0, max_value=60 * 86400)


@st.composite
def threads_and_ratings(draw):
    threads = []
    message_ids = []
    for t in range(draw(st.integers(min_value=1, max_value=5))):
        thread_id = f"t{t}"
        published = T0 + timedelta(seconds=draw(seconds))
        raw = [
            (published + timedelta(seconds=draw(seconds)), f"c{t}x{k}",
             draw(texts), draw(users))
            for k in range(draw(st.integers(min_value=0, max_value=4)))
        ]
        raw.sort(key=lambda c: (c[0], c[1]))
        comments = tuple(
            CommentRecord(comment_id=cid, text=text, created_at=at,
                          author=author, order_k=k)
            for k, (at, cid, text, author) in enumerate(raw, start=1)
        )
        threads.append(ThreadRecord(
            thread_id=thread_id, title=draw(texts), description=draw(texts),
            published_at=published, tags=tuple(draw(st.lists(texts, max_size=3))),
            author=draw(users), comments=comments,
        ))
        message_ids += [thread_id, *(c.comment_id for c in comments)]
    # the ratings log names raters by id only; one event per pair
    pairs = draw(st.lists(st.tuples(user_ids, st.sampled_from(message_ids)),
                          unique=True, max_size=8))
    ratings = [RatingEvent(rater, target, draw(st.sampled_from([-1, 1])))
               for rater, target in pairs]
    return threads, ratings


@settings(max_examples=60, deadline=None)
@given(threads_and_ratings())
def test_written_logs_reparse_to_an_equal_corpus(records):
    threads, ratings = records
    corpus, first_diags = build_corpus(threads, ratings)
    with tempfile.TemporaryDirectory() as tmp:
        tpath, rpath = Path(tmp) / "threads.jsonl", Path(tmp) / "ratings.jsonl"
        write_threads_jsonl(corpus.threads, tpath)
        write_ratings_jsonl(corpus.ratings, rpath)
        parsed, diags_t = parse_thread_log(tpath)
        events, diags_r = parse_ratings(rpath)
    rebuilt, diags = build_corpus(parsed, events)
    assert diags_t == diags_r == []
    # the records keep their own attributes, so the merge reports again
    assert diags == first_diags
    assert rebuilt.users == corpus.users
    assert rebuilt.user_index == corpus.user_index
    assert rebuilt.threads == corpus.threads
    assert rebuilt.ratings == corpus.ratings
    for ours, theirs in zip(rebuilt.threads, corpus.threads):
        assert ours.recipients == theirs.recipients
