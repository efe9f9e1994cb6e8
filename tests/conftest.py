"""Shared factories for building small corpora by hand in tests."""

from __future__ import annotations

import csv
import functools
import json
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from leadnet import cli
from leadnet.analytics import analytics_rows, user_codes
from leadnet.ingest import (
    CSV_COLUMNS,
    CommentRecord,
    Corpus,
    Gender,
    RatingEvent,
    Role,
    ThreadRecord,
    UserRef,
    build_corpus,
    format_timestamp,
    parse_ratings,
    parse_thread_log,
    whole_span_slice,
)
from leadnet.multiplex import (
    ORIENT_RECEIVER,
    ORIENT_SENDER,
    Layer,
    MultiplexTensor,
    window_events,
)
from leadnet.synth import (
    POOLS,
    STOP_TOKENS,
    generate,
    write_jsonl,
    write_lexicon_tsv,
    write_stopwords_txt,
)
from leadnet.topics import load_lexicon

T0 = datetime(2014, 1, 6, tzinfo=timezone.utc)

TRAILING_PUNCT = ".,;:!?)('\"`>]}"


@pytest.fixture(scope="session")
def corpus_s(tmp_path_factory):
    """Corpus S: ``synth --n-users 120 --n-threads 500 --seed 42``."""
    out = tmp_path_factory.mktemp("corpus_s")
    assert cli.main(["synth", "--out", str(out), "--n-users", "120",
                     "--n-threads", "500", "--seed", "42"]) == 0
    return out


@pytest.fixture(scope="session")
def synth_lexicon(tmp_path_factory):
    """The lexicon of the generator's vocabulary, as ``synth`` writes its
    lexicon and stopwords files and ``load_lexicon`` reads them back."""
    out = tmp_path_factory.mktemp("synth_lexicon")
    write_lexicon_tsv(out / "lexicon.tsv")
    write_stopwords_txt(out / "stopwords.txt")
    return load_lexicon(out / "lexicon.tsv", out / "stopwords.txt")


@functools.lru_cache(maxsize=4)
def synth_corpus(spec):
    """The corpus of ``spec``'s logs as every command reads them: the
    logs ``generate`` draws, written by ``write_jsonl``, then parsed and
    assembled, which must report no diagnostic.  Cached per spec, which
    is frozen; callers must not change what it returns."""
    threads, ratings = generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        thread_log, rating_log = Path(tmp) / "threads.jsonl", Path(tmp) / "ratings.jsonl"
        write_jsonl(threads, thread_log)
        write_jsonl(ratings, rating_log)
        parsed, diags = parse_thread_log(thread_log)
        events, rating_diags = parse_ratings(rating_log)
    corpus, corpus_diags = build_corpus(parsed, events)
    assert diags + rating_diags + corpus_diags == []
    return corpus


def pool_of_ngram(gram):
    """Which of synth's concept pools an extracted n-gram belongs to;
    None when it mixes pools or holds tokens outside every pool."""
    stops = {token for token, _lang in STOP_TOKENS}
    core = [t for t in gram.split("_") if t not in stops]
    if not core:
        return None
    for pool in POOLS:
        surfaces = {surface for surface, _cid, _lang in pool.concepts}
        if all(t in surfaces for t in core):
            return pool.name
    return None


def make_corpus(thread_specs, rating_specs=(), users=None):
    """Build a corpus plus its whole-span slice from compact specs.

    thread_specs: [(thread_id, author_id, [(commenter_id, text), ...])].
    rating_specs: [(rater_id, message_id, value)].
    Comment k of a thread gets id f"{thread_id}m{k}" and a timestamp k
    minutes after the thread; thread i is published i hours after T0.
    Users not in ``users`` default to consultants of unknown gender.
    """
    users = dict(users or {})

    def ref(uid: str) -> UserRef:
        if uid not in users:
            users[uid] = UserRef(user_id=uid, role=Role.consultant,
                                 gender=Gender.unknown)
        return users[uid]

    threads = []
    for ti, (thread_id, author_id, comments) in enumerate(thread_specs):
        published = T0 + timedelta(hours=ti)
        author = ref(author_id)
        records = tuple(
            CommentRecord(
                comment_id=f"{thread_id}m{k}",
                text=text,
                created_at=published + timedelta(minutes=k),
                author=ref(commenter_id),
            )
            for k, (commenter_id, text) in enumerate(comments, start=1)
        )
        threads.append(ThreadRecord(
            thread_id=thread_id, title="", description="",
            published_at=published, tags=(), author=author,
            comments=records,
        ))
    ratings = tuple(  # ref() makes each rater a user
        RatingEvent(ref(rater_id).user_id, message_id, value)
        for rater_id, message_id, value in rating_specs
    )
    ordered = tuple(sorted(users.values(), key=lambda u: u.user_id))
    corpus = Corpus(
        users=ordered,
        user_index={u.user_id: i for i, u in enumerate(ordered)},
        threads=tuple(threads),
        ratings=ratings,
    )
    return corpus, whole_span_slice(corpus)


def make_layer(edges, orientation):
    """A layer from a {(src, dst): weight} mapping."""
    keys = sorted(edges)
    return Layer(np.array([i for i, _j in keys], dtype=np.int64),
                 np.array([j for _i, j in keys], dtype=np.int64),
                 np.array([edges[key] for key in keys], dtype=float),
                 orientation)


def neighbor_tensor(neighbors):
    """A tensor whose layer union is the given neighbor sets (symmetric
    and loop-free): every pair is an empowerment edge of weight 1 and the
    other two layers are empty."""
    n = len(neighbors)
    edges = {(i, j): 1.0 for i, ns in enumerate(neighbors) for j in ns}
    return MultiplexTensor(
        n=n,
        empowerment=make_layer(edges, ORIENT_RECEIVER),
        collaboration=make_layer({}, ORIENT_RECEIVER),
        credibility=make_layer({}, ORIENT_SENDER),
    )


def union_sets(tensor):
    """The layers' undirected edge support as neighbor sets, read off
    the stored edges."""
    neighbors = [set() for _ in range(tensor.n)]
    for _name, layer in tensor.layers():
        for i, j in layer.edges:
            neighbors[i].add(j)
            neighbors[j].add(i)
    return neighbors


def random_corpus(rng, n_users=8, n_threads=6, max_comments=6,
                  p_mention=0.3):
    """A random corpus with mentions and ratings, plus the raw event
    lists the reference implementations consume."""
    uids = [f"u{i}" for i in range(n_users)]
    thread_specs = []
    rating_specs = []
    message_authors = []  # (message_id, author_id)
    for t in range(n_threads):
        author = uids[rng.randrange(n_users)]
        thread_id = f"t{t}"
        message_authors.append((thread_id, author))
        participants = [author]
        comments = []
        for k in range(1, rng.randrange(max_comments + 1) + 1):
            commenter = uids[rng.randrange(n_users)]
            text = f"msg {t} {k}"
            if rng.random() < p_mention:
                target = participants[rng.randrange(len(participants))]
                text = f"@{target}, {text}"
            if rng.random() < 0.1:
                text = f"@ghost {text}"
            comments.append((commenter, text))
            if commenter not in participants:
                participants.append(commenter)
            message_authors.append((f"{thread_id}m{k}", commenter))
        thread_specs.append((thread_id, author, comments))
    for _ in range(rng.randrange(3 * n_threads + 1)):
        rater = uids[rng.randrange(n_users)]
        message_id, target_author = message_authors[
            rng.randrange(len(message_authors))
        ]
        value = rng.choice([-1, 1])
        rating_specs.append((rater, message_id, value))
    corpus, window_slice = make_corpus(thread_specs, rating_specs)
    thread_events = [
        (author, list(comments)) for _tid, author, comments in thread_specs
    ]
    author_of = dict(message_authors)
    rating_events = [
        (rater, author_of[message_id], value)
        for rater, message_id, value in rating_specs
    ]
    return corpus, window_slice, thread_events, rating_events


def resolve_like_package(text, author, prior):
    """Mention resolution mirroring the collaboration layer: the first
    @token matching a prior participant (after progressively stripping
    trailing punctuation) wins, else the thread author."""
    for token in text.split():
        if not token.startswith("@"):
            continue
        candidate = token[1:]
        while candidate:
            if candidate in prior:
                return candidate
            stripped = candidate.rstrip(TRAILING_PUNCT)
            if stripped == candidate:
                break
            candidate = stripped
    return author


def reference_recipients(thread):
    """Recipient ids from the test-side resolver, one per comment."""
    prior = {thread.author.user_id}
    answered = []
    for comment in thread.comments:
        answered.append(resolve_like_package(comment.text,
                                             thread.author.user_id, prior))
        prior.add(comment.author.user_id)
    return answered


def message_author_map(threads):
    """Map every message id (thread or comment) to its author; on
    duplicate ids the first occurrence wins, matching build_corpus."""
    authors = {}
    for thread in threads:
        authors.setdefault(thread.thread_id, thread.author)
        for comment in thread.comments:
            authors.setdefault(comment.comment_id, comment.author)
    return authors


def reference_ratings(corpus, window):
    """The ratings a window holds, each with the user id of the author it
    credits: those of ``corpus`` whose target is a message of the window,
    in corpus order, a message id held twice resolving to its first copy
    in the window."""
    authors = message_author_map(window.threads)
    return [(e, authors[e.target_message_id].user_id) for e in corpus.ratings
            if e.target_message_id in authors]


def write_threads_csv(threads, path):
    """Write ``threads`` as a flat CSV log in ``CSV_COLUMNS`` order: each
    thread's row with empty comment cells, then one row per comment with
    empty thread cells."""
    def user(ref):
        return [ref.user_id, ref.role.value, ref.gender.value]

    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        for t in threads:
            writer.writerow([t.thread_id, t.title, t.description,
                             format_timestamp(t.published_at), "|".join(t.tags),
                             *user(t.author), "", "", "", "", "", ""])
            for c in t.comments:
                writer.writerow([t.thread_id, "", "", "", "", "", "", "",
                                 c.comment_id, c.text,
                                 format_timestamp(c.created_at), *user(c.author)])


# the canonical JSON Lines form of records, written independently of
# synth as the reference that the parsers must invert


def user_json(ref):
    return {"user_id": ref.user_id, "role": ref.role.value,
            "gender": ref.gender.value}


def thread_json(thread):
    return {
        "thread_id": thread.thread_id,
        "title": thread.title,
        "description": thread.description,
        "published_at": format_timestamp(thread.published_at),
        "tags": list(thread.tags),
        "author": user_json(thread.author),
        "comments": [
            {
                "comment_id": c.comment_id,
                "text": c.text,
                "created_at": format_timestamp(c.created_at),
                "author": user_json(c.author),
            }
            for c in thread.comments
        ],
    }


def rating_json(event):
    return {"rater_id": event.rater_id,
            "target_id": event.target_message_id,
            "value": event.value}


def canonical_jsonl(objects):
    """The text of a log of ``objects``: one sorted-key JSON object a
    line, non-ASCII text as it is."""
    return "".join(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"
                   for obj in objects)


def write_canonical_logs(threads, ratings, directory):
    """``threads.jsonl`` and ``ratings.jsonl`` in ``directory`` holding
    the records in canonical form; returns the two paths."""
    paths = Path(directory) / "threads.jsonl", Path(directory) / "ratings.jsonl"
    for path, objects in zip(paths, (map(thread_json, threads),
                                     map(rating_json, ratings))):
        path.write_text(canonical_jsonl(objects), encoding="utf-8")
    return paths


def window_figures(corpus, window, scores=None, top_k=None):
    """The window's ``analytics.csv`` rows read back as {(metric, group):
    (value, count)}: an empty value cell is None, any other a float, and
    the count an int.  ``scores`` rank the users, all equal by default."""
    scores = np.ones(corpus.n_users) if scores is None else scores
    rows = analytics_rows("", window_events(window, corpus), scores,
                          user_codes(corpus), top_k)
    return {(metric, group): (None if value == "" else float(value),
                              int(count))
            for _start, metric, group, value, count in rows}
