"""Parsing, corpus assembly and window tiling."""

import csv
import dataclasses
import io
import json
import pickle
import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import (
    make_corpus,
    message_author_map,
    random_corpus,
    resolve_like_package,
)
from leadnet import cli
from leadnet.analytics import homophily, user_codes
from leadnet.ingest import (
    CSV_COLUMNS,
    CommentRecord,
    CorpusError,
    CorruptInputError,
    Gender,
    RatingEvent,
    Role,
    ThreadRecord,
    UserRef,
    WindowConfig,
    WindowSlice,
    _grid_start,
    _next_month,
    build_corpus,
    format_timestamp,
    parse_ratings,
    parse_thread_log,
    parse_timestamp,
    whole_span_slice,
    window_partition,
    write_ratings_jsonl,
    write_threads_jsonl,
)
from leadnet.multiplex import window_events
from leadnet.synth import SyntheticSpec, generate

UTC = timezone.utc


def jsonl(*objs):
    return io.StringIO("\n".join(json.dumps(o) for o in objs) + "\n")


def thread_obj(thread_id="t1", author="a", published="2014-01-06T09:00:00Z",
               comments=(), **extra):
    obj = {
        "thread_id": thread_id,
        "title": "title",
        "description": "desc",
        "published_at": published,
        "tags": ["x"],
        "author": {"user_id": author, "role": "manager", "gender": 1},
    }
    obj["comments"] = [
        {
            "comment_id": cid,
            "text": "hello",
            "created_at": created,
            "author": {"user_id": uid},
        }
        for cid, uid, created in comments
    ]
    obj.update(extra)
    return obj


class TestTimestamps:
    def test_utc_suffix(self):
        dt = parse_timestamp("2014-01-06T09:30:00Z")
        assert dt == datetime(2014, 1, 6, 9, 30, tzinfo=UTC)

    def test_offset_converted_to_utc(self):
        dt = parse_timestamp("2014-01-06T10:30:00+01:00")
        assert dt == datetime(2014, 1, 6, 9, 30, tzinfo=UTC)

    def test_microseconds_truncated(self):
        dt = parse_timestamp("2014-01-06T09:30:00.750000Z")
        assert dt == datetime(2014, 1, 6, 9, 30, tzinfo=UTC)

    def test_round_trip(self):
        text = "2014-02-28T23:59:59Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("last tuesday")


class TestOutOfRangeTimestamps:
    """A time that leaves datetime's range once converted to UTC is an
    invalid field, reported like any other."""

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00",
                                      "9999-12-31T23:00:00-05:00"])
    def test_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="out of range in UTC"):
            parse_timestamp(text)

    def test_jsonl_published_at_and_created_at(self):
        early = "0001-01-01T00:00:00+01:00"
        threads, diags = parse_thread_log(jsonl(
            {**thread_obj(comments=[("c1", "b", "2014-01-06T10:00:00Z")]),
             "comments": [{"comment_id": "c1", "created_at": early,
                           "author": {"user_id": "b"}}]},
            thread_obj(thread_id="t2", published=early),
            thread_obj(thread_id="t3"),
        ))
        assert diags == ["invalid created_at at line 1 (comment c1); comment skipped",
                         "invalid published_at at line 2"]
        assert [(t.thread_id, len(t.comments)) for t in threads] == [("t1", 0), ("t3", 0)]

    def test_csv_published_at_and_created_at(self):
        early = "0001-01-01T00:00:00+01:00"
        threads, diags = parse_thread_log(io.StringIO(
            ",".join(CSV_COLUMNS) + "\n"
            "t1,title,desc,2014-01-06T09:00:00Z,x,a,,,,,,,,\n"
            f"t1,,,,,,,,c1,hi,{early},b,,\n"
            f"t2,title,desc,{early},x,a,,,,,,,,\n"
            "t3,title,desc,2014-01-06T09:00:00Z,x,a,,,,,,,,\n"
        ), format="csv")
        assert diags == ["invalid created_at at line 3 (comment c1)",
                         "invalid published_at at line 4"]
        assert [(t.thread_id, len(t.comments)) for t in threads] == [("t1", 0), ("t3", 0)]


class TestThreadParsing:
    def test_basic_thread(self):
        threads, diags = parse_thread_log(jsonl(thread_obj(
            comments=[("c1", "b", "2014-01-06T10:00:00Z")],
        )))
        assert diags == []
        (thread,) = threads
        assert thread.thread_id == "t1"
        assert thread.author.role is Role.manager
        assert thread.author.gender is Gender.female
        assert thread.comments[0].order_k == 1
        assert thread.comments[0].author.user_id == "b"
        assert thread.comments[0].author.gender is Gender.unknown

    def test_comments_ordered_by_time_then_id(self):
        threads, _diags = parse_thread_log(jsonl(thread_obj(comments=[
            ("c9", "b", "2014-01-06T12:00:00Z"),
            ("c2", "c", "2014-01-06T10:00:00Z"),
            ("c1", "d", "2014-01-06T12:00:00Z"),
        ])))
        ordered = [(c.comment_id, c.order_k) for c in threads[0].comments]
        assert ordered == [("c2", 1), ("c1", 2), ("c9", 3)]

    def test_predating_comment_clamped(self):
        threads, diags = parse_thread_log(jsonl(thread_obj(comments=[
            ("c1", "b", "2014-01-05T10:00:00Z"),
        ])))
        comment = threads[0].comments[0]
        assert comment.created_at == threads[0].published_at
        assert any("predates" in d for d in diags)

    def test_duplicate_comment_id_skipped(self):
        threads, diags = parse_thread_log(jsonl(thread_obj(comments=[
            ("c1", "b", "2014-01-06T10:00:00Z"),
            ("c1", "c", "2014-01-06T11:00:00Z"),
        ])))
        assert [c.author.user_id for c in threads[0].comments] == ["b"]
        assert any("duplicate comment_id" in d for d in diags)

    def test_broken_comment_drops_comment_not_thread(self):
        threads, diags = parse_thread_log(jsonl(thread_obj(comments=[
            ("c1", "b", "not a time"),
            ("c2", "c", "2014-01-06T10:00:00Z"),
        ])))
        assert [c.comment_id for c in threads[0].comments] == ["c2"]
        assert any("invalid created_at" in d for d in diags)

    @pytest.mark.parametrize("comment_id", [5, True, 1.5, ["c2"], {"id": "c2"}])
    def test_non_string_comment_id_skips_the_comment(self, comment_id, tmp_path):
        obj = thread_obj(comments=[("c1", "b", "2014-01-06T10:00:00Z"),
                                   ("c2", "c", "2014-01-06T10:00:00Z")])
        obj["comments"][1]["comment_id"] = comment_id
        threads, diags = parse_thread_log(jsonl(obj))
        assert [c.comment_id for c in threads[0].comments] == ["c1"]
        assert diags == ["missing comment_id at line 1 (comment 1); comment skipped"]
        log = tmp_path / "threads.jsonl"
        log.write_text(jsonl(obj).getvalue())
        out = tmp_path / "out"
        assert cli.main(["ingest", "--input", str(log), "--out", str(out)]) == 0
        assert (out / "diagnostics.txt").read_text() == diags[0] + "\n"

    def test_missing_thread_id_is_malformed(self):
        obj = thread_obj()
        del obj["thread_id"]
        threads, diags = parse_thread_log(jsonl(obj, thread_obj(thread_id="t2"),
                                                thread_obj(thread_id="t3")))
        assert [t.thread_id for t in threads] == ["t2", "t3"]
        assert any("missing thread_id" in d for d in diags)

    def test_mostly_malformed_raises(self):
        source = io.StringIO('{"broken":\n{"broken":\n' +
                             json.dumps(thread_obj()) + "\n")
        with pytest.raises(CorruptInputError):
            parse_thread_log(source)

    def test_duplicate_thread_id_skipped(self):
        threads, diags = parse_thread_log(jsonl(
            thread_obj(), thread_obj(), thread_obj(thread_id="t2"),
            thread_obj(thread_id="t3"),
        ))
        assert [t.thread_id for t in threads] == ["t1", "t2", "t3"]
        assert any("duplicate thread_id" in d for d in diags)


@pytest.mark.parametrize("parse, record", [
    (parse_thread_log, lambda i: thread_obj(thread_id=f"t{i}")),
    (parse_ratings, lambda i: {"rater_id": "a", "target_id": f"m{i}", "value": 1}),
])
def test_json_lines_reader_diagnostics(parse, record):
    # blank, broken, two non-objects, nesting past the recursion limit,
    # and an integer past the 4,300 digits json.loads reads
    lines = ["", "{broken", "[1]", "null", "[" * 100_000 + "]" * 100_000,
             '{"value": ' + "9" * 5000 + "}"]
    text = "\n".join(json.dumps(record(i)) for i in range(5)) + "\n"
    _records, diags = parse(io.StringIO("\n".join(lines) + "\n" + text))
    assert diags == ["invalid JSON at line 2", "record is not an object at line 3",
                     "record is not an object at line 4", "invalid JSON at line 5",
                     "invalid JSON at line 6"]


class TestByteOrderMark:
    """A path that starts with a UTF-8 byte-order mark reads as without it."""

    def write(self, tmp_path, text):
        path = tmp_path / "log"
        path.write_bytes("\ufeff".encode() + text.encode())
        return path

    def test_jsonl_thread_log(self, tmp_path):
        text = jsonl(thread_obj(), thread_obj(thread_id="t2")).getvalue()
        got = parse_thread_log(self.write(tmp_path, text))
        assert got == parse_thread_log(io.StringIO(text))
        assert ([t.thread_id for t in got[0]], got[1]) == (["t1", "t2"], [])

    def test_ratings_log(self, tmp_path):
        events, diags = parse_ratings(self.write(tmp_path, jsonl(
            {"rater_id": "a", "target_id": "t1", "value": 1},
            {"rater_id": "b", "target_id": "t2", "value": -1}).getvalue()))
        assert ([e.rater_id for e in events], diags) == (["a", "b"], [])

    def test_csv_header(self, tmp_path):
        threads, diags = parse_thread_log(self.write(tmp_path, ",".join(
            CSV_COLUMNS) + "\nt1,title,desc,2014-01-06T09:00:00Z,x,a,,,,,,,,\n"),
            format="csv")
        assert ([t.thread_id for t in threads], diags) == (["t1"], [])

    def test_undecodable_line_keeps_its_number(self, tmp_path):
        path = self.write(tmp_path, jsonl(thread_obj()).getvalue())
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(CorruptInputError, match="not valid UTF-8 at line 2"):
            parse_thread_log(path)


class TestCsvImport:
    def test_csv_matches_jsonl(self):
        csv_text = io.StringIO(
            "thread_id,title,description,published_at,tags,author_id,"
            "author_role,author_gender,comment_id,comment_text,"
            "comment_created_at,comment_author_id,comment_author_role,"
            "comment_author_gender\n"
            "t1,title,desc,2014-01-06T09:00:00Z,x|y,a,manager,1,,,,,,\n"
            "t1,,,,,,,,c1,hello,2014-01-06T10:00:00Z,b,consultant,0\n"
        )
        threads, diags = parse_thread_log(csv_text, format="csv")
        assert diags == []
        (thread,) = threads
        assert thread.tags == ("x", "y")
        assert thread.author.gender is Gender.female
        assert thread.comments[0].author.role is Role.consultant
        assert thread.comments[0].author.gender is Gender.male

    def test_comment_before_thread_is_malformed(self):
        csv_text = io.StringIO(
            "thread_id,title,description,published_at,tags,author_id,"
            "author_role,author_gender,comment_id,comment_text,"
            "comment_created_at,comment_author_id,comment_author_role,"
            "comment_author_gender\n"
            "tX,,,,,,,,c1,hello,2014-01-06T10:00:00Z,b,,\n"
            "t1,title,desc,2014-01-06T09:00:00Z,,a,,,,,,,,\n"
            "t2,title,desc,2014-01-06T09:30:00Z,,a,,,,,,,,\n"
        )
        threads, diags = parse_thread_log(csv_text, format="csv")
        assert [t.thread_id for t in threads] == ["t1", "t2"]
        assert any("comment for unknown thread tX" in d for d in diags)


class TestCsvLineEnds:
    """Line ends inside quoted CSV cells are kept as written, whether the
    log is read from a path or from a stream."""

    def test_path_parses_like_a_stream(self, tmp_path):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(["t1", "one\rline", "a\nb", "2014-01-06T09:00:00Z",
                         "", "a", "", "", "", "", "", "", "", ""])
        writer.writerow(["t1", "", "", "", "", "", "", "", "c1", "one\r\ntwo",
                         "2014-01-06T10:00:00Z", "b", "", ""])
        text = out.getvalue()
        path = tmp_path / "threads.csv"
        path.write_bytes(text.encode("utf-8"))
        from_path = parse_thread_log(path, format="csv")
        assert from_path == parse_thread_log(io.StringIO(text, newline=""),
                                             format="csv")
        (thread,), diags = from_path
        assert diags == []
        assert (thread.title, thread.description) == ("one\rline", "a\nb")
        assert thread.comments[0].text == "one\r\ntwo"


class TestRatings:
    def test_values_and_zero_skip(self):
        events, diags = parse_ratings(jsonl(
            {"rater_id": "a", "target_id": "m1", "value": 1},
            {"rater_id": "a", "target_id": "m2", "value": 0},
            {"rater_id": "b", "target_id": "m1", "value": -1},
        ))
        assert events == [RatingEvent("a", "m1", 1), RatingEvent("b", "m1", -1)]
        assert any("no opinion" in d for d in diags)

    def test_duplicate_pair_keeps_last(self):
        events, _diags = parse_ratings(jsonl(
            {"rater_id": "a", "target_id": "m1", "value": 1},
            {"rater_id": "a", "target_id": "m1", "value": -1},
        ))
        assert events == [RatingEvent("a", "m1", -1)]

    def test_bad_value_is_malformed(self):
        events, diags = parse_ratings(jsonl(
            {"rater_id": "a", "target_id": "m1", "value": 5},
            {"rater_id": "a", "target_id": "m2", "value": True},
            {"rater_id": "a", "target_id": "m3", "value": 1},
            {"rater_id": "b", "target_id": "m3", "value": 1},
            {"rater_id": "c", "target_id": "m3", "value": 1},
        ))
        assert len(events) == 3
        assert sum("invalid rating value" in d for d in diags) == 2

    def test_mostly_malformed_raises(self):
        with pytest.raises(CorruptInputError):
            parse_ratings(io.StringIO('{"nope": 1}\n{"nope": 2}\n' +
                                      json.dumps({"rater_id": "a",
                                                  "target_id": "m",
                                                  "value": 1}) + "\n"))


class TestBuildCorpus:
    def parse(self, *objs, ratings=()):
        threads, _ = parse_thread_log(jsonl(*objs))
        return build_corpus(threads, ratings)

    def test_first_known_attribute_wins_fieldwise(self):
        threads, _ = parse_thread_log(jsonl(
            thread_obj(comments=[("c1", "b", "2014-01-06T10:00:00Z")]),
            {
                "thread_id": "t2",
                "published_at": "2014-01-07T09:00:00Z",
                "author": {"user_id": "b", "role": "director", "gender": 0},
            },
            {
                "thread_id": "t3",
                "published_at": "2014-01-08T09:00:00Z",
                "author": {"user_id": "b", "role": "partner"},
            },
        ))
        corpus, diags = build_corpus(threads)
        b = corpus.users[corpus.user_index["b"]]
        assert (b.role, b.gender) == (Role.director, Gender.male)
        assert any("conflicting role for b" in d for d in diags)

    def test_users_sorted_and_indexed(self):
        corpus, _ = self.parse(
            thread_obj(author="zed"),
            thread_obj(thread_id="t2", author="ann"),
        )
        ids = [u.user_id for u in corpus.users]
        assert ids == sorted(ids)
        assert all(corpus.users[i].user_id == uid
                   for uid, i in corpus.user_index.items())

    def test_unknown_rating_target_dropped(self):
        events = [
            parse_ratings(jsonl({"rater_id": "a", "target_id": "ghost",
                                 "value": 1}))[0][0],
        ]
        corpus, diags = self.parse(thread_obj(), ratings=events)
        assert corpus.ratings == ()
        assert any("unknown message" in d for d in diags)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_corpus([])

    def test_rating_user_attributes_resolve(self):
        threads, _ = parse_thread_log(jsonl(
            thread_obj(comments=[("c1", "b", "2014-01-06T10:00:00Z")]),
        ))
        events, _ = parse_ratings(jsonl(
            {"rater_id": "b", "target_id": "t1", "value": 1},
        ))
        corpus, _ = build_corpus(threads, events)
        # the rater is the commenter as a user, and the event is kept as parsed
        assert corpus.users[corpus.user_index["b"]] == threads[0].comments[0].author
        assert corpus.ratings[0] is events[0]


class TestMessageAuthors:
    def test_threads_and_comments_covered(self):
        threads, _ = parse_thread_log(jsonl(thread_obj(
            comments=[("c1", "b", "2014-01-06T10:00:00Z")],
        )))
        authors = message_author_map(threads)
        assert authors["t1"].user_id == "a"
        assert authors["c1"].user_id == "b"


def spread_corpus(days):
    objs = [
        thread_obj(thread_id=f"t{i}", author="a",
                   published=format_timestamp(
                       datetime(2014, 1, 6, 12, tzinfo=UTC)
                       + timedelta(days=day)))
        for i, day in enumerate(days)
    ]
    threads, _ = parse_thread_log(jsonl(*objs))
    corpus, _ = build_corpus(threads)
    return corpus


class TestWindows:
    def test_week_grid_anchored_monday(self):
        corpus = spread_corpus([2, 9])  # Wed Jan 8 and Wed Jan 15
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        assert [s.start.isoformat() for s in slices] == [
            "2014-01-06T00:00:00+00:00", "2014-01-13T00:00:00+00:00",
        ]
        assert [len(s.threads) for s in slices] == [1, 1]

    def test_empty_middle_window_kept(self):
        corpus = spread_corpus([0, 15])
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        assert [len(s.threads) for s in slices] == [1, 0, 1]
        assert [s.index for s in slices] == [0, 1, 2]

    def test_month_windows_calendar_aligned(self):
        corpus = spread_corpus([0, 40])
        slices = window_partition(corpus, WindowConfig.from_string("month"))
        assert [s.start.isoformat()[:10] for s in slices] == [
            "2014-01-01", "2014-02-01",
        ]

    def test_days_grid_starts_on_the_first_day(self):
        corpus = spread_corpus([0, 3])
        slices = window_partition(corpus, WindowConfig.from_string("days:2"))
        assert [s.start.isoformat()[:10] for s in slices] == [
            "2014-01-06", "2014-01-08",
        ]
        assert [len(s.threads) for s in slices] == [1, 1]

    def test_ratings_follow_their_target_window(self):
        objs = [
            thread_obj(thread_id="t0", published="2014-01-06T09:00:00Z"),
            thread_obj(thread_id="t1", published="2014-01-14T09:00:00Z"),
        ]
        threads, _ = parse_thread_log(jsonl(*objs))
        events, _ = parse_ratings(jsonl(
            {"rater_id": "b", "target_id": "t1", "value": 1},
        ))
        corpus, _ = build_corpus(threads, events)
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        assert [len(corpus.ratings_of(message_ids(s))) for s in slices] == [0, 1]

    def test_whole_span_covers_everything(self):
        corpus = spread_corpus([0, 30])
        window_slice = whole_span_slice(corpus)
        assert len(window_slice.threads) == 2
        assert window_slice.start <= corpus.threads[0].published_at
        assert window_slice.end > corpus.threads[-1].published_at


def message_ids(window):
    return {m for t in window.threads
            for m in (t.thread_id, *(c.comment_id for c in t.comments))}


def brute_force_partition(corpus, cfg):
    """The nested scans window_partition used to run: every window for
    each thread, and every rating for each window.  Returns (slice,
    ratings) pairs."""
    times = [t.published_at for t in corpus.threads]
    first, last = min(times), max(times)
    bounds = []
    start = _grid_start(first, cfg)
    while start <= last:
        end = _next_month(start) if cfg.length == "month" else (
            start + timedelta(days=7 if cfg.length == "week" else cfg.days)
        )
        bounds.append((start, end))
        start = end
    by_window = [[] for _ in bounds]
    for thread in corpus.threads:
        for idx, (lo, hi) in enumerate(bounds):
            if lo <= thread.published_at < hi:
                by_window[idx].append(thread)
                break
    slices = []
    for idx, (lo, hi) in enumerate(bounds):
        window = WindowSlice(index=idx, start=lo, end=hi,
                             threads=tuple(by_window[idx]))
        held = message_ids(window)
        slices.append((window, [r for r in corpus.ratings
                                if r.target_message_id in held]))
    return slices


def assert_partition_matches_brute_force(corpus, cfg):
    """The package's windows, and the ratings ``Corpus.ratings_of`` gives
    each of them, against the nested scans."""
    got = [(s, corpus.ratings_of(message_ids(s)))
           for s in window_partition(corpus, cfg)]
    assert got == brute_force_partition(corpus, cfg)


def boundary_corpus():
    """Threads out of time order, one exactly on a week, day and month
    boundary, an empty week, and rated duplicate message ids: c2 twice in
    one window, c1 in three threads that span two or three windows."""
    def thread(thread_id, published, comment_ids):
        created = format_timestamp(parse_timestamp(published)
                                   + timedelta(hours=1))
        return thread_obj(thread_id=thread_id, published=published,
                          comments=[(cid, "b", created)
                                    for cid in comment_ids])

    objs = [
        thread("t3", "2014-02-01T00:00:00Z", ["c5", "c1"]),
        thread("t0", "2014-01-08T09:00:00Z", ["c1", "c2"]),
        thread("t4", "2014-01-06T11:00:00Z", ["c2"]),
        thread("t1", "2014-01-13T00:00:00Z", ["c3"]),
        thread("t2", "2014-01-29T10:00:00Z", ["c1", "c4"]),
    ]
    threads, _ = parse_thread_log(jsonl(*objs))
    events, _ = parse_ratings(jsonl(*(
        {"rater_id": rater, "target_id": target, "value": 1}
        for rater, target in [("d", "c1"), ("e", "t1"), ("d", "c2"),
                              ("e", "c5"), ("f", "c1"), ("d", "c4")]
    )))
    corpus, diags = build_corpus(threads, events)
    assert sum("duplicate message id" in line for line in diags) == 3
    return corpus


class TestWindowPartitionAgainstBruteForce:
    CONFIGS = [
        WindowConfig.from_string("week"),
        WindowConfig.from_string("month"),
        WindowConfig.from_string("days:1"),
        WindowConfig.from_string("days:3"),
        WindowConfig.from_string("days:7"),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_boundary_corpus(self, cfg):
        assert_partition_matches_brute_force(boundary_corpus(), cfg)

    def test_boundary_corpus_week_layout(self):
        corpus = boundary_corpus()
        slices = window_partition(corpus, WindowConfig.from_string("week"))
        assert [[t.thread_id for t in s.threads] for s in slices] == [
            ["t0", "t4"], ["t1"], [], ["t3", "t2"],
        ]
        targets = [[r.target_message_id
                    for r in corpus.ratings_of(message_ids(s))] for s in slices]
        assert targets == [["c1", "c2", "c1"], ["t1"], [],
                           ["c1", "c5", "c1", "c4"]]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_synthetic_corpora(self, cfg, seed):
        corpus = generate(SyntheticSpec(n_users=12, n_threads=40,
                                        span_days=30, seed=seed))
        assert_partition_matches_brute_force(corpus, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_window_events_hold_each_windows_ratings(self, cfg):
        corpus = boundary_corpus()
        for window, ratings in brute_force_partition(corpus, cfg):
            assert window_events(window, corpus).rater.tolist() == \
                [corpus.user_index[r.rater_id] for r in ratings]


class TestRoundTrip:
    def test_synthetic_corpus_survives_serialization(self, tmp_path):
        corpus = generate(SyntheticSpec(n_users=12, n_threads=25, seed=5))
        tpath = tmp_path / "threads.jsonl"
        rpath = tmp_path / "ratings.jsonl"
        write_threads_jsonl(corpus.threads, tpath)
        write_ratings_jsonl(corpus.ratings, rpath)
        threads, diags_t = parse_thread_log(tpath)
        events, diags_r = parse_ratings(rpath)
        assert diags_t == [] and diags_r == []
        rebuilt, diags = build_corpus(threads, events)
        assert diags == []
        assert rebuilt.threads == corpus.threads
        assert len(rebuilt.ratings) == len(corpus.ratings)
        assert set(rebuilt.ratings) == set(corpus.ratings)


def old_parse_timestamp(text):
    """parse_timestamp before its UTC fast path, as the reference."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    return dt.astimezone(UTC).replace(microsecond=0)


class TestTimestampFastPath:
    @pytest.mark.parametrize("text", [
        "2014-01-06T09:30:00Z", "2014-01-06T09:30:00z",
        "2014-01-06T09:30:00+00:00", "2014-01-06T09:30:00-00:00",
        "2014-01-06T10:30:00+01:00", "2014-01-06T03:00:00-06:30",
        "2014-01-06T23:59:59+05:45", "2014-01-06T09:30:00.999999Z",
        "2014-01-06T09:30:00.5+00:00", "2014-01-06T09:30:00.000001-02:00",
        "2014-01-06T09:30:00", "2014-01-06T09:30:00.25", "2014-01-06",
        "  2014-01-06T09:30:00Z  ",
    ])
    def test_matches_old_formula(self, text):
        new, old = parse_timestamp(text), old_parse_timestamp(text)
        assert new == old
        assert new.tzinfo is old.tzinfo is UTC
        assert new.microsecond == 0


def shared_refs_log():
    """Three threads where users recur as authors and commenters, with
    raw role values spelled in more than one way: a is a female manager,
    b a male consultant whom t3 names without a role or gender, and c a
    partner of unknown gender."""
    def thread(thread_id, published, author, *comments):
        return {"thread_id": thread_id, "published_at": published,
                "author": author,
                "comments": [{"comment_id": cid, "created_at": at,
                              "author": who} for cid, at, who in comments]}

    a = {"user_id": "a", "role": "manager", "gender": 1}
    b = {"user_id": "b", "role": "consultant", "gender": 0}
    return jsonl(
        thread("t1", "2014-01-06T09:00:00Z", a,
               ("c1", "2014-01-06T10:00:00Z", b),
               ("c2", "2014-01-06T11:00:00Z", dict(a, role="Manager"))),
        thread("t2", "2014-01-06T12:00:00Z", dict(b, role="consultant "),
               ("c3", "2014-01-06T13:00:00Z", dict(a, role="MANAGER"))),
        thread("t3", "2014-01-07T09:00:00Z", dict(a, role=" manager"),
               ("c4", "2014-01-07T10:00:00Z",
                {"user_id": "b", "gender": "unknown"}),
               ("c5", "2014-01-07T11:00:00Z",
                {"user_id": "c", "role": "partner"})),
    )


def parsed_refs(threads):
    return [ref for t in threads
            for ref in (t.author, *(c.author for c in t.comments))]


def assert_one_object_per_user(refs):
    by_value: dict = {}
    for ref in refs:
        by_value.setdefault((ref.user_id, ref.role, ref.gender), set()).add(id(ref))
    assert all(len(ids) == 1 for ids in by_value.values()), by_value


class TestSharedRefs:
    def test_jsonl_builds_one_ref_per_user(self):
        threads, diags = parse_thread_log(shared_refs_log())
        assert diags == []
        refs = parsed_refs(threads)
        assert_one_object_per_user(refs)
        # a, b, b without role or gender, c
        assert len({id(r) for r in refs}) == 4
        assert threads[0].author is threads[2].author
        assert threads[0].comments[0].author is threads[1].author

    def test_csv_builds_one_ref_per_user(self):
        csv_text = io.StringIO(
            ",".join(CSV_COLUMNS) + "\n"
            "t1,title,desc,2014-01-06T09:00:00Z,x,a,manager,1,,,,,,\n"
            "t1,,,,,,,,c1,hi,2014-01-06T10:00:00Z,b,,\n"
            "t1,,,,,,,,c2,hi,2014-01-06T11:00:00Z,a,Manager,1\n"
            "t2,title,desc,2014-01-06T12:00:00Z,x,b,,unknown,,,,,,\n"
            "t2,,,,,,,,c3,hi,2014-01-06T13:00:00Z,a,manager, 1 \n"
        )
        threads, diags = parse_thread_log(csv_text, format="csv")
        assert diags == []
        refs = parsed_refs(threads)
        assert_one_object_per_user(refs)
        assert len({id(r) for r in refs}) == 2

    def test_unrecognized_values_reported_on_every_line(self):
        # q's gender and r's role are unrecognized on each of three lines
        lines = [thread_obj(thread_id=f"t{i}", comments=[
            (f"c{i}", "r", "2014-01-06T10:00:00Z")]) for i in range(3)]
        for obj in lines:
            obj["author"] = {"user_id": "q", "role": "manager", "gender": 7}
            obj["comments"][0]["author"] = {"user_id": "r", "role": "wizard",
                                            "gender": 0}
        threads, diags = parse_thread_log(jsonl(*lines))
        assert diags == [
            line
            for i in range(3)
            for line in (f"unrecognized gender 7 at line {i + 1}",
                         f"unrecognized role 'wizard' at line {i + 1} (comment c{i})")
        ]
        assert len(threads) == 3
        assert_one_object_per_user(parsed_refs(threads))
        assert threads[0].author == UserRef("q", Role.manager)
        assert threads[0].comments[0].author == UserRef("r", gender=Gender.male)

    def test_boolean_gender_is_reported_after_its_number(self):
        # True == 1 and hash(True) == hash(1), yet true is no gender
        author = {"user_id": "a", "role": "manager"}
        threads, diags = parse_thread_log(jsonl(
            dict(thread_obj(), author=dict(author, gender=1)),
            dict(thread_obj(thread_id="t2"), author=dict(author, gender=True)),
            dict(thread_obj(thread_id="t3"), author=dict(author, gender=False)),
        ))
        assert diags == ["unrecognized gender True at line 2",
                         "unrecognized gender False at line 3"]
        assert threads[0].author == UserRef("a", Role.manager, Gender.female)
        assert threads[1].author == threads[2].author == UserRef("a", Role.manager)

    def test_float_gender_is_reported_after_its_number(self):
        # 1.0 == 1 and hash(1.0) == hash(1), yet the README allows 0 or 1
        author = {"user_id": "a", "role": "manager"}
        threads, diags = parse_thread_log(jsonl(
            dict(thread_obj(), author=dict(author, gender=1)),
            dict(thread_obj(thread_id="t2"), author=dict(author, gender=1.0)),
            dict(thread_obj(thread_id="t3"), author=dict(author, gender=0.0)),
        ))
        assert diags == ["unrecognized gender 1.0 at line 2",
                         "unrecognized gender 0.0 at line 3"]
        assert threads[0].author == UserRef("a", Role.manager, Gender.female)
        assert threads[1].author == threads[2].author == UserRef("a", Role.manager)

    def test_unhashable_values_are_reported(self):
        threads, diags = parse_thread_log(jsonl(
            thread_obj(), thread_obj(thread_id="t2"),
            dict(thread_obj(thread_id="t3"),
                 author={"user_id": "a", "role": ["manager"], "gender": {}}),
        ))
        assert diags == ["unrecognized gender {} at line 3",
                         "unrecognized role ['manager'] at line 3"]
        assert threads[2].author == UserRef("a")


def fresh_copy(thread):
    """A copy of ``thread`` that shares no record or ref with it."""
    def ref(user):
        return UserRef(user.user_id, user.role, user.gender)
    return ThreadRecord(
        thread_id=thread.thread_id, title=thread.title,
        description=thread.description, published_at=thread.published_at,
        tags=thread.tags, author=ref(thread.author),
        comments=tuple(
            CommentRecord(comment_id=c.comment_id, text=c.text,
                          created_at=c.created_at, author=ref(c.author),
                          order_k=c.order_k)
            for c in thread.comments),
    )


def assert_threads_kept(corpus, threads):
    assert len(corpus.threads) == len(threads)
    assert all(ours is theirs for ours, theirs in zip(corpus.threads, threads))


class TestCanonicalRecords:
    """The corpus keeps the records as parsed; each user's canonical,
    merged role and gender are in ``corpus.users``."""

    def test_canonical_thread_is_kept(self):
        threads, _diags = parse_thread_log(shared_refs_log())
        corpus, diags = build_corpus(threads)
        assert diags == []
        assert corpus.users == (UserRef("a", Role.manager, Gender.female),
                                UserRef("b", Role.consultant, Gender.male),
                                UserRef("c", Role.partner))
        # t3 holds b as written, without a role or gender
        assert_threads_kept(corpus, threads)
        assert corpus.threads[2].comments[0].author == UserRef("b")
        assert corpus.threads[2].recipients == ("a", "a")

    def test_filled_in_attribute_keeps_threads(self):
        threads, _diags = parse_thread_log(jsonl(
            {"thread_id": "t0", "published_at": "2014-01-06T09:00:00Z",
             "author": {"user_id": "x"},
             "comments": [{"comment_id": "c1", "text": "hi",
                           "created_at": "2014-01-06T10:00:00Z",
                           "author": {"user_id": "m", "gender": 0}}]},
            {"thread_id": "t1", "published_at": "2014-01-07T09:00:00Z",
             "author": {"user_id": "x", "role": "director", "gender": 1}},
        ))
        corpus, diags = build_corpus(threads)
        assert diags == []
        assert corpus.users == (UserRef("m", gender=Gender.male),
                                UserRef("x", Role.director, Gender.female))
        # x is first seen without attributes; its record keeps that ref
        assert_threads_kept(corpus, threads)
        assert corpus.threads[0].author == UserRef("x")
        assert corpus.threads[0].recipients == ("x",)

    def test_conflicting_attribute_keeps_threads(self):
        threads, _diags = parse_thread_log(jsonl(
            thread_obj(author="b"),
            dict(thread_obj(thread_id="t2", author="b",
                            comments=[("c1", "z", "2014-01-06T10:00:00Z")]),
                 author={"user_id": "b", "role": "director", "gender": 0}),
        ))
        corpus, diags = build_corpus(threads)
        assert diags == [
            "conflicting role for b: keeping manager, saw director",
            "conflicting gender for b: keeping 1, saw 0",
        ]
        b = corpus.users[corpus.user_index["b"]]
        assert (b.role, b.gender) == (Role.manager, Gender.female)
        assert_threads_kept(corpus, threads)
        assert corpus.threads[1].author == UserRef("b", Role.director, Gender.male)
        assert corpus.threads[1].recipients == ("b",)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_equals_corpus_of_unshared_copies(self, tmp_path, seed):
        source = generate(SyntheticSpec(n_users=15, n_threads=40, seed=seed))
        write_threads_jsonl(source.threads, tmp_path / "threads.jsonl")
        write_ratings_jsonl(source.ratings, tmp_path / "ratings.jsonl")
        threads, _diags = parse_thread_log(tmp_path / "threads.jsonl")
        events, _diags = parse_ratings(tmp_path / "ratings.jsonl")
        corpus, diags = build_corpus(threads, events)
        fresh, fresh_diags = build_corpus(
            [fresh_copy(t) for t in threads],
            [RatingEvent(e.rater_id, e.target_message_id, e.value) for e in events])
        assert diags == fresh_diags
        assert corpus.users == fresh.users
        assert corpus.user_index == fresh.user_index
        assert corpus.ratings == fresh.ratings
        assert len(corpus.threads) == len(fresh.threads)
        for ours, theirs in zip(corpus.threads, fresh.threads):
            for field in ("thread_id", "title", "description",
                          "published_at", "tags", "author", "comments"):
                assert getattr(ours, field) == getattr(theirs, field)
            assert ours.recipients == theirs.recipients


def reference_recipients(thread):
    """Recipient ids from the test-side resolver, one per comment."""
    prior = {thread.author.user_id}
    answered = []
    for comment in thread.comments:
        answered.append(resolve_like_package(comment.text,
                                             thread.author.user_id, prior))
        prior.add(comment.author.user_id)
    return answered


class TestRecipients:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora_match_reference(self, seed):
        corpus, _window, _threads, _ratings = random_corpus(
            random.Random(9000 + seed), n_threads=10, p_mention=0.5)
        for thread in corpus.threads:
            assert len(thread.recipients) == len(thread.comments)
            assert list(thread.recipients) == reference_recipients(thread)

    def test_random_corpora_cover_ghosts_and_punctuation(self):
        texts = [
            c.text
            for seed in range(12)
            for t in random_corpus(random.Random(9000 + seed), n_threads=10,
                                   p_mention=0.5)[0].threads
            for c in t.comments
        ]
        assert any("@ghost" in text for text in texts)
        assert any(text.startswith("@u") and text.split()[0].endswith(",")
                   for text in texts)

    def test_mention_rules(self):
        corpus, _window = make_corpus([("t0", "a", [
            ("b", "hello"),
            ("c", "@b, thanks"),
            ("d", "@ghost then @c!"),
            ("b", "@e see below"),
            ("e", "@d."),
            ("a", "@b) and @c"),
            ("c", "mail a@b"),
        ])])
        thread = corpus.threads[0]
        # a later commenter (e, for b's comment) is not yet active, so
        # that comment falls back to the thread author; an "@" inside a
        # word starts no mention, so "mail a@b" answers the author too
        expected = ["a", "b", "c", "a", "d", "b", "a"]
        assert list(thread.recipients) == expected
        assert reference_recipients(thread) == expected

    def test_recipients_are_the_participants_own_id_strings(self):
        (thread,), _diags = parse_thread_log(jsonl(thread_obj(
            author="ann", comments=[("c1", "bob", "2014-01-06T10:00:00Z")])))
        reply = CommentRecord("c2", "@bob, thanks", thread.comments[0].created_at,
                              thread.author, order_k=2)
        thread = dataclasses.replace(thread, comments=(*thread.comments, reply))
        assert thread.recipients == ("ann", "bob")
        assert thread.recipients[0] is thread.author.user_id
        assert thread.recipients[1] is thread.comments[0].author.user_id

    def test_recipients_are_computed_once(self):
        corpus, _window = make_corpus([("t0", "a", [("b", "hi")])])
        thread = corpus.threads[0]
        assert thread.recipients is thread.recipients

    def test_recipient_is_the_canonical_merged_user(self):
        # x's gender is only known from the second thread; the analytics
        # must see it for m's comment in the first thread, which answers x
        threads, _diags = parse_thread_log(jsonl(
            {"thread_id": "t0", "published_at": "2014-01-06T09:00:00Z",
             "author": {"user_id": "x"},
             "comments": [{"comment_id": "c1", "text": "hi",
                           "created_at": "2014-01-06T10:00:00Z",
                           "author": {"user_id": "m", "gender": 0}},
                          {"comment_id": "c2", "text": "@m ok",
                           "created_at": "2014-01-06T11:00:00Z",
                           "author": {"user_id": "x"}}]},
            {"thread_id": "t1", "published_at": "2014-01-07T09:00:00Z",
             "author": {"user_id": "x", "gender": 1}},
        ))
        corpus, _diags = build_corpus(threads)
        canonical = corpus.users[corpus.user_index["x"]]
        assert canonical.gender is Gender.female
        assert corpus.threads[0].recipients == ("x", "m")
        entry = homophily(window_events(whole_span_slice(corpus), corpus),
                          user_codes(corpus)[0])
        assert entry.m_comments == 1 and entry.mm_comments == 0
        assert entry.w_comments == 1 and entry.ww_comments == 0


def one_of_each_record():
    """A parsed thread, its first comment, its author and a rating."""
    (thread,), _diags = parse_thread_log(jsonl(thread_obj(
        comments=[("c1", "b", "2014-01-06T10:00:00Z")])))
    (rating,), _diags = parse_ratings(jsonl(
        {"rater_id": "b", "target_id": "t1", "value": 1}))
    return thread, thread.comments[0], thread.author, rating


class TestLeanRecords:
    def test_records_are_slotted(self):
        for record in one_of_each_record():
            assert type(record).__slots__
            assert not hasattr(record, "__dict__")

    def test_fields_stay_frozen(self):
        for record in one_of_each_record():
            name = dataclasses.fields(record)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, "other")

    def test_records_survive_a_pickle_round_trip(self):
        thread, *others = one_of_each_record()
        assert thread.recipients
        copy = pickle.loads(pickle.dumps(thread))
        assert copy == thread and copy.recipients == thread.recipients
        for record in others:
            assert pickle.loads(pickle.dumps(record)) == record

    def test_equality_and_hash_ignore_the_recipients(self):
        thread = one_of_each_record()[0]
        copy = dataclasses.replace(thread)
        assert thread.recipients == ("a",)
        assert copy == thread and hash(copy) == hash(thread)
        assert "recipients" not in repr(thread)

    def test_replaced_comments_get_their_own_recipients(self):
        thread = one_of_each_record()[0]
        assert thread.recipients == ("a",)
        reply = CommentRecord("c2", "@b ok", thread.comments[0].created_at,
                              thread.author, order_k=2)
        rebuilt = dataclasses.replace(
            thread, comments=(*thread.comments, reply))
        assert rebuilt.recipients == ("a", "b")
        assert thread.recipients == ("a",)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_tags_share_one_tuple_and_string(self, fmt):
        tag_lists = [["x", "y"], ["x", "y"], ["y"], []]
        if fmt == "jsonl":
            log = jsonl(*(thread_obj(thread_id=f"t{k}", tags=tags)
                          for k, tags in enumerate(tag_lists)))
        else:
            log = io.StringIO(",".join(CSV_COLUMNS) + "\n" + "".join(
                f"t{k},,,2014-01-06T09:00:00Z,{'|'.join(tags)},a{',' * 8}\n"
                for k, tags in enumerate(tag_lists)))
        threads, diags = parse_thread_log(log, format=fmt)
        assert diags == []
        assert [t.tags for t in threads] == [tuple(tags) for tags in tag_lists]
        assert threads[0].tags is threads[1].tags
        assert threads[2].tags[0] is threads[0].tags[1]
