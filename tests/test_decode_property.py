"""The thread-log decoders against references that take no shortcut.

Small drawn logs, full of odd values, are parsed by the package and by
a reference: ``jsonl_reference.py`` for JSON Lines and
``csv_reference.py`` for the flat CSV form.  Both must give equal
records, the same sharing of ref objects and tag tuples between
records, and equal diagnostics in the same order, or the same fatal
error.
"""

import csv
import io
import json

import pytest

import csv_reference
import jsonl_reference
from leadnet.ingest import CSV_COLUMNS, CorruptInputError, parse_thread_log

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

MISSING = object()  # a key left out of its object

# per field: (good values, bad or odd values); an unrecognized role or
# gender only writes a diagnostic, so most of them are common values
USER_FIELDS = {
    "user_id": (["u1", "u1", "u2"], ["", None, 5, ["u1"], "\ud800", MISSING]),
    "role": (["manager", "manager", "Manager", " manager ", "senior-consultant",
              "unknown", "", None, MISSING, "wizard", True, ["manager"]],
             [5, 1.0, {"role": "manager"}]),
    "gender": ([0, 1, 1, "unknown", None, MISSING, True, False, 1.0, 0.0],
               [2, -1, "F", "0", [1], {"g": 0}]),
}
TIMES = (["2014-01-06T09:00:00Z", "2014-01-06T10:00:00+01:00",
          "2014-01-06T09:30:00.5Z", " 2014-01-06T11:00:00Z ",
          "2014-01-06T12:00:00z", "2014-01-06T08:00:00Z", "2014-01-06T09:00:00",
          "2014-01-06T07:00:00.999999-01:00", "2014-01-06"],
         ["   ", " ", "", "\t", "not a date", "0001-01-01T00:00:00+01:00",
          "9999-12-31T23:00:00-05:00", 5, None, ["2014-01-06T09:00:00Z"], MISSING])
THREAD_FIELDS = {
    "thread_id": (["t1", "t2", "t3", "c1"], ["", None, 5, ["t1"], "t\udfff", MISSING]),
    "title": (["", "title", MISSING], [5, None]),
    "description": (["", "desc", MISSING], [["desc"]]),
    "published_at": TIMES,
    "tags": ([[], ["x"], ["x", "y"], ["y", "x"], [" x "], ["x", "x"], MISSING],
             ["x", ["x", 1], [["x"]], [None], {"x": 1}, None]),
}
COMMENT_FIELDS = {
    "comment_id": (["c1", "c2", "c3", "c4", "t1"],
                   ["", None, 5, ["c1"], "\ud800c1", MISSING]),
    "text": (["", "hi", "@u1 thanks", "@u2, ok", MISSING], [5, None]),
    "created_at": TIMES,
}
T9 = json.dumps({"thread_id": "t9", "published_at": "2014-01-06T09:00:00Z",
                 "author": {"user_id": "u9"}})
# blank lines (str.strip() empties them), a good record with JSON
# whitespace around it, and lines that ``json.loads`` rejects
ODD_LINES = ["", "   ", "\u00a0", "\x0c", f" \t{T9}\r ", "{", "[1, 2]", '"t1"',
             "null", f"{T9} x", f"{T9}{T9}", f"\ufeff{T9}", f"\u00a0{T9}",
             "1" * 4301, "[" * 3000 + "]" * 3000]


def pick(pools, odds=15):
    """A value of ``pools``, bad about one time in ``odds + 1``."""
    good, bad = pools
    return st.sampled_from(good * (len(bad) * odds // len(good) + 1) + bad)


def obj(fields, **extra):
    """An object of the fields drawn from ``fields`` and ``extra``, which
    leaves out each one drawn as MISSING."""
    drawn = {key: pick(pools) for key, pools in fields.items()}
    return st.fixed_dictionaries({**drawn, **extra}).map(
        lambda o: {k: v for k, v in o.items() if v is not MISSING})


def mostly(good, bad, odds):
    """A draw of ``good``, or of ``bad`` about one time in ``odds + 1``;
    ``one_of`` would pick each half as often."""
    return st.sampled_from([good] * odds + [bad]).flatmap(lambda strategy: strategy)


author = mostly(obj(USER_FIELDS), st.sampled_from(["u1", None, 5, ["u1"], MISSING]), 9)
comment = mostly(obj(COMMENT_FIELDS, author=author),
                 st.sampled_from(["c1", 5, None, []]), 14)
comments = mostly(st.lists(comment, max_size=4),
                  st.sampled_from(["c1", {}, None, MISSING]), 14)
thread_line = obj(THREAD_FIELDS, author=author, comments=comments).map(json.dumps)
# a few thread lines with blank, broken and non-object lines among them
jsonl_logs = st.lists(mostly(thread_line, st.sampled_from(ODD_LINES), 5),
                      min_size=1, max_size=6).map(lambda lines: "\n".join(lines) + "\n")


def sharing(objects):
    """Each object as its rank among the distinct objects, so two parses
    compare in which records share one."""
    first: dict[int, int] = {}
    return [first.setdefault(id(o), len(first)) for o in objects]


def refs(threads):
    for thread in threads:
        yield thread.author
        yield from (c.author for c in thread.comments)


def assert_same_parse(parse, reference, text, shared_tags=True):
    try:
        want = reference(io.StringIO(text))
    except CorruptInputError as exc:
        with pytest.raises(CorruptInputError) as info:
            parse(io.StringIO(text))
        assert str(info.value) == str(exc)
        return
    got_threads, got_diags = parse(io.StringIO(text))
    want_threads, want_diags = want
    assert got_threads == want_threads
    assert got_diags == want_diags
    assert sharing(refs(got_threads)) == sharing(refs(want_threads))
    if shared_tags:  # the CSV reference builds a tuple per thread
        assert sharing(t.tags for t in got_threads) \
            == sharing(t.tags for t in want_threads)


def jsonl_text(*objs):
    return "".join(json.dumps(o) + "\n" for o in objs)


def head(thread_id, author, **fields):
    return {"thread_id": thread_id, "published_at": "2014-01-06T09:00:00Z",
            "author": author, **fields}


def note(comment_id, author):
    return {"comment_id": comment_id, "created_at": "2014-01-06T10:00:00Z",
            "author": author}


@settings(max_examples=300, deadline=None)
@given(jsonl_logs)
# one user spelled as 1, True and 1.0 after a clean decode, and 0 then
# False and 0.0; a tag list, then the same tag as a string
@example(jsonl_text(
    head("t1", {"user_id": "u1", "role": "manager", "gender": 1}, tags=["x"],
         comments=[note("c1", {"user_id": "u2", "gender": 0})]),
    head("t2", {"user_id": "u1", "role": "manager", "gender": 1}, tags="x"),
    head("t3", {"user_id": "u1", "role": "manager", "gender": True},
         comments=[note("c1", {"user_id": "u2", "gender": False}),
                   note("c2", {"user_id": "u2", "gender": 0.0})]),
    head("t4", {"user_id": "u1", "role": "manager", "gender": 1.0}, tags=["x"])))
def test_jsonl_decode_matches_reference(text):
    assert_same_parse(parse_thread_log, jsonl_reference.parse_threads_jsonl, text)


# ---------------------------------------------------------------------------
# the CSV form: every cell a string

def cells(pools):
    """The string values of both pools, which a CSV cell can hold."""
    good, bad = pools
    keep = lambda values: [v for v in values if isinstance(v, str)]  # noqa: E731
    return keep(good), keep(bad)


CSV_CELLS = {
    "title": (["", "title", "a, b", "two\nlines"], []),
    "description": (["", "desc", "x|y"], []),
    "published_at": cells(TIMES),
    "tags": (["", "x", "x|y", "y|x", " x | y ||", "|", "x|x"], []),
    "author_id": (["u1", "u1", "u2", " u2 "], ["", "  "]),
    "author_role": cells(USER_FIELDS["role"]),
    "author_gender": (["", "0", "1", " 1 ", "unknown"], ["2", "F", " ", "true", "1.0"]),
    "comment_text": (["", "hi", "@u1 thanks", 'a,"b"'], []),
    "comment_created_at": cells(TIMES),
}
for _field in ("id", "role", "gender"):
    CSV_CELLS[f"comment_author_{_field}"] = CSV_CELLS[f"author_{_field}"]


def row_cells(columns):
    return st.fixed_dictionaries({c: pick(CSV_CELLS[c], 5) for c in columns})


head_cells, comment_cells = row_cells(CSV_COLUMNS[1:8]), row_cells(CSV_COLUMNS[9:])


def csv_row(thread_id, comment_id, values):
    """A thread row when ``comment_id`` is empty, else a comment row; the
    other kind's cells stay empty."""
    row = {"thread_id": thread_id, "comment_id": comment_id, **values}
    return [row.get(column, "") for column in CSV_COLUMNS]


def thread_rows(thread_id, head, comments):
    return [csv_row(thread_id, "", head),
            *(csv_row(thread_id, cid, values) for cid, values in comments)]


def csv_text(groups, strays):
    """The groups' rows in order, with each stray row inserted at its
    position; a header of ``CSV_COLUMNS`` first."""
    rows = [row for group in groups for row in group]
    for at, row in strays:
        rows.insert(at % (len(rows) + 1), row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


# threads, each a thread row then its comment rows, with a few stray rows
# (no thread id, an unknown thread, a second thread row) among them
comment_row = st.tuples(st.sampled_from(["c1", "c2", "c3", "t1"]), comment_cells)
group = st.builds(thread_rows, st.sampled_from(["t1", "t2", "t3"]), head_cells,
                  st.lists(comment_row, max_size=4))
stray = st.tuples(st.integers(0, 20), st.builds(
    csv_row, st.sampled_from(["", " ", "t1", "t9"]), st.sampled_from(["", "c1", "c5"]),
    st.one_of(head_cells, comment_cells)))
csv_logs = st.builds(csv_text, st.lists(group, min_size=1, max_size=4),
                     st.lists(stray, max_size=2))


@settings(max_examples=300, deadline=None)
@given(csv_logs)
def test_csv_decode_matches_reference(text):
    assert_same_parse(lambda s: parse_thread_log(s, format="csv"),
                      csv_reference.parse_threads_csv, text, shared_tags=False)
