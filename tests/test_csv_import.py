"""The flat-CSV thread log importer (``ingest --format csv``).

Three checks pin it: a golden malformed log whose ``ingest`` artifacts
are stored under ``data/csv_malformed``, a property test against the
reference importer in ``csv_reference.py``, and corpus S written as CSV,
which must give the artifacts its JSONL form gives.  Short rows and
oversized cells, which the reference cannot read, are tested on their
own.
"""

import csv
import hashlib
import io
from pathlib import Path

import pytest

from conftest import write_threads_csv
from csv_reference import parse_threads_csv as reference_parse
from leadnet import cli
from leadnet.ingest import CSV_COLUMNS, CorruptInputError, parse_thread_log

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MALFORMED = Path(__file__).parent / "data" / "csv_malformed"


def test_malformed_log_artifacts_are_pinned(tmp_path):
    """Every CSV diagnostic, in order, with the line each one names: a
    missing thread_id on both row kinds, a duplicate thread row, a
    comment for an unknown thread, bad author ids, roles and genders on
    both row kinds, bad timestamps, predating and duplicate comments,
    interleaved threads and a quoted cell spanning two lines."""
    out = tmp_path / "out"
    assert cli.main(["ingest", "--format", "csv", "--window", "week",
                     "--input", str(MALFORMED / "threads.csv"),
                     "--out", str(out)]) == 0
    for name in ("diagnostics.txt", "corpus_summary.json"):
        assert (out / name).read_text() == (MALFORMED / name).read_text()


HEADER = ",".join(CSV_COLUMNS) + "\n"
HEAD_ROW = "t1,title,desc,2014-01-06T09:00:00Z,x,a,manager,1,,,,,,\n"


@pytest.mark.parametrize("rows, diags, comments", [
    # a short thread row: its missing author cells read as empty
    ("t2,title,desc,2014-01-06T11:00:00Z\n",
     ["missing author_id at line 4"], ["c1"]),
    # a short comment row: its missing author cells read as empty
    ("t1,,,,,,,,c2,hi,2014-01-06T10:30:00Z\n",
     ["missing author_id at line 4 (comment c2)"], ["c1"]),
    # an unclosed quote runs to the end of the log: one short comment row
    ('t1,,,,,,,,c2,"never closed\nt1,,,,,,,,c3,hi,2014-01-06T11:00:00Z,b,,\n',
     ["missing author_id at line 5 (comment c2)"], ["c1"]),
])
def test_short_rows_read_missing_cells_as_empty(rows, diags, comments):
    text = HEADER + HEAD_ROW + "t1,,,,,,,,c1,hi,2014-01-06T10:00:00Z,b,,\n" + rows
    threads, got = parse_thread_log(io.StringIO(text), format="csv")
    assert got == diags
    assert [c.comment_id for c in threads[0].comments] == comments


def test_oversized_cell_exits_one_naming_its_line(tmp_path, capsys):
    log = tmp_path / "threads.csv"
    log.write_text(HEADER + HEAD_ROW + "t1,,,,,,,,c1," + "x" * 200_000
                   + ",2014-01-06T10:00:00Z,b,,\n")
    limit = csv.field_size_limit()
    out = tmp_path / "out"
    assert cli.main(["ingest", "--format", "csv", "--input", str(log),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: corrupt input: field larger than field limit (131072) at line 3\n")
    assert not out.exists()
    assert csv.field_size_limit() == limit


# ---------------------------------------------------------------------------
# against the reference importer

# per column: (good cells, bad or odd cells); a cell is odd one time in eight
CELLS = {
    "title": (["", "title", "a, b", 'say "hi"', "two\nlines"], []),
    "description": (["", "desc", "x|y"], []),
    "published_at": (["2014-01-06T09:00:00Z", "2014-01-06T10:00:00+01:00",
                      "2014-01-06T09:00:00", " 2014-01-07T09:00:00Z "],
                     ["", "not a date"]),
    "tags": (["", "x", "x|y", " a | b ||", "|"], []),
    "author_id": (["u1", "u2", "u3", " u2 "], ["", "  "]),
    "author_role": (["", "manager", "Manager", "senior consultant", "unknown"],
                    ["wizard", " "]),
    "author_gender": (["", "0", "1", " 1 ", "unknown"], ["2", "F", " "]),
    "comment_text": (["", "hi", "@u1 thanks", 'a,"b"', "x\ny"], []),
    "comment_created_at": (["2014-01-06T10:00:00Z", "2014-01-06T11:00:00Z",
                            "2014-01-06T08:00:00Z", "2014-01-06T12:00:00+02:00"],
                           ["", "yesterday"]),
}
for _field in ("id", "role", "gender"):
    CELLS[f"comment_author_{_field}"] = CELLS[f"author_{_field}"]
HEAD_COLUMNS = CSV_COLUMNS[:8]
THREAD_IDS = ["t1", "t2", "t3", " t2 "]
COMMENT_IDS = ["c1", "c2", "c3", "c4", " c2 ", "t1"]


@st.composite
def cell(draw, column):
    good, bad = CELLS.get(column, (["", "note"], []))
    pool = bad if bad and draw(st.integers(0, 7)) == 0 else good
    return draw(st.sampled_from(pool))


@st.composite
def csv_row(draw, columns, thread_id, comment_id):
    """A row in ``columns`` order: a thread row when ``comment_id`` is
    empty, else a comment row; the other kind's cells are mostly empty,
    and one row in twenty runs past the header."""
    is_head = not comment_id
    row = []
    for column in columns:
        if column == "thread_id":
            row.append(thread_id)
        elif column == "comment_id":
            row.append(comment_id)
        elif (column in HEAD_COLUMNS) == is_head or draw(st.integers(0, 9)) == 0:
            row.append(draw(cell(column)))
        else:
            row.append("")
    if draw(st.integers(0, 19)) == 0:
        row.append("extra")
    return row


@st.composite
def csv_logs(draw):
    """A CSV log of a few threads, each a thread row then its comment
    rows, with the threads' rows interleaved.  Stray rows (no thread id,
    an unknown thread, a second thread row, blank lines) land anywhere,
    and a few rows may swap places; the header is shuffled and may lack
    a column or carry an extra one."""
    columns = list(draw(st.permutations(CSV_COLUMNS)))
    if draw(st.integers(0, 29)) == 0:
        columns.pop()
    if draw(st.integers(0, 9)) == 0:
        columns.insert(draw(st.integers(0, len(columns))), "note")
    groups = []
    for thread_id in draw(st.lists(st.sampled_from(THREAD_IDS), min_size=1,
                                   max_size=3)):
        comment_ids = draw(st.lists(st.sampled_from(COMMENT_IDS), max_size=4))
        groups.append([draw(csv_row(columns, thread_id, cid))
                       for cid in ["", *comment_ids]])
    rows = []
    while groups:
        group = groups[draw(st.integers(0, len(groups) - 1))]
        rows.append(group.pop(0))
        groups = [g for g in groups if g]
    stray = st.tuples(st.sampled_from(["", "  ", "t1", "t9"]),
                      st.sampled_from(["", *COMMENT_IDS]))
    for thread_id, comment_id in draw(st.lists(stray, max_size=3)):
        row = [] if thread_id == "  " else draw(csv_row(columns, thread_id,
                                                         comment_id))
        rows.insert(draw(st.integers(0, len(rows))), row)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def record_refs(threads):
    for thread in threads:
        yield thread.author
        for comment in thread.comments:
            yield comment.author


def sharing(threads):
    """Each ref in record order as the rank of its object among distinct
    ref objects, so two parses compare in which records share a ref."""
    first: dict[int, int] = {}
    return [first.setdefault(id(ref), len(first)) for ref in record_refs(threads)]


def parse_or_error(parse, text):
    try:
        return parse(io.StringIO(text))
    except CorruptInputError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(csv_logs())
def test_matches_reference_importer(text):
    want = parse_or_error(reference_parse, text)
    got = parse_or_error(lambda s: parse_thread_log(s, format="csv"), text)
    if isinstance(want, str):
        assert got == want
        return
    (want_threads, want_diags), (got_threads, got_diags) = want, got
    assert got_threads == want_threads
    assert got_diags == want_diags
    assert sharing(got_threads) == sharing(want_threads)


# ---------------------------------------------------------------------------
# corpus S as CSV

def test_corpus_s_as_csv_gives_the_jsonl_artifacts(corpus_s, tmp_path):
    threads, _diags = parse_thread_log(corpus_s / "threads.jsonl")
    csv_log = tmp_path / "threads.csv"
    write_threads_csv(threads, csv_log)
    common = ["--ratings", str(corpus_s / "ratings.jsonl"), "--window", "week"]
    lexicon = ["--lexicon", str(corpus_s / "lexicon.tsv"),
               "--stopwords", str(corpus_s / "stopwords.txt")]
    outputs = {}
    for form, log in (("jsonl", corpus_s / "threads.jsonl"), ("csv", csv_log)):
        for command, extra in (("ingest", []), ("all", lexicon)):
            out = tmp_path / f"{command}_{form}"
            assert cli.main([command, "--format", form, "--input", str(log),
                             "--out", str(out), *common, *extra]) == 0
            outputs[command, form] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert outputs["ingest", "csv"] == outputs["ingest", "jsonl"]
    assert outputs["all", "csv"] == outputs["all", "jsonl"]
