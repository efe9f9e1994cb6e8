"""Discussion-log ingestion: record types, parsers, corpus assembly, windowing.

Canonical input is JSON Lines.  ``threads.jsonl`` holds one thread per line:

    {"thread_id": "t00001", "title": "...", "description": "...",
     "published_at": "2014-01-02T13:41:20Z", "tags": ["km42", "mockup"],
     "author": {"user_id": "b80a4fcb", "role": "consultant", "gender": 1},
     "comments": [{"comment_id": "c00001x01", "text": "...",
                   "created_at": "2014-01-02T14:00:00Z",
                   "author": {"user_id": "ddd22ccb", "role": "manager",
                              "gender": 0}}]}

``ratings.jsonl`` holds one like/dislike event per line:

    {"rater_id": "b80a4fcb", "target_id": "c00001x01", "value": 1}

Gender is encoded 0 (male), 1 (female) or "unknown"; roles are strings
normalized against a fixed set.  A flat CSV form of the thread log is
also read, through the same record decoders; ``_parse_threads_csv``
documents its columns and rules.  All timestamps are UTC, second
precision.

Parsers do not raise on a bad record: the record is skipped and a
human-readable diagnostic naming the line number and cause is returned
alongside the good records.  Only an unreadable stream, or an input
where more than half of the records are malformed, is fatal.
"""

from __future__ import annotations

import csv
import enum
import json
import re
import sys
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import MAXYEAR, datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping


class IngestError(Exception):
    """Base class for fatal ingestion failures."""


class CorruptInputError(IngestError):
    """More than half of the records in an input could not be parsed."""


class CorpusError(IngestError):
    """The parsed records cannot be assembled into a usable corpus."""


class Gender(enum.Enum):
    male = 0
    female = 1
    unknown = "unknown"


class Role(enum.Enum):
    manager = "manager"
    director = "director"
    consultant = "consultant"
    senior_consultant = "senior_consultant"
    partner = "partner"
    external = "external"
    unknown = "unknown"


@dataclass(frozen=True, slots=True)
class UserRef:
    user_id: str
    role: Role = Role.unknown
    gender: Gender = Gender.unknown

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")


@dataclass(frozen=True, slots=True)
class CommentRecord:
    comment_id: str
    text: str
    created_at: datetime
    author: UserRef


@dataclass(frozen=True, slots=True)
class ThreadRecord:
    thread_id: str
    title: str
    description: str
    published_at: datetime
    tags: tuple[str, ...]
    author: UserRef
    comments: tuple[CommentRecord, ...]
    _recipients: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def recipients(self) -> tuple[str, ...]:
        """The user id each comment answers, aligned with ``comments``: the
        first @-mention naming a participant already active in the thread
        (the author or an earlier commenter), else the thread author.
        Computed on first use and kept, so every window holding the thread
        shares one resolution; a ``replace`` copy computes its own."""
        if self._recipients is None:
            author = self.author.user_id
            active = {author: author}
            answered = []
            for comment in self.comments:
                answered.append(_mentioned(comment.text, active) or author)
                commenter = comment.author.user_id
                active.setdefault(commenter, commenter)
            object.__setattr__(self, "_recipients", tuple(answered))
        return self._recipients


_MENTION = re.compile(r"(?<!\S)@(\S+)")
_TRAILING_PUNCT = ".,;:!?)('\"`>]}"


def _mentioned(text: str, active: Mapping[str, str]) -> str | None:
    """The id of the participant named by the first @-mention token in
    ``text`` (a token starting with "@"), as written or with its trailing
    punctuation stripped; None when no mention names one.  ``active``
    maps each participant's id to itself, so the id returned is the
    participant's own string, not a piece of ``text``."""
    for match in _MENTION.finditer(text):
        token = match.group(1)
        for candidate in (token, token.rstrip(_TRAILING_PUNCT)):
            if candidate in active:
                return active[candidate]
    return None


@dataclass(frozen=True, slots=True)
class RatingEvent:
    rater_id: str
    target_message_id: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (-1, 1):
            raise ValueError("rating value must be -1 or +1")


@dataclass(frozen=True)
class Corpus:
    """An immutable, validated snapshot of one discussion log.

    ``users`` is sorted by user_id and ``user_index`` maps user_id to the
    position in that order; every author and rater appearing anywhere in
    the corpus is present, a rater who never posts with unknown role and
    gender.  ``users`` is the one place a user's merged role and gender
    live: the records keep the refs their parser built, so read a user's
    attributes as ``users[user_index[user_id]]``, never off a record.  A
    rating names its rater by ``rater_id`` alone.  Matrix-valued results
    elsewhere in the package index users by ``user_index``.
    """

    users: tuple[UserRef, ...]
    user_index: dict[str, int]
    threads: tuple[ThreadRecord, ...]
    ratings: tuple[RatingEvent, ...]

    @property
    def n_users(self) -> int:
        return len(self.users)

    def ratings_in(self, threads: Iterable[ThreadRecord]
                   ) -> list[tuple[RatingEvent, str]]:
        """The ratings of the messages in ``threads``, in corpus order,
        each with the user id of its target's author.  A message id held
        twice resolves to its first copy in ``threads``, and a rating
        counts for every set of threads that holds a copy."""
        author: dict[str, str] = {}
        for thread in threads:
            author.setdefault(thread.thread_id, thread.author.user_id)
            for c in thread.comments:
                author.setdefault(c.comment_id, c.author.user_id)
        return [(e, author[e.target_message_id]) for e in self.ratings
                if e.target_message_id in author]


@dataclass(frozen=True)
class WindowConfig:
    """Tiling of the corpus time span into analysis windows.

    ``length`` is one of "week", "month" or "days"; ``days`` is required
    for the "days" form.  The grid starts at the calendar month, ISO week
    (Monday 00:00 UTC) or calendar day containing the earliest thread.
    """

    length: str
    days: int | None = None

    def __post_init__(self) -> None:
        if self.length not in ("week", "month", "days"):
            raise ValueError(f"unknown window length {self.length!r}")
        if self.length == "days":
            if self.days is None or self.days < 1:
                raise ValueError("days windows need days >= 1")
        elif self.days is not None:
            raise ValueError("days only applies to days windows")

    @classmethod
    def from_string(cls, text: str) -> WindowConfig:
        """Parse the CLI form: "week", "month" or "days:N"."""
        if text in ("week", "month"):
            return cls(length=text)
        if text.startswith("days:"):
            return cls(length="days", days=int(text.split(":", 1)[1]))
        raise ValueError(f"bad window spec {text!r}; expected week|month|days:N")

    def __str__(self) -> str:
        """The canonical CLI form, which ``from_string`` reads back."""
        return self.length if self.days is None else f"days:{self.days}"


@dataclass(frozen=True)
class WindowSlice:
    """One half-open window [start, end) with its threads.

    A thread belongs wholly to the window containing its published_at;
    a window holds the ratings of its messages (``Corpus.ratings_in``).
    Empty windows inside the corpus span are kept.
    """

    index: int
    start: datetime
    end: datetime
    threads: tuple[ThreadRecord, ...]


# ---------------------------------------------------------------------------
# timestamps

UTC = timezone.utc
_fromisoformat = datetime.fromisoformat


def parse_timestamp(text: str) -> datetime:
    """ISO-8601 to an aware UTC datetime, truncated to whole seconds.
    ValueError also when the UTC time falls outside years 1 to 9999."""
    if not isinstance(text, str) or not text:
        raise ValueError("timestamp must be a non-empty string")
    raw = text.strip()
    if raw[-1:] in ("Z", "z"):  # "" when ``text`` is only whitespace
        raw = raw[:-1] + "+00:00"
    dt = _fromisoformat(raw)
    if dt.tzinfo is UTC and not dt.microsecond:
        return dt  # a zero offset already parses to timezone.utc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    try:
        return dt.astimezone(UTC).replace(microsecond=0)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_timestamp(dt: datetime) -> str:
    """The UTC time to the second, with four year digits, then "Z"."""
    return dt.astimezone(UTC).isoformat(timespec="seconds")[:19] + "Z"


# ---------------------------------------------------------------------------
# field decoding

def decode_gender(value: object) -> Gender | None:
    """0/1/"unknown"/None to Gender; None return means unrecognized, as
    for a boolean or a float, which may equal 0 or 1 but is neither."""
    if value is None or value == "unknown":
        return Gender.unknown
    if type(value) is int and value in (0, 1):
        return Gender(value)
    return None


def decode_role(value: object) -> Role | None:
    if value is None or value == "":
        return Role.unknown
    if not isinstance(value, str):
        return None
    name = value.strip().lower().replace(" ", "_").replace("-", "_")
    try:
        return Role(name)
    except ValueError:
        return None


_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_id(value: object) -> bool:
    """A non-empty string of valid Unicode: JSON lets a lone surrogate
    such as "\\ud800" through, and no UTF-8 writer can encode one."""
    return bool(value) and isinstance(value, str) and (
        value.isascii() or not _SURROGATE.search(value))


def _at(lineno: int, comment_id: str | None) -> str:
    """Where a diagnostic points: the line, and the comment of a comment's field."""
    return f"line {lineno}" + ("" if comment_id is None else f" (comment {comment_id})")


def _decode_user(obj: object, lineno: int, diags: list[str],
                 known: dict[tuple, UserRef],
                 comment_id: str | None = None) -> UserRef | None:
    """Decode the author object of a thread, or of comment ``comment_id``;
    None means the record/comment is unusable.

    ``known`` is the parse's table of refs, keyed both by raw
    (user_id, role, gender) values and by decoded ones, so each distinct
    user is one object.  Raw keys are stored only for decodes that wrote
    no diagnostic, so an object whose raw values are found needs no
    check, and every unrecognized value is reported where it occurs."""
    raw: tuple | None = ((obj.get("user_id"), obj.get("role"), obj.get("gender"))
                         if isinstance(obj, dict) else (None, None, None))
    user_id, raw_role, raw_gender = raw
    # a boolean or float gender is a key equal to 0 or 1: it skips the table
    try:
        ref = None if isinstance(raw_gender, (bool, float)) else known.get(raw)
    except TypeError:  # an unhashable id, role or gender, which never decodes
        ref = None
    if ref is not None:
        return ref
    if not user_id:
        diags.append(f"missing author_id at {_at(lineno, comment_id)}")
        return None
    if not _is_id(user_id):
        diags.append(f"invalid author_id at {_at(lineno, comment_id)}")
        return None
    gender = decode_gender(raw_gender)
    if gender is None:
        diags.append(f"unrecognized gender {raw_gender!r} at {_at(lineno, comment_id)}")
        gender, raw = Gender.unknown, None
    role = decode_role(raw_role)
    if role is None:
        diags.append(f"unrecognized role {raw_role!r} at {_at(lineno, comment_id)}")
        role, raw = Role.unknown, None
    ref = known.setdefault((user_id, role, gender), UserRef(user_id, role, gender))
    if raw is not None:
        known[raw] = ref
    return ref


# ---------------------------------------------------------------------------
# thread log parsing

@contextmanager
def open_text(source: str | Path | IO[str], newline: str | None = None) -> Iterator[IO[str]]:
    """``source`` as a text stream, opened as UTF-8 with a leading
    byte-order mark dropped, and closed after when it is a path.  A path
    that does not decode raises CorruptInputError naming its first line
    that does not, which is found by reading the file again, so a good
    file costs nothing more."""
    if not isinstance(source, (str, Path)):
        yield source
        return
    with open(source, "r", encoding="utf-8-sig", newline=newline) as stream:
        try:
            yield stream
        except UnicodeDecodeError:
            lines = Path(source).read_bytes().splitlines()
            lineno = next(n for n, line in enumerate(lines, start=1)
                          if line.decode("utf-8", "ignore").encode() != line)
            raise CorruptInputError(f"{source}: not valid UTF-8 at line {lineno}") from None


def parse_thread_log(
    source: str | Path | IO[str], format: str = "jsonl"
) -> tuple[list[ThreadRecord], list[str]]:
    """Parse a thread log into validated records plus diagnostics.

    Malformed records are skipped with a diagnostic naming the line and
    cause.  Raises CorruptInputError when more than 50% of the records
    are malformed or a path is not valid UTF-8, and propagates I/O errors
    from unreadable sources.  A CSV path keeps line ends in quoted cells.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown thread log format {format!r}")
    with open_text(source, newline="" if format == "csv" else None) as stream:
        if format == "jsonl":
            return _parse_threads_jsonl(stream)
        return _parse_threads_csv(stream)


def _finish_comments(
    thread_id: str,
    published_at: datetime,
    raw_comments: list[tuple[str, str, datetime, UserRef, int]],
    diags: list[str],
) -> tuple[CommentRecord, ...]:
    """Clamp and order a thread's comments.

    Comments predating the thread are clamped to published_at with a
    diagnostic; a comment's place in (created_at, comment_id) order is its k.
    """
    clamped: list[tuple[str, str, datetime, UserRef, int]] = []
    seen_ids: set[str] = set()
    for comment in raw_comments:
        comment_id, text, created_at, author, lineno = comment
        if comment_id in seen_ids:
            diags.append(f"duplicate comment_id {comment_id} at line {lineno}; skipped")
            continue
        seen_ids.add(comment_id)
        if created_at < published_at:
            diags.append(
                f"comment {comment_id} predates thread {thread_id} at line {lineno};"
                " clamped to published_at"
            )
            comment = (comment_id, text, published_at, author, lineno)
        clamped.append(comment)
    clamped.sort(key=itemgetter(2, 0))
    return tuple([CommentRecord(cid, text, at, author)
                  for cid, text, at, author, _line in clamped])


def _check_corrupt(total: int, malformed: int) -> None:
    """The input-wide rule: more than half of the records malformed is fatal."""
    if total and malformed * 2 > total:
        raise CorruptInputError(f"corrupt input: {malformed} of {total} records malformed")


_scan_json = json.JSONDecoder().scan_once


def _jsonl_objects(stream: IO[str], diags: list[str]) -> Iterable[tuple[int, dict | None]]:
    """(line number, object) for each non-blank line of a JSON Lines
    stream; the object is None, with its diagnostic written, when the
    line is not a JSON object.  A line is read as ``json.loads`` reads
    it: one value with only JSON whitespace around it."""
    for lineno, line in enumerate(stream, start=1):
        doc = line.strip(" \t\n\r")
        if not doc.strip():  # a blank line: only whitespace
            continue
        try:
            obj, end = _scan_json(doc, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1  # no value, bad JSON, too many digits, or too deep
        if end != len(doc):
            diags.append(f"invalid JSON at line {lineno}")
            yield lineno, None
            continue
        if not isinstance(obj, dict):
            diags.append(f"record is not an object at line {lineno}")
            obj = None
        yield lineno, obj


def _parse_threads_jsonl(stream: IO[str]) -> tuple[list[ThreadRecord], list[str]]:
    threads: list[ThreadRecord] = []
    diags: list[str] = []
    known: dict[tuple, UserRef] = {}
    tag_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
    seen_threads: set[str] = set()
    total = 0
    for lineno, obj in _jsonl_objects(stream, diags):
        total += 1
        record = None if obj is None else _decode_thread_obj(
            obj, lineno, diags, known, tag_sets)
        if record is None:
            continue
        if record.thread_id in seen_threads:
            diags.append(f"duplicate thread_id {record.thread_id} at line {lineno}; skipped")
            continue
        seen_threads.add(record.thread_id)
        threads.append(record)
    _check_corrupt(total, total - len(threads))
    return threads, diags


def _decode_thread_obj(obj: dict, lineno: int, diags: list[str],
                       known: dict[tuple, UserRef],
                       tag_sets: dict[tuple[str, ...], tuple[str, ...]],
                       ) -> ThreadRecord | None:
    thread_id = obj.get("thread_id")
    if not _is_id(thread_id):
        diags.append(f"missing thread_id at line {lineno}")
        return None
    author = _decode_user(obj.get("author"), lineno, diags, known)
    if author is None:
        return None
    if "published_at" not in obj:
        diags.append(f"missing published_at at line {lineno}")
        return None
    try:
        published_at = parse_timestamp(obj["published_at"])
    except (ValueError, TypeError):
        diags.append(f"invalid published_at at line {lineno}")
        return None

    title = obj.get("title", "")
    description = obj.get("description", "")
    tags = obj.get("tags", [])
    if not isinstance(title, str) or not isinstance(description, str):
        diags.append(f"invalid title/description at line {lineno}")
        return None
    # the parse's threads share one tuple of interned strings per tag set,
    # and a list found in that table is a list of strings
    try:
        shared = tag_sets.get(tuple(tags)) if isinstance(tags, list) else None
    except TypeError:  # an unhashable tag, which is never a string
        shared = None
    if shared is None:
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            diags.append(f"invalid tags at line {lineno}")
            return None
        shared = tag_sets[tuple(tags)] = tuple(map(sys.intern, tags))

    comments = obj.get("comments", [])
    if not isinstance(comments, list):
        diags.append(f"invalid comments at line {lineno}")
        return None
    decoded = [comment for idx, c in enumerate(comments) if (comment := _decode_comment(
        c, idx, lineno, diags, known, "; comment skipped")) is not None]
    return ThreadRecord(thread_id, title, description, published_at, shared, author,
                        _finish_comments(thread_id, published_at, decoded, diags))


def _decode_comment(c: object, idx: int, lineno: int, diags: list[str],
                    known: dict[tuple, UserRef], skipped: str,
                    ) -> tuple[str, str, datetime, UserRef, int] | None:
    """Comment ``idx`` of the record at ``lineno`` as the tuple
    ``_finish_comments`` takes, or None when it is unusable.  ``skipped``
    ends the diagnostics of the comment's own fields."""
    comment_id = c.get("comment_id") if isinstance(c, dict) else None
    if not _is_id(comment_id):
        diags.append(f"missing comment_id at line {lineno} (comment {idx}){skipped}")
        return None
    author = _decode_user(c.get("author"), lineno, diags, known, comment_id)
    if author is None:
        return None
    try:
        created_at = parse_timestamp(c.get("created_at"))
    except (ValueError, TypeError):
        diags.append(f"invalid created_at at {_at(lineno, comment_id)}{skipped}")
        return None
    text = c.get("text", "")
    if not isinstance(text, str):
        diags.append(f"invalid text at {_at(lineno, comment_id)}{skipped}")
        return None
    return comment_id, text, created_at, author, lineno


CSV_COLUMNS = [
    "thread_id", "title", "description", "published_at", "tags",
    "author_id", "author_role", "author_gender",
    "comment_id", "comment_text", "comment_created_at",
    "comment_author_id", "comment_author_role", "comment_author_gender",
]


def _csv_user(row: dict[str, str], prefix: str) -> dict:
    """The author object of a CSV row's ``{prefix}_id``, ``_role`` and
    ``_gender`` cells: a "0" or "1" gender cell is that number, and an
    empty role or gender cell is an absent value."""
    gender = row[f"{prefix}_gender"].strip()
    return {"user_id": row[f"{prefix}_id"].strip(),
            "role": row[f"{prefix}_role"] or None,
            "gender": int(gender) if gender in ("0", "1") else (gender or None)}


def _csv_rows(stream: IO[str]) -> Iterable[tuple[int, dict[str, str]]]:
    """(line number, row) for each row of a CSV log whose header names
    every one of ``CSV_COLUMNS``.  Cells missing from a short row read
    as empty.  A row the ``csv`` module cannot read, such as one with a
    cell over its field size limit, is fatal and names its first line."""
    reader = csv.DictReader(stream, restval="")
    try:
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise CorruptInputError(f"corrupt input: CSV header missing {', '.join(missing)}")
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise CorruptInputError(
            f"corrupt input: {exc} at line {reader.line_num + 1}") from None


def _parse_threads_csv(stream: IO[str]) -> tuple[list[ThreadRecord], list[str]]:
    """Flat CSV importer: the columns of ``CSV_COLUMNS``, in any order.

    One row per thread (comment columns empty) and one row per comment
    (comment columns filled, thread columns repeated or empty).  Thread
    and comment cells are decoded as the JSONL fields they stand for,
    with thread_id, comment_id, user ids, genders and each tag stripped
    of whitespace; gender cells read "0", "1", "unknown" or empty.
    Multiple tags are separated by "|" inside the tags cell.  A thread's
    row must precede its comment rows; a second row for a thread, or a
    comment row for a thread not yet seen, is malformed.  Every
    diagnostic names its own row's line, comment diagnostics carry no
    "; comment skipped", and each unusable comment row counts as a
    malformed record.
    """
    diags: list[str] = []
    known: dict[tuple, UserRef] = {}
    tag_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
    total = 0
    malformed = 0
    heads: dict[str, tuple[ThreadRecord, list]] = {}
    for lineno, row in _csv_rows(stream):
        total += 1
        thread_id = row["thread_id"].strip()
        comment_id = row["comment_id"].strip()
        if not thread_id:
            diags.append(f"missing thread_id at line {lineno}")
        elif not comment_id and thread_id in heads:
            diags.append(f"duplicate thread_id {thread_id} at line {lineno}; skipped")
        elif not comment_id:
            tags = [t.strip() for t in row["tags"].split("|") if t.strip()]
            head = _decode_thread_obj(
                {"thread_id": thread_id, "title": row["title"],
                 "description": row["description"], "tags": tags,
                 "published_at": row["published_at"], "author": _csv_user(row, "author")},
                lineno, diags, known, tag_sets)
            if head is not None:
                heads[thread_id] = (head, [])
                continue
        elif thread_id not in heads:
            diags.append(f"comment for unknown thread {thread_id} at line {lineno}; skipped")
        else:
            pending = heads[thread_id][1]
            comment = _decode_comment(
                {"comment_id": comment_id, "text": row["comment_text"],
                 "created_at": row["comment_created_at"],
                 "author": _csv_user(row, "comment_author")},
                len(pending), lineno, diags, known, "")
            if comment is not None:
                pending.append(comment)
                continue
        malformed += 1
    _check_corrupt(total, malformed)
    return [replace(head, comments=_finish_comments(
                thread_id, head.published_at, pending, diags))
            for thread_id, (head, pending) in heads.items()], diags


# ---------------------------------------------------------------------------
# ratings parsing

def parse_ratings(source: str | Path | IO[str]) -> tuple[list[RatingEvent], list[str]]:
    """Parse like/dislike events; duplicates per (rater, target) collapse
    to the last occurrence and value 0 ("no opinion") is skipped.  An
    event holds its line's rater id; the rater's role and gender come
    from the thread log in ``build_corpus``."""
    with open_text(source) as stream:
        diags: list[str] = []
        total = 0
        malformed = 0
        events: dict[tuple[str, str], RatingEvent] = {}
        for lineno, obj in _jsonl_objects(stream, diags):
            total += 1
            if obj is None:
                malformed += 1
                continue
            rater_id = obj.get("rater_id")
            target_id = obj.get("target_id")
            value = obj.get("value")
            if not _is_id(rater_id):
                diags.append(f"missing rater_id at line {lineno}")
                malformed += 1
                continue
            if not _is_id(target_id):
                diags.append(f"missing target_id at line {lineno}")
                malformed += 1
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value not in (-1, 0, 1):
                diags.append(f"invalid rating value {value!r} at line {lineno}")
                malformed += 1
                continue
            if value == 0:
                diags.append(f"rating value 0 (no opinion) at line {lineno}; skipped")
                continue
            # interned, so the events of one rater share a string
            events[(rater_id, target_id)] = RatingEvent(sys.intern(rater_id), target_id, value)
        _check_corrupt(total, malformed)
        return list(events.values()), diags


# ---------------------------------------------------------------------------
# corpus assembly

def _merge_attrs(attrs: dict[str, tuple[Role, Gender]], ref: UserRef,
                 diags: list[str]) -> bool:
    """Field-wise merge: the first known role/gender for a user_id wins;
    later conflicting known values are reported and ignored.  True when
    the merge wrote no diagnostic: every known field of ``ref`` is then
    the kept one, so merging ``ref`` again would change nothing."""
    role, gender = attrs.get(ref.user_id, (Role.unknown, Gender.unknown))
    clean = True
    if ref.role is not Role.unknown:
        if role is Role.unknown:
            role = ref.role
        elif role is not ref.role:
            diags.append(
                f"conflicting role for {ref.user_id}: keeping {role.value},"
                f" saw {ref.role.value}"
            )
            clean = False
    if ref.gender is not Gender.unknown:
        if gender is Gender.unknown:
            gender = ref.gender
        elif gender is not ref.gender:
            diags.append(
                f"conflicting gender for {ref.user_id}: keeping {gender.value},"
                f" saw {ref.gender.value}"
            )
            clean = False
    attrs[ref.user_id] = (role, gender)
    return clean


def _merged_users(threads: list[ThreadRecord], ratings: list[RatingEvent],
                  diags: list[str]) -> tuple[UserRef, ...]:
    """One UserRef per author and rater, sorted by user_id, holding the
    merged role and gender; a rater who never posts has unknown role and
    gender.  Refs merge in record order (each thread's author, then its
    commenters), and a ref object is merged again only where its earlier
    merges reported a conflict, so each conflict is reported at every
    occurrence."""
    attrs: dict[str, tuple[Role, Gender]] = {}
    merged: set[int] = set()  # ids of refs merged without a diagnostic
    for thread in threads:
        for ref in (thread.author, *[c.author for c in thread.comments]):
            if id(ref) not in merged and _merge_attrs(attrs, ref, diags):
                merged.add(id(ref))
    unknown = (Role.unknown, Gender.unknown)
    for event in ratings:
        attrs.setdefault(event.rater_id, unknown)
    return tuple(UserRef(user_id, role, gender)
                 for user_id, (role, gender) in sorted(attrs.items()))


def build_corpus(
    threads: Iterable[ThreadRecord], ratings: Iterable[RatingEvent] = ()
) -> tuple[Corpus, list[str]]:
    """Assemble validated records into a Corpus.

    Each author and rater becomes one user of ``Corpus.users`` holding
    the merged role and gender (see ``_merged_users``).  The threads are
    kept as their parser built them, with the refs it gave them.  Ratings
    whose target is not a known message are dropped with a diagnostic,
    and the others are kept as they are.  Zero valid threads is fatal.
    """
    threads = list(threads)
    ratings = list(ratings)
    if not threads:
        raise CorpusError("no valid threads; cannot build corpus")

    diags: list[str] = []
    users = _merged_users(threads, ratings, diags)
    # a dict: for M's 79,478 ids its table takes 1.9 MB, a set's 4.2 MB
    message_ids: dict[str, None] = {}
    duplicate = ("duplicate message id {} in thread {}; {} kept,"
                 " rating targets resolve to the first occurrence").format
    for thread in threads:
        if thread.thread_id in message_ids:
            diags.append(duplicate(thread.thread_id, thread.thread_id, "thread"))
        message_ids[thread.thread_id] = None
        for c in thread.comments:
            if c.comment_id in message_ids:
                diags.append(duplicate(c.comment_id, thread.thread_id, "comment"))
            message_ids[c.comment_id] = None

    kept_ratings = []
    for event in ratings:
        if event.target_message_id in message_ids:
            kept_ratings.append(event)
        else:
            diags.append(f"rating by {event.rater_id} targets unknown message"
                         f" {event.target_message_id}; dropped")

    corpus = Corpus(
        users=users,
        user_index={ref.user_id: i for i, ref in enumerate(users)},
        threads=tuple(threads),
        ratings=tuple(kept_ratings),
    )
    return corpus, diags


# ---------------------------------------------------------------------------
# windowing

def _month_start(dt: datetime) -> datetime:
    return datetime(dt.year, dt.month, 1, tzinfo=UTC)


def _next_month(dt: datetime) -> datetime:
    """The first of the month after ``dt``; past the year 9999 an
    OverflowError, as date arithmetic raises for the other lengths."""
    if dt.month == 12:
        if dt.year == MAXYEAR:
            raise OverflowError("date value out of range")
        return datetime(dt.year + 1, 1, 1, tzinfo=UTC)
    return datetime(dt.year, dt.month + 1, 1, tzinfo=UTC)


def _grid_start(first: datetime, cfg: WindowConfig) -> datetime:
    if cfg.length == "month":
        return _month_start(first)
    day = first.astimezone(UTC).replace(hour=0, minute=0, second=0, microsecond=0)
    return day - timedelta(days=day.weekday()) if cfg.length == "week" else day


def window_partition(corpus: Corpus, cfg: WindowConfig) -> list[WindowSlice]:
    """Tile [min published_at, max published_at] into disjoint contiguous
    windows; windows with no threads are kept so gaps stay visible."""
    times = [t.published_at for t in corpus.threads]
    first, last = min(times), max(times)

    bounds: list[tuple[datetime, datetime]] = []
    start = _grid_start(first, cfg)
    while start <= last:
        end = _next_month(start) if cfg.length == "month" else (
            start + timedelta(days=7 if cfg.length == "week" else (cfg.days or 1))
        )
        bounds.append((start, end))
        start = end

    starts = [lo for lo, _hi in bounds]
    by_window: list[list[ThreadRecord]] = [[] for _ in bounds]
    for thread in corpus.threads:
        by_window[bisect_right(starts, thread.published_at) - 1].append(thread)
    return [
        WindowSlice(index=idx, start=lo, end=hi, threads=tuple(by_window[idx]))
        for idx, (lo, hi) in enumerate(bounds)
    ]


def whole_span_slice(corpus: Corpus) -> WindowSlice:
    """The corpus as a single window covering its whole span; a
    CorpusError when its end would fall past the year 9999."""
    times = [t.published_at for t in corpus.threads]
    try:
        end = max(times) + timedelta(seconds=1)
    except OverflowError:
        raise CorpusError(f"the whole span ends past the year 9999: a thread is"
                          f" published at {format_timestamp(max(times))}") from None
    return WindowSlice(index=0, start=min(times), end=end, threads=corpus.threads)


# ---------------------------------------------------------------------------
# canonical serialization (round-trips through parse_thread_log/parse_ratings)

def user_to_dict(ref: UserRef) -> dict:
    return {"user_id": ref.user_id, "role": ref.role.value,
            "gender": ref.gender.value}


def thread_to_dict(thread: ThreadRecord) -> dict:
    return {
        "thread_id": thread.thread_id,
        "title": thread.title,
        "description": thread.description,
        "published_at": format_timestamp(thread.published_at),
        "tags": list(thread.tags),
        "author": user_to_dict(thread.author),
        "comments": [
            {
                "comment_id": c.comment_id,
                "text": c.text,
                "created_at": format_timestamp(c.created_at),
                "author": user_to_dict(c.author),
            }
            for c in thread.comments
        ],
    }


def rating_to_dict(event: RatingEvent) -> dict:
    return {"rater_id": event.rater_id,
            "target_id": event.target_message_id,
            "value": event.value}


def write_threads_jsonl(threads: Iterable[ThreadRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for thread in threads:
            out.write(json.dumps(thread_to_dict(thread), sort_keys=True,
                                 ensure_ascii=False))
            out.write("\n")


def write_ratings_jsonl(ratings: Iterable[RatingEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for event in ratings:
            out.write(json.dumps(rating_to_dict(event), sort_keys=True,
                                 ensure_ascii=False))
            out.write("\n")
