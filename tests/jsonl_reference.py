"""Reference JSONL thread-log parser: the JSON Lines decode path as it
stood before it was made to look up each distinct ref and tag set first.

Kept as the oracle of ``test_decode_property.py``.  It validates every
author object, timestamp and tag list in full before any table lookup
and formats each comment's location text up front, so the package's
parser is compared against code that takes no shortcut, record for
record, ref object for ref object and diagnostic for diagnostic.  Its
ids follow the package's rule, by its own test (``_valid_id``).  It
reads a text stream, not a path.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from typing import IO, Iterable

from leadnet.ingest import (
    CommentRecord,
    CorruptInputError,
    Gender,
    Role,
    ThreadRecord,
    UserRef,
    decode_gender,
    decode_role,
)

UTC = timezone.utc


def parse_timestamp(text: str) -> datetime:
    if not isinstance(text, str) or not text:
        raise ValueError("timestamp must be a non-empty string")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is UTC and not dt.microsecond:
        return dt
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    try:
        return dt.astimezone(UTC).replace(microsecond=0)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def _valid_id(value: object) -> bool:
    """A non-empty string that UTF-8 can encode: no lone surrogate."""
    if not value or not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _decode_user(obj: object, lineno: int, diags: list[str], where: str,
                 known: dict[tuple, UserRef]) -> UserRef | None:
    if not isinstance(obj, dict) or not obj.get("user_id"):
        diags.append(f"missing author_id at line {lineno}{where}")
        return None
    user_id = obj["user_id"]
    if not _valid_id(user_id):
        diags.append(f"invalid author_id at line {lineno}{where}")
        return None
    raw_role, raw_gender = obj.get("role"), obj.get("gender")
    raw: tuple | None = (user_id, raw_role, raw_gender)
    try:
        ref = None if isinstance(raw_gender, (bool, float)) else known.get(raw)
    except TypeError:
        raw, ref = None, None
    if ref is not None:
        return ref
    gender = decode_gender(raw_gender)
    if gender is None:
        diags.append(f"unrecognized gender {raw_gender!r} at line {lineno}{where}")
        gender, raw = Gender.unknown, None
    role = decode_role(raw_role)
    if role is None:
        diags.append(f"unrecognized role {raw_role!r} at line {lineno}{where}")
        role, raw = Role.unknown, None
    ref = known.setdefault((user_id, role, gender), UserRef(user_id, role, gender))
    if raw is not None:
        known[raw] = ref
    return ref


def _finish_comments(
    thread_id: str,
    published_at: datetime,
    raw_comments: list[tuple[str, str, datetime, UserRef, int]],
    diags: list[str],
) -> tuple[CommentRecord, ...]:
    clamped: list[tuple[str, str, datetime, UserRef]] = []
    seen_ids: set[str] = set()
    for comment_id, text, created_at, author, lineno in raw_comments:
        if comment_id in seen_ids:
            diags.append(f"duplicate comment_id {comment_id} at line {lineno}; skipped")
            continue
        seen_ids.add(comment_id)
        if created_at < published_at:
            diags.append(
                f"comment {comment_id} predates thread {thread_id} at line {lineno};"
                " clamped to published_at"
            )
            created_at = published_at
        clamped.append((comment_id, text, created_at, author))
    clamped.sort(key=lambda c: (c[2], c[0]))
    return tuple(
        CommentRecord(comment_id=cid, text=text, created_at=at, author=author)
        for cid, text, at, author in clamped
    )


def _jsonl_objects(stream: IO[str], diags: list[str]) -> Iterable[tuple[int, dict | None]]:
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            diags.append(f"invalid JSON at line {lineno}")
            yield lineno, None
            continue
        if not isinstance(obj, dict):
            diags.append(f"record is not an object at line {lineno}")
            obj = None
        yield lineno, obj


def parse_threads_jsonl(stream: IO[str]) -> tuple[list[ThreadRecord], list[str]]:
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
    malformed = total - len(threads)
    if total and malformed * 2 > total:
        raise CorruptInputError(f"corrupt input: {malformed} of {total} records malformed")
    return threads, diags


def _decode_thread_obj(obj: dict, lineno: int, diags: list[str],
                       known: dict[tuple, UserRef],
                       tag_sets: dict[tuple[str, ...], tuple[str, ...]],
                       ) -> ThreadRecord | None:
    thread_id = obj.get("thread_id")
    if not _valid_id(thread_id):
        diags.append(f"missing thread_id at line {lineno}")
        return None
    author = _decode_user(obj.get("author"), lineno, diags, "", known)
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
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        diags.append(f"invalid tags at line {lineno}")
        return None

    comments = obj.get("comments", [])
    if not isinstance(comments, list):
        diags.append(f"invalid comments at line {lineno}")
        return None
    decoded = (_decode_comment(c, idx, lineno, diags, known, "; comment skipped")
               for idx, c in enumerate(comments))
    tags = tag_sets.setdefault(tuple(tags), tuple(map(sys.intern, tags)))
    return ThreadRecord(
        thread_id=thread_id,
        title=title,
        description=description,
        published_at=published_at,
        tags=tags,
        author=author,
        comments=_finish_comments(thread_id, published_at,
                                  [c for c in decoded if c is not None], diags),
    )


def _decode_comment(c: object, idx: int, lineno: int, diags: list[str],
                    known: dict[tuple, UserRef], skipped: str,
                    ) -> tuple[str, str, datetime, UserRef, int] | None:
    comment_id = c.get("comment_id") if isinstance(c, dict) else None
    if not _valid_id(comment_id):
        diags.append(f"missing comment_id at line {lineno} (comment {idx}){skipped}")
        return None
    where = f" (comment {comment_id})"
    author = _decode_user(c.get("author"), lineno, diags, where, known)
    if author is None:
        return None
    try:
        created_at = parse_timestamp(c.get("created_at"))
    except (ValueError, TypeError):
        diags.append(f"invalid created_at at line {lineno}{where}{skipped}")
        return None
    text = c.get("text", "")
    if not isinstance(text, str):
        diags.append(f"invalid text at line {lineno}{where}{skipped}")
        return None
    return comment_id, text, created_at, author, lineno
