"""Reference CSV importer: the flat-CSV thread log parser as it stood
before it was rewritten on top of the JSONL decoders.

Kept unchanged as the oracle of ``test_csv_import.py``.  It decodes
authors, timestamps and comments itself, so the rewritten importer is
compared against independent code, record for record, ref object for
ref object and diagnostic for diagnostic.  It fails with
AttributeError on a row shorter than its header and with ``csv.Error``
on an oversized cell, so the comparison feeds it neither.
"""

from __future__ import annotations

import csv
from datetime import datetime
from typing import IO

from leadnet.ingest import (
    CSV_COLUMNS,
    CommentRecord,
    CorruptInputError,
    Gender,
    Role,
    ThreadRecord,
    UserRef,
    decode_gender,
    decode_role,
    parse_timestamp,
)


def _decode_user(obj: object, lineno: int, diags: list[str], where: str,
                 known: dict[tuple, UserRef]) -> UserRef | None:
    if not isinstance(obj, dict) or not obj.get("user_id"):
        diags.append(f"missing author_id at line {lineno}{where}")
        return None
    user_id = obj["user_id"]
    if not isinstance(user_id, str):
        diags.append(f"invalid author_id at line {lineno}{where}")
        return None
    raw_role, raw_gender = obj.get("role"), obj.get("gender")
    raw: tuple | None = (user_id, raw_role, raw_gender)
    try:
        ref = known.get(raw)
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


def _csv_user(user_id: object, role: object, gender_text: object,
              lineno: int, diags: list[str], where: str,
              known: dict[tuple, UserRef]) -> UserRef | None:
    gender: object = gender_text
    if isinstance(gender_text, str):
        g = gender_text.strip()
        gender = int(g) if g in ("0", "1") else (g or None)
    return _decode_user({"user_id": user_id, "role": role or None, "gender": gender},
                        lineno, diags, where, known)


def parse_threads_csv(stream: IO[str]) -> tuple[list[ThreadRecord], list[str]]:
    diags: list[str] = []
    known: dict[tuple, UserRef] = {}
    reader = csv.DictReader(stream)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise CorruptInputError(f"corrupt input: CSV header missing {', '.join(missing)}")

    total = 0
    malformed = 0
    order: list[str] = []
    heads: dict[str, dict] = {}
    pending: dict[str, list[tuple[str, str, datetime, UserRef, int]]] = {}

    for row in reader:
        lineno = reader.line_num
        total += 1
        thread_id = (row.get("thread_id") or "").strip()
        if not thread_id:
            diags.append(f"missing thread_id at line {lineno}")
            malformed += 1
            continue
        if not (row.get("comment_id") or "").strip():
            if thread_id in heads:
                diags.append(f"duplicate thread_id {thread_id} at line {lineno}; skipped")
                malformed += 1
                continue
            author = _csv_user(row.get("author_id", "").strip(), row.get("author_role"),
                               row.get("author_gender"), lineno, diags, "", known)
            if author is None:
                malformed += 1
                continue
            try:
                published_at = parse_timestamp(row.get("published_at", ""))
            except (ValueError, TypeError):
                diags.append(f"invalid published_at at line {lineno}")
                malformed += 1
                continue
            tags = tuple(t.strip() for t in (row.get("tags") or "").split("|") if t.strip())
            heads[thread_id] = {
                "published_at": published_at,
                "title": row.get("title") or "",
                "description": row.get("description") or "",
                "tags": tags,
                "author": author,
            }
            pending[thread_id] = []
            order.append(thread_id)
        else:
            comment_id = row["comment_id"].strip()
            where = f" (comment {comment_id})"
            if thread_id not in heads:
                diags.append(f"comment for unknown thread {thread_id} at line {lineno}; skipped")
                malformed += 1
                continue
            author = _csv_user(row.get("comment_author_id", "").strip(),
                               row.get("comment_author_role"),
                               row.get("comment_author_gender"), lineno, diags, where,
                               known)
            if author is None:
                malformed += 1
                continue
            try:
                created_at = parse_timestamp(row.get("comment_created_at", ""))
            except (ValueError, TypeError):
                diags.append(f"invalid created_at at line {lineno}{where}")
                malformed += 1
                continue
            pending[thread_id].append(
                (comment_id, row.get("comment_text") or "", created_at, author, lineno)
            )

    if total and malformed * 2 > total:
        raise CorruptInputError(f"corrupt input: {malformed} of {total} records malformed")

    threads = []
    for thread_id in order:
        head = heads[thread_id]
        threads.append(ThreadRecord(
            thread_id=thread_id,
            title=head["title"],
            description=head["description"],
            published_at=head["published_at"],
            tags=head["tags"],
            author=head["author"],
            comments=_finish_comments(thread_id, head["published_at"],
                                      pending[thread_id], diags),
        ))
    return threads, diags
