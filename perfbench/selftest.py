"""Self-test of the output checks: each checker must pass a good tree and
reject a copy of it with one deliberate fault.

    python3 perfbench/selftest.py

It writes a small corpus (120 users, 500 threads, seed 42) and one
`leadnet all --window week` tree under .perfbench_work/, and exits 1 if
any corrupted copy is accepted.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS, CheckError, Raw  # noqa: E402
from run import ROOT, Bench  # noqa: E402


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _rankings(edit):
    return lambda tree: _edit_csv(tree / "rankings_w000.csv", edit)


def nudge_value(rows):
    rows[1][4] = repr(float(rows[1][4]) + 1e-6)


def swap_empowerment(rows):
    a, b = next((i, j) for i in range(1, len(rows))
                for j in range(i + 1, len(rows)) if rows[i][3] != rows[j][3])
    rows[a][3], rows[b][3] = rows[b][3], rows[a][3]


def swap_rows(rows):
    rows[1], rows[2] = rows[2], rows[1]


def swap_brokerage(rows):
    a, b = next((i, j) for i in range(1, len(rows))
                for j in range(i + 1, len(rows)) if rows[i][7] != rows[j][7])
    rows[a][7], rows[b][7] = rows[b][7], rows[a][7]


def change_edge(tree):
    def edit(rows):
        rows[1][2] = repr(float(rows[1][2]) * 1.01)
    _edit_csv(tree / "edges.csv", edit)


def change_homophily(tree):
    def edit(rows):
        row = next(r for r in rows if r[1] == "homophily_p_ww" and r[3])
        row[3] = repr(float(row[3]) + 0.01)
    _edit_csv(tree / "analytics.csv", edit)


def move_topic_member(tree):
    path = tree / "topics.json"
    rows = json.loads(path.read_text("utf-8"))
    first = rows[0]
    other = next(r for r in rows if r["stream_id"] != first["stream_id"])
    first["members"].append(other["members"].pop())
    path.write_text(json.dumps(rows), encoding="utf-8")


def change_input_digest(tree):
    path = tree / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    manifest["inputs"]["ratings.jsonl"] = "0" * 64
    path.write_text(json.dumps(manifest), encoding="utf-8")


def drop_artifact(tree):
    (tree / "graph.dot").unlink()


CORRUPTIONS = [
    ("one ranking value nudged", _rankings(nudge_value), "rankings"),
    ("two users' empowerment swapped", _rankings(swap_empowerment),
     "rankings"),
    ("two ranking rows out of order", _rankings(swap_rows), "rankings"),
    ("two users' brokerage swapped", _rankings(swap_brokerage), "rankings"),
    ("one edge weight changed", change_edge, "edges"),
    ("one homophily rate changed", change_homophily, "analytics"),
    ("one topic member moved to the other pool", move_topic_member, "topics"),
    ("one input digest changed", change_input_digest, "manifest"),
    ("one artifact deleted", drop_artifact, "manifest"),
]


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work, 120.0)
    try:
        corpus, good = work / "corpus", work / "good"
        for args in (["synth", "--out", str(corpus), "--seed", "42"],
                     ["all", "--input", str(corpus / "threads.jsonl"),
                      "--ratings", str(corpus / "ratings.jsonl"),
                      "--lexicon", str(corpus / "lexicon.tsv"),
                      "--stopwords", str(corpus / "stopwords.txt"),
                      "--window", "week", "--out", str(good)]):
            sample = bench.leadnet(args)
            if sample.code != 0:
                print(f"leadnet {args[0]} exited {sample.code}: "
                      f"{sample.stderr.strip()[-300:]}", file=sys.stderr)
                return 1
        raw = Raw(corpus)
        ok = True
        for name, check in CHECKS.items():
            try:
                check(good, raw, "week")
                print(f"pass   {name}: good tree accepted")
            except CheckError as exc:
                print(f"FAIL   {name}: good tree rejected: {exc}")
                ok = False
        for label, corrupt, checker in CORRUPTIONS:
            tree = work / "bad"
            shutil.copytree(good, tree)
            corrupt(tree)
            try:
                CHECKS[checker](tree, raw, "week")
                print(f"FAIL   {checker}: accepted {label}")
                ok = False
            except CheckError as exc:
                print(f"pass   {checker}: rejected {label} ({exc})")
            shutil.rmtree(tree)
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
