"""Mutation probe: does the suite fail when the answer is wrong?

Each mutant below changes one piece of text in one module of
``src/leadnet``.  The probe copies ``src/`` and ``tests/`` into a
temporary directory, applies one mutant to the copy, and runs pytest
there on the test files the mutant names, stopping at the first
failure.  A mutant is caught when that run fails, and survives when it
passes.  An equivalent mutant computes what the real code computes, so
no test can catch it; it is listed with the reason.

The file name keeps the probe out of pytest's collection.  It is run by
hand, one pytest run per mutant (a few seconds to a minute each):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants
    python tests/mutants.py --list     # the table only

It exits 1 when a mutant that is not listed as equivalent survives,
when a mutant's text no longer occurs exactly once in its module, or
when pytest cannot run a mutant's test files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/leadnet
    old: str  # must occur exactly once in the module
    new: str
    tests: tuple[str, ...]  # test files under tests/
    equivalent: str = ""  # why no test can catch it, if none can


MULTIPLEX_TESTS = ("test_multiplex.py", "test_window_events.py", "test_ingest.py")
ANALYTICS_TESTS = ("test_analytics.py", "test_analytics_property.py")
TOPIC_TESTS = ("test_topics.py", "test_streams_property.py")

MUTANTS = (
    Mutant("mid-word mention", "multiplex.py",
           r'_MENTION = re.compile(r"(?<!\S)@(\S+)")',
           r'_MENTION = re.compile(r"@(\S+)")', MULTIPLEX_TESTS),
    Mutant("self-mention of a first-time commenter", "multiplex.py",
           "named = _mentioned(c.text, active)",
           "named = _mentioned(c.text, {**active, c.author.user_id: i})",
           MULTIPLEX_TESTS),
    Mutant("trailing punctuation without }", "multiplex.py",
           "_TRAILING_PUNCT = \".,;:!?)('\\\"`>]}\"",
           "_TRAILING_PUNCT = \".,;:!?)('\\\"`>]\"", MULTIPLEX_TESTS),
    Mutant("uniform credibility fallback", "multiplex.py",
           "uniform = 1.0 / np.bincount(src, minlength=n)[src]",
           "uniform = np.full(src.size, 1.0 / n)", MULTIPLEX_TESTS),
    Mutant("top-k tie to the larger id", "analytics.py",
           "np.lexsort((idx, -scores[idx]))",
           "np.lexsort((-idx, -scores[idx]))", ANALYTICS_TESTS),
    Mutant("top-k decile rounded up", "analytics.py",
           "max(1, idx.size // 10)", "max(1, (idx.size + 9) // 10)",
           ANALYTICS_TESTS),
    Mutant("latency rows of replied groups only", "analytics.py",
           "for g, name in enumerate(groups) if threads[g]]",
           "for g, name in enumerate(groups) if n_replied[g]]",
           ANALYTICS_TESTS),
    Mutant("a bad days:N window spec keeps int's message", "ingest.py",
           "days = int(text[len(\"days:\"):])\n            except ValueError:",
           "days = int(text[len(\"days:\"):])\n            except TypeError:",
           ("test_cli.py",)),
    Mutant("comments ordered by time alone", "ingest.py",
           "clamped.sort(key=itemgetter(2, 0))",
           "clamped.sort(key=itemgetter(2))", ("test_ingest.py",)),
    Mutant("edge batch skips a row", "export.py",
           "hi = lo + _CHUNK", "hi = lo + _CHUNK - 1", ("test_export.py",)),
    Mutant("dot ids without backslash escaping", "export.py",
           """text.replace("\\\\", "\\\\\\\\").replace('"', '\\\\"')""",
           """text.replace('"', '\\\\"')""", ("test_export.py",)),
    Mutant("merge takes the last tied pair", "topics.py",
           "sim > best[0]", "sim >= best[0]", TOPIC_TESTS),
    Mutant("merge needs sim above theta_v", "topics.py",
           "sim >= theta_v and", "sim > theta_v and", TOPIC_TESTS),
    Mutant("power iteration stops at residual <= tol", "rank.py",
           "if residual < tol:", "if residual <= tol:", ("test_rank.py",),
           equivalent="a residual exactly equal to tol, a float sum of"
                      " absolute differences, does not occur in practice"),
    Mutant("chaining against every stream ever made", "topics.py",
           "grown = grown_now", "grown.update(grown_now)", TOPIC_TESTS),
    Mutant("lexicon line without a concept id", "topics.py",
           "if not surface or not parts[1].strip():", "if not surface:",
           TOPIC_TESTS),
    Mutant("lexicon line without a surface token", "topics.py",
           "if not surface or not parts[1].strip():",
           "if not parts[1].strip():", TOPIC_TESTS),
    Mutant("surfaces indexed shortest first", "topics.py",
           "key=len, reverse=True", "key=len", TOPIC_TESTS),
    Mutant("each n-gram its own neighbor", "topics.py",
           "neighbors.discard(gram)", "neighbors.add(gram)", TOPIC_TESTS),
    Mutant("leadership from the first layer", "rank.py",
           "leadership=ranked[params.layer_order[-1]]",
           "leadership=ranked[params.layer_order[0]]", ("test_rank.py",)),
    Mutant("synth lines without sorted keys", "synth.py",
           "json.JSONEncoder(sort_keys=True, ensure_ascii=False)",
           "json.JSONEncoder(ensure_ascii=False)", ("test_golden.py",)),
    Mutant("synth rater may rate their own message", "synth.py",
           "rater_at = _pick_other(rng, spec.n_users, message_author_at)",
           "rater_at = rng.randrange(spec.n_users)", ("test_synth.py",)),
    Mutant("synth tags written as a string", "synth.py",
           '"tags": [pool.name],', '"tags": pool.name,', ("test_synth.py",)),
    Mutant("synth comment time without its reply gap", "synth.py",
           "published_at + timedelta(seconds=int(at))", "published_at",
           ("test_synth.py",)),
    Mutant("run context keeps only the last artifact", "cli.py",
           "self.artifacts[name] = None", "self.artifacts = {name: None}",
           ("test_cli.py",)),
)


def _ignore(_dir: str, names: list[str]) -> set[str]:
    return {n for n in names if n in ("__pycache__", ".hypothesis")}


def run(mutant: Mutant) -> str:
    """'caught', 'survived', 'stale' when the text to replace does not
    occur exactly once, or 'error' when pytest could not run the tests."""
    with tempfile.TemporaryDirectory(prefix="leadnet-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=_ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "leadnet" / mutant.module
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in mutant.tests)],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # pytest exits 1 when a test failed; other codes mean it could not run
        return {0: "survived", 1: "caught"}.get(done.returncode, "error")


def main(argv: list[str]) -> int:
    names = [arg for arg in argv if arg != "--list"]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = "listed" if "--list" in argv else run(mutant)
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{outcome:8}  {mutant.module:12}  {mutant.name}{note}", flush=True)
        bad += outcome in ("stale", "error") or (
            outcome == "survived" and not mutant.equivalent)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
