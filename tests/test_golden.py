"""Golden digests: every artifact of every command on corpus S, byte for byte.

Corpus S is ``synth --n-users 120 --n-threads 500 --seed 42``, the
``corpus_s`` fixture of ``conftest.py``.  The pinned sha256 of each
artifact of ``all`` lives in ``golden_S.json``, keyed by window mode;
the artifacts of ``synth`` and of each single-stage command live in
``golden_S_commands.json``, keyed by the command line that wrote them.
S's own lexicon has one-token surfaces only, so ``topics`` is also
pinned with ``data/lexicon_multiword.tsv``, whose multiword surfaces
(two of them holding stopwords) share first tokens with one-token ones.
The analytics rules that S never exercises (unknown and conflicting
genders and roles, threads without comments, a clamped comment, an
@-mention, an empty week, a message id held in two windows, raters who
posted nothing) are pinned on ``data/analytics_edges.jsonl``, with the
whole-span graph files of ``all`` and the window summary of ``ingest``.
Corpus M, ``synth --n-users 2000 --n-threads 20000 --seed 7``, the
corpus of the benchmark, is pinned in ``golden_M.json``: its files and
every artifact of ``all --window week`` on it.  One more run of
``all --window week`` on S goes through a separate process with another
hash seed and numpy's SIMD dispatch cut to the host's baseline, and one
more ``synth`` of S through a process with another hash seed, so the
digests hold across processes and vector units, not only within this
one.  Any drift in the bytes the pipeline writes fails here without a
second checkout to diff against.  A change that alters output on purpose
records the new digests in those files and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leadnet import cli

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_S.json").read_text())
GOLDEN_M = json.loads((HERE / "golden_M.json").read_text())
GOLDEN_COMMANDS = json.loads((HERE / "golden_S_commands.json").read_text())
MULTIWORD = HERE / "data" / "lexicon_multiword.tsv"
EDGES = HERE / "data" / "analytics_edges.jsonl"
EDGE_RATINGS = HERE / "data" / "analytics_edges_ratings.jsonl"

# command line (beyond --out and the corpus inputs) -> whether it reads
# the lexicon and stopwords
COMMAND_LINES = {
    "ingest --window week": False,
    "rank": False,
    "analytics": False,
    "topics --stream s0000 --window-index 0": True,
    "export-graph --role manager": False,
}


def corpus_args(corpus_s, with_lexicon=True, lexicon=None):
    """Input flags for S; an absolute ``lexicon`` path replaces S's own."""
    pairs = [("--input", "threads.jsonl"), ("--ratings", "ratings.jsonl")]
    if with_lexicon:
        pairs += [("--lexicon", lexicon or "lexicon.tsv"),
                  ("--stopwords", "stopwords.txt")]
    return [str(a) for flag, name in pairs for a in (flag, corpus_s / name)]


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def assert_pinned(got, pinned):
    assert sorted(got) == sorted(pinned)
    assert [name for name, digest in got.items() if digest != pinned[name]] \
        == []


@pytest.mark.parametrize("window", sorted(GOLDEN))
def test_all_artifacts_match_pinned_digests(corpus_s, tmp_path, window):
    out = tmp_path / "all"
    assert cli.main(["all", "--out", str(out), "--window", window,
                     *corpus_args(corpus_s)]) == 0
    assert_pinned(digests(out), GOLDEN[window])


def test_synth_artifacts_match_pinned_digests(corpus_s):
    assert_pinned(digests(corpus_s), GOLDEN_COMMANDS["synth"])


@pytest.mark.parametrize("line", sorted(COMMAND_LINES))
def test_command_artifacts_match_pinned_digests(corpus_s, tmp_path, line):
    out = tmp_path / "out"
    command, *flags = line.split()
    assert cli.main([command, "--out", str(out), *flags,
                     *corpus_args(corpus_s, COMMAND_LINES[line])]) == 0
    assert_pinned(digests(out), GOLDEN_COMMANDS[line])


@pytest.mark.parametrize("window", ["week", "days:1"])
def test_multiword_topics_match_pinned_digests(corpus_s, tmp_path, window):
    out = tmp_path / "out"
    assert cli.main(["topics", "--out", str(out), "--window", window,
                     *corpus_args(corpus_s, lexicon=MULTIWORD)]) == 0
    assert_pinned(digests(out), GOLDEN_COMMANDS[
        f"topics --window {window} --lexicon {MULTIWORD.name}"])


@pytest.mark.parametrize("flags", ["--window week --top-k 2", "--window days:1"])
def test_edge_case_analytics_match_pinned_digests(tmp_path, flags):
    out = tmp_path / "out"
    assert cli.main(["all", "--out", str(out), *flags.split(),
                     "--input", str(EDGES), "--ratings", str(EDGE_RATINGS)]) == 0
    got = {name: digest for name, digest in digests(out).items()
           if name in ("analytics.csv", "edges.csv", "graph.dot")
           or name.startswith("rankings_w")}
    assert_pinned(got, GOLDEN_COMMANDS[f"all {flags} --input {EDGES.name}"])


def test_edge_case_ingest_matches_pinned_digests(tmp_path):
    # each week's rating count, with a rated message id held in two weeks
    out = tmp_path / "out"
    assert cli.main(["ingest", "--out", str(out), "--window", "week",
                     "--input", str(EDGES), "--ratings", str(EDGE_RATINGS)]) == 0
    assert_pinned(digests(out), GOLDEN_COMMANDS[
        f"ingest --window week --input {EDGES.name}"])


def test_corpus_m_artifacts_match_pinned_digests(tmp_path):
    corpus_m, out = tmp_path / "M", tmp_path / "all"
    assert cli.main(["synth", "--out", str(corpus_m), "--n-users", "2000",
                     "--n-threads", "20000", "--seed", "7"]) == 0
    assert_pinned(digests(corpus_m), GOLDEN_M["synth"])
    assert cli.main(["all", "--out", str(out), "--window", "week",
                     *corpus_args(corpus_m)]) == 0
    assert_pinned(digests(out), GOLDEN_M["all --window week"])


# runs one command line and exits with its code, after checking that
# numpy runs none of the dispatched features named in argv[1]
CHILD = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from leadnet import cli
assert not any(__cpu_features__[f] for f in sys.argv[1].split())
sys.exit(cli.main(sys.argv[2:]))
"""


def child_env(**extra):
    """This process's environment with another hash seed, this package's
    source on the path, and ``extra``."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONHASHSEED": "12345", **extra,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_all_in_another_process_matches_pinned_digests(corpus_s, tmp_path):
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    above_baseline = " ".join(f for f in umath.__cpu_dispatch__
                              if umath.__cpu_features__.get(f))
    out = tmp_path / "all"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, above_baseline, "all", "--out", str(out),
         "--window", "week", *corpus_args(corpus_s)],
        env=child_env(NPY_DISABLE_CPU_FEATURES=above_baseline),
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert_pinned(digests(out), GOLDEN["week"])


def test_synth_in_another_process_matches_pinned_digests(tmp_path):
    out = tmp_path / "S"
    child = subprocess.run(
        [sys.executable, "-m", "leadnet.cli", "synth", "--out", str(out),
         "--n-users", "120", "--n-threads", "500", "--seed", "42"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert_pinned(digests(out), GOLDEN_COMMANDS["synth"])
