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
Any drift in the bytes the pipeline writes fails here without a second
checkout to diff against.  A change that alters output on purpose
records the new digests in those files and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from leadnet import cli

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_S.json").read_text())
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
