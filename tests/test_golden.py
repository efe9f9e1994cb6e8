"""Golden digests: every artifact of ``all`` on corpus S, byte for byte.

Corpus S is ``synth --n-users 120 --n-threads 500 --seed 42``.  The
pinned sha256 of each artifact lives in ``golden_S.json``, keyed by
window mode, so any drift in the bytes the pipeline writes fails here
without a second checkout to diff against.  A change that alters output
on purpose records the new digests in that file and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from leadnet import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_S.json").read_text())


@pytest.fixture(scope="module")
def corpus_s(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_s")
    assert cli.main(["synth", "--out", str(out), "--n-users", "120",
                     "--n-threads", "500", "--seed", "42"]) == 0
    return out


@pytest.mark.parametrize("window", sorted(GOLDEN))
def test_all_artifacts_match_pinned_digests(corpus_s, tmp_path, window):
    out = tmp_path / "all"
    argv = ["all", "--out", out, "--window", window]
    for flag, name in (("--input", "threads.jsonl"),
                       ("--ratings", "ratings.jsonl"),
                       ("--lexicon", "lexicon.tsv"),
                       ("--stopwords", "stopwords.txt")):
        argv += [flag, corpus_s / name]
    assert cli.main([str(a) for a in argv]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert sorted(digests) == sorted(GOLDEN[window])
    drifted = [name for name, digest in digests.items()
               if digest != GOLDEN[window][name]]
    assert drifted == []
