"""The package runs on numpy alone: neither importing the CLI nor a
whole ``all`` run loads a scipy module.  Each check runs in a fresh
interpreter, so that modules other tests import cannot hide a load."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy():
    done = python("-c", "import sys, leadnet.cli; print(sorted("
                  "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_all_on_corpus_s_loads_no_scipy(corpus_s, tmp_path):
    # -X importtime logs every module the process imports to stderr
    done = python(
        "-X", "importtime", "-m", "leadnet.cli", "all",
        "--input", str(corpus_s / "threads.jsonl"),
        "--ratings", str(corpus_s / "ratings.jsonl"),
        "--lexicon", str(corpus_s / "lexicon.tsv"),
        "--stopwords", str(corpus_s / "stopwords.txt"),
        "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "leadnet.topics" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
