"""The benchmark's own checker on ``all --window week`` of corpus S.

``perfbench/checks.py`` rebuilds every artifact from the raw JSONL
inputs without importing ``leadnet``.  Running it here makes an output
tree that the benchmark would call incorrect fail the test suite first.
It is imported from its file and left as it is.  Daily windows are not
checked: ``check_topics`` expects S's two planted streams, and S's
daily windows split them into twelve.
"""

import importlib.util
import sys
from pathlib import Path

from leadnet import cli

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_weekly_tree_of_corpus_s_passes_check_tree(corpus_s, tmp_path):
    checks = load_checks()
    out = tmp_path / "all"
    inputs = [a for flag, name in [("--input", "threads.jsonl"),
                                   ("--ratings", "ratings.jsonl"),
                                   ("--lexicon", "lexicon.tsv"),
                                   ("--stopwords", "stopwords.txt")]
              for a in (flag, str(corpus_s / name))]
    assert cli.main(["all", "--out", str(out), "--window", "week", *inputs]) == 0
    checks.check_tree(out, checks.Raw(corpus_s), "week")
