"""Property: any combination of option values ends a command cleanly.

Every command run on a tiny corpus, with each option it takes either
left out or set to a value drawn from an edge set, exits 0, 1 or 2; no
other exception escapes, a failed run says ``error:`` and leaves no
output directory behind.  Sizes stay small so no example allocates much.
"""

import contextlib
import io
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from leadnet import cli  # noqa: E402

EDGE = ("nan", "inf", "-inf", "-1", "0", "1", "1e-400", "1e308", "abc", "",
        "days:0", "days:x")

# values that work, per option; each size stays small
GOOD = {
    "format": ("jsonl", "csv"),
    "window": ("week", "month", "days:1", "days:30"),
    "alpha": ("0.85", "0.5,0.85,0.9"),
    "beta": ("0.5", "-2", "-100"),
    "gamma": ("0.5", "-2", "-100"),
    "layer_order": ("credibility,empowerment,collaboration", "empowerment"),
    "tol": ("1e-6", "0.5"),
    "max_iter": ("2", "200"),
    "min_freq": ("2", "30"),
    "theta_v": ("0.2", "0.9"),
    "theta_h": ("0.2", "0.9"),
    "top_k": ("3", "30"),
    "role": ("manager", "manager,director", "wizard"),
    "seed": ("7", "123456789"),
    "jobs": ("2", "4"),
    "window_index": ("2", "99"),
    "stream": ("s0000", "s9999"),
    "n_users": ("2", "30"),
    "n_threads": ("3", "30"),
    "comments_mean": ("0.5", "4"),
    "gender_prior_w": ("0.3", "1.5"),
    "homophily_p_ww": ("0.5", "2"),
    "uplift": ("0.5", "3"),
    "manager_latency_factor": ("0.1", "4"),
    "reply_latency_mean_s": ("1", "86400"),
    "like_rate": ("0.2", "0.9"),
    "dislike_rate": ("0.1", "0.9"),
    "span_days": ("7", "400"),
}

COMMANDS = ("rank", "analytics", "topics", "export-graph", "all", "synth")
PATHS = ("input", "ratings", "lexicon", "stopwords", "out")
RUNS = itertools.count()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny synthetic corpus, and a directory for the runs' outputs."""
    corpus = tmp_path_factory.mktemp("tiny")
    assert cli.main(["synth", "--out", str(corpus), "--n-users", "12",
                     "--n-threads", "30", "--span-days", "28",
                     "--seed", "3"]) == 0
    return corpus, tmp_path_factory.mktemp("runs")


def _value(name):
    """An edge value a third of the time, else one that works."""
    good = st.sampled_from(GOOD[name])
    return st.one_of(good, good, st.sampled_from(EDGE))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    names = [n for n in cli.COMMAND_OPTIONS[command] if n not in PATHS]
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=6))
    return command, [(name, draw(_value(name)), draw(st.booleans()))
                     for name in chosen]


def _argv(command, options, corpus, out):
    argv = [command, "--out", str(out)]
    files = {"input": "threads.jsonl", "ratings": "ratings.jsonl",
             "lexicon": "lexicon.tsv", "stopwords": "stopwords.txt"}
    for name, filename in files.items():
        if name in cli.COMMAND_OPTIONS[command]:
            argv += [cli._flag(name), str(corpus / filename)]
    for name, value, joined in options:
        flag = cli._flag(name)
        argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(invocations())
@example(("synth", [("comments_mean", "nan", True)]))
@example(("synth", [("manager_latency_factor", "inf", True)]))
@example(("synth", [("like_rate", "nan", True)]))
# a synthetic draw that divides by zero or leaves the calendar
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("comments_mean", "1e17", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("comments_mean", "1e308", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("uplift", "1e308", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("uplift", "5e-324", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("reply_latency_mean_s", "5e-324", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("manager_latency_factor", "1e308", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("reply_latency_mean_s", "1e13", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("span_days", "4000000", True)]))
@example(("synth", [("n_users", "20", True), ("n_threads", "40", True),
                    ("reply_latency_mean_s", "1e308", True)]))
@example(("rank", [("beta", "nan", True)]))
@example(("rank", [("tol", "inf", True)]))
@example(("rank", [("beta", "-100", False)]))
def test_any_option_values_end_cleanly(tiny, invocation):
    command, options = invocation
    corpus, runs = tiny
    out = runs / f"run{next(RUNS)}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(_argv(command, options, corpus, out))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2)
    if code != 0:
        assert "error:" in err.getvalue()
        assert not out.exists()
    # a number option given a value that is not finite is a usage error
    if any(cli.SETTINGS[name][0] in (cli._float, cli._alpha)
           and value.lstrip("-") in ("nan", "inf") for name, value, _j in options):
        assert code == 2
