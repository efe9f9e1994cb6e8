"""End-to-end command line runs, in process, against temp directories."""

import csv
import gc
import json
import os
import threading
import warnings
import weakref
from pathlib import Path

import pytest

from conftest import write_threads_csv
from leadnet import __version__, cli, ingest, rank, topics
from leadnet.rank import MprParams
from leadnet.synth import SyntheticSpec
from leadnet.topics import TopicConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run("synth", "--out", out, "--n-users", 30, "--n-threads", 80,
               "--comments-mean", 2.0, "--seed", 9)
    assert code == 0
    return out


def base_args(corpus_dir):
    return ["--input", corpus_dir / "threads.jsonl",
            "--ratings", corpus_dir / "ratings.jsonl"]


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def tree_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSynth:
    def test_artifacts_and_manifest(self, corpus_dir):
        names = {p.name for p in corpus_dir.iterdir()}
        assert names == {"threads.jsonl", "ratings.jsonl", "lexicon.tsv",
                         "stopwords.txt", "synth_spec.json", "manifest.json"}
        manifest = read_manifest(corpus_dir)
        assert manifest["tool"] == "leadnet"
        assert manifest["version"] == __version__
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["n_users"] == 30
        assert "out" not in manifest["config"]
        assert manifest["inputs"] == {}
        assert manifest["artifacts"] == sorted(names - {"manifest.json"})

    def test_spec_snapshot_matches_flags(self, corpus_dir):
        spec = json.loads((corpus_dir / "synth_spec.json").read_text())
        assert spec["n_users"] == 30 and spec["n_threads"] == 80
        assert spec["comments_mean"] == 2.0
        assert spec["start"].endswith("Z")

    def test_same_seed_reruns_identically(self, corpus_dir, tmp_path):
        out = tmp_path / "again"
        assert run("synth", "--out", out, "--n-users", 30,
                   "--n-threads", 80, "--comments-mean", 2.0,
                   "--seed", 9) == 0
        assert tree_bytes(out) == tree_bytes(corpus_dir)

    def test_bad_knob_is_a_usage_error(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "x",
                   "--n-users", "many") == 2
        assert "--n-users" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--n-users", 0), ("--n-threads", -1), ("--span-days", 0),
        ("--uplift", 0), ("--gender-prior-w", 1.5), ("--like-rate", -0.1),
    ])
    def test_a_value_the_spec_rejects_names_its_flag(
            self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run("synth", "--out", out, flag, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    def test_values_rejected_together_are_a_usage_error(self, tmp_path,
                                                        capsys):
        out = tmp_path / "x"
        assert run("synth", "--out", out, "--like-rate", 0.7,
                   "--dislike-rate", 0.6) == 2
        assert "error: like_rate + dislike_rate must stay within [0, 1]" \
            in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_summary_counts_and_windows(self, corpus_dir, tmp_path):
        out = tmp_path / "ingest"
        assert run("ingest", *base_args(corpus_dir), "--out", out,
                   "--window", "week") == 0
        summary = json.loads((out / "corpus_summary.json").read_text())
        assert summary["users"] == 30
        assert summary["threads"] == 80
        assert len(summary["windows"]) == 8
        assert sum(w["threads"] for w in summary["windows"]) == 80
        assert (out / "diagnostics.txt").exists()
        manifest = read_manifest(out)
        assert manifest["config"] == {"format": "jsonl", "window": "week"}
        assert set(manifest["inputs"]) == {"threads.jsonl", "ratings.jsonl"}

    def test_missing_input_exits_one_and_leaves_nothing(self, tmp_path,
                                                        capsys):
        out = tmp_path / "empty"
        code = run("ingest", "--input", tmp_path / "nope.jsonl",
                   "--out", out)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_input_flag_is_required(self, corpus_dir, tmp_path, capsys):
        assert run("ingest", "--out", tmp_path / "x") == 2
        assert "input" in capsys.readouterr().err

    def test_times_before_the_year_1000_keep_four_year_digits(self, tmp_path):
        log = tmp_path / "threads.jsonl"
        log.write_text(json.dumps({
            "thread_id": "t1", "published_at": "0999-03-02T10:00:00Z",
            "author": {"user_id": "a"},
            "comments": [{"comment_id": "c1", "created_at": "0999-03-02T11:00:00Z",
                          "author": {"user_id": "b"}}]}) + "\n")
        assert run("ingest", "--input", log, "--out", tmp_path / "i") == 0
        summary = json.loads((tmp_path / "i" / "corpus_summary.json").read_text())
        assert summary["span"]["start"] == "0999-03-02T10:00:00Z"
        assert summary["windows"][0]["start"] == "0999-03-01T00:00:00Z"
        assert run("analytics", "--input", log, "--out", tmp_path / "a") == 0
        with open(tmp_path / "a" / "analytics.csv", newline="") as handle:
            starts = {row["window_start"] for row in csv.DictReader(handle)}
        assert starts == {"0999-03-01T00:00:00Z"}


class TestPrecedence:
    def test_flag_beats_env_beats_config(self, corpus_dir, tmp_path,
                                         monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"window": "month"}))
        args = base_args(corpus_dir)

        out1 = tmp_path / "from-config"
        assert run("ingest", *args, "--out", out1, "--config", config) == 0
        assert read_manifest(out1)["config"]["window"] == "month"

        monkeypatch.setenv("LEADNET_WINDOW", "days:28")
        out2 = tmp_path / "from-env"
        assert run("ingest", *args, "--out", out2, "--config", config) == 0
        assert read_manifest(out2)["config"]["window"] == "days:28"

        out3 = tmp_path / "from-flag"
        assert run("ingest", *args, "--out", out3, "--config", config,
                   "--window", "week") == 0
        assert read_manifest(out3)["config"]["window"] == "week"

    def test_config_path_via_environment(self, corpus_dir, tmp_path,
                                         monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"window": "days:14"}))
        monkeypatch.setenv("LEADNET_CONFIG", str(config))
        out = tmp_path / "out"
        assert run("ingest", *base_args(corpus_dir), "--out", out) == 0
        assert read_manifest(out)["config"]["window"] == "days:14"

    def test_unknown_config_key_is_rejected(self, corpus_dir, tmp_path,
                                            capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"widnow": "week"}))
        assert run("ingest", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--config", config) == 2
        assert "widnow" in capsys.readouterr().err

    def test_config_must_hold_an_object(self, corpus_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        assert run("ingest", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--config", config) == 2

    def test_config_syntax_error_is_a_usage_error(self, corpus_dir,
                                                  tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{nope")
        assert run("ingest", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--config", config) == 2

    @pytest.mark.parametrize("text", [
        '{"max_iter": ' + "9" * 5000 + "}",
        '{"window": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["over-long-integer", "nested-too-deep"])
    def test_config_past_the_json_limits_is_a_usage_error(
            self, corpus_dir, tmp_path, capsys, text):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run("ingest", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--config", config) == 2
        assert f"error: config file {config}: invalid JSON (" \
            in capsys.readouterr().err

    def test_config_string_of_invalid_unicode_is_a_usage_error(
            self, corpus_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text('{"out": "\\ud800"}')
        assert run("ingest", *base_args(corpus_dir), "--config", config) == 2
        assert f"error: config file {config}: invalid JSON (" \
            in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_with_a_byte_order_mark_is_read(self, corpus_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"window": "week"}).encode())
        out = tmp_path / "out"
        assert run("ingest", *base_args(corpus_dir), "--out", out,
                   "--config", config) == 0
        assert read_manifest(out)["config"]["window"] == "week"

    @pytest.mark.parametrize("name", ["missing.json", "a-directory"])
    def test_unreadable_config_is_a_usage_error(self, corpus_dir, tmp_path,
                                                capsys, name):
        config = tmp_path / name
        if name == "a-directory":
            config.mkdir()
        out = tmp_path / "x"
        assert run("ingest", *base_args(corpus_dir),
                   "--out", out, "--config", config) == 2
        assert f"error: config file {config}: cannot read (" \
            in capsys.readouterr().err
        assert not out.exists()


class TestRank:
    def test_rankings_per_window(self, corpus_dir, tmp_path):
        out = tmp_path / "rank"
        assert run("rank", *base_args(corpus_dir), "--out", out,
                   "--window", "week") == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["manifest.json"] + \
            [f"rankings_w{i:03d}.csv" for i in range(8)]
        with open(out / "rankings_w000.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0].keys() == {
            "user_id", "gender", "role", "r_empowerment",
            "r_collaboration", "r_credibility", "leadership", "brokerage",
        }
        scores = [float(r["leadership"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert sum(scores) == pytest.approx(1.0)

    def test_alpha_shorthand_replicates(self, corpus_dir, tmp_path):
        out = tmp_path / "alpha"
        assert run("rank", *base_args(corpus_dir), "--out", out,
                   "--alpha", "0.9") == 0
        assert read_manifest(out)["config"]["alpha"] == [0.9, 0.9, 0.9]

    @pytest.mark.parametrize("spelling", ["days:07", "days: 7", "days:+7",
                                          "days:7 "])
    def test_window_spellings_write_one_tree(self, corpus_dir, tmp_path,
                                             spelling):
        canonical, other = tmp_path / "canonical", tmp_path / "other"
        assert run("rank", *base_args(corpus_dir), "--out", canonical,
                   "--window", "days:7") == 0
        assert run("rank", *base_args(corpus_dir), "--out", other,
                   "--window", spelling) == 0
        assert read_manifest(other)["config"]["window"] == "days:7"
        assert tree_bytes(other) == tree_bytes(canonical)

    def test_bad_layer_order_is_a_usage_error(self, corpus_dir, tmp_path):
        assert run("rank", *base_args(corpus_dir), "--out", tmp_path / "x",
                   "--layer-order", "empowerment,empowerment,credibility",
                   ) == 2

    def test_failed_run_cleans_its_artifacts(self, corpus_dir, tmp_path,
                                             capsys):
        out = tmp_path / "doomed"
        code = run("rank", *base_args(corpus_dir), "--out", out,
                   "--window", "week", "--max-iter", 1)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestTopics:
    def lex_args(self, corpus_dir):
        return ["--lexicon", corpus_dir / "lexicon.tsv",
                "--stopwords", corpus_dir / "stopwords.txt"]

    def test_streams_json(self, corpus_dir, tmp_path):
        out = tmp_path / "topics"
        assert run("topics", *base_args(corpus_dir),
                   *self.lex_args(corpus_dir), "--out", out,
                   "--window", "week") == 0
        rows = json.loads((out / "topics.json").read_text())
        assert rows
        streams = {r["stream_id"] for r in rows}
        assert all(r["members"] for r in rows)
        assert all(s.startswith("s") for s in streams)

    def test_stream_export_needs_window_index(self, corpus_dir, tmp_path):
        assert run("topics", *base_args(corpus_dir),
                   *self.lex_args(corpus_dir), "--out", tmp_path / "x",
                   "--window", "week", "--stream", "s0000") == 2

    def test_window_index_needs_stream(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("topics", *base_args(corpus_dir),
                   *self.lex_args(corpus_dir), "--out", out,
                   "--window", "week", "--window-index", 0) == 2
        assert "error: --window-index needs --stream" in \
            capsys.readouterr().err
        assert not out.exists()
        # checked before any input is read
        assert run("topics", "--input", tmp_path / "nonexistent.jsonl",
                   "--out", out, "--window-index", 7) == 2
        assert "--window-index needs --stream" in capsys.readouterr().err
        assert not out.exists()

    def test_stream_network_export(self, corpus_dir, tmp_path):
        out = tmp_path / "stream"
        rows_code = run("topics", *base_args(corpus_dir),
                        *self.lex_args(corpus_dir), "--out", out,
                        "--window", "week", "--stream", "s0000",
                        "--window-index", 0)
        assert rows_code == 0
        edges = out / "stream_s0000_w000_edges.csv"
        assert edges.exists()
        with open(edges, newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["src", "dst", "weight", "layer"]

    def test_unknown_stream_is_a_usage_error(self, corpus_dir, tmp_path):
        assert run("topics", *base_args(corpus_dir),
                   *self.lex_args(corpus_dir), "--out", tmp_path / "x",
                   "--window", "week", "--stream", "s9999",
                   "--window-index", 0) == 2

    def test_lexicon_is_required(self, corpus_dir, tmp_path):
        assert run("topics", *base_args(corpus_dir),
                   "--out", tmp_path / "x") == 2


class TestAnalytics:
    def test_rows_per_window(self, corpus_dir, tmp_path):
        out = tmp_path / "analytics"
        assert run("analytics", *base_args(corpus_dir), "--out", out,
                   "--window", "week", "--top-k", 3) == 0
        with open(out / "analytics.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        metrics = {r["metric"] for r in rows}
        assert {"homophily_p_ww", "prior_w", "top_mass_w",
                "response_latency_mean_s"} <= metrics
        starts = {r["window_start"] for r in rows}
        assert len(starts) == 8
        top_rows = [r for r in rows if r["metric"] == "top_mass_w"]
        assert all(r["group"] == "k=3" for r in top_rows)


class TestExportGraph:
    def test_edges_and_dot(self, corpus_dir, tmp_path):
        out = tmp_path / "graph"
        assert run("export-graph", *base_args(corpus_dir),
                   "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"edges.csv", "graph.dot", "manifest.json"}
        dot = (out / "graph.dot").read_text()
        assert dot.startswith("digraph")
        assert 'layer="empowerment"' in dot

    def test_role_filter_writes_a_second_dot(self, corpus_dir, tmp_path):
        out = tmp_path / "roles"
        assert run("export-graph", *base_args(corpus_dir), "--out", out,
                   "--role", "manager,director") == 0
        text = (out / "role_graph.dot").read_text()
        assert text.startswith("graph")
        assert read_manifest(out)["config"]["role"] == \
            ["director", "manager"]

    def test_roles_are_recorded_in_one_spelling(self, corpus_s, tmp_path):
        """Role lists naming the same set write the same tree: each role
        is recorded once, sorted by value."""
        trees = []
        for spelling in ("manager,partner", "partner,Manager",
                         "manager,manager,partner"):
            out = tmp_path / spelling.replace(",", "_")
            assert run("export-graph", "--input", corpus_s / "threads.jsonl",
                       "--out", out, "--role", spelling) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2]
        assert json.loads(trees[0]["manifest.json"])["config"]["role"] == \
            ["manager", "partner"]

    def test_unknown_role_is_a_usage_error(self, corpus_dir, tmp_path):
        assert run("export-graph", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--role", "wizard") == 2

    def test_window_index_out_of_range(self, corpus_dir, tmp_path):
        assert run("export-graph", *base_args(corpus_dir),
                   "--out", tmp_path / "x", "--window", "week",
                   "--window-index", 99) == 2


class TestAll:
    def artifacts(self, corpus_dir, out, jobs):
        code = run("all", *base_args(corpus_dir),
                   "--lexicon", corpus_dir / "lexicon.tsv",
                   "--stopwords", corpus_dir / "stopwords.txt",
                   "--out", out, "--window", "week", "--jobs", jobs)
        assert code == 0
        return tree_bytes(out)

    def test_full_pipeline_artifacts(self, corpus_dir, tmp_path):
        files = self.artifacts(corpus_dir, tmp_path / "all", 1)
        expected = {f"rankings_w{i:03d}.csv" for i in range(8)}
        expected |= {"analytics.csv", "topics.json", "edges.csv",
                     "graph.dot", "manifest.json"}
        assert set(files) == expected
        manifest = json.loads(files["manifest.json"])
        assert "jobs" not in manifest["config"]

    def test_parallel_run_is_byte_identical(self, corpus_dir, tmp_path):
        serial = self.artifacts(corpus_dir, tmp_path / "serial", 1)
        threaded = self.artifacts(corpus_dir, tmp_path / "threaded", 4)
        assert serial == threaded

    def test_jobs_starts_no_thread(self, corpus_s, tmp_path, monkeypatch):
        """--jobs is accepted and has no effect: every window runs on the
        calling thread."""
        serial = self.artifacts(corpus_s, tmp_path / "serial", 1)
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        assert self.artifacts(corpus_s, tmp_path / "jobs4", 4) == serial
        assert started == []

    def test_stopwords_need_a_lexicon(self, corpus_s, tmp_path, monkeypatch,
                                      capsys):
        """A stopword list without a lexicon would be recorded and never
        read: the run is refused before any input is read."""
        def failing(*args, **kwargs):
            raise AssertionError("the log was read")

        monkeypatch.setattr(cli, "parse_thread_log", failing)
        out = tmp_path / "all"
        assert run("all", "--input", corpus_s / "threads.jsonl",
                   "--stopwords", corpus_s / "stopwords.txt",
                   "--out", out, "--window", "week") == 2
        assert "error: --stopwords needs --lexicon" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def gappy_corpus_dir(tmp_path_factory):
    """A corpus so small that some weeks and days have no threads."""
    out = tmp_path_factory.mktemp("gappy")
    assert run("synth", "--out", out, "--n-users", 30, "--n-threads", 20,
               "--seed", 3) == 0
    return out


class TestEmptyWindows:
    @pytest.mark.parametrize("window", ["week", "days:1"])
    def test_empty_window_writes_an_empty_top_mass_row(
            self, gappy_corpus_dir, tmp_path, window):
        out = tmp_path / "all"
        assert run("ingest", *base_args(gappy_corpus_dir), "--out", out,
                   "--window", window) == 0
        summary = json.loads((out / "corpus_summary.json").read_text())
        empty = {w["start"] for w in summary["windows"] if w["threads"] == 0}
        assert empty
        assert run("all", *base_args(gappy_corpus_dir), "--out", out,
                   "--window", window) == 0
        with open(out / "analytics.csv", newline="") as handle:
            rows = [r for r in csv.DictReader(handle)
                    if r["metric"] == "top_mass_w"]
        assert len(rows) == len(summary["windows"])
        for row in rows:
            if row["window_start"] in empty:
                assert (row["group"], row["value"], row["count"]) == \
                    ("k=0", "", "0")
            else:
                assert row["group"] != "k=0" and int(row["count"]) > 0


class TestConvergenceFailure:
    def test_error_names_the_window_and_leaves_nothing(
            self, corpus_dir, tmp_path, capsys):
        probe = tmp_path / "probe"
        assert run("ingest", *base_args(corpus_dir), "--out", probe,
                   "--window", "week") == 0
        summary = json.loads((probe / "corpus_summary.json").read_text())
        start = summary["windows"][0]["start"]
        capsys.readouterr()
        out = tmp_path / "all"
        assert run("all", *base_args(corpus_dir), "--out", out,
                   "--window", "week", "--max-iter", 1) == 1
        err = capsys.readouterr().err
        assert f"error: window 0 ({start}): empowerment ranking did not " \
               "converge: residual " in err
        assert not out.exists()

    @pytest.mark.parametrize("exponent", ["--beta", "--gamma"])
    def test_overflowing_chain_weight_fails_its_layer_at_once(
            self, corpus_s, tmp_path, capsys, monkeypatch, exponent):
        steps = []  # flow products per layer solve
        iterate, product = rank._power_iterate, rank.flow_product

        def counted_iterate(*args, **kwargs):
            steps.append(0)
            return iterate(*args, **kwargs)

        def counted_product(flow, r):
            steps[-1] += 1
            return product(flow, r)

        monkeypatch.setattr(rank, "_power_iterate", counted_iterate)
        monkeypatch.setattr(rank, "flow_product", counted_product)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("rank", *base_args(corpus_s), "--out", out,
                       exponent, -100) == 1
        assert capsys.readouterr().err == (
            "error: window 0 (2014-01-01T00:00:00Z): credibility ranking"
            " weights overflowed at step 1\n")
        assert len(steps) == 3 and steps[-1] == 1
        assert not out.exists()


def lex_args(corpus_dir):
    return ["--lexicon", corpus_dir / "lexicon.tsv",
            "--stopwords", corpus_dir / "stopwords.txt"]


class TestManifestKeys:
    NOT_RECORDED = {"input", "ratings", "lexicon", "stopwords", "out",
                    "config", "jobs"}

    @pytest.mark.parametrize("command", sorted(cli.COMMAND_OPTIONS))
    def test_manifest_records_every_semantic_option(
            self, corpus_dir, tmp_path, command):
        accepted = set(cli.COMMAND_OPTIONS[command])
        out = tmp_path / command
        args = ["--out", out]
        if command == "synth":
            args += ["--n-users", 10, "--n-threads", 5]
        else:
            args += base_args(corpus_dir)
        if "lexicon" in accepted:
            args += lex_args(corpus_dir)
        assert run(command, *args) == 0
        recorded = set(read_manifest(out)["config"])
        assert recorded == accepted - self.NOT_RECORDED
        assert not recorded & self.NOT_RECORDED


class TestLexiconErrors:
    @pytest.mark.parametrize("command", ["topics", "all"])
    def test_malformed_line_is_an_input_error(
            self, corpus_dir, tmp_path, capsys, command):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("# concepts\n\nbogus-line-without-tab\n")
        out = tmp_path / "out"
        assert run(command, *base_args(corpus_dir), "--lexicon", lexicon,
                   "--out", out, "--window", "week") == 1
        assert "error: bad lexicon line 3 'bogus-line-without-tab': " \
               "expected surface<TAB>concept_id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["topics", "all"])
    def test_is_read_before_the_log(self, corpus_dir, tmp_path, monkeypatch,
                                    command):
        """Rerun into a good tree with a bad lexicon: the run fails before
        it parses the log or ranks a window, and leaves the tree as it was."""
        out = tmp_path / "out"
        args = [*base_args(corpus_dir), "--out", out, "--window", "week"]
        assert run(command, *args, *lex_args(corpus_dir)) == 0
        kept = tree_bytes(out)

        def failing(*args, **kwargs):
            raise AssertionError("called after a bad lexicon")

        monkeypatch.setattr(cli, "parse_thread_log", failing)
        monkeypatch.setattr(cli, "multiplex_pagerank", failing)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("foo\n")
        assert run(command, *args, "--lexicon", lexicon) == 1
        assert tree_bytes(out) == kept


class TestStopwordTokens:
    """Stopword lines are tokenized like message text: the elided
    connector "dell'" is the token "dell"."""

    @pytest.fixture(scope="class")
    def elided(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("elided")
        lines = []
        for t in range(3):
            user = {"user_id": f"u{t}", "role": "manager", "gender": 1}
            other = {"user_id": f"u{t + 1}", "role": "consultant",
                     "gender": 0}
            lines.append(json.dumps({
                "thread_id": f"t{t}", "title": "Analisi dell'impatto",
                "description": "", "tags": [],
                "published_at": f"2014-01-0{6 + t}T09:00:00Z",
                "author": user,
                "comments": [{"comment_id": f"t{t}c1", "text": "grazie",
                              "created_at": f"2014-01-0{6 + t}T10:00:00Z",
                              "author": other}]}))
        (root / "threads.jsonl").write_text("\n".join(lines) + "\n")
        (root / "ratings.jsonl").write_text("")
        (root / "lexicon.tsv").write_text(
            "analisi\tc.analysis\tit\nimpatto\tc.impact\tit\n")
        return root

    def args(self, root, stopwords):
        path = root / "stopwords.txt"
        path.write_text(stopwords)
        return ["--input", root / "threads.jsonl",
                "--ratings", root / "ratings.jsonl",
                "--lexicon", root / "lexicon.tsv", "--stopwords", path,
                "--window", "week"]

    @pytest.mark.parametrize("command", ["topics", "all"])
    def test_elided_connector_bridges_a_run(self, elided, tmp_path,
                                            command):
        out = tmp_path / "out"
        assert run(command, "--out", out,
                   *self.args(elided, "# connectors\ndell'\tit\n")) == 0
        rows = json.loads((out / "topics.json").read_text())
        assert [m["ngram"] for row in rows for m in row["members"]] == \
            ["analisi", "analisi_dell_impatto", "impatto"]

    @pytest.mark.parametrize("command", ["topics", "all"])
    def test_a_line_of_two_tokens_is_an_input_error(
            self, elided, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, "--out", out,
                   *self.args(elided, "di\tit\nof the\ten\n")) == 1
        assert "error: bad stopwords line 2 'of the\\ten': expected one " \
               "token, found 2" in capsys.readouterr().err
        assert not out.exists()


class TestTokenizeOnce:
    def test_all_tokenizes_each_message_once(self, corpus_s, tmp_path,
                                             monkeypatch):
        threads, _diags = ingest.parse_thread_log(corpus_s / "threads.jsonl")
        messages = 2 * len(threads) + sum(len(t.comments) for t in threads)
        tokenized = []
        tokenize, load_lexicon = topics.tokenize, cli.load_lexicon

        def counting(text):
            tokenized.append(text)
            return tokenize(text)

        def loading(*sources):
            lexicon = load_lexicon(*sources)
            tokenized.clear()
            return lexicon

        monkeypatch.setattr(topics, "tokenize", counting)
        monkeypatch.setattr(cli, "load_lexicon", loading)
        assert run("all", *base_args(corpus_s), *lex_args(corpus_s),
                   "--out", tmp_path / "all", "--window", "week") == 0
        assert len(tokenized) == messages


class TestRecipientResolution:
    def test_all_resolves_each_comment_once(self, corpus_dir, tmp_path,
                                            monkeypatch):
        threads, _diags = ingest.parse_thread_log(corpus_dir / "threads.jsonl")
        comments = sum(len(t.comments) for t in threads)
        resolved = []
        mentioned = ingest._mentioned

        def counting(text, participants):
            resolved.append(text)
            return mentioned(text, participants)

        monkeypatch.setattr(ingest, "_mentioned", counting)
        assert run("all", *base_args(corpus_dir), *lex_args(corpus_dir),
                   "--out", tmp_path / "all", "--window", "week") == 0
        assert comments > 0
        assert len(resolved) == comments


class TestBrokerageScoring:
    @pytest.fixture
    def scored(self, monkeypatch):
        calls = []
        brokerage = cli.brokerage

        def counting(tensor):
            calls.append(tensor)
            return brokerage(tensor)

        monkeypatch.setattr(cli, "brokerage", counting)
        return calls

    def test_analytics_scores_no_brokerage(self, corpus_dir, tmp_path,
                                           scored):
        assert run("analytics", *base_args(corpus_dir), "--out",
                   tmp_path / "an", "--window", "week") == 0
        assert (tmp_path / "an" / "analytics.csv").exists()
        assert scored == []

    def test_all_scores_each_window_once(self, corpus_dir, tmp_path, scored):
        out = tmp_path / "all"
        assert run("all", *base_args(corpus_dir), *lex_args(corpus_dir),
                   "--out", out, "--window", "week") == 0
        windows = list(out.glob("rankings_w*.csv"))
        assert len(windows) > 1
        assert len(scored) == len(windows)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2


class TestFailingDailyRun:
    def test_stops_at_window_zero_having_resolved_only_its_threads(
            self, corpus_dir, tmp_path, monkeypatch, capsys):
        threads, _diags = ingest.parse_thread_log(corpus_dir / "threads.jsonl")
        corpus, _ = ingest.build_corpus(threads)
        daily = ingest.window_partition(
            corpus, ingest.WindowConfig.from_string("days:1"))
        assert len(daily) > 1
        first_day = sum(len(t.comments) for t in daily[0].threads)
        assert 0 < first_day < sum(len(t.comments) for t in threads)
        resolved = []
        mentioned = ingest._mentioned

        def counting(text, participants):
            resolved.append(text)
            return mentioned(text, participants)

        monkeypatch.setattr(ingest, "_mentioned", counting)
        out = tmp_path / "all"
        assert run("all", *base_args(corpus_dir), *lex_args(corpus_dir),
                   "--out", out, "--window", "days:1", "--max-iter", 1) == 1
        assert "error: window 0 (" in capsys.readouterr().err
        assert len(resolved) == first_day
        assert not out.exists()


class TestRatingsKeepParsedEvents:
    def test_load_corpus_keeps_every_parsed_rating(self, corpus_dir,
                                                   monkeypatch):
        parsed = []
        parse_ratings = cli.parse_ratings

        def keeping(*args):
            events, diags = parse_ratings(*args)
            parsed.extend(events)
            return events, diags

        monkeypatch.setattr(cli, "parse_ratings", keeping)
        corpus, _diags = cli._load_corpus({
            "input": corpus_dir / "threads.jsonl", "format": "jsonl",
            "ratings": corpus_dir / "ratings.jsonl"})
        gc.unfreeze()  # the load freezes the heap; main would unfreeze it
        assert len(corpus.ratings) == len(parsed) > 0
        assert all(kept is event
                   for kept, event in zip(corpus.ratings, parsed))


class TestRaters:
    """Every rater is a corpus user: one with no post of their own has an
    unknown role and gender, one whose every rating is dropped stays, and
    one who also posts shows the role and gender of the thread log."""

    @pytest.fixture
    def logs(self, tmp_path):
        threads = tmp_path / "threads.jsonl"
        threads.write_text(json.dumps({
            "thread_id": "t1", "published_at": "2014-01-06T09:00:00Z",
            "author": {"user_id": "a", "role": "manager", "gender": 1},
            "comments": [{"comment_id": "c1", "text": "ok",
                          "created_at": "2014-01-06T10:00:00Z",
                          "author": {"user_id": "c", "role": "director",
                                     "gender": 0}}]}) + "\n")
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text("".join(json.dumps(obj) + "\n" for obj in (
            {"rater_id": "b", "target_id": "t1", "value": 1},
            {"rater_id": "d", "target_id": "nowhere", "value": 1},
            {"rater_id": "c", "target_id": "t1", "value": -1},
        )))
        return threads, ratings

    def test_users_diagnostics_and_rankings(self, logs, tmp_path):
        threads, ratings = logs
        corpus, diags = cli._load_corpus(
            {"input": threads, "format": "jsonl", "ratings": ratings})
        gc.unfreeze()  # the load freezes the heap; main would unfreeze it
        unknown = (ingest.Role.unknown, ingest.Gender.unknown)
        assert [(u.user_id, u.role, u.gender) for u in corpus.users] == [
            ("a", ingest.Role.manager, ingest.Gender.female), ("b", *unknown),
            ("c", ingest.Role.director, ingest.Gender.male), ("d", *unknown)]
        dropped = "rating by d targets unknown message nowhere; dropped"
        assert diags == [dropped]
        assert len(corpus.ratings) == 2

        args = ["--input", threads, "--ratings", ratings]
        out = tmp_path / "ingest"
        assert run("ingest", *args, "--out", out) == 0
        assert (out / "diagnostics.txt").read_text() == dropped + "\n"
        out = tmp_path / "rank"
        assert run("rank", *args, "--out", out) == 0
        with open(out / "rankings_w000.csv", newline="") as handle:
            rows = {row["user_id"]: (row["gender"], row["role"])
                    for row in csv.DictReader(handle)}
        assert rows == {"a": ("female", "manager"), "b": ("unknown", "unknown"),
                        "c": ("male", "director"), "d": ("unknown", "unknown")}


class TestOptionWiring:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for key in list(os.environ):
            if key.startswith(cli.ENV_PREFIX):
                monkeypatch.delenv(key)

    @pytest.fixture
    def set_option(self, tmp_path, monkeypatch):
        """Supply one option through the environment or a config file;
        returns the extra command line arguments that takes."""
        def supply(source, name, value):
            if source == "env":
                monkeypatch.setenv(cli.ENV_PREFIX + name.upper(), value)
                return []
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({name: value}))
            return ["--config", config]
        return supply

    @pytest.mark.parametrize("source, name",
                             [("env", "n_users"), ("config", "span_days")])
    def test_options_the_command_does_not_take_are_ignored(
            self, corpus_dir, tmp_path, set_option, source, name):
        extra = set_option(source, name, "abc")
        out = tmp_path / "rank"
        assert run("rank", *base_args(corpus_dir), "--out", out, *extra) == 0
        assert (out / "rankings_w000.csv").exists()

    @pytest.mark.parametrize("source, name",
                             [("env", "max_iter"), ("config", "tol")])
    def test_bad_value_of_a_taken_option_names_the_flag(
            self, corpus_dir, tmp_path, capsys, set_option, source, name):
        extra = set_option(source, name, "abc")
        assert run("rank", *base_args(corpus_dir), "--out", tmp_path / "x",
                   *extra) == 2
        assert f"error: --{name.replace('_', '-')}: expected " \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("all", "--tol", "0"), ("all", "--alpha", "1.5"),
        ("all", "--theta-v", "2"), ("all", "--min-freq", "0"),
        ("all", "--top-k", "0"), ("all", "--jobs", "0"),
        ("rank", "--jobs", "-3"), ("topics", "--stream", "s0000"),
        ("rank", "--beta", "nan"), ("rank", "--gamma", "nan"),
        ("rank", "--tol", "nan"), ("rank", "--tol", "inf"),
        ("rank", "--alpha", "nan"), ("all", "--alpha", "0.85,-inf,0.85"),
        ("topics", "--theta-h", "nan"),
        ("synth", "--comments-mean", "nan"), ("synth", "--uplift", "nan"),
        ("synth", "--manager-latency-factor", "inf"),
        ("synth", "--reply-latency-mean-s", "inf"),
        ("synth", "--comments-mean", "inf"), ("synth", "--like-rate", "nan"),
    ])
    def test_bad_value_exits_two_before_reading_input(
            self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        inputs = (["--input", tmp_path / "missing.jsonl"]
                  if "input" in cli.COMMAND_OPTIONS[command] else [])
        assert run(command, *inputs, "--out", out, f"{flag}={value}") == 2
        assert f"error: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_config_dataclass_defaults(self, tmp_path,
                                                         monkeypatch):
        cfg = cli.resolve_settings(cli.build_parser().parse_args(["all"]))
        assert cli._from_options(MprParams, cfg) == MprParams()
        assert cli._from_options(TopicConfig, cfg) == TopicConfig()
        specs = []
        generate = cli.generate

        def recording(spec):
            specs.append(spec)
            return generate(spec)

        monkeypatch.setattr(cli, "generate", recording)
        assert run("synth", "--out", tmp_path / "synth") == 0
        assert specs == [SyntheticSpec()]

    def test_every_setting_is_taken_by_a_command(self):
        taken = {name for options in cli.COMMAND_OPTIONS.values()
                 for name in options}
        assert taken == set(cli.SETTINGS)


class TestOutputDirectory:
    def test_window_index_out_of_range_leaves_no_directory(
            self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("export-graph", *base_args(corpus_dir), "--out", out,
                   "--window", "week", "--window-index", 99) == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_stream_without_input_leaves_no_directory(self, tmp_path,
                                                      capsys):
        out = tmp_path / "x"
        assert run("topics", "--stream", "s0", "--input",
                   tmp_path / "nonexistent.jsonl", "--out", out) == 2
        assert "--stream needs --window-index" in capsys.readouterr().err
        assert not out.exists()

    def test_a_directory_the_run_did_not_create_is_kept(
            self, corpus_dir, tmp_path):
        empty, used = tmp_path / "empty", tmp_path / "used"
        empty.mkdir()
        used.mkdir()
        (used / "notes.txt").write_text("mine\n")
        for out in (empty, used):
            assert run("export-graph", *base_args(corpus_dir), "--out", out,
                       "--window", "week", "--window-index", 99) == 2
        assert list(empty.iterdir()) == []
        assert [p.name for p in used.iterdir()] == ["notes.txt"]


class TestCollectorState:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def prior(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("case", ["ok", "unreadable", "bad-flag",
                                      "bad-index"])
    def test_enabled_state_restored_and_nothing_frozen(
            self, corpus_s, tmp_path, prior, case):
        inputs = [*base_args(corpus_s), *lex_args(corpus_s)]
        argv, code = {
            "ok": (["all", *inputs, "--window", "week"], 0),
            "unreadable": (["all", "--input", tmp_path / "nope.jsonl"], 1),
            "bad-flag": (["all", *inputs, "--tol", "abc"], 2),
            # found after the corpus is loaded and frozen
            "bad-index": (["export-graph", *base_args(corpus_s),
                           "--window-index", 99], 2),
        }[case]
        assert run(*argv, "--out", tmp_path / "out") == code
        assert gc.isenabled() is prior
        assert gc.get_freeze_count() == 0

    def test_old_garbage_is_collected_not_frozen(self, corpus_s):
        class Node:
            pass

        cycle = Node()
        cycle.self = cycle
        gc.collect()  # the cycle survives into the oldest generation
        alive = weakref.ref(cycle)
        del cycle
        try:
            cli._load_corpus({"input": corpus_s / "threads.jsonl",
                              "format": "jsonl", "ratings": None})
        finally:
            gc.unfreeze()
        assert alive() is None

    def test_no_collection_starts_while_the_corpus_loads(
            self, corpus_s, tmp_path, monkeypatch):
        loading, started = [False], []
        parse_thread_log, build_corpus = cli.parse_thread_log, cli.build_corpus

        def parsing(*args, **kwargs):
            loading[0] = True  # the first call inside the load
            return parse_thread_log(*args, **kwargs)

        def building(*args):
            try:
                return build_corpus(*args)
            finally:
                loading[0] = False  # the last call inside the load

        def guard(phase, info):
            if phase == "start" and loading[0]:
                started.append(info["generation"])

        monkeypatch.setattr(cli, "parse_thread_log", parsing)
        monkeypatch.setattr(cli, "build_corpus", building)
        gc.callbacks.append(guard)
        try:
            assert run("all", *base_args(corpus_s), *lex_args(corpus_s),
                       "--out", tmp_path / "all", "--window", "week") == 0
            assert started == []
            # the guard does see collections in the same load when the
            # collector runs
            assert gc.isenabled()
            loading[0] = True
            ingest.build_corpus(ingest.parse_thread_log(
                corpus_s / "threads.jsonl")[0])
            assert started
        finally:
            gc.callbacks.remove(guard)


class TestConflictDiagnostics:
    def test_ingest_reports_every_conflicting_occurrence_in_order(
            self, tmp_path):
        def thread(thread_id, day, author, *commenters):
            return {"thread_id": thread_id,
                    "published_at": f"2014-01-0{day}T09:00:00Z",
                    "author": author,
                    "comments": [{"comment_id": f"{thread_id}c{k}",
                                  "created_at": f"2014-01-0{day}T10:0{k}:00Z",
                                  "author": who}
                                 for k, who in enumerate(commenters)]}

        b = {"user_id": "b", "role": "manager", "gender": 1}
        b_director = {"user_id": "b", "role": "director", "gender": 1}
        b_male = {"user_id": "b", "gender": 0}
        log = tmp_path / "threads.jsonl"
        log.write_text("".join(json.dumps(obj) + "\n" for obj in (
            thread("t1", 6, b, b_director, b),
            thread("t2", 7, b_director, b_male, b_director),
            thread("t3", 8, {"user_id": "a"}, b_male, b),
        )))
        out = tmp_path / "out"
        assert run("ingest", "--input", log, "--out", out) == 0
        role = "conflicting role for b: keeping manager, saw director"
        gender = "conflicting gender for b: keeping 1, saw 0"
        assert (out / "diagnostics.txt").read_text().splitlines() == [
            role, role, gender, role, gender]


class TestExitCodes:
    @pytest.fixture
    def late_args(self, corpus_dir, tmp_path):
        """corpus_dir's logs with one more thread, at the last second of
        the year 9999."""
        log = tmp_path / "threads.jsonl"
        log.write_text((corpus_dir / "threads.jsonl").read_text() + json.dumps({
            "thread_id": "late", "published_at": "9999-12-31T23:59:59Z",
            "author": {"user_id": "late"}}) + "\n")
        return ["--input", log, "--ratings", corpus_dir / "ratings.jsonl"]

    @pytest.mark.parametrize("window", ["days:99999999999", "days:3000000",
                                        "month"])
    def test_window_past_the_calendar_is_a_usage_error(
            self, late_args, tmp_path, capsys, window):
        out = tmp_path / "out"
        assert run("rank", *late_args, "--out", out, "--window", window) == 2
        assert capsys.readouterr().err == \
            f"error: --window: {window} windows run past the year 9999\n"
        assert not out.exists()

    def test_whole_span_past_the_calendar_is_an_input_error(
            self, late_args, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("export-graph", *late_args, "--out", out) == 1
        assert capsys.readouterr().err.endswith(
            "error: the whole span ends past the year 9999: a thread is"
            " published at 9999-12-31T23:59:59Z\n")
        assert not out.exists()

    def test_a_value_error_inside_a_command_is_not_a_usage_error(
            self, corpus_dir, tmp_path, monkeypatch):
        def failing(*args):
            raise ValueError("not a usage error")

        monkeypatch.setattr(cli, "window_partition", failing)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="not a usage error"):
            run("rank", *base_args(corpus_dir), "--out", out)
        assert not out.exists()
        assert gc.get_freeze_count() == 0


class TestUndecodableInputs:
    """An input that is not valid UTF-8 fails the run with exit 1, naming
    the file and its first line that does not decode."""

    @pytest.fixture(scope="class")
    def inputs(self, corpus_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("csv")
        threads, _diags = ingest.parse_thread_log(corpus_dir / "threads.jsonl")
        write_threads_csv(threads, root / "threads.csv")
        return {"input": corpus_dir / "threads.jsonl",
                "csv": root / "threads.csv",
                "ratings": corpus_dir / "ratings.jsonl",
                "lexicon": corpus_dir / "lexicon.tsv",
                "stopwords": corpus_dir / "stopwords.txt"}

    @pytest.mark.parametrize("name, bad_line", [
        ("input", 50), ("csv", 2), ("ratings", 3), ("lexicon", 1),
        ("stopwords", 2),
    ])
    def test_names_the_input_and_its_first_bad_line(
            self, inputs, tmp_path, capsys, name, bad_line):
        lines = inputs[name].read_bytes().splitlines(keepends=True)
        assert len(lines) > bad_line
        lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
        lines[bad_line + 1:bad_line + 2] = [b"\xc3(\n"]
        broken = tmp_path / inputs[name].name
        broken.write_bytes(b"".join(lines))
        paths = {**inputs, name: broken}
        csv_log, log_format = paths.pop("csv"), "jsonl"
        if name == "csv":
            paths["input"], log_format = csv_log, "csv"
        args = [a for key, path in paths.items() for a in (f"--{key}", path)]
        out = tmp_path / "out"
        assert run("all", *args, "--format", log_format, "--out", out,
                   "--window", "week") == 1
        assert capsys.readouterr().err.endswith(
            f"error: {broken}: not valid UTF-8 at line {bad_line}\n")
        assert not out.exists()


class TestIdsOfInvalidUnicode:
    """JSON lets a lone surrogate such as "\\ud800" into an id, and no
    UTF-8 writer can encode one: such an id is malformed, reported as
    its reader reports a non-string id."""

    @staticmethod
    def log(tmp_path, *comments):
        path = tmp_path / "threads.jsonl"
        path.write_text(json.dumps({
            "thread_id": "t1", "published_at": "2014-01-06T09:00:00Z",
            "author": {"user_id": "a"},
            "comments": [{"comment_id": cid, "created_at": "2014-01-06T10:00:00Z",
                          "author": {"user_id": uid}} for cid, uid in comments]}) + "\n")
        return path

    @pytest.mark.parametrize("command", ["all", "export-graph"])
    def test_author_id(self, tmp_path, capsys, command):
        log = self.log(tmp_path, ("c1", "b"), ("c2", "\ud800"))
        out = tmp_path / "out"
        assert run(command, "--input", log, "--out", out) == 0
        assert "note: invalid author_id at line 1 (comment c2)\n" in capsys.readouterr().err
        assert (out / "edges.csv").read_text() == (
            "src,dst,weight,layer\na,b,1.0,empowerment\nb,a,1.0,collaboration\n")

    def test_rater_id(self, tmp_path, capsys):
        log = self.log(tmp_path, ("c1", "b"))
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text("".join(json.dumps(e) + "\n" for e in [
            {"rater_id": "b", "target_id": "t1", "value": 1},
            {"rater_id": "\ud800", "target_id": "c1", "value": 1},
            {"rater_id": "a", "target_id": "c1", "value": -1}]))
        out = tmp_path / "out"
        assert run("rank", "--input", log, "--ratings", ratings, "--out", out) == 0
        assert capsys.readouterr().err == "note: missing rater_id at line 2\n"
        assert read_manifest(out)["artifacts"] == ["rankings_w000.csv"]

    def test_duplicate_comment_id(self, tmp_path):
        log = self.log(tmp_path, ("c1", "b"), ("\ud800", "b"), ("\ud800", "c"))
        out = tmp_path / "out"
        assert run("ingest", "--input", log, "--out", out) == 0
        assert (out / "diagnostics.txt").read_text().splitlines() == [
            "missing comment_id at line 1 (comment 1); comment skipped",
            "missing comment_id at line 1 (comment 2); comment skipped"]
