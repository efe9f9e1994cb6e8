"""File writers: exact rendering, ordering and escaping."""

import csv
import io

import numpy as np
import pytest

from conftest import make_corpus
from leadnet import export
from leadnet.analytics import analytics_rows, user_codes
from leadnet.export import (
    write_analytics_csv,
    write_edges_csv,
    write_graph_dot,
    write_rankings_csv,
    write_role_graph_dot,
)
from leadnet.ingest import Gender, Role, UserRef
from leadnet.multiplex import build_tensor, window_events
from leadnet.rank import MprParams, brokerage, multiplex_pagerank


@pytest.fixture()
def ranked(tmp_path):
    users = {
        "a": UserRef(user_id="a", role=Role.manager, gender=Gender.female),
        "b": UserRef(user_id="b", role=Role.consultant, gender=Gender.male),
    }
    corpus, window = make_corpus(
        [("t0", "a", [("b", "x"), ("c", "y")]), ("t1", "c", [("a", "z")])],
        [("b", "t0", 1)],
        users=users,
    )
    tensor = build_tensor(window, corpus)
    result = multiplex_pagerank(tensor, MprParams())
    return corpus, window, tensor, result


class TestRankingsCsv:
    def test_rows_sorted_by_leadership_then_id(self, ranked, tmp_path):
        corpus, _window, tensor, result = ranked
        path = tmp_path / "rankings.csv"
        write_rankings_csv(path, corpus, result, brokerage(tensor))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == corpus.n_users
        scores = [float(r["leadership"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        for first, second in zip(rows, rows[1:]):
            if first["leadership"] == second["leadership"]:
                assert first["user_id"] < second["user_id"]
        assert sum(scores) == pytest.approx(1.0)
        by_id = {r["user_id"]: r for r in rows}
        assert by_id["a"]["gender"] == "female"
        assert by_id["a"]["role"] == "manager"
        assert by_id["c"]["gender"] == "unknown"
        parsed = float(by_id["a"]["r_empowerment"])
        index = corpus.user_index["a"]
        assert parsed == result.empowerment.scores[index]


class TestAnalyticsCsv:
    def test_row_layout_and_none_rendering(self, ranked, tmp_path):
        corpus, window, _tensor, result = ranked
        rows = analytics_rows("2014-01-06T00:00:00Z",
                              window_events(window, corpus),
                              result.leadership.scores, user_codes(corpus), 2)
        path = tmp_path / "analytics.csv"
        write_analytics_csv(path, rows)
        with open(path, newline="") as handle:
            read = list(csv.DictReader(handle))
        metrics = [r["metric"] for r in read]
        assert metrics[:5] == ["homophily_p_ww", "homophily_p_mm",
                               "prior_w", "prior_m", "top_mass_w"]
        by_metric = {r["metric"]: r for r in read}
        assert by_metric["homophily_p_mm"]["value"] == "0.0"
        assert by_metric["top_mass_w"]["group"] == "k=2"
        assert by_metric["top_mass_w"]["count"] == "3"
        groups = {r["group"] for r in read
                  if r["metric"] == "response_latency_mean_s"}
        assert groups == {"role:manager", "role:consultant",
                          "gender:female"}

    def test_empty_rates_render_as_empty_cells(self, tmp_path):
        corpus, window = make_corpus([("t0", "a", [])])
        rows = analytics_rows(
            "2014-01-06T00:00:00Z", window_events(window, corpus),
            multiplex_pagerank(build_tensor(window, corpus),
                               MprParams()).leadership.scores,
            user_codes(corpus), None)
        path = tmp_path / "analytics.csv"
        write_analytics_csv(path, rows)
        with open(path, newline="") as handle:
            read = {r["metric"]: r for r in csv.DictReader(handle)}
        assert read["homophily_p_ww"]["value"] == ""
        assert read["prior_w"]["value"] == ""
        assert read["prior_w"]["count"] == "0"

    def test_floats_round_trip_through_repr(self, tmp_path):
        users = {uid: UserRef(user_id=uid, role=Role.consultant, gender=g)
                 for uid, g in (("w", Gender.female), ("m", Gender.male))}
        corpus, window = make_corpus(
            [("t0", "w", []), ("t1", "m", []), ("t2", "m", [])], users=users)
        rows = analytics_rows("2014-01-06T00:00:00Z",
                              window_events(window, corpus),
                              np.ones(corpus.n_users), user_codes(corpus), None)
        path = tmp_path / "analytics.csv"
        write_analytics_csv(path, rows)
        with open(path, newline="") as handle:
            read = {r["metric"]: r for r in csv.DictReader(handle)}
        assert read["prior_w"]["value"] == repr(1 / 3)
        assert float(read["prior_w"]["value"]) == 1 / 3
        assert float(read["prior_m"]["value"]) == 2 / 3

class TestEdgesCsv:
    def test_grouped_by_layer_then_sorted(self, ranked, tmp_path):
        corpus, _window, tensor, _result = ranked
        path = tmp_path / "edges.csv"
        write_edges_csv(path, tensor, corpus)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        layers = [r["layer"] for r in rows]
        assert layers == sorted(
            layers, key=["empowerment", "collaboration",
                         "credibility"].index)
        for row in rows:
            weight = float(row["weight"])
            assert 0.0 < weight <= 1.0
        empowerment = [(r["src"], r["dst"]) for r in rows
                       if r["layer"] == "empowerment"]
        assert empowerment == sorted(empowerment)


class TestGraphDot:
    def test_nodes_carry_attributes_and_quoting_escapes(self, tmp_path):
        users = {'we"ird': UserRef(user_id='we"ird', role=Role.partner,
                                   gender=Gender.unknown)}
        corpus, window = make_corpus(
            [("t0", 'we"ird', [("b", "x")])], users=users)
        tensor = build_tensor(window, corpus)
        path = tmp_path / "graph.dot"
        write_graph_dot(path, tensor, corpus)
        text = path.read_text()
        assert text.startswith("digraph leadnet {")
        assert text.endswith("}\n")
        assert '"we\\"ird" [gender="unknown", role="partner"];' in text
        assert '"we\\"ird" -> "b" [layer="empowerment", weight="1.0"];' \
            in text
        assert '"b" -> "we\\"ird" [layer="collaboration"' in text


class TestRoleGraphDot:
    def test_ids_are_quoted_and_escaped(self, tmp_path):
        users = {
            uid: UserRef(user_id=uid, role=Role.manager, gender=Gender.male)
            for uid in ('a"b', "c")
        }
        corpus, window = make_corpus(
            [("t0", 'a"b', [("c", "x"), ("d", "y")])], users=users)
        path = tmp_path / "role_graph.dot"
        assert write_role_graph_dot(path, build_tensor(window, corpus),
                                    corpus, [Role.manager]) == []
        assert path.read_text() == (
            "graph leadnet_roles {\n"
            '  "a\\"b";\n'
            '  "c";\n'
            '  "a\\"b" -- "c";\n'
            "}\n"
        )


class TestEdgeFilesInBatches:
    """Both edge writers against a row-at-a-time rendering of
    ``layer.edges``, over ids that need quoting and batches smaller than
    a layer."""

    @pytest.fixture()
    def odd_ids(self, monkeypatch):
        monkeypatch.setattr(export, "_CHUNK", 2)
        ids = ["a,b", 'q"uote', "new\nline", " lead", "back\\slash", "plain"]
        users = {uid: UserRef(user_id=uid, role=Role.manager,
                              gender=Gender.female) for uid in ids}
        corpus, window = make_corpus(
            [("t0", "a,b", [('q"uote', "x"), ("new\nline", "@a,b y"),
                            ("plain", '@q"uote z')]),
             ("t1", " lead", [("back\\slash", "w"), ("a,b", "v")])],
            [("plain", "t0", 1), ("a,b", "t1m1", -1), ("a,b", "t0m2", 1)],
            users=users)
        return corpus, build_tensor(window, corpus)

    def rows(self, corpus, tensor):
        for name, layer in tensor.layers():
            for (i, j), weight in sorted(layer.edges.items()):
                yield (corpus.users[i].user_id, corpus.users[j].user_id,
                       repr(weight), name)

    def test_edges_csv_matches_csv_writer(self, odd_ids, tmp_path):
        corpus, tensor = odd_ids
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["src", "dst", "weight", "layer"])
        writer.writerows(self.rows(corpus, tensor))
        path = tmp_path / "edges.csv"
        write_edges_csv(path, tensor, corpus)
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == want.getvalue()
        assert want.getvalue().count("\n") > 2 * export._CHUNK + 1

    def test_graph_dot_matches_row_rendering(self, odd_ids, tmp_path):
        corpus, tensor = odd_ids
        path = tmp_path / "graph.dot"
        write_graph_dot(path, tensor, corpus)
        q = export._dot_quote
        edges = "".join(f"  {q(src)} -> {q(dst)} [layer={q(name)}, "
                        f"weight={q(weight)}];\n"
                        for src, dst, weight, name in self.rows(corpus, tensor))
        text = path.read_text(encoding="utf-8")
        assert text.endswith("];\n" + edges + "}\n")
        assert text.count(" -> ") == edges.count(" -> ")
