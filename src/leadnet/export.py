"""Deterministic file writers for rankings, analytics and graphs.

Floats are rendered with ``repr`` so values round-trip exactly and the
same inputs always produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator

from .analytics import HomophilyEntry, ResponseGroupStats, Subgraph, TopMassEntry
from .ingest import Corpus, Gender
from .multiplex import LAYER_NAMES, MultiplexTensor
from .rank import MprResult, RankVector

RANKINGS_COLUMNS = (
    "user_id", "gender", "role",
    "r_empowerment", "r_collaboration", "r_credibility",
    "leadership", "brokerage",
)
ANALYTICS_COLUMNS = ("window_start", "metric", "group", "value", "count")
EDGES_COLUMNS = ("src", "dst", "weight", "layer")


def render(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _writer(handle) -> csv.writer:
    return csv.writer(handle, lineterminator="\n")


def write_rankings_csv(
    path: str | Path, corpus: Corpus, result: MprResult, broker: RankVector,
) -> None:
    """One row per user, highest leadership first; ties break on id."""
    order = sorted(
        range(len(corpus.users)),
        key=lambda i: (-result.leadership.scores[i], corpus.users[i].user_id),
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(RANKINGS_COLUMNS)
        for i in order:
            user = corpus.users[i]
            gender = "unknown" if user.gender is Gender.unknown \
                else user.gender.name
            out.writerow([
                user.user_id, gender, user.role.value,
                render(float(result.empowerment.scores[i])),
                render(float(result.collaboration.scores[i])),
                render(float(result.credibility.scores[i])),
                render(float(result.leadership.scores[i])),
                render(float(broker.scores[i])),
            ])


def analytics_rows(
    window_start: str,
    homophily_entry: HomophilyEntry,
    top_entry: TopMassEntry | None,
    role_stats: Iterable[ResponseGroupStats],
    gender_stats: Iterable[ResponseGroupStats],
) -> list[tuple[str, str, str, str, str]]:
    """Flatten one window's analytics into ``analytics.csv`` rows.  A
    window without active users has no ``top_entry``: its top_mass_w row
    reads k=0 with an empty value and a count of 0."""
    h = homophily_entry
    top = ("k=0", "", "0") if top_entry is None else (
        f"k={top_entry.k}", render(top_entry.mass_w), str(top_entry.n_active))
    rows = [
        (window_start, "homophily_p_ww", "", render(h.p_ww), str(h.w_comments)),
        (window_start, "homophily_p_mm", "", render(h.p_mm), str(h.m_comments)),
        (window_start, "prior_w", "", render(h.prior_w), str(h.threads_known)),
        (window_start, "prior_m", "", render(h.prior_m), str(h.threads_known)),
        (window_start, "top_mass_w", *top),
    ]
    for stats in role_stats:
        rows.append((window_start, "response_latency_mean_s",
                     f"role:{stats.group}", render(stats.mean_latency_s),
                     str(stats.comment_count)))
    for stats in gender_stats:
        rows.append((window_start, "response_latency_mean_s",
                     f"gender:{stats.group}", render(stats.mean_latency_s),
                     str(stats.comment_count)))
    return rows


def write_analytics_csv(path: str | Path, rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(ANALYTICS_COLUMNS)
        for row in rows:
            out.writerow(list(row))


def _edge_rows(tensor: MultiplexTensor,
              corpus: Corpus) -> Iterator[tuple[str, str, str, str]]:
    """Every edge as rendered (src id, dst id, weight, layer), layer by
    layer in LAYER_NAMES order and sorted by user index within a layer."""
    for name in LAYER_NAMES:
        layer = tensor.layer(name)
        for (src, dst) in sorted(layer.edges):
            yield (corpus.users[src].user_id, corpus.users[dst].user_id,
                   render(layer.edges[(src, dst)]), name)


def write_edges_csv(path: str | Path, tensor: MultiplexTensor,
                    corpus: Corpus) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(EDGES_COLUMNS)
        out.writerows(_edge_rows(tensor, corpus))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_graph_dot(path: str | Path, tensor: MultiplexTensor,
                    corpus: Corpus) -> None:
    """All three layers in one digraph; edges carry a layer attribute."""
    quoted = {user.user_id: _dot_quote(user.user_id) for user in corpus.users}
    with open(path, "w", encoding="utf-8") as out:
        out.write("digraph leadnet {\n")
        for user in corpus.users:
            gender = "unknown" if user.gender is Gender.unknown \
                else user.gender.name
            out.write(
                f"  {quoted[user.user_id]} "
                f"[gender={_dot_quote(gender)}, role={_dot_quote(user.role.value)}];\n"
            )
        for src, dst, weight, name in _edge_rows(tensor, corpus):
            out.write(
                f"  {quoted[src]} -> {quoted[dst]} "
                f"[layer={_dot_quote(name)}, weight={_dot_quote(weight)}];\n"
            )
        out.write("}\n")


def write_role_graph_dot(path: str | Path, subgraph: Subgraph,
                         corpus: Corpus) -> None:
    """The role-filtered layer union as an undirected graph."""
    lines = ["graph leadnet_roles {"]
    for i in subgraph.nodes:
        lines.append(f"  {_dot_quote(corpus.users[i].user_id)};")
    for i, j in subgraph.edges:
        lines.append(
            f"  {_dot_quote(corpus.users[i].user_id)} -- "
            f"{_dot_quote(corpus.users[j].user_id)};"
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
