"""Deterministic file writers for rankings, analytics and graphs.

Floats are rendered with ``repr`` so values round-trip exactly and the
same inputs always produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analytics import Subgraph
from .ingest import Corpus
from .multiplex import LAYER_NAMES, MultiplexTensor
from .rank import MprResult, RankVector

RANKINGS_COLUMNS = (
    "user_id", "gender", "role",
    "r_empowerment", "r_collaboration", "r_credibility",
    "leadership", "brokerage",
)
ANALYTICS_COLUMNS = ("window_start", "metric", "group", "value", "count")
EDGES_COLUMNS = ("src", "dst", "weight", "layer")


def _writer(handle) -> csv.writer:
    return csv.writer(handle, lineterminator="\n")


def write_rankings_csv(
    path: str | Path, corpus: Corpus, result: MprResult, broker: RankVector,
) -> None:
    """One row per user, highest leadership first; ties break on id
    (users are indexed in id order)."""
    n = len(corpus.users)
    order = np.lexsort((np.arange(n), -result.leadership.scores))
    columns = [vector.scores[order].tolist() for vector in (
        result.empowerment, result.collaboration, result.credibility,
        result.leadership, broker)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(RANKINGS_COLUMNS)
        for i, *scores in zip(order.tolist(), *columns):
            user = corpus.users[i]
            out.writerow([user.user_id, user.gender.name,
                          user.role.value, *map(repr, scores)])


def write_analytics_csv(path: str | Path, rows: Iterable[tuple]) -> None:
    """The rows ``analytics.analytics_rows`` builds, under a header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(ANALYTICS_COLUMNS)
        out.writerows(rows)


# rows rendered per batch: enough to amortize numpy calls, few enough
# that a batch of strings stays small next to the corpus
_CHUNK = 4096


def _edge_chunks(tensor: MultiplexTensor
                 ) -> Iterator[tuple[str, list[int], list[int], Iterator[str]]]:
    """Every edge as (layer, src indices, dst indices, rendered weights),
    a batch at a time, layer by layer in LAYER_NAMES order and sorted by
    user index within a layer."""
    for name in LAYER_NAMES:
        layer = tensor.layer(name)
        for lo in range(0, layer.src.size, _CHUNK):
            hi = lo + _CHUNK
            yield (name, layer.src[lo:hi].tolist(), layer.dst[lo:hi].tolist(),
                   map(repr, layer.weight[lo:hi].tolist()))


def _csv_field(text: str) -> str:
    """``text`` as csv.writer renders it as one field of a row: quoted
    when it holds a delimiter, a quote or a line break."""
    buffer = io.StringIO()
    _writer(buffer).writerow([text])
    return buffer.getvalue()[:-1]


def write_edges_csv(path: str | Path, tensor: MultiplexTensor,
                    corpus: Corpus) -> None:
    """The edge rows csv.writer would write; each id is rendered once."""
    ids = [_csv_field(user.user_id) for user in corpus.users]
    with open(path, "w", encoding="utf-8", newline="") as out:
        _writer(out).writerow(EDGES_COLUMNS)
        for name, src, dst, weight in _edge_chunks(tensor):
            tail = f",{name}\n"
            out.write("".join([f"{ids[s]},{ids[d]},{w}{tail}"
                               for s, d, w in zip(src, dst, weight)]))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_graph_dot(path: str | Path, tensor: MultiplexTensor,
                    corpus: Corpus) -> None:
    """All three layers in one digraph; edges carry a layer attribute."""
    quoted = [_dot_quote(user.user_id) for user in corpus.users]
    with open(path, "w", encoding="utf-8") as out:
        out.write("digraph leadnet {\n")
        for user, node in zip(corpus.users, quoted):
            out.write(
                f"  {node} [gender={_dot_quote(user.gender.name)}, "
                f"role={_dot_quote(user.role.value)}];\n"
            )
        for name, src, dst, weight in _edge_chunks(tensor):
            # a float's repr needs no escaping inside quotes
            tail = f" [layer={_dot_quote(name)}, weight=\""
            out.write("".join([f"  {quoted[s]} -> {quoted[d]}{tail}{w}\"];\n"
                               for s, d, w in zip(src, dst, weight)]))
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
