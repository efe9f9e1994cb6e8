"""Run one leadnet command in-process with a span around each call into
the traced functions, then write the spans out.

    python3 perfbench/trace_run.py OUT -- all --input ... --out ...

Each traced name is replaced wherever leadnet code looks it up (module
globals and dicts such as ``cli.COMMANDS``), so the command keeps its
real call pattern.  Spans stay in memory while the command runs and go
to ``OUT.npz`` (name, start, end, parent, thread, failed, rss) and
``OUT.json`` (name table, counters, import time) when it ends.  The exit
code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module -> functions wrapped and reported.  cli.cmd_all is wrapped too,
# as the root span: its self time is the pipeline's own work between
# wrapped calls.
TRACED = {
    "ingest": ("parse_thread_log", "parse_ratings", "build_corpus",
               "window_partition", "whole_span_slice"),
    "multiplex": ("build_tensor", "build_empowerment", "build_collaboration",
                  "build_credibility", "resolve_recipient", "layer_union"),
    "rank": ("multiplex_pagerank", "brokerage"),
    "analytics": ("active_user_indices", "homophily", "top_mass",
                  "response_stats"),
    "topics": ("load_lexicon", "topics_in_window", "cooccurrence_graph",
               "thread_grams", "extract_concepts", "bron_kerbosch",
               "merge_vertical", "chain_streams", "write_topics_json"),
    "export": ("write_rankings_csv", "analytics_rows", "write_analytics_csv",
               "write_edges_csv", "write_graph_dot"),
    "cli": ("write_manifest",),
}
ROOT_SPAN = ("cli", "cmd_all")


def _file_bytes(result, args):
    return {"export.bytes": os.path.getsize(args[0])}


# counters read off a traced call's result or arguments
COUNTERS = {
    "ingest.parse_thread_log": lambda result, args: {
        "ingest.threads": len(result[0]),
        "ingest.comments": sum(len(t.comments) for t in result[0])},
    "ingest.parse_ratings": lambda result, args: {
        "ingest.ratings": len(result[0])},
    "ingest.window_partition": lambda result, args: {
        "cli.windows": len(result)},
    "multiplex.build_tensor": lambda result, args: {
        "multiplex.edges": sum(len(layer.edges)
                               for _name, layer in result.layers())},
    "topics.bron_kerbosch": lambda result, args: {
        "topics.cliques": len(result)},
    "topics.topics_in_window": lambda result, args: {
        "topics.topics": len(result)},
    "topics.chain_streams": lambda result, args: {
        "topics.streams": len(result)},
    "export.write_rankings_csv": _file_bytes,
    "export.write_analytics_csv": _file_bytes,
    "export.write_edges_csv": _file_bytes,
    "export.write_graph_dot": _file_bytes,
}


FIELDS = ("id", "name", "start", "end", "parent", "failed", "rss_kb")


class Tracer:
    """Collects spans into one flat buffer per thread, so recording a span
    takes no lock."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.counter_errors: list[str] = []
        self.buffers: list[tuple[int, array]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self) -> tuple[list, array]:
        local = self._local
        local.stack, local.buf = [], array("d")
        with self._lock:
            self.buffers.append((threading.get_ident(), local.buf))
        return local.stack, local.buf

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        module = qualname.split(".", 1)[0]
        count = COUNTERS.get(qualname)
        local, ids, clock = self._local, self._ids, time.perf_counter
        getrusage, who = resource.getrusage, resource.RUSAGE_SELF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, buf = local.stack, local.buf
            except AttributeError:
                stack, buf = self._thread_state()
            parent, parent_module = stack[-1] if stack else (-1, None)
            span = next(ids)
            stack.append((span, module))
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                end = clock()
                stack.pop()
                # a module's last span always ends at its outermost level,
                # so RSS is only sampled there
                rss = getrusage(who).ru_maxrss if parent_module != module \
                    else -1
                buf.extend((span, name_id, start, end, parent, failed, rss))
            if count is not None:
                self._count(qualname, count, result, args)
            return result

        return traced

    def _count(self, qualname, count, result, args):
        try:
            values = count(result, args)
        except Exception as exc:  # a changed return type must not stop the run
            self.counter_errors.append(f"{qualname}: {exc!r}")
            return
        with self._lock:
            for key, value in values.items():
                self.counters[key] += value

    def columns(self) -> dict:
        import numpy as np
        rows = [np.frombuffer(buf, dtype=float).reshape(-1, len(FIELDS))
                for _thread, buf in self.buffers]
        table = np.concatenate(rows) if rows else np.zeros((0, len(FIELDS)))
        cols = {key: table[:, k] for k, key in enumerate(FIELDS)}
        for key in ("id", "name", "parent", "failed", "rss_kb"):
            cols[key] = cols[key].astype(np.int64)
        cols["thread"] = np.concatenate(
            [np.full(len(buf) // len(FIELDS), thread, dtype=np.uint64)
             for thread, buf in self.buffers] or [np.zeros(0, np.uint64)])
        return cols


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name where leadnet code looks it up; returns the
    names that no longer exist."""
    absent = []
    targets = [(m, name) for m, names in TRACED.items() for name in names]
    for module, name in targets + [ROOT_SPAN]:
        original = getattr(importlib.import_module(f"leadnet.{module}"),
                           name, None)
        if not callable(original):
            absent.append(f"{module}.{name}")
            continue
        wrapper = tracer.wrap(f"{module}.{name}", original)
        for loaded in [m for key, m in sys.modules.items()
                       if key == "leadnet" or key.startswith("leadnet.")]:
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from leadnet import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    absent = install(tracer)
    code = cli.main(argv[2:])

    import numpy as np
    np.savez(out.with_suffix(".npz"), **tracer.columns())
    out.with_suffix(".json").write_text(json.dumps({
        "names": tracer.names,
        "absent": absent,
        "counters": tracer.counters,
        "counter_errors": tracer.counter_errors,
        "import_s": import_s,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
