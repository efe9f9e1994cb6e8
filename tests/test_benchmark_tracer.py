"""The names the benchmark's tracer wraps stay where it looks for them.

``perfbench/trace_run.py`` replaces each name of its ``TRACED`` table
wherever leadnet code looks it up, module globals and dict values alike,
and reads counters off a few results.  A name that the package deletes
or hides drops out of every traced run without failing it, so this test
pins what the tracer needs.  ``trace_run.py`` is imported from its file
and left as it is; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from leadnet import cli, multiplex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced names that the package no longer has.  The benchmark change
# that brings the tracer level with the code empties this list.
ABSENT = {
    "multiplex.build_empowerment", "multiplex.build_collaboration",
    "multiplex.build_credibility", "multiplex.resolve_recipient",
    "multiplex.layer_union", "analytics.homophily",
    "analytics.response_stats", "topics.extract_concepts",
    "export.analytics_rows",
}


@pytest.fixture
def trace_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_trace_run", PERFBENCH / "trace_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_absent_from_the_package(trace_run):
    names = [(module, name) for module, names in trace_run.TRACED.items()
             for name in names] + [trace_run.ROOT_SPAN]
    absent = {f"{module}.{name}" for module, name in names
              if not callable(getattr(importlib.import_module(
                  f"leadnet.{module}"), name, None))}
    assert absent == ABSENT


def test_root_span_is_the_command_table_entry():
    """The tracer swaps a dict value by identity, so ``cli.self.s`` has
    its root span only while ``COMMANDS["all"]`` is ``cmd_all`` itself."""
    assert cli.COMMANDS["all"] is cli.cmd_all


def test_layers_keep_the_edges_the_edge_counter_reads():
    assert hasattr(multiplex.Layer, "edges")
