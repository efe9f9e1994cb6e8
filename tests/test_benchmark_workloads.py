"""The benchmark's workloads end as ``perfbench/run.py`` requires.

``Run.op`` counts a run of a workload marked ``fails`` as verified only
when ``all`` exits 1 with the ConvergenceError message and leaves no
output directory, and any other workload only when it exits 0.  Each
workload's ``all`` runs here in-process, with the benchmark's own
arguments, on one corpus of the benchmark's size at ``FAULT_SEED``, so
a change that makes ``day_M`` converge, or fail another way, fails the
test suite before it spoils a benchmark run.  ``run.py`` is imported
from its file and left as it is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from leadnet import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports trace_run
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_each_workload_ends_as_the_benchmark_requires(bench, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus),
                     "--n-users", str(bench.N_USERS),
                     "--n-threads", str(bench.N_THREADS),
                     "--seed", str(bench.FAULT_SEED)]) == 0
    for name, workload in bench.WORKLOADS.items():
        out = tmp_path / name
        code = cli.main(bench.Run(None, workload, corpus).args(out, workload.jobs))
        err = capsys.readouterr().err
        if workload.fails:
            assert code == 1, name
            assert "ranking did not converge" in err, name
            assert not out.exists(), name
        else:
            assert code == 0, (name, err[-300:])
