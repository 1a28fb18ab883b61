"""The names of the pwe API that the benchmark under bench/ drives.

The benchmark's tracer wraps named pwe functions, and its workloads warm
and decode through the public API; a name removed from pwe would first
show up as a failed bench run.  bench/ is only read here: its modules are
imported without writing bytecode and dropped from sys.modules afterwards.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
# The pwe modules bench/run.py hands to its workloads and its tracer.
PWE_MODULES = ("gf2", "codes", "decoders", "harvest", "estimator", "sim", "fileio", "bounds")
BENCH_MODULES = ("checks", "spans", "workloads")


@pytest.fixture(scope="module")
def bench():
    path, no_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield SimpleNamespace(**{n: importlib.import_module(n) for n in BENCH_MODULES})
    finally:
        sys.path[:], sys.dont_write_bytecode = path, no_bytecode
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def m():
    return SimpleNamespace(**{n: importlib.import_module(f"pwe.{n}") for n in PWE_MODULES})


def test_tracer_wraps_every_name(bench, m):
    with bench.spans.trace_pwe(m) as tracer:
        assert tracer.missing == []


@pytest.mark.parametrize("name", ["osd3-harvest", "osd1-mld-sim"])
def test_workload_warms(bench, m, name):
    workload = bench.workloads.WORKLOADS[name]()
    workload.prepare(m)
    workload.warm(m)


def test_osd_corpus_decodes(bench, m):
    metrics, rep = bench.workloads.osd_corpus(m, 1, size=2)
    assert sorted(metrics) == [f"decoders.osd_decode.order{t}.us" for t in range(4)]
    assert rep.attempted == 8 and rep.failed == 0
