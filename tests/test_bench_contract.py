"""The benchmark's use of the package, once on tiny inputs: a change that
deletes or renames a name bench/ calls fails here, not in the benchmark run.

bench/ is imported, never written (no bytecode lands there, and traced runs
write their spans under tmp_path).  Both modes run, and their result lines
carry BENCHMARK.json's metric names; the traced mode's span-cover check is
not run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hrscodes import Poly

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    yield workloads
    for name in ("workloads", "checks"):
        sys.modules.pop(name, None)


@pytest.fixture
def bench_run(monkeypatch, tmp_path):
    """bench/run.py as a module, writing under tmp_path.  Importing it pins
    the BLAS thread variables in os.environ; they are restored afterwards."""
    environ = dict(os.environ)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    yield run
    for name in ("run", "tracing", "workloads", "checks"):
        sys.modules.pop(name, None)
    os.environ.clear()
    os.environ.update(environ)


@pytest.mark.parametrize("name", ["decode-n256", "decode-bigp-n64", "simulate-sweep"])
def test_every_workload_op_passes_its_check(workloads, name, tmp_path):
    workload = workloads.build(name, 1, tmp_path, tiny=True)
    assert workload.ops
    for index, op in enumerate(workload.ops):
        assert op.check(op.run()) is None, op.label
        if workload.out_of_band is not None:
            assert workload.out_of_band(index, True) is None, op.label


@pytest.mark.parametrize("name", ["decode-n256", "decode-bigp-n64", "simulate-sweep"])
def test_set_up_probe_runs_in_a_fresh_interpreter(workloads, name, tmp_path):
    # The probe behind setup_s, started cold as the benchmark starts it.
    probe = workloads.build(name, 1, tmp_path, tiny=True).probe
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "setup_probe.py")],
        input=json.dumps({**probe, "src": str(ROOT / "src")}),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["setup_s"] > 0 and result["error"] is None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["decode-n256", "decode-bigp-n64", "simulate-sweep"])
def test_result_line_carries_the_declared_metrics(bench_run, name, trace):
    # The self-test's metric-name and failure checks, on its tiny inputs.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])
    result = bench_run.run_workload(name, 1, 0.0, trace, tiny=True)
    assert sorted(result["metrics"]) == wanted
    assert result["failed"] == 0 and result["correct"] is True


def test_names_the_self_test_uses():
    # The self-test forges a wrong decode result with these.
    assert callable(Poly.one) and callable(Poly.__add__)
