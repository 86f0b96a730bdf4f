"""The benchmark's use of the package, once on tiny inputs: a change that
deletes or renames a name bench/ calls fails here, not in the benchmark run.

bench/ is imported, never written (no bytecode lands there).  The traced
mode and its span-cover check are not run.
"""

import sys
from pathlib import Path

import pytest

from hrscodes import Poly

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    yield workloads
    for name in ("workloads", "checks"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["decode-n256", "decode-bigp-n64", "simulate-sweep"])
def test_every_workload_op_passes_its_check(workloads, name, tmp_path):
    workload = workloads.build(name, 1, tmp_path, tiny=True)
    assert workload.ops
    for index, op in enumerate(workload.ops):
        assert op.check(op.run()) is None, op.label
        if workload.out_of_band is not None:
            assert workload.out_of_band(index, True) is None, op.label


def test_names_the_self_test_uses():
    # The self-test forges a wrong decode result with these.
    assert callable(Poly.one) and callable(Poly.__add__)
