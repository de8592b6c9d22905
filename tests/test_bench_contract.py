"""The entry points the benchmark calls still run and pass its own checks.

``bench/workloads.py`` and ``bench/spans.py`` are loaded by path and left
as they are; each workload runs one call on the first input of round 0 and
its check must find no failed state, and the tracer finds every name it wraps.
"""

import importlib.util
from pathlib import Path

import pytest

import qdeficit
import qdeficit.cli  # noqa: F401 - the workloads reach cli through the package
from qdeficit.linalg import DensityMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_call_passes_its_check(name):
    workload = WORKLOADS[name](seed=0)
    first = workload.inputs(0)[0]
    result = workload.check(first, workload.call(qdeficit, first))
    assert result.failed == 0, result.notes


def test_tracer_finds_every_name_it_wraps():
    """Building the tracer looks up the ``DensityMatrix`` methods it wraps by name."""
    tracer = _load("spans").Tracer(qdeficit)
    patched = {(owner, attr) for owner, attr, _, _ in tracer._patches}
    assert {(DensityMatrix, "__init__"), (DensityMatrix, "marginal")} <= patched
