"""The entry points the benchmark calls still run and pass its own checks.

``bench/workloads.py`` is loaded by path and left as it is; each workload
runs one call on the first input of round 0 and its check must find no
failed state.
"""

import importlib.util
from pathlib import Path

import pytest

import qdeficit
import qdeficit.cli  # noqa: F401 - the workloads reach cli through the package

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_call_passes_its_check(name):
    workload = WORKLOADS[name](seed=0)
    first = workload.inputs(0)[0]
    result = workload.check(first, workload.call(qdeficit, first))
    assert result.failed == 0, result.notes
