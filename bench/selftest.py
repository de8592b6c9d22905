"""Fast self-test of the benchmark: every workload at a tiny size passes its
checks, prints the metrics BENCHMARK.json names, and its checks reject a
corrupted output.

    python3 bench/selftest.py

Exits 0 when every check holds; takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def _result(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main([
            "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
            "--calls", "1", "--setup-samples", "1",
        ])
    _require(code == 0, f"{workload}: exit code {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _corrupt(name: str, output):
    """The same output with one figure of its first state made wrong."""
    if name == "werner-sweep":
        row = list(output[0])
        row[3] += 1e-6
        return [tuple(row)] + list(output[1:])
    if name == "classify-stream":
        return [dataclasses.replace(output[0], deficit=output[0].deficit + 1e-6)] + list(output[1:])
    counts, failures = output
    return counts, failures + ["state 3 (seed 0) failed deficit-bounds: corrupted"]


def main() -> int:
    names = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    _require(sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"]), "workload names differ")
    sys.path.insert(0, str(run.SRC))
    import qdeficit
    import qdeficit.cli  # noqa: F401

    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            res = _result(name, trace)
            _require(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{name}: {res}")
            _require(list(res["metrics"]) == names[trace], f"{name}: metric names {list(res['metrics'])}")
        wl = cls(7, 1)
        inputs = wl.inputs(0)[0]
        out = wl.call(qdeficit, inputs)
        _require(wl.check(inputs, out).failed == 0, f"{name}: clean output rejected")
        bad = wl.check(inputs, _corrupt(name, out))
        _require(bad.wrong == 1, f"{name}: corrupted output not caught ({bad.wrong} wrong)")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
