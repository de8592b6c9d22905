"""Benchmark of qdeficit on three workloads, checked against independent results.

    python3 bench/run.py --workload {werner-sweep,classify-stream,audit}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout.  With ``--trace 0`` the timed
rounds run in PARTS fresh child processes (``part.py``) one after the
other, and the set-up samples in fresh child interpreters (``probe.py``);
each child runs on one thread.  With ``--trace 1`` everything runs in this
process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are ``states_per_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` they are the per-layer figures of ``spans.PER_LAYER``.
See README.md for what each number means and how it is made steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9

# Each process runs at its own speed, steady for its lifetime but up to
# 14% apart from another's even after calibration (it persists with
# address-space randomization and hash randomization turned off).  The
# timed rounds are therefore spread over several processes and pooled.
PARTS = 12
ROUND_STRIDE = 1_000_000  # part p runs rounds p * ROUND_STRIDE, ... so no input repeats


def measure_setup(workload: str, seed: int, samples: int) -> float:
    """Median reference seconds from spawning a fresh interpreter running probe.py to its exit.

    Each sample is scaled like a timed call, by the calibration rate taken
    just before and just after it.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    # Every sample starts with bytecode caches in place, as an installed
    # package does, whatever the caller's environment: the first child
    # writes them and is not counted.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60, env=env)
    times = []
    before = calibrate.rate()
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60, env=env)
        elapsed = time.perf_counter() - t0
        after = calibrate.rate()
        times.append(elapsed * 0.5 * (before + after) / calibrate.REFERENCE_PER_S)
        before = after
    return statistics.median(times)


class Run:
    """Rounds of one workload, with their checks and failure counts."""

    def __init__(self, qd, workload, first_round: int = 0):
        self.qd = qd
        self.workload = workload
        self.round = first_round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.shown_traceback = False

    def _call(self, inputs, sampler: calibrate.Sampler | None, counted: bool = True) -> tuple[float, float]:
        """Run and check one call: (own seconds, reference seconds).

        Without a sampler, reference seconds equal wall seconds.  An
        uncounted call still marks the run incorrect if its output is wrong.
        """
        wl = self.workload
        since = sampler.mark() if sampler else None
        t0 = time.perf_counter()
        try:
            out = wl.call(self.qd, inputs)
        except Exception:  # noqa: BLE001 - a failing call is counted, not fatal
            out = None
            if not self.shown_traceback:
                traceback.print_exc()
                self.shown_traceback = True
        wall = time.perf_counter() - t0
        times = sampler.scale(since, wall) if sampler else (wall, wall)
        if out is None:
            attempted = failed = wl.per_call
        else:
            res = wl.check(inputs, out)
            attempted, failed = res.attempted, res.failed
            self.wrong += res.wrong
            for note in res.notes:
                print(f"{wl.name}: {note}", file=sys.stderr)
        if counted:
            self.attempted += attempted
            self.failed += failed
        return times

    def warm_up(self) -> None:
        """One untimed, uncounted call: the first of the next round, whose other calls are skipped."""
        self._call(self.workload.inputs(self.round)[0], None, counted=False)
        self.round += 1

    def next_round(self, sampler: calibrate.Sampler | None = None) -> tuple[int, float, float]:
        """Run and check one round: (states, own seconds, reference seconds) of its calls."""
        calls = self.workload.inputs(self.round)
        self.round += 1
        own = ref = 0.0
        for inputs in calls:
            t_own, t_ref = self._call(inputs, sampler)
            own += t_own
            ref += t_ref
        return self.workload.per_call * len(calls), own, ref


def throughput(run: Run, seconds: float) -> dict[str, list[float]]:
    """Calibrated and raw states/s of each whole round, rounds lasting ``seconds``
    in all after one warm-up call, and every calibration rate sampled."""
    calibrated, raw = [], []
    run.warm_up()
    with calibrate.Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        while True:
            states, own, ref = run.next_round(sampler)
            calibrated.append(states / ref)
            raw.append(states / own)
            if time.perf_counter() >= deadline:
                break
    return {"calibrated": calibrated, "raw": raw, "calibration": sampler.rates}


def measure_parts(workload: str, seed: int, seconds: float, calls: int | None) -> dict:
    """Run ``part.py`` PARTS times in a row and pool what the parts report."""
    pooled = {"calibrated": [], "raw": [], "calibration": [], "attempted": 0, "failed": 0, "wrong": 0, "peak_kb": 0}
    for part in range(PARTS):
        cmd = [sys.executable, str(HERE / "part.py"), workload, str(seed), str(part), repr(seconds / PARTS)]
        if calls:
            cmd.append(str(calls))
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        sys.stderr.write(proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("calibrated", "raw", "calibration"):
            pooled[key] += res[key]
        for key in ("attempted", "failed", "wrong"):
            pooled[key] += res[key]
        pooled["peak_kb"] = max(pooled["peak_kb"], res["peak_kb"])
    return pooled


def traced(run: Run, tracer, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced rounds; per-layer figures from the traced ones.

    No calibration samples are taken here, since they would land inside
    the spans.  The overhead ratio is the median over adjacent
    (untraced, traced) pairs, which share most of the host's drift.
    """
    run.warm_up()
    deadline = time.perf_counter() + seconds
    ratios, states, wall = [], 0, 0.0
    while True:
        plain = run.next_round()[1]
        tracer.request_id = run.round
        tracer.install()
        try:
            n, spanned, _ = run.next_round()
        finally:
            tracer.remove()
        ratios.append(spanned / plain)
        states += n
        wall += spanned
        if time.perf_counter() >= deadline:
            break
    return tracer.layer_metrics(states, int(wall * 1e9), statistics.median(ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calls", type=int, default=None, help="calls per round (default: the workload's)")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    args = parser.parse_args(argv)

    if not (SRC / "qdeficit" / "__init__.py").is_file():
        print(f"error: no qdeficit sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        sys.path.insert(0, str(SRC))
        import qdeficit
        import qdeficit.cli  # noqa: F401
        from spans import PER_LAYER, Tracer

        run = Run(qdeficit, WORKLOADS[args.workload](args.seed, args.calls))
        tracer = Tracer(qdeficit)
        values = traced(run, tracer, args.seconds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}.json")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        counts = (run.attempted, run.failed, run.wrong)
    else:
        setup_s = measure_setup(args.workload, args.seed, args.setup_samples)
        res = measure_parts(args.workload, args.seed, args.seconds, args.calls)
        print(f"{args.workload}: {len(res['raw'])} timed rounds in {PARTS} processes, "
              f"raw median {statistics.median(res['raw']):.2f} states/s, "
              f"calibration median {statistics.median(res['calibration']):.1f} units/s "
              f"(reference {calibrate.REFERENCE_PER_S:g})")
        metrics = {
            "states_per_s": {"value": statistics.median(res["calibrated"]), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_kb"] / 1024.0, "unit": "MB"},
        }
        counts = (res["attempted"], res["failed"], res["wrong"])
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted, failed, wrong = counts
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
