"""One measuring process of a run: warm up, then time whole rounds.

    python3 bench/part.py <workload> <seed> <part> <seconds> [<calls per round>]

Part ``p`` starts at round ``p * run.ROUND_STRIDE``.  Prints one JSON
line: the calibrated and raw states/s of each timed round, the
calibration rates sampled, the attempted, failed and wrong state counts,
and this process's peak resident memory in KiB.
"""

import json
import resource
import sys

import run

sys.path.insert(0, str(run.SRC))

import qdeficit  # noqa: E402
import qdeficit.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

name, seed, part, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
calls = int(sys.argv[5]) if len(sys.argv) > 5 else None
measured = run.Run(qdeficit, WORKLOADS[name](seed, calls), first_round=part * run.ROUND_STRIDE)
result = run.throughput(measured, seconds)
result.update(
    attempted=measured.attempted,
    failed=measured.failed,
    wrong=measured.wrong,
    peak_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
)
print(json.dumps(result))
