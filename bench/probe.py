"""One set-up sample: a fresh interpreter imports qdeficit and qdeficit.cli,
builds the first round's inputs of a workload and finishes the first call.

    python3 bench/probe.py <workload> <seed>

``run.py`` times this script from spawn to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdeficit  # noqa: E402
import qdeficit.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workload.call(qdeficit, workload.inputs(0)[0])
