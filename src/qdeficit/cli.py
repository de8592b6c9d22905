"""Command-line surface: reference-table regression, Werner sweeps,
state classification, and the randomized property audit.

The figures come from ``structure`` and the audit from ``audit``; this
module holds the reference tables they are compared against, parses
arguments and formats output.

Exit codes: 0 success, 1 verification failure, 2 input error, 141 (128 +
SIGPIPE) when the reader closes stdout early, as ``| head`` does; the rest
of the output then goes to the null device, with no traceback.  Results go
to stdout, diagnostics to stderr.  Numeric output uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .audit import AUDIT_PROPERTIES, run_audit
from .linalg import TOLS, DensityMatrix, Tolerances, density_from_json
from .states import EXAMPLE_NAMES, example_state, from_registry, isospectral_pair, werner_matrices
from .structure import classify, classify_stack, verdicts

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN5 = math.log(5.0)

_COLUMNS = ("concurrence", "entropy_diff_a", "entropy_diff_b", "deficit_over_ln2", "mutual_over_ln2")

# Closed forms of the figures the reference reports check, keyed by registry
# name: table1's five columns for E1..E6 and three iso-report figures for the pair.
_CLOSED = {
    "E1": {
        "concurrence": 2.0 / 3.0,
        "entropy_diff_a": (5.0 / 6.0) * math.log(4.0 / 5.0),
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": (5.0 * LN5 - 8.0 * LN2) / (6.0 * LN2),
        "mutual_over_ln2": (3.0 * LN3 - 2.0 * LN2) / (3.0 * LN2),
    },
    "E2": {
        "concurrence": 1.0 / 3.0,
        "entropy_diff_a": (5.0 / 6.0) * math.log(5.0 / 4.0),
        "entropy_diff_b": (5.0 / 6.0) * math.log(5.0 / 4.0),
        "deficit_over_ln2": 1.0 / 3.0,
        "mutual_over_ln2": (3.0 * LN3 + 8.0 * LN2 - 5.0 * LN5) / (3.0 * LN2),
    },
    "E3": {
        "concurrence": 2.0 / 3.0,
        "entropy_diff_a": 0.0,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 2.0 / 3.0,
        "mutual_over_ln2": (3.0 * LN3 - 2.0 * LN2) / (3.0 * LN2),
    },
    "E4": {
        "concurrence": 1.0,
        "entropy_diff_a": -LN2,
        "entropy_diff_b": -LN2,
        "deficit_over_ln2": 1.0,
        "mutual_over_ln2": 2.0,
    },
    "E5": {
        "concurrence": 0.0,
        "entropy_diff_a": LN2,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 0.0,
        "mutual_over_ln2": 0.0,
    },
    "E6": {
        "concurrence": 0.0,
        "entropy_diff_a": 0.0,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 0.0,
        "mutual_over_ln2": 1.0,
    },
    "iso:E": {"concurrence": 2.0 / 3.0, "mutual": (3.0 * LN3 - 2.0 * LN2) / 3.0, "deficit": (2.0 / 3.0) * LN2},
    "iso:S": {"concurrence": 0.0, "mutual": (3.0 * LN3 - 2.0 * LN2) / 3.0, "deficit": 0.0},
}

# The four nontrivial decimals as printed in the reference table.
_TABLE1_PRINTED = {
    ("E1", "deficit_over_ln2"): 0.6016,
    ("E1", "mutual_over_ln2"): 0.9182,
    ("E2", "mutual_over_ln2"): 0.3817,
    ("E3", "mutual_over_ln2"): 0.9183,
}


# Round-off allowance for the last grid point p = pmin + k * step against pmax.
# A float64 round-off level, not a bound: ``--tolerance`` would move the grid's last point.
_GRID_END_SLACK = 1e-12

# Rows classified per ``classify_stack`` call: bounds the sweep's working
# arrays (a few hundred kB) whatever the step.
WERNER_CHUNK = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def table1_rows(tols: Tolerances = TOLS) -> dict[str, dict[str, float]]:
    """Computed concurrence, q=1 entropy differences, D/ln2 and S/ln2 per example."""
    rows = {}
    for name in EXAMPLE_NAMES:
        report = classify(example_state(name, tols=tols), tols=tols)
        rows[name] = {
            "concurrence": report.concurrence,
            "entropy_diff_a": report.entropy_diff_a,
            "entropy_diff_b": report.entropy_diff_b,
            "deficit_over_ln2": report.deficit / LN2,
            "mutual_over_ln2": report.mutual / LN2,
        }
    return rows


def _mismatches(rows: dict[str, dict[str, float]], tols: Tolerances) -> list[str]:
    """One line per figure of ``rows`` off its closed form by more than ``tols.hermiticity``
    or off its printed decimal by more than ``tols.printed``; a NaN counts as off."""
    mismatches = []
    for name, row in rows.items():
        for col, closed in _CLOSED[name].items():
            got, printed = row[col], _TABLE1_PRINTED.get((name, col))
            for label, want, tol in (("closed form", closed, tols.hermiticity), ("printed", printed, tols.printed)):
                if want is not None and not abs(got - want) <= tol:
                    mismatches.append(f"{name}.{col}: computed {_fmt(got)} vs {label} {_fmt(want)} "
                                      f"(|diff| {abs(got - want):.3e} > {tol:.1e})")
    return mismatches


def check_table1(tols: Tolerances = TOLS) -> tuple[dict, list[str]]:
    """Compare the computed table against closed forms and printed decimals."""
    rows = table1_rows(tols)
    return rows, _mismatches(rows, tols)


def _grid(pmin: float, pmax: float, step: float):
    """p = pmin + k * step for k = 0, 1, ... up to pmax, the last point clamped to pmax and emitted once."""
    k = 0
    while (p := pmin + k * step) <= pmax + _GRID_END_SLACK:
        if p >= pmax:
            yield pmax
            return
        yield p
        k += 1


def werner_sweep_rows(pmin: float, pmax: float, step: float, tols: Tolerances = TOLS):
    """Rows (p, C, S/ln2, D/ln2, conditional entropy at q=1, PPT min eigenvalue).

    Every column after p is a ``classify`` field; the q=1 conditional
    entropy is ``entropy_diff_a``, S(AB) - S(A).  The grid is classified
    ``WERNER_CHUNK`` rows at a time by ``classify_stack``, whose figure
    columns are read as Python floats, the values ``classify`` reports.
    """
    if not (0.0 <= pmin <= pmax <= 1.0):
        raise ValueError(f"need 0 <= min <= max <= 1, got [{pmin}, {pmax}]")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    grid = _grid(pmin, pmax, step)
    rows = []
    while chunk := list(itertools.islice(grid, WERNER_CHUNK)):
        cols = classify_stack(werner_matrices(chunk), tols=tols)
        rows += zip(
            chunk, cols.concurrence.tolist(), (cols.mutual / LN2).tolist(), (cols.deficit / LN2).tolist(),
            cols.entropy_diff_a.tolist(), cols.ppt_min_eig.tolist(),
        )
    return rows


def iso_report_data(tols: Tolerances = TOLS) -> dict:
    data = {}
    for tag, rho in zip("ES", isospectral_pair(tols=tols)):
        report = classify(rho, tols=tols)
        data[tag] = {
            "spectrum": [float(v) for v in rho.eigenvalues],
            "marginal_spectrum_a": [float(v) for v in rho.marginal("A").eigenvalues],
            "marginal_spectrum_b": [float(v) for v in rho.marginal("B").eigenvalues],
            "concurrence": report.concurrence,
            "entropy_diff_a": report.entropy_diff_a,
            "mutual": report.mutual,
            "deficit": report.deficit,
        }
    return data


def check_iso_report(tols: Tolerances = TOLS) -> tuple[dict, list[str]]:
    data = iso_report_data(tols)
    spec_gap = max(abs(a - b) for a, b in zip(data["E"]["spectrum"], data["S"]["spectrum"]))
    mismatches = [f"global spectra differ by {spec_gap:.3e}"] if spec_gap > tols.support_cutoff else []
    mismatches += _mismatches({f"iso:{tag}": row for tag, row in data.items()}, tols)
    return data, mismatches


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_table1(args, tols: Tolerances) -> int:
    rows, mismatches = check_table1(tols)
    header = ("example",) + _COLUMNS
    widths = [max(len(h), 18) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for name, row in rows.items():
        cells = [name.ljust(widths[0])]
        cells += [_fmt(row[col]).ljust(w) for col, w in zip(_COLUMNS, widths[1:])]
        print("  ".join(cells).rstrip())
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


def _cmd_werner_sweep(args, tols: Tolerances) -> int:
    rows = werner_sweep_rows(args.min, args.max, args.step, tols)
    print("p,concurrence,mutual_over_ln2,deficit_over_ln2,cond_entropy_q1,ppt_min_eig")
    for row in rows:
        print(",".join(_fmt(x) for x in row))
    if args.gnuplot:
        with open(args.gnuplot, "w", encoding="utf-8") as fh:
            fh.write(
                "set datafile separator ','\n"
                "set key autotitle columnhead\n"
                "set xlabel 'p'\n"
                "plot csvfile using 1:2 with lines title 'concurrence', \\\n"
                "     csvfile using 1:3 with lines title 'mutual/ln2', \\\n"
                "     csvfile using 1:4 with lines title 'deficit/ln2'\n"
            )
        print(f"wrote gnuplot script to {args.gnuplot} (set csvfile='<csv path>')", file=sys.stderr)
    return 0


def _resolve_state(spec: str, tols: Tolerances) -> DensityMatrix:
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return density_from_json(json.load(fh), tols=tols)
    return from_registry(spec, tols=tols)


def _cmd_classify(args, tols: Tolerances) -> int:
    report = classify(_resolve_state(args.state, tols), tols=tols)
    payload = {**report._asdict(), "verdicts": verdicts(report, tols=tols)}
    for key, value in payload.items():
        if isinstance(value, float):
            payload[key] = float(_fmt(value))
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_audit(args, tols: Tolerances) -> int:
    counts, failures = run_audit(args.n, args.seed, args.jobs, tols)
    print(f"audit n={args.n} seed={args.seed}")
    for prop in AUDIT_PROPERTIES:
        checked, failed = counts[prop]
        status = "PASS" if failed == 0 else "FAIL"
        print(f"{status} {prop} ({checked - failed}/{checked})")
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print(f"{len(failures)} property violations", file=sys.stderr)
        return 1
    return 0


def _cmd_iso_report(args, tols: Tolerances) -> int:
    data, mismatches = check_iso_report(tols)
    for tag in ("E", "S"):
        d = data[tag]
        print(f"state {tag}:")
        print(f"  spectrum           {' '.join(_fmt(v) for v in d['spectrum'])}")
        print(f"  marginal spectra   A: {' '.join(_fmt(v) for v in d['marginal_spectrum_a'])}"
              f"  B: {' '.join(_fmt(v) for v in d['marginal_spectrum_b'])}")
        print(f"  concurrence        {_fmt(d['concurrence'])}")
        print(f"  entropy_diff_a     {_fmt(d['entropy_diff_a'])}")
        print(f"  mutual             {_fmt(d['mutual'])}")
        print(f"  deficit            {_fmt(d['deficit'])}")
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeficit",
        description="Entropy-based separability and correlation toolkit for two-qubit states.",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.0,
        metavar="SCALE",
        help="finite positive scale factor applied to every library check and verdict bound, to the "
        "audit's bounds and to the table1/iso-report comparisons (default 1.0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce the reference example table and verify it")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("werner-sweep", help="CSV sweep of the Werner family")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--gnuplot", metavar="PATH", default=None,
                   help="also write a gnuplot script for the emitted CSV")
    p.set_defaults(func=_cmd_werner_sweep)

    p = sub.add_parser("classify", help="full diagnostic report for one state")
    p.add_argument("state", help="registry name (werner:<p>, E1..E6, iso:E, iso:S, pure:<amps>) or JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("audit", help="run the randomized property audit")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("iso-report", help="isospectral pair discrimination report")
    p.set_defaults(func=_cmd_iso_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # CheckError, RegistryError and json.JSONDecodeError are ValueErrors: every input error exits 2.
    try:
        code = args.func(args, Tolerances(args.tolerance))
        sys.stdout.flush()  # here, not at exit, so a short output's closed pipe is caught below too
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
