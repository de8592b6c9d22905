"""Command-line surface: reference-table regression, Werner sweeps,
state classification, and the randomized property audit.

This module parses arguments and formats output.  The figures come from
``structure``, the audit from ``audit``, and the paper's reference
figures, which ``table1`` and ``iso-report`` check, from ``states``.

Exit codes: 0 success, 1 verification failure, 2 input error (a file
that cannot be opened among them), 141 (128 + SIGPIPE) when the reader
closes stdout early, as ``| head`` does; the rest of the output then goes
to the null device, with no traceback.  Results go to stdout, diagnostics
to stderr.  Numeric output uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from .audit import AUDIT_PROPERTIES, run_audit
from .linalg import TOLS, DensityMatrix, Tolerances, eigvalsh_stack, marginal_stack, matrix_from_json
from .states import EXAMPLE_NAMES, LN2, REFERENCE_FIGURES, from_registry, werner_matrices
from .structure import classify, classify_stack, figures_stack, verdicts

_COLUMNS = ("concurrence", "entropy_diff_a", "entropy_diff_b", "deficit_over_ln2", "mutual_over_ln2")

# Round-off allowance for the last grid point p = pmin + k * step against pmax.
# A float64 round-off level, not a bound: ``--tolerance`` would move the grid's last point.
_GRID_END_SLACK = 1e-12

# Rows per ``figures_stack`` call: bounds the sweep's working arrays (a few
# hundred kB) whatever the step.
WERNER_CHUNK = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _reference_check(names, tols: Tolerances) -> tuple[dict[str, dict], list[str]]:
    """The registry's ``names`` classified in one ``classify_stack`` call and held against their paper figures.

    Returns, per name, ``classify``'s fields with D and I in units of ln 2; and one line per figure
    off its closed form by more than ``tols.hermiticity`` or off its printed decimal by more than
    ``tols.printed``, a NaN counting as off.  Each line shows the bound as its shortest round-trip
    form, so that it reads back as the bound held.
    """
    cols = classify_stack([from_registry(name) for name in names], tols=tols)
    rows, mismatches = {}, []
    for name, values in zip(names, zip(*(col.tolist() for col in cols))):
        row = rows[name] = dict(zip(cols._fields, values))
        row.update(deficit_over_ln2=row["deficit"] / LN2, mutual_over_ln2=row["mutual"] / LN2)
        figures = REFERENCE_FIGURES[name]
        for col, closed in figures["closed"].items():
            got = row[col]
            for label, want, tol in (("closed form", closed, tols.hermiticity),
                                     ("printed", figures["printed"].get(col), tols.printed)):
                if want is not None and not abs(got - want) <= tol:
                    mismatches.append(f"{name}.{col}: computed {_fmt(got)} vs {label} {_fmt(want)} "
                                      f"(|diff| {abs(got - want):.3e} > {tol})")
    return rows, mismatches


def _verdict(mismatches: list[str]) -> int:
    """The reference commands' tail: each mismatch to stderr, and exit 1 if there is any."""
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


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

    Every column after p is a ``Figures`` field; the q=1 conditional
    entropy is ``entropy_diff_a``, S(AB) - S(A).  The grid goes
    ``WERNER_CHUNK`` rows at a time through ``figures_stack``, which runs
    every check that guards these columns and skips ``classify``'s
    diagnostics; its columns are read as Python floats, the values
    ``classify`` reports.
    """
    if not (0.0 <= pmin <= pmax <= 1.0):
        raise ValueError(f"need 0 <= min <= max <= 1, got [{pmin}, {pmax}]")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    grid = _grid(pmin, pmax, step)
    rows = []
    while chunk := list(itertools.islice(grid, WERNER_CHUNK)):
        cols = figures_stack(werner_matrices(chunk), tols=tols)
        rows += zip(
            chunk, cols.concurrence.tolist(), (cols.mutual / LN2).tolist(), (cols.deficit / LN2).tolist(),
            cols.entropy_diff_a.tolist(), cols.ppt_min_eig.tolist(),
        )
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_table1(args, tols: Tolerances) -> int:
    rows, mismatches = _reference_check(EXAMPLE_NAMES, tols)
    header = ("example",) + _COLUMNS
    widths = [max(len(h), 18) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for name, row in rows.items():
        cells = [name.ljust(widths[0])]
        cells += [_fmt(row[col]).ljust(w) for col, w in zip(_COLUMNS, widths[1:])]
        print("  ".join(cells).rstrip())
    return _verdict(mismatches)


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
            matrix = matrix_from_json(json.load(fh))
    else:
        matrix = from_registry(spec)
    return DensityMatrix(matrix, tols=tols)


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
    names = ("iso:E", "iso:S")
    rows, figure_mismatches = _reference_check(names, tols)
    matrices = np.stack([from_registry(name) for name in names])
    spectra = eigvalsh_stack(matrices, tols=tols)
    spec_gap = np.max(np.abs(spectra[0] - spectra[1]))
    mismatches = [f"global spectra differ by {spec_gap:.3e}"] if spec_gap > tols.support_cutoff else []
    marginals = marginal_stack(matrices, tols=tols)[1]
    for (name, row), spectrum, (marg_a, marg_b) in zip(rows.items(), spectra, marginals):
        print(f"state {name[-1]}:")
        print(f"  spectrum           {' '.join(_fmt(v) for v in spectrum)}")
        print(f"  marginal spectra   A: {' '.join(_fmt(v) for v in marg_a)}  B: {' '.join(_fmt(v) for v in marg_b)}")
        for col in ("concurrence", "entropy_diff_a", "mutual", "deficit"):
            print(f"  {col:<19}{_fmt(row[col])}")
    return _verdict(mismatches + figure_mismatches)


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
    p.add_argument("--seed", type=int, default=42,
                   help="state i is drawn from row i %% 256 of numpy's default_rng((seed, i // 256))"
                   ".standard_normal((256, 48)), read as 24 complex numbers (default 42)")
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
    # After BrokenPipeError, which is an OSError: a path that cannot be opened, such as --gnuplot's.
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
