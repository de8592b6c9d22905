"""Command-line surface: reference-table regression, Werner sweeps,
state classification, and the randomized property audit.

Exit codes: 0 success, 1 verification failure, 2 input error.  Results go
to stdout, diagnostics to stderr.  Numeric output uses 12 significant
digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .concurrence import concurrence, pure_concurrence, spin_flip
from .entropy import (
    conditional_tsallis,
    mutual_entropy,
    tsallis,
    von_neumann,
)
from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_from_json,
    hermitian_eig,
    partial_transpose,
    psd_function,
    tensor_product,
)
from .states import (
    EXAMPLE_NAMES,
    PureStateAmplitudes,
    RegistryError,
    _haar_amplitudes,
    _haar_unitary,
    bloch_vectors,
    correlation_tensor,
    example_state,
    from_registry,
    isospectral_pair,
    pure_density,
    purity_check,
    random_mixed,
    werner_matrices,
)
from .structure import (
    alpha_beta_frame,
    classify,
    classify_stack,
    decohere,
    decohere_in_frame,
    overlap_tensor,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN5 = math.log(5.0)

_COLUMNS = ("concurrence", "entropy_diff_a", "entropy_diff_b", "deficit_over_ln2", "mutual_over_ln2")

# Closed-form reference values for the six example states.
_TABLE1_CLOSED = {
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
}

# The four nontrivial decimals as printed in the reference table.
_TABLE1_PRINTED = {
    ("E1", "deficit_over_ln2"): 0.6016,
    ("E1", "mutual_over_ln2"): 0.9182,
    ("E2", "mutual_over_ln2"): 0.3817,
    ("E3", "mutual_over_ln2"): 0.9183,
}

_ISO_CLOSED = {
    "mutual": (3.0 * LN3 - 2.0 * LN2) / 3.0,
    "deficit_e": (2.0 / 3.0) * LN2,
    "deficit_s": 0.0,
    "concurrence_e": 2.0 / 3.0,
    "concurrence_s": 0.0,
}


# Round-off allowance for the last grid point p = pmin + k * step against pmax.
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


def check_table1(tols: Tolerances = TOLS) -> tuple[dict, list[str]]:
    """Compare the computed table against closed forms and printed decimals."""
    rows = table1_rows(tols)
    closed_tol = tols.hermiticity
    printed_tol = tols.printed
    mismatches = []
    for name, row in rows.items():
        for col in _COLUMNS:
            got = row[col]
            want = _TABLE1_CLOSED[name][col]
            if abs(got - want) > closed_tol:
                mismatches.append(
                    f"{name}.{col}: computed {_fmt(got)} vs closed form {_fmt(want)} "
                    f"(|diff| {abs(got - want):.3e} > {closed_tol:.1e})"
                )
            printed = _TABLE1_PRINTED.get((name, col))
            if printed is not None and abs(got - printed) > printed_tol:
                mismatches.append(
                    f"{name}.{col}: computed {_fmt(got)} vs printed {printed} "
                    f"(|diff| {abs(got - printed):.3e} > {printed_tol:.1e})"
                )
    return rows, mismatches


def _grid(pmin: float, pmax: float, step: float):
    """p = pmin + k * step for k = 0, 1, ... up to pmax, the last point clamped to pmax."""
    k = 0
    while (p := pmin + k * step) <= pmax + _GRID_END_SLACK:
        yield min(p, pmax)
        k += 1


def werner_sweep_rows(pmin: float, pmax: float, step: float, tols: Tolerances = TOLS):
    """Rows (p, C, S/ln2, D/ln2, conditional entropy at q=1, PPT min eigenvalue).

    Every column after p is a ``classify`` field; the q=1 conditional
    entropy is ``entropy_diff_a``, S(AB) - S(A).  The grid is classified
    ``WERNER_CHUNK`` rows at a time by ``classify_stack``.
    """
    if not (0.0 <= pmin <= pmax <= 1.0):
        raise ValueError(f"need 0 <= min <= max <= 1, got [{pmin}, {pmax}]")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    grid = _grid(pmin, pmax, step)
    rows = []
    while chunk := list(itertools.islice(grid, WERNER_CHUNK)):
        for p, r in zip(chunk, classify_stack(werner_matrices(chunk), tols=tols)):
            rows.append((p, r.concurrence, r.mutual / LN2, r.deficit / LN2, r.entropy_diff_a, r.ppt_min_eig))
    return rows


def iso_report_data(tols: Tolerances = TOLS) -> dict:
    rho_e, rho_s = isospectral_pair(tols=tols)
    data = {}
    for tag, rho in (("E", rho_e), ("S", rho_s)):
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
    tol = tols.hermiticity
    mismatches = []
    spec_gap = max(abs(a - b) for a, b in zip(data["E"]["spectrum"], data["S"]["spectrum"]))
    if spec_gap > tols.support_cutoff:
        mismatches.append(f"global spectra differ by {spec_gap:.3e}")
    for tag in ("E", "S"):
        if abs(data[tag]["mutual"] - _ISO_CLOSED["mutual"]) > tol:
            mismatches.append(f"mutual entropy of {tag} off by "
                              f"{abs(data[tag]['mutual'] - _ISO_CLOSED['mutual']):.3e}")
    for key, tag in (("deficit_e", "E"), ("deficit_s", "S")):
        if abs(data[tag]["deficit"] - _ISO_CLOSED[key]) > tol:
            mismatches.append(f"deficit of {tag} off by {abs(data[tag]['deficit'] - _ISO_CLOSED[key]):.3e}")
    for key, tag in (("concurrence_e", "E"), ("concurrence_s", "S")):
        if abs(data[tag]["concurrence"] - _ISO_CLOSED[key]) > tol:
            mismatches.append(f"concurrence of {tag} off by {abs(data[tag]['concurrence'] - _ISO_CLOSED[key]):.3e}")
    return data, mismatches


# ---------------------------------------------------------------------------
# Randomized property audit
# ---------------------------------------------------------------------------

AUDIT_PROPERTIES = (
    "eig-reconstruction",
    "kron-partial-trace",
    "partial-transpose-involution",
    "sqrt-roundtrip",
    "mutual-nonnegative",
    "tsallis-continuity",
    "concurrence-range",
    "concurrence-flip-invariance",
    "concurrence-local-unitary",
    "concurrence-ppt-equivalence",
    "decohere-marginals",
    "decohere-idempotent",
    "decohere-joint-marginals",
    "klein-entropy-increase",
    "overlap-reconstruction",
    "joint-conditional-probability",
    "deficit-bounds",
    "deficit-mutual-gap-identity",
    "pure-marginal-entropy-symmetry",
    "pure-conditional-nonpositive",
    "pure-bloch-identity",
    "pure-pauli-reconstruction",
    "pure-concurrence-routes",
    "product-mutual-zero",
    "product-entropy-difference",
)


def _audit_state(index: int, seed: int, tols: Tolerances):
    """Build the audit state for one index and describe it."""
    if index == 0:
        amps = PureStateAmplitudes(0.0, 1.0, 0.0, 0.0)
        return pure_density(amps, tols=tols), amps, "fixed pure product |10>"
    kind = index % 3
    rng = np.random.default_rng((seed, index))
    if kind == 1:
        amps = PureStateAmplitudes(*_haar_amplitudes(rng))
        return pure_density(amps, tols=tols), amps, "haar pure"
    if kind == 2:
        a = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)), tols=tols)
        half_a = a.marginal("A")
        b = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)), tols=tols)
        half_b = b.marginal("B")
        prod = tensor_product(half_a.matrix, half_b.matrix)
        return DensityMatrix(prod, (2, 2), tols=tols), None, "random mixed product"
    rank = (index // 3 - 1) % 4 + 1
    return random_mixed(int(rng.integers(0, 2**32)), rank, tols=tols), None, f"random mixed rank {rank}"


def _run_state_checks(index: int, seed: int, tols: Tolerances) -> list[tuple[str, bool, str]]:
    rho, amps, label = _audit_state(index, seed, tols)
    rng = np.random.default_rng((seed, index, 7))
    results: list[tuple[str, bool, str]] = []

    def record(prop: str, ok: bool, detail: float | str = ""):
        results.append((prop, bool(ok), f"{label}: {detail}" if not ok else ""))

    es = rho.eigensystem()
    rec_err = float(np.max(np.abs(es.reconstruct() - rho.matrix)))
    tr_err = abs(float(np.sum(es.values)) - float(np.trace(rho.matrix).real))
    record("eig-reconstruction", rec_err <= 1e-9 and tr_err <= 1e-9, f"rec={rec_err:.2e} tr={tr_err:.2e}")

    marg_a, marg_b = rho.marginal("A"), rho.marginal("B")
    prod = DensityMatrix(tensor_product(marg_a.matrix, marg_b.matrix), (2, 2), tols=tols)
    kron_err = float(np.max(np.abs(prod.marginal("A").matrix - marg_a.matrix)))
    record("kron-partial-trace", kron_err <= 1e-12, f"{kron_err:.2e}")

    # involution checked on the raw matrix: the transpose of an entangled
    # state is not PSD, so it cannot round-trip through DensityMatrix
    pt = partial_transpose(rho, "B")
    da, db = rho.dims
    r = pt.reshape(da, db, da, db)
    pt_back = np.einsum("iljk->ikjl", r).reshape(4, 4)
    inv_err = float(np.max(np.abs(pt_back - rho.matrix)))
    tr_pt = abs(float(np.trace(pt).real) - 1.0)
    record("partial-transpose-involution", inv_err <= 1e-12 and tr_pt <= 1e-12, f"inv={inv_err:.2e}")

    root = psd_function(rho.matrix, "sqrt", tols=tols)
    sq_err = float(np.max(np.abs(root @ root - rho.matrix)))
    record("sqrt-roundtrip", sq_err <= 1e-8, f"{sq_err:.2e}")

    mut = mutual_entropy(rho, tols=tols)
    record("mutual-nonnegative", mut >= -1e-10, f"{mut:.2e}")

    s1 = von_neumann(rho, tols=tols)
    cont = max(abs(tsallis(rho, 1.0 + 1e-4, tols=tols) - s1), abs(tsallis(rho, 1.0 - 1e-4, tols=tols) - s1))
    record("tsallis-continuity", cont <= 1e-3, f"{cont:.2e}")

    conc = concurrence(rho, tols=tols)
    record("concurrence-range", -1e-12 <= conc <= 1.0 + 1e-10, f"{conc}")

    flip_gap = abs(conc - concurrence(spin_flip(rho, tols=tols), tols=tols))
    record("concurrence-flip-invariance", flip_gap <= 1e-8, f"{flip_gap:.2e}")

    u_local = tensor_product(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
    rotated = DensityMatrix(u_local @ rho.matrix @ u_local.conj().T, (2, 2), tols=tols)
    lu_gap = abs(conc - concurrence(rotated, tols=tols))
    record("concurrence-local-unitary", lu_gap <= 1e-8, f"{lu_gap:.2e}")

    ppt_min = float(hermitian_eig(pt, tols=tols).values[-1])
    record("concurrence-ppt-equivalence", (conc > 1e-8) == (ppt_min < -1e-8), f"C={conc:.3e} ppt={ppt_min:.3e}")

    frame = alpha_beta_frame(rho, tols=tols)
    rho_d, joint = decohere_in_frame(rho, frame, tols=tols)
    marg_err = max(
        float(np.max(np.abs(rho_d.marginal("A").matrix - marg_a.matrix))),
        float(np.max(np.abs(rho_d.marginal("B").matrix - marg_b.matrix))),
    )
    record("decohere-marginals", marg_err <= 1e-9, f"{marg_err:.2e}")

    rho_dd, _ = decohere(rho_d, tols=tols)
    idem = float(np.max(np.abs(rho_dd.matrix - rho_d.matrix)))
    record("decohere-idempotent", idem <= 1e-12, f"{idem:.2e}")

    joint_err = max(
        float(np.max(np.abs(joint.sum(axis=1) - frame.eig_a.values))),
        float(np.max(np.abs(joint.sum(axis=0) - frame.eig_b.values))),
    )
    record("decohere-joint-marginals", joint_err <= 1e-10, f"{joint_err:.2e}")

    s_d = von_neumann(rho_d, tols=tols)
    record("klein-entropy-increase", s_d >= s1 - 1e-9, f"S_d-S={s_d - s1:.2e}")

    weights = overlap_tensor(rho, frame, tols=tols)
    p_alpha = np.einsum("abg,g->a", weights, rho.eigenvalues)
    q_beta = np.einsum("abg,g->b", weights, rho.eigenvalues)
    rec_5_6 = max(
        float(np.max(np.abs(p_alpha - frame.eig_a.values))),
        float(np.max(np.abs(q_beta - frame.eig_b.values))),
    )
    record("overlap-reconstruction", rec_5_6 <= 1e-9, f"{rec_5_6:.2e}")

    cond_ok = True
    worst_ratio = 0.0
    for marg_vals, sums in (
        (frame.eig_b.values, joint),
        (frame.eig_a.values, joint.T),
    ):
        for b_idx, qv in enumerate(marg_vals):
            if qv <= tols.support_cutoff:
                continue
            col = sums[:, b_idx] / qv
            worst_ratio = max(worst_ratio, float(col.max()))
            if float(col.min()) < -1e-12 or float(col.max()) > 1.0 + 1e-10:
                cond_ok = False
    record("joint-conditional-probability", cond_ok, f"worst ratio {worst_ratio:.12g}")

    deficit = s_d - s1
    record("deficit-bounds", -1e-9 <= deficit <= mut + 1e-9, f"D={deficit:.3e} S={mut:.3e}")

    gap = deficit - mut
    gap_identity = abs(gap - (s_d - von_neumann(marg_a, tols=tols) - von_neumann(marg_b, tols=tols)))
    record("deficit-mutual-gap-identity", gap_identity <= 1e-9 and gap <= 1e-9, f"{gap_identity:.2e}")

    if amps is not None:
        sa = von_neumann(marg_a, tols=tols)
        sb = von_neumann(marg_b, tols=tols)
        record("pure-marginal-entropy-symmetry", abs(sa - sb) <= 1e-9, f"{abs(sa - sb):.2e}")

        pure_c = pure_concurrence(amps)
        cond_a = conditional_tsallis(rho, "A", 1.0, tols=tols)
        cond_b = conditional_tsallis(rho, "B", 1.0, tols=tols)
        nonpos = cond_a <= 1e-10 and cond_b <= 1e-10
        equality = abs(cond_a) <= 1e-10 and abs(cond_b) <= 1e-10
        record(
            "pure-conditional-nonpositive",
            nonpos and (equality == (pure_c <= 1e-8)),
            f"cond=({cond_a:.3e},{cond_b:.3e}) C={pure_c:.3e}",
        )

        vec_a, vec_b = bloch_vectors(amps)
        _, residual = purity_check(amps)
        norm_gap = abs(vec_a.norm() - vec_b.norm())
        record("pure-bloch-identity", residual <= 1e-10 and norm_gap <= 1e-10, f"res={residual:.2e}")

        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ct = correlation_tensor(amps).matrix
        rebuilt = tensor_product(I2, I2).astype(complex)
        for i, pauli in enumerate(paulis):
            rebuilt += (vec_a.s1, vec_a.s2, vec_a.s3)[i] * tensor_product(pauli, I2)
            rebuilt += (vec_b.s1, vec_b.s2, vec_b.s3)[i] * tensor_product(I2, pauli)
        for i in range(3):
            for j in range(3):
                rebuilt += ct[i, j] * tensor_product(paulis[i], paulis[j])
        rebuilt /= 4.0
        pauli_err = float(np.max(np.abs(rebuilt - rho.matrix)))
        record("pure-pauli-reconstruction", pauli_err <= 1e-9, f"{pauli_err:.2e}")

        route_gap = max(
            abs(pure_c - conc),
            abs(pure_c - math.sqrt(max(1.0 - vec_a.norm_squared(), 0.0))),
        )
        record("pure-concurrence-routes", route_gap <= 1e-8, f"{route_gap:.2e}")

    if label.endswith("product |10>") or label == "random mixed product":
        prod_gap = float(np.max(np.abs(rho.matrix - tensor_product(marg_a.matrix, marg_b.matrix))))
        record("product-mutual-zero", mut <= 1e-10 and prod_gap <= 1e-8, f"mut={mut:.2e}")
        diff_a = conditional_tsallis(rho, "A", 1.0, tols=tols)
        diff_b = conditional_tsallis(rho, "B", 1.0, tols=tols)
        ok = (
            abs(diff_a - von_neumann(marg_b, tols=tols)) <= 1e-9
            and abs(diff_b - von_neumann(marg_a, tols=tols)) <= 1e-9
            and diff_a >= -1e-9
            and diff_b >= -1e-9
        )
        record("product-entropy-difference", ok, f"({diff_a:.3e},{diff_b:.3e})")

    return results


def _audit_chunk(payload) -> list[tuple[int, list[tuple[str, bool, str]]]]:
    indices, seed, tols = payload
    return [(i, _run_state_checks(i, seed, tols)) for i in indices]


def run_audit(n: int, seed: int, jobs: int = 1, tols: Tolerances = TOLS):
    """Evaluate every randomized invariant on n seeded states.

    Returns (per-property (checked, failed) counts in stable order,
    failure detail lines).  Deterministic for a given seed, independent of
    the job count.  At most ``min(jobs, n, cpu count)`` worker processes
    are started.
    """
    if n < 1:
        raise ValueError(f"audit needs n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"audit needs jobs >= 1, got {jobs}")
    indices = list(range(n))
    workers = min(jobs, n, os.cpu_count() or 1)
    if workers > 1:
        chunks = [indices[k::workers] for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_audit_chunk, [(c, seed, tols) for c in chunks]))
        merged = sorted((item for part in parts for item in part), key=lambda kv: kv[0])
    else:
        merged = _audit_chunk((indices, seed, tols))
    counts = {prop: [0, 0] for prop in AUDIT_PROPERTIES}
    failures = []
    for index, results in merged:
        for prop, ok, detail in results:
            counts[prop][0] += 1
            if not ok:
                counts[prop][1] += 1
                failures.append(f"state {index} (seed {seed}) failed {prop}: {detail}")
    return counts, failures


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
    if mismatches:
        for line in mismatches:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_werner_sweep(args, tols: Tolerances) -> int:
    try:
        rows = werner_sweep_rows(args.min, args.max, args.step, tols)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        rho = _resolve_state(args.state, tols)
        report = classify(rho, tols=tols)
    except (RegistryError, CheckError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.as_dict()
    for key, value in payload.items():
        if isinstance(value, float):
            payload[key] = float(_fmt(value))
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_audit(args, tols: Tolerances) -> int:
    try:
        counts, failures = run_audit(args.n, args.seed, args.jobs, tols)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if mismatches:
        for line in mismatches:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    return 0


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
        help="finite positive scale factor applied to every library check and verdict bound and to the "
        "table1/iso-report comparisons; the audit's literal bounds do not scale yet (default 1.0)",
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
    try:
        tols = Tolerances(args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, tols)
    except (CheckError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
