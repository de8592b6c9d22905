"""Randomized property audit: the paper's invariants on seeded random states.

Every state is m = G G† / Tr G G† for a complex Gaussian 4x4 factor G,
the induced measure of Życzkowski and Sommers (J. Phys. A 34, 7111,
2001).  State i of seed s is row i % 256 of block i // 256, whose draw
is ``default_rng((s, block)).standard_normal((rows, 48))`` read as 24
complex numbers (real and imaginary parts in turn): G row by row, then
the Gaussians of the state's two random local unitaries.  numpy fills
the rows in order, so fewer rows are a prefix of the same draw: a stack
draws only its own rows, and no state's draw depends on ``STACK_SIZE``,
the job count or where its stack starts.  Only G's shape depends on the
kind, i % 3: a Haar-pure state (1) keeps G's column 0, its amplitudes
once normalized; a mixed product (2) is G_A x G_B, from G's two disjoint
2x2 corners; a mixed state (0) keeps G's first (i // 3 - 1) % 4 + 1
columns.  Index 0 is the pure product |10>.  Pure and product states get
their own properties too.

The checks run on stacks of at most ``STACK_SIZE`` states; each
property's magnitude is one array over the stack, held against its
bound once.  The states are validated by one ``density_stack`` call, the
four matrices derived from each (marginal product, spin flip, local
rotation, rho_d) by a second on a stack ``(N, 4, 4, 4)`` grouped on axis
1, so that a failing check names state k.  The real spin-flip dilations
of rho, its flip and its rotation take one ``eigvalsh_stack`` call, and
rho's partial transpose a second: a stack makes four ``eigh`` calls and
two ``eigvalsh``.  The pure rows' second route is the closed forms on
their amplitudes, which solve no eigenproblem.

Each property keeps two independent routes to the quantity it checks:
neither side of a comparison is derived from the other side's
intermediate.  Every bound is a ``Tolerances`` property, and every check
fails on NaN.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .concurrence import dilation_concurrence, pure_concurrence, spin_flip_dilation_stack, spin_flip_stack
from .entropy import entropy_stack, relative_entropy_stack, tsallis_stack
from .linalg import (
    PAULI_PRODUCTS,
    TOLS,
    CheckError,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    marginal_stack,
    tensor_product,
    transpose_stack,
)
from .states import bloch_vectors, correlation_tensor
from .structure import decohere_stack

__all__ = ["AUDIT_PROPERTIES", "run_audit"]

AUDIT_PROPERTIES = (
    "eig-reconstruction",
    "kron-partial-trace",
    "partial-transpose-involution",
    "spin-flip-trace",
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

_POSITION = {prop: k for k, prop in enumerate(AUDIT_PROPERTIES)}

# States per block of the seeding rule.  It is not STACK_SIZE, so that no state's draw moves with the memory bound.
_BLOCK = 256

# States per stack: bounds the working arrays whatever the number of states, and moves no state's draw.
# The largest are the real spin-flip dilations (N, 3, 8, 8), 393 kB, and the grouped (N, 4, 4, 4) derived
# matrices, 262 kB; the Gaussian rows drawn for a stack take at most 2 x 98 kB, as it may straddle two blocks.
STACK_SIZE = 256

# tsallis-continuity compares S_q at q = 1 +- this offset with S.
_TSALLIS_OFFSET = 1e-4


def _mixed_rank(index):
    """The rank of mixed state ``index`` (``index % 3 == 0``), for an index or an array of them."""
    return (index // 3 - 1) % 4 + 1


def _label(index: int) -> str:
    """The kind of state ``index``, as its failure lines name it."""
    if index == 0:
        return "fixed pure product |10>"
    return ("random mixed rank {}", "haar pure", "random mixed product")[index % 3].format(_mixed_rank(index))


def _draw(indices: range, seed: int) -> np.ndarray:
    """The 24 complex Gaussians ``(N, 24)`` of the states ``indices``, a contiguous range: row i % _BLOCK of
    block i // _BLOCK for state i, from a draw of the block's rows up to the last index it holds."""
    rows = []
    for block in range(indices.start // _BLOCK, (indices.stop - 1) // _BLOCK + 1):
        first = block * _BLOCK
        draw = np.random.default_rng((seed, block)).standard_normal((min(indices.stop - first, _BLOCK), 48))
        rows.append(draw[max(indices.start - first, 0):])
    return np.concatenate(rows).view(complex)


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices: Q of QR with R's diagonal phases."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |entry| per state of a stack; NaN stays NaN."""
    return np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1)


def _states(indices: range, seed: int):
    """The states m = G G† / Tr G G† ``(N, 4, 4)``, G's column 0 normalized (a pure state's amplitudes)
    and the Gaussians ``(N, 2, 2, 2)`` of each state's two local unitaries."""
    g = _draw(indices, seed)
    index = np.arange(indices.start, indices.stop)
    kind = index % 3
    gauss = g[:, :16].reshape(-1, 4, 4)
    # A pure state keeps G's column 0, a mixed state its first rank columns; a product is G_A x G_B.
    kept = np.select((kind == 1, kind == 0), (1, _mixed_rank(index)), 4)
    factor = np.where(np.arange(4) < kept[:, None, None], gauss, 0)
    factor[kind == 2] = tensor_product(gauss[kind == 2, :2, :2], gauss[kind == 2, 2:, 2:])
    factor[index == 0] = np.outer(np.eye(4)[1], np.eye(4)[0])  # one column, |10>
    m = factor @ _dagger(factor)
    amplitudes = factor[:, :, 0] / np.linalg.norm(factor[:, :, 0], axis=-1, keepdims=True)
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None], amplitudes, g[:, 16:].reshape(-1, 2, 2, 2)


def _check_stack(indices: range, seed: int, tols: Tolerances):
    """Every property on the states ``indices``, a contiguous range, as one stack.

    Returns the checked count per property and the failures as
    ``(index, property position, property, detail)``.
    """
    m, amplitudes, gaussians = _states(indices, seed)
    index = np.arange(indices.start, indices.stop)
    pure = np.flatnonzero((index % 3 == 1) | (index == 0))
    product = np.flatnonzero((index % 3 == 2) | (index == 0))

    checked = dict.fromkeys(AUDIT_PROPERTIES, 0)
    failures = []

    def record(prop: str, ok: np.ndarray, detail, rows: np.ndarray | None = None):
        """``ok`` holds one verdict per row of ``rows`` (default: every state); ``detail(j)`` describes row j."""
        checked[prop] += len(ok)
        if np.logical_and.reduce(ok, axis=None):
            return
        for j in np.flatnonzero(~ok):
            i = indices[j if rows is None else rows[j]]
            failures.append((i, _POSITION[prop], prop, f"{_label(i)}: {detail(j)}"))

    w, v = density_stack(m, tols=tols)
    marg, marg_w, _ = marginal_stack(m, tols=tols)
    dec = decohere_stack(m, v, tols=tols)
    units = _haar_unitaries(gaussians)
    u_local = tensor_product(units[:, 0], units[:, 1])

    # The product of rho's marginals, its spin flip, its local rotation and rho_d, validated
    # as one stack grouped on axis 1; the product's and rho_d's marginals in one call.
    derived = np.stack(
        (tensor_product(marg[:, 0], marg[:, 1]), spin_flip_stack(m), u_local @ m @ _dagger(u_local), dec.matrices),
        axis=1,
    )
    derived_w, derived_v = density_stack(derived, tols=tols)
    derived_marginals = marginal_stack(derived[:, ::3], tols=tols)
    prod, flip, rho_d = derived[:, 0], derived[:, 1], derived[:, 3]
    w_d, v_d = derived_w[:, 3], derived_v[:, 3]

    rec = _max_abs((v * w[:, None, :]) @ _dagger(v) - m)
    tr = np.abs(w.sum(axis=-1) - m.trace(axis1=-2, axis2=-1).real)
    ok = (rec <= tols.identity) & (tr <= tols.identity)
    record("eig-reconstruction", ok, lambda j: f"rec={rec[j]:.2e} tr={tr[j]:.2e}")

    kron = _max_abs(derived_marginals[0][:, 0, 0] - marg[:, 0])
    record("kron-partial-trace", kron <= tols.reshuffle, lambda j: f"{kron[j]:.2e}")

    # involution checked on the raw matrices: the transpose of an entangled
    # state is not PSD, so it cannot round-trip through validation
    pt = transpose_stack(m, "B")
    inv = _max_abs(transpose_stack(pt, "B") - m)
    tr_pt = np.abs(pt.trace(axis1=-2, axis2=-1).real - 1.0)
    ok = (inv <= tols.reshuffle) & (tr_pt <= tols.reshuffle)
    record("partial-transpose-involution", ok, lambda j: f"inv={inv[j]:.2e}")

    # The spin-flip dilations of rho, its flip and its rotation: one real values-only call.
    dilations = np.empty((len(m), 3, 8, 8))
    dilations[:, 0] = spin_flip_dilation_stack(w, v)
    dilations[:, 1:] = spin_flip_dilation_stack(derived_w[:, 1:3], derived_v[:, 1:3])
    dilation_values = eigvalsh_stack(dilations, tols=tols)
    # sum lambda_i^2 from rho's four largest dilation values, and as Tr rho rho~ = sum_ij rho_ij rho~_ji.
    lambda_squares = np.sum(dilation_values[:, 0, :4] ** 2, axis=-1)
    trace_gap = np.abs(lambda_squares - np.einsum("nij,nji->n", m, flip).real)
    record("spin-flip-trace", trace_gap <= tols.identity, lambda j: f"{trace_gap[j]:.2e}")

    # S(AB), S(A), S(B) once; the mutual entropy and the q = 1 conditional
    # entropies are the same sums as ``classify``'s and ``conditional_tsallis``'s.
    s = entropy_stack(w, tols=tols)
    s_marg = entropy_stack(marg_w, tols=tols)
    s_a, s_b = s_marg[:, 0], s_marg[:, 1]
    mut = s_a + s_b - s
    cond_a, cond_b = s - s_a, s - s_b
    record("mutual-nonnegative", mut >= -tols.hermiticity, lambda j: f"{mut[j]:.2e}")

    up = np.abs(tsallis_stack(w, 1.0 + _TSALLIS_OFFSET, tols=tols) - s)
    down = np.abs(tsallis_stack(w, 1.0 - _TSALLIS_OFFSET, tols=tols) - s)
    ok = (up <= tols.continuity) & (down <= tols.continuity)
    record("tsallis-continuity", ok, lambda j: f"{max(up[j], down[j]):.2e}")

    conc, conc_flip, conc_rot = dilation_concurrence(dilation_values).T
    ok = (conc >= -tols.support_cutoff) & (conc <= 1.0 + tols.hermiticity)
    record("concurrence-range", ok, lambda j: f"{float(conc[j])}")

    flip_gap = np.abs(conc - conc_flip)
    record("concurrence-flip-invariance", flip_gap <= tols.concurrence_zero, lambda j: f"{flip_gap[j]:.2e}")

    lu_gap = np.abs(conc - conc_rot)
    record("concurrence-local-unitary", lu_gap <= tols.concurrence_zero, lambda j: f"{lu_gap[j]:.2e}")

    ppt_min = eigvalsh_stack(pt, tols=tols)[:, -1]
    zero = tols.concurrence_zero
    ok = (conc > zero) & (ppt_min < -zero) | (conc <= zero) & (ppt_min >= -zero)
    record("concurrence-ppt-equivalence", ok, lambda j: f"C={conc[j]:.3e} ppt={ppt_min[j]:.3e}")

    # P and the frame values share their Fano coefficients: P is held against marg_w, from which
    # a degenerate side's frame values (its diagonal in index order) differ by at most |a|.
    joint = dec.joint
    err = _max_abs(derived_marginals[0][:, 1] - marg)
    record("decohere-marginals", err <= tols.identity, lambda j: f"{err[j]:.2e}")

    # rho_d's own eigenvectors and Fano coefficients frame the second pass.
    idem = _max_abs(decohere_stack(rho_d, v_d, tols=tols).matrices - rho_d)
    record("decohere-idempotent", idem <= tols.reshuffle, lambda j: f"{idem[j]:.2e}")

    # Row sums of P[alpha, beta] against side A's marginal eigenvalues, column sums against side B's.
    err_joint = _max_abs(np.stack((joint.sum(axis=2), joint.sum(axis=1)), axis=1) - marg_w)
    record("decohere-joint-marginals", err_joint <= tols.hermiticity, lambda j: f"{err_joint[j]:.2e}")

    s_d = entropy_stack(w_d, tols=tols)
    record("klein-entropy-increase", s_d >= s - tols.identity, lambda j: f"S_d-S={s_d[j] - s[j]:.2e}")

    rebuilt = np.stack((np.einsum("nabg,ng->na", dec.weights, w), np.einsum("nabg,ng->nb", dec.weights, w)), axis=1)
    err_overlap = _max_abs(rebuilt - marg_w)
    record("overlap-reconstruction", err_overlap <= tols.identity, lambda j: f"{err_overlap[j]:.2e}")

    # P(alpha, beta) against p_beta and against p_alpha, over the marginal values off the
    # cutoff: the excess P - p is the joint-marginals scale, where P / p would amplify
    # round-off in P by 1 / p.
    given = np.stack((np.broadcast_to(marg_w[:, 1, None, :], joint.shape),
                      np.broadcast_to(marg_w[:, 0, :, None], joint.shape)), axis=1)
    both = np.stack((joint, joint), axis=1)
    defined = ~(given <= tols.support_cutoff)
    excess = np.max(both - given, axis=(1, 2, 3), where=defined, initial=-np.inf)
    lowest = np.min(both, axis=(1, 2, 3), where=defined, initial=np.inf)
    ok = (excess <= tols.hermiticity) & (lowest >= -tols.support_cutoff)

    def detail(j):  # P / p is formed only for a failing row
        ratio = np.max(np.divide(both[j], given[j], out=np.zeros_like(both[j]), where=defined[j]))
        return f"worst ratio {ratio:.12g}, excess {excess[j]:.2e}"

    record("joint-conditional-probability", ok, detail)

    deficit = s_d - s
    ok = (deficit >= -tols.identity) & (deficit <= mut + tols.identity)
    record("deficit-bounds", ok, lambda j: f"D={deficit[j]:.3e} S={mut[j]:.3e}")

    # D - I with D by a second route: rho_d is rho's pinching in rho_d's eigenbasis, so D = S(rho || rho_d).
    # (-S(rho_d || rho_A x rho_B) is infinite wherever a marginal eigenvalue squared falls below the support cutoff.)
    gap = deficit - mut
    gap_identity = np.abs(gap - (relative_entropy_stack(m, w, w_d, v_d, tols=tols) - mut))
    ok = (gap_identity <= tols.identity) & (gap <= tols.identity)
    record("deficit-mutual-gap-identity", ok, lambda j: f"{gap_identity[j]:.2e}")

    if len(pure):
        # The closed forms run on the pure rows alone: a bound they fail names the k-th pure row.
        amps = amplitudes[pure]
        sym = np.abs(s_a[pure] - s_b[pure])
        record("pure-marginal-entropy-symmetry", sym <= tols.identity, lambda j: f"{sym[j]:.2e}", pure)

        pure_c = pure_concurrence(amps)
        c_a, c_b = cond_a[pure], cond_b[pure]
        nonpos = (c_a <= tols.hermiticity) & (c_b <= tols.hermiticity)
        equality = (np.abs(c_a) <= tols.hermiticity) & (np.abs(c_b) <= tols.hermiticity)
        ok = nonpos & (equality & (pure_c <= zero) | ~equality & (pure_c > zero))
        record(
            "pure-conditional-nonpositive", ok, lambda j: f"cond=({c_a[j]:.3e},{c_b[j]:.3e}) C={pure_c[j]:.3e}", pure
        )

        # 1 - |s(A)|^2 = C^2 = 4 |a11 a00 - a01 a10|^2
        vecs = bloch_vectors(amps, tols=tols)
        mag2_a = np.sum(vecs[:, 0] ** 2, axis=-1)
        residual = np.abs((1.0 - mag2_a) - pure_c**2)
        norms = np.linalg.norm(vecs, axis=2)
        ok = (residual <= tols.hermiticity) & (np.abs(norms[:, 0] - norms[:, 1]) <= tols.hermiticity)
        record("pure-bloch-identity", ok, lambda j: f"res={residual[j]:.2e}", pure)

        coeffs = np.empty((len(pure), 4, 4))
        coeffs[:, 0, 0] = 1.0
        coeffs[:, 1:, 0], coeffs[:, 0, 1:] = vecs[:, 0], vecs[:, 1]
        coeffs[:, 1:, 1:] = correlation_tensor(amps, tols=tols)
        pauli_err = _max_abs(np.einsum("pmn,mnij->pij", coeffs, PAULI_PRODUCTS) / 4.0 - m[pure])
        record("pure-pauli-reconstruction", pauli_err <= tols.identity, lambda j: f"{pauli_err[j]:.2e}", pure)

        gap_c = np.abs(pure_c - conc[pure])
        gap_bloch = np.abs(pure_c - np.sqrt(np.maximum(1.0 - mag2_a, 0.0)))
        ok = (gap_c <= zero) & (gap_bloch <= zero)
        record("pure-concurrence-routes", ok, lambda j: f"{max(gap_c[j], gap_bloch[j]):.2e}", pure)

    if len(product):
        prod_gap = _max_abs(m[product] - prod[product])
        mut_p = mut[product]
        ok = (mut_p <= tols.hermiticity) & (prod_gap <= tols.rebuilt)
        record("product-mutual-zero", ok, lambda j: f"mut={mut_p[j]:.2e}", product)
        # S(AB) - S(A) = S(B) and S(AB) - S(B) = S(A), both nonnegative.
        c_a, c_b = cond_a[product], cond_b[product]
        ok = (np.abs(c_a - s_b[product]) <= tols.identity) & (np.abs(c_b - s_a[product]) <= tols.identity)
        ok &= (c_a >= -tols.identity) & (c_b >= -tols.identity)
        record("product-entropy-difference", ok, lambda j: f"({c_a[j]:.3e},{c_b[j]:.3e})", product)

    return checked, failures


def _audit_part(payload):
    """``_check_stack`` over the range ``indices``, ``STACK_SIZE`` states at a time, with the results summed."""
    indices, seed, tols = payload
    checked = dict.fromkeys(AUDIT_PROPERTIES, 0)
    failures = []
    for start in range(0, len(indices), STACK_SIZE):
        stack = indices[start:start + STACK_SIZE]
        try:
            stack_checked, stack_failures = _check_stack(stack, seed, tols)
        except CheckError as exc:
            # A stack check names the position of the failing state in its stack.
            raise ValueError(f"audit seed {seed}, states {stack} (state k is the k-th of them): {exc}") from exc
        for prop, count in stack_checked.items():
            checked[prop] += count
        failures += stack_failures
    return checked, failures


def run_audit(n: int, seed: int, jobs: int = 1, tols: Tolerances = TOLS):
    """Evaluate every randomized invariant on n seeded states.

    Returns (per-property (checked, failed) counts in stable order,
    failure detail lines ordered by state, then property).  Deterministic
    for a given seed, independent of the job count.  At most
    ``min(jobs, n, cpu count)`` worker processes are started, each on one
    contiguous range of states.
    """
    if n < 1:
        raise ValueError(f"audit needs n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"audit needs jobs >= 1, got {jobs}")
    if seed < 0:
        raise ValueError(f"audit needs seed >= 0, got {seed}")
    workers = min(jobs, n, os.cpu_count() or 1)
    payloads = [(range(n * k // workers, n * (k + 1) // workers), seed, tols) for k in range(workers)]
    if workers > 1:
        # Spawned, not forked: the BLAS library that numpy loads starts a thread,
        # and forking a multi-threaded process can deadlock.
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = list(pool.map(_audit_part, payloads))
    else:
        parts = [_audit_part(payloads[0])]
    counts = {prop: [sum(checked[prop] for checked, _ in parts), 0] for prop in AUDIT_PROPERTIES}
    lines = []
    for index, _, prop, detail in sorted(failure for _, failures in parts for failure in failures):
        counts[prop][1] += 1
        lines.append(f"state {index} (seed {seed}) failed {prop}: {detail}")
    return counts, lines
