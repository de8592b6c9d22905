"""Randomized property audit: the paper's invariants on seeded random states.

State ``i`` of seed ``s`` is drawn from ``default_rng((s, i))``: the pure
product |10> at index 0, then in turn a Haar-pure state, a product of two
random mixed marginals and a random mixed state of rank 1..4.  Its two
random local unitaries are drawn from ``default_rng((s, i, 7))``.  Pure
and product states get their own properties too.

The draws are made one state at a time.  Everything after them runs on
stacks of at most ``STACK_SIZE`` states, and each property's magnitude is
one array over the stack, from the package's stack kernels
(``marginal_stack``, ``transpose_stack``, ``eigvalsh_stack``,
``sqrt_stack``, ``spin_flip_stack``, ``spin_flip_core_stack``,
``core_concurrence``, ``entropy_stack``, ``tsallis_stack``,
``relative_entropy_stack`` and the frame pass ``decohere_stack``), held
against its bound once.  The states are validated by one
``density_stack`` call, and the four matrices derived from each state
(its marginal product, spin flip, local rotation and rho_d) by a second
one on a stack ``(N, 4, 4, 4)`` grouped on axis 1, so that a failing
check names state k.  The spin-flip cores of rho, its flip and its
rotation are solved with rho's partial transpose in one ``eigvalsh_stack``
call.  A stack makes four ``eigh`` calls, six when it holds a mixed
product (whose factors and their marginals are validated too), and one
``eigvalsh``.  The pure-only and product-only properties run
on the pure and the product rows of the stack; the pure rows' second
route is the closed forms ``bloch_vectors``, ``correlation_tensor`` and
``pure_concurrence`` on their amplitude stack ``(P, 4)``, which solve no
eigenproblem.  Per state remain only the draws.  The stack size is
fixed, so memory does not grow with the number of states, and no
state's result depends on the others in its stack.

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

from .concurrence import core_concurrence, pure_concurrence, spin_flip_core_stack, spin_flip_stack
from .entropy import entropy_stack, relative_entropy_stack, tsallis_stack
from .linalg import (
    PAULI_PRODUCTS,
    TOLS,
    CheckError,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    marginal_stack,
    sqrt_stack,
    tensor_product,
    transpose_stack,
)
from .states import bloch_vectors, correlation_tensor, random_mixed, random_pure
from .structure import decohere_stack

__all__ = ["AUDIT_PROPERTIES", "run_audit"]

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

_POSITION = {prop: k for k, prop in enumerate(AUDIT_PROPERTIES)}

# States per stack: bounds the working arrays whatever the number of states.  The largest,
# the grouped (N, 4, 4, 4) stacks of derived matrices and of spin-flip cores, take 256 kB each.
STACK_SIZE = 256

# tsallis-continuity compares S_q at q = 1 +- this offset with S.
_TSALLIS_OFFSET = 1e-4


def _draw(index: int, seed: int):
    """(label, amplitudes if pure, whether a product state, and the state's matrix, except that
    a mixed product gives the two mixed states whose marginals it multiplies)."""
    if index == 0:
        amps = np.array([0, 1, 0, 0], dtype=complex)
        return "fixed pure product |10>", amps, True, np.outer(amps, amps.conj())
    kind = index % 3
    rng = np.random.default_rng((seed, index))
    if kind == 1:
        amps = random_pure(rng)
        return "haar pure", amps, False, np.outer(amps, amps.conj())
    if kind == 2:
        a = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)))
        b = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)))
        return "random mixed product", None, True, (a, b)
    rank = (index // 3 - 1) % 4 + 1
    return f"random mixed rank {rank}", None, False, random_mixed(int(rng.integers(0, 2**32)), rank)


def _local_gaussians(index: int, seed: int) -> np.ndarray:
    """The complex Gaussian 2x2 draws ``(2, 2, 2)`` of the state's two local unitaries, in order.

    One draw holds, per unitary, its real parts and then its imaginary parts.
    """
    g = np.random.default_rng((seed, index, 7)).standard_normal((2, 2, 2, 2))
    return g[:, 0] + 1j * g[:, 1]


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices: Q of QR with R's diagonal phases."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |entry| per state of a stack; NaN stays NaN."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _check_stack(indices, seed: int, tols: Tolerances):
    """Every property on the states ``indices`` as one stack.

    Returns the checked count per property and the failures as
    ``(index, property position, property, detail)``.
    """
    draws = [_draw(i, seed) for i in indices]
    gaussians = np.array([_local_gaussians(i, seed) for i in indices])
    labels = [label for label, _, _, _ in draws]
    pure = np.array([k for k, (_, amps, _, _) in enumerate(draws) if amps is not None], dtype=int)
    product = np.array([k for k, (_, _, is_product, _) in enumerate(draws) if is_product], dtype=int)
    mixed_product = [k for k, (_, _, _, drawn) in enumerate(draws) if isinstance(drawn, tuple)]

    n = len(draws)
    m = np.empty((n, 4, 4), dtype=complex)
    for k, (_, _, _, drawn) in enumerate(draws):
        if not isinstance(drawn, tuple):
            m[k] = drawn
    if mixed_product:
        # Each factor is validated, and so are the marginals the product is built from.
        factors = np.array([draws[k][3] for k in mixed_product])
        density_stack(factors, tols=tols)
        factor_marg = marginal_stack(factors, tols=tols)[0]
        m[mixed_product] = tensor_product(factor_marg[:, 0, 0], factor_marg[:, 1, 1])

    checked = dict.fromkeys(AUDIT_PROPERTIES, 0)
    failures = []

    def record(prop: str, ok: np.ndarray, detail, rows: np.ndarray | None = None):
        """``ok`` holds one verdict per row of ``rows`` (default: every state); ``detail(j)`` describes row j."""
        checked[prop] += len(ok)
        if ok.all():
            return
        for j in np.flatnonzero(~ok):
            k = j if rows is None else rows[j]
            failures.append((indices[k], _POSITION[prop], prop, f"{labels[k]}: {detail(j)}"))

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
    prod, rho_d = derived[:, 0], derived[:, 3]
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

    root = sqrt_stack(w, v)
    sq = _max_abs(root @ root - m)
    record("sqrt-roundtrip", sq <= tols.rebuilt, lambda j: f"{sq[j]:.2e}")

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

    # The spin-flip cores of rho, its flip and its rotation, and rho's partial transpose: one values-only call.
    cores = np.empty((n, 4, 4, 4), dtype=complex)
    cores[:, 0] = spin_flip_core_stack(w, v)
    cores[:, 1:3] = spin_flip_core_stack(derived_w[:, 1:3], derived_v[:, 1:3])
    cores[:, 3] = pt
    spectra = eigvalsh_stack(cores, tols=tols)
    conc, conc_flip, conc_rot = core_concurrence(spectra[:, :3], tols=tols).T
    ok = (conc >= -tols.support_cutoff) & (conc <= 1.0 + tols.hermiticity)
    record("concurrence-range", ok, lambda j: f"{float(conc[j])}")

    flip_gap = np.abs(conc - conc_flip)
    record("concurrence-flip-invariance", flip_gap <= tols.concurrence_zero, lambda j: f"{flip_gap[j]:.2e}")

    lu_gap = np.abs(conc - conc_rot)
    record("concurrence-local-unitary", lu_gap <= tols.concurrence_zero, lambda j: f"{lu_gap[j]:.2e}")

    ppt_min = spectra[:, 3, -1]
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
    ratio = np.max(np.divide(both, given, out=np.zeros_like(both), where=defined), axis=(1, 2, 3))
    ok = (excess <= tols.hermiticity) & (lowest >= -tols.support_cutoff)
    record("joint-conditional-probability", ok, lambda j: f"worst ratio {ratio[j]:.12g}, excess {excess[j]:.2e}")

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
        amps = np.array([draws[k][1] for k in pure])
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
    """``_check_stack`` over ``indices``, ``STACK_SIZE`` states at a time, with the results summed."""
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
    ``min(jobs, n, cpu count)`` worker processes are started.
    """
    if n < 1:
        raise ValueError(f"audit needs n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"audit needs jobs >= 1, got {jobs}")
    if seed < 0:
        raise ValueError(f"audit needs seed >= 0, got {seed}")
    indices = range(n)
    workers = min(jobs, n, os.cpu_count() or 1)
    if workers > 1:
        # Spawned, not forked: the BLAS library that numpy loads starts a thread,
        # and forking a multi-threaded process can deadlock.
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = list(pool.map(_audit_part, [(indices[k::workers], seed, tols) for k in range(workers)]))
    else:
        parts = [_audit_part((indices, seed, tols))]
    counts = {prop: [sum(checked[prop] for checked, _ in parts), 0] for prop in AUDIT_PROPERTIES}
    lines = []
    for index, _, prop, detail in sorted(failure for _, failures in parts for failure in failures):
        counts[prop][1] += 1
        lines.append(f"state {index} (seed {seed}) failed {prop}: {detail}")
    return counts, lines
