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
property's magnitudes are arrays over the stack, each held against its
bound once.  The states are validated by one ``density_stack`` call, the
four matrices derived from each (marginal product, spin flip, local
rotation, rho_d) by a second on a stack ``(N, 4, 4, 4)`` grouped on axis
1, so that a failing check names state k.  ``marginal_stack`` solves
rho's marginals, and then the product's and rho_d's, values-only; the
spin-flip lambdas of rho, its flip and its rotation take one
``concurrence`` call, one ``svd`` of their tau (the rotations are
complex, so the three families stack complex), and rho's partial
transpose an ``eigvalsh``.  The local unitaries are Haar by 2x2
Gram-Schmidt: a stack makes two ``eigh`` calls, three ``eigvalsh``, one
``svd`` and no ``qr``.  The pure rows' second route is the closed forms
on their amplitudes, which solve no eigenproblem.

Each property keeps two independent routes to the quantity it checks:
neither side of a comparison is derived from the other side's
intermediate.  A property passes ``record`` its named checks ``(name,
magnitude, bound)``: one magnitude per state and a ``Tolerances`` bound.
A check holds where magnitude <= bound, so NaN fails; a lower bound is an
upper bound on the negated value (``-D``).  A state passes where every
check holds; only the two equivalences, concurrence-ppt-equivalence and
pure-conditional-nonpositive, pass their own verdicts.  A failure line
shows every check's ``name=magnitude`` in order, with `` > bound`` after
each that failed, the bound as its shortest round-trip form, so that it
reads back as the bound held: ``mut=2.220e-16 gap=1.000e-06 > 1e-08``.
"""

from __future__ import annotations

import os

import numpy as np

from .concurrence import concurrence, pure_concurrence, spin_flip_stack, wootters_concurrence
from .entropy import entropy_stack, relative_entropy_stack, tsallis_stack
from .linalg import (
    TOLS,
    CheckError,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    marginal_stack,
    pauli_sum,
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
# The largest are the grouped (N, 4, 4, 4) derived matrices, 262 kB, and the spin-flip tau (N, 3, 4, 4) that
# ``concurrence`` builds, 197 kB; the Gaussian rows drawn for a stack take at most 2 x 98 kB, as it may straddle
# two blocks.
STACK_SIZE = 256

# Stacks per worker below which a spawned worker, which imports numpy and the package first, costs more than it
# saves; measure again when a stack's cost changes.  Fresh `audit --jobs 2` against `--jobs 1` with a pool always
# started (2-CPU VM, 6 alternating runs, median s): 0.77 against 0.74 at 40 stacks, 0.95 against 0.85 at 48, 0.91
# against 1.02 at 56, 1.01 against 1.15 at 64.  The break-even is about 26 stacks per worker; 32 keeps a margin.
STACKS_PER_WORKER = 32

# tsallis-continuity compares S_q at q = 1 +- this offset with S.
_TSALLIS_OFFSET = 1e-4
_PRODUCT_10 = np.outer(np.eye(4)[1], np.eye(4)[0])  # the factor G of state 0, |10>: one column


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
    """Haar unitaries (Mezzadri, Notices AMS 54, 592, 2007): Q of 2x2 z = QR, R's diagonal positive, by Gram-Schmidt."""
    a, b = z[..., 0, 0], z[..., 1, 0]
    det = a * z[..., 1, 1] - b * z[..., 0, 1]
    phase = det / abs(det)  # of column 1, (-conj b, conj a), so that R11 = |det z| / |a, b| is positive
    q = np.empty_like(z)
    q[..., 0], q[..., 0, 1], q[..., 1, 1] = z[..., 0], -phase * b.conj(), phase * a.conj()
    return q / np.sqrt(abs(a) ** 2 + abs(b) ** 2)[..., None, None]


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
    kept = np.where(kind == 1, 1, np.where(kind == 0, _mixed_rank(index), 4))
    factor = np.where(np.arange(4) < kept[:, None, None], gauss, 0)
    factor[kind == 2] = tensor_product(gauss[kind == 2, :2, :2], gauss[kind == 2, 2:, 2:])
    factor[index == 0] = _PRODUCT_10
    m = factor @ _dagger(factor)
    amplitudes = factor[:, :, 0] / np.linalg.norm(factor[:, :, 0], axis=-1, keepdims=True)
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None], amplitudes, g[:, 16:].reshape(-1, 2, 2, 2)


class _Ledger:
    """The checked counts and failures of the properties of one stack, the states ``indices``."""

    def __init__(self, indices: range):
        self.indices = indices
        self.checked = dict.fromkeys(AUDIT_PROPERTIES, 0)
        self.failures = []

    def record(self, prop: str, *checks, rows: np.ndarray | None = None, ok: np.ndarray | None = None):
        """Book ``prop`` on every state, or on the states ``rows`` picks: its verdicts, unless an equivalence
        passes them as ``ok``, and its failure lines from its ``checks`` (see the module docstring)."""
        self.checked[prop] += len(checks[0][1])
        if ok is None:
            if all(np.maximum.reduce(magnitude) <= bound for _, magnitude, bound in checks):
                return
            ok = np.logical_and.reduce([magnitude <= bound for _, magnitude, bound in checks])
        elif np.logical_and.reduce(ok):
            return
        for j in np.flatnonzero(~ok):
            i = self.indices[j if rows is None else rows[j]]
            # + 0.0 shows a negated zero as 0.
            shown = (f"{name}={x[j] + 0.0:.3e}" + ("" if x[j] <= bound else f" > {bound}")
                     for name, x, bound in checks)
            self.failures.append((i, _POSITION[prop], prop, f"{_label(i)}: {' '.join(shown)}"))


def _check_stack(indices: range, seed: int, tols: Tolerances):
    """Every property on the states ``indices``, a contiguous range, as one stack.

    Returns the checked count per property and the failures as
    ``(index, property position, property, detail)``.
    """
    m, amplitudes, gaussians = _states(indices, seed)
    index = np.arange(indices.start, indices.stop)
    kind = index % 3
    pure, product = (np.flatnonzero((kind == k) | (index == 0)) for k in (1, 2))
    ledger = _Ledger(indices)
    record = ledger.record

    m, w, v = density_stack(m, tols=tols)
    marg, marg_w = marginal_stack(m, tols=tols)
    dec = decohere_stack(m, v, tols=tols)
    units = _haar_unitaries(gaussians)
    u_local = tensor_product(units[:, 0], units[:, 1])

    # The product of rho's marginals, its spin flip, its local rotation and rho_d, validated
    # as one stack grouped on axis 1; the product's and rho_d's marginals in one call.
    derived = np.stack((tensor_product(marg[:, 0], marg[:, 1]), spin_flip_stack(m), u_local @ m @ _dagger(u_local),
                        dec.matrices), axis=1)
    derived, derived_w, derived_v = density_stack(derived, tols=tols)
    derived_marginals = marginal_stack(derived[:, ::3], tols=tols)[0]
    prod, flip, rho_d = derived[:, 0], derived[:, 1], derived[:, 3]
    w_d, v_d = derived_w[:, 3], derived_v[:, 3]

    rec = _max_abs((v * w[:, None, :]) @ _dagger(v) - m)
    tr = np.abs(w.sum(axis=-1) - m.trace(axis1=-2, axis2=-1).real)
    record("eig-reconstruction", ("rec", rec, tols.identity), ("tr", tr, tols.identity))

    record("kron-partial-trace", ("kron", _max_abs(derived_marginals[:, 0, 0] - marg[:, 0]), tols.reshuffle))

    # involution checked on the raw matrices: the transpose of an entangled
    # state is not PSD, so it cannot round-trip through validation
    pt = transpose_stack(m)
    inv = _max_abs(transpose_stack(pt) - m)
    tr_pt = np.abs(pt.trace(axis1=-2, axis2=-1).real - 1.0)
    record("partial-transpose-involution", ("inv", inv, tols.reshuffle), ("tr_pt", tr_pt, tols.reshuffle))

    # The spin-flip lambdas of rho, its flip and its rotation: one call on the three families, stacked
    # complex, since the rotations are.
    lam = concurrence(np.concatenate((w[:, None], derived_w[:, 1:3]), axis=1),
                      np.concatenate((v[:, None], derived_v[:, 1:3]), axis=1), tols=tols)
    # sum lambda_i^2 from rho's lambdas, and as Tr rho rho~ = sum_ij rho_ij rho~_ji.
    lambda_squares = np.sum(lam[:, 0] ** 2, axis=-1)
    trace_gap = np.abs(lambda_squares - np.einsum("nij,nji->n", m, flip).real)
    record("spin-flip-trace", ("trace_gap", trace_gap, tols.identity))

    # S(AB), S(A), S(B) once; the mutual and the q = 1 conditional entropies are the same sums as ``classify``'s.
    s = entropy_stack(w, tols=tols)
    s_a, s_b = entropy_stack(marg_w, tols=tols).T
    mut = s_a + s_b - s
    cond_a, cond_b = s - s_a, s - s_b
    record("mutual-nonnegative", ("-mut", -mut, tols.hermiticity))

    up = np.abs(tsallis_stack(w, 1.0 + _TSALLIS_OFFSET, tols=tols) - s)
    down = np.abs(tsallis_stack(w, 1.0 - _TSALLIS_OFFSET, tols=tols) - s)
    record("tsallis-continuity", ("up", up, tols.continuity), ("down", down, tols.continuity))

    conc, conc_flip, conc_rot = wootters_concurrence(lam).T
    record("concurrence-range", ("-C", -conc, tols.support_cutoff), ("C-1", conc - 1.0, tols.hermiticity))
    record("concurrence-flip-invariance", ("flip_gap", np.abs(conc - conc_flip), tols.concurrence_zero))
    record("concurrence-local-unitary", ("lu_gap", np.abs(conc - conc_rot), tols.concurrence_zero))

    ppt_min = eigvalsh_stack(pt, tols=tols)[:, -1]
    zero = tols.concurrence_zero
    record("concurrence-ppt-equivalence", ("C", conc, zero), ("-ppt_min", -ppt_min, zero),
           ok=(conc > zero) & (ppt_min < -zero) | (conc <= zero) & (ppt_min >= -zero))

    # P and the frame values share their Fano coefficients: P is held against marg_w, from which
    # a degenerate side's frame values (its diagonal in index order) differ by at most |a|.
    joint = dec.joint
    record("decohere-marginals", ("marg_gap", _max_abs(derived_marginals[:, 1] - marg), tols.identity))

    # rho_d's own eigenvectors and Fano coefficients frame the second pass.
    idem = _max_abs(decohere_stack(rho_d, v_d, tols=tols).matrices - rho_d)
    record("decohere-idempotent", ("idem", idem, tols.reshuffle))

    # Row sums of P[alpha, beta] against side A's marginal eigenvalues, column sums against side B's.
    err_joint = _max_abs(np.stack((joint.sum(axis=2), joint.sum(axis=1)), axis=1) - marg_w)
    record("decohere-joint-marginals", ("err_joint", err_joint, tols.hermiticity))

    # Klein's inequality S(rho) <= S(rho_d), with S(rho_d) by the frame's route: H(P), P sorted descending.
    h_p = entropy_stack(np.sort(joint.reshape(-1, 4), axis=-1)[:, ::-1], tols=tols)
    record("klein-entropy-increase", ("S-H(P)", s - h_p, tols.identity))

    rebuilt = (np.stack((dec.weights.sum(axis=2), dec.weights.sum(axis=1)), axis=1) @ w[:, None, :, None])[..., 0]
    record("overlap-reconstruction", ("err_overlap", _max_abs(rebuilt - marg_w), tols.identity))

    # P(alpha, beta) against p_beta and against p_alpha, over the marginal values off the
    # cutoff: the excess P - p is the joint-marginals scale, where P / p would amplify
    # round-off in P by 1 / p.
    given = np.empty((len(joint), 2, 2, 2))
    given[:, 0], given[:, 1] = marg_w[:, 1, None, :], marg_w[:, 0, :, None]
    defined = ~(given <= tols.support_cutoff)
    excess = np.max(joint[:, None] - given, axis=(1, 2, 3), where=defined, initial=-np.inf)
    lowest = np.min(joint, axis=(1, 2), where=defined.any(axis=1), initial=np.inf)
    record("joint-conditional-probability", ("excess", excess, tols.hermiticity),
           ("-P_min", -lowest, tols.support_cutoff))

    deficit = entropy_stack(w_d, tols=tols) - s
    gap = deficit - mut
    record("deficit-bounds", ("-D", -deficit, tols.identity), ("D-I", gap, tols.identity))

    # D - I with D by a second route: rho_d is rho's pinching in rho_d's eigenbasis, so D = S(rho || rho_d).
    # (-S(rho_d || rho_A x rho_B) is infinite wherever a marginal eigenvalue squared falls below the support cutoff.)
    gap_identity = np.abs(gap - (relative_entropy_stack(m, w, w_d, v_d, tols=tols) - mut))
    record("deficit-mutual-gap-identity", ("gap_identity", gap_identity, tols.identity))

    if len(pure):
        # The closed forms run on the pure rows alone: a bound they fail names the k-th pure row.
        amps = amplitudes[pure]
        record("pure-marginal-entropy-symmetry", ("sym", np.abs(s_a[pure] - s_b[pure]), tols.identity), rows=pure)

        pure_c = pure_concurrence(amps)
        c_a, c_b = cond_a[pure], cond_b[pure]
        nonpos = (c_a <= tols.hermiticity) & (c_b <= tols.hermiticity)
        equality = (np.abs(c_a) <= tols.hermiticity) & (np.abs(c_b) <= tols.hermiticity)
        record("pure-conditional-nonpositive", ("cond_A", c_a, tols.hermiticity), ("cond_B", c_b, tols.hermiticity),
               ("C", pure_c, zero), rows=pure, ok=nonpos & (equality & (pure_c <= zero) | ~equality & (pure_c > zero)))

        # 1 - |s(A)|^2 = C^2 = 4 |a11 a00 - a01 a10|^2
        vecs = bloch_vectors(amps, tols=tols)
        mag2_a = np.sum(vecs[:, 0] ** 2, axis=-1)
        residual = np.abs((1.0 - mag2_a) - pure_c**2)
        norms = np.linalg.norm(vecs, axis=2)
        norm_gap = np.abs(norms[:, 0] - norms[:, 1])
        record("pure-bloch-identity", ("res", residual, tols.hermiticity), ("norm_gap", norm_gap, tols.hermiticity),
               rows=pure)

        coeffs = np.empty((len(pure), 4, 4))
        coeffs[:, 0, 0], coeffs[:, 1:, 0], coeffs[:, 0, 1:] = 1.0, vecs[:, 0], vecs[:, 1]
        coeffs[:, 1:, 1:] = correlation_tensor(amps, tols=tols)
        pauli_err = _max_abs(pauli_sum(coeffs, m) / 4.0 - m[pure])
        record("pure-pauli-reconstruction", ("pauli_err", pauli_err, tols.identity), rows=pure)

        gap_c = np.abs(pure_c - conc[pure])
        gap_bloch = np.abs(pure_c - np.sqrt(np.maximum(1.0 - mag2_a, 0.0)))
        record("pure-concurrence-routes", ("gap_c", gap_c, zero), ("gap_bloch", gap_bloch, zero), rows=pure)

    if len(product):
        prod_gap = _max_abs(m[product] - prod[product])
        record("product-mutual-zero", ("mut", mut[product], tols.hermiticity), ("gap", prod_gap, tols.rebuilt),
               rows=product)
        # S(AB) - S(A) = S(B) and S(AB) - S(B) = S(A), both nonnegative.
        c_a, c_b = cond_a[product], cond_b[product]
        record("product-entropy-difference", ("diff_A", np.abs(c_a - s_b[product]), tols.identity),
               ("diff_B", np.abs(c_b - s_a[product]), tols.identity), ("-cond_A", -c_a, tols.identity),
               ("-cond_B", -c_b, tols.identity), rows=product)

    return ledger.checked, ledger.failures


def _audit_stack(payload):
    """``_check_stack`` on one stack ``(indices, seed, tols)``, a failed check named with its stack."""
    indices, seed, tols = payload
    try:
        return _check_stack(indices, seed, tols)
    except CheckError as exc:
        # A stack check names the position of the failing state in its stack.
        raise ValueError(f"audit seed {seed}, states {indices} (state k is the k-th of them): {exc}") from exc


def run_audit(n: int, seed: int, jobs: int = 1, tols: Tolerances = TOLS):
    """Evaluate every randomized invariant on n seeded states.

    Returns (per-property (checked, failed) counts in stable order,
    failure detail lines ordered by state, then property).  Deterministic
    for a given seed, independent of the job count.  The unit of work is
    one stack of at most ``STACK_SIZE`` consecutive states; where ``min(jobs,
    stacks // STACKS_PER_WORKER, cpu count)`` is two or more, that many
    worker processes share them.
    """
    if n < 1:
        raise ValueError(f"audit needs n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"audit needs jobs >= 1, got {jobs}")
    if seed < 0:
        raise ValueError(f"audit needs seed >= 0, got {seed}")
    payloads = [(range(start, min(start + STACK_SIZE, n)), seed, tols) for start in range(0, n, STACK_SIZE)]
    workers = min(jobs, len(payloads) // STACKS_PER_WORKER)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # Loaded here, so that a one-process audit and every other command pay no import of the pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Spawned, not forked: the BLAS library that numpy loads starts a thread,
        # and forking a multi-threaded process can deadlock.
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = list(pool.map(_audit_stack, payloads))
    else:
        parts = list(map(_audit_stack, payloads))
    counts = {prop: [sum(checked[prop] for checked, _ in parts), 0] for prop in AUDIT_PROPERTIES}
    lines = []
    for index, _, prop, detail in sorted(failure for _, failures in parts for failure in failures):
        counts[prop][1] += 1
        lines.append(f"state {index} (seed {seed}) failed {prop}: {detail}")
    return counts, lines
