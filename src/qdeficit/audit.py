"""Randomized property audit: the paper's invariants on seeded random states.

State ``i`` of seed ``s`` is drawn from ``default_rng((s, i))``: the pure
product |10> at index 0, then in turn a Haar-pure state, a product of two
random mixed marginals and a random mixed state of rank 1..4.  Pure and
product states get their own properties too.  Every bound is a
``Tolerances`` property, and every check fails on NaN.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .concurrence import concurrence, pure_concurrence, spin_flip
from .entropy import relative_entropy, tsallis, von_neumann
from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOLS,
    DensityMatrix,
    Tolerances,
    hermitian_eig,
    marginal_stack,
    partial_transpose,
    sqrt_stack,
    tensor_product,
    transpose_stack,
)
from .states import (
    PureStateAmplitudes,
    bloch_vectors,
    correlation_tensor,
    pure_density,
    purity_check,
    random_mixed,
    random_pure,
)
from .structure import decohere

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


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _audit_state(index: int, seed: int, tols: Tolerances):
    """(state, its amplitudes if pure else None, label, whether it is a product state) for one index."""
    if index == 0:
        amps = PureStateAmplitudes(0.0, 1.0, 0.0, 0.0)
        return pure_density(amps, tols=tols), amps, "fixed pure product |10>", True
    kind = index % 3
    rng = np.random.default_rng((seed, index))
    if kind == 1:
        amps = random_pure(rng)
        return pure_density(amps, tols=tols), amps, "haar pure", False
    if kind == 2:
        a = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)), tols=tols)
        b = random_mixed(int(rng.integers(0, 2**32)), int(rng.integers(1, 3)), tols=tols)
        prod = tensor_product(a.marginal("A").matrix, b.marginal("B").matrix)
        return DensityMatrix(prod, tols=tols), None, "random mixed product", True
    rank = (index // 3 - 1) % 4 + 1
    return random_mixed(int(rng.integers(0, 2**32)), rank, tols=tols), None, f"random mixed rank {rank}", False


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _run_state_checks(index: int, seed: int, tols: Tolerances) -> list[tuple[str, bool, str]]:
    rho, amps, label, product = _audit_state(index, seed, tols)
    rng = np.random.default_rng((seed, index, 7))
    results: list[tuple[str, bool, str]] = []

    def record(prop: str, ok: bool, detail: float | str = ""):
        results.append((prop, bool(ok), f"{label}: {detail}" if not ok else ""))

    es = rho.eigensystem()
    rec_err = _max_abs(es.reconstruct() - rho.matrix)
    tr_err = abs(float(np.sum(es.values)) - float(np.trace(rho.matrix).real))
    ok = rec_err <= tols.identity and tr_err <= tols.identity
    record("eig-reconstruction", ok, f"rec={rec_err:.2e} tr={tr_err:.2e}")

    marg_a, marg_b = rho.marginal("A"), rho.marginal("B")
    prod = DensityMatrix(tensor_product(marg_a.matrix, marg_b.matrix), tols=tols)
    kron_err = _max_abs(prod.marginal("A").matrix - marg_a.matrix)
    record("kron-partial-trace", kron_err <= tols.reshuffle, f"{kron_err:.2e}")

    # involution checked on the raw matrix: the transpose of an entangled
    # state is not PSD, so it cannot round-trip through DensityMatrix
    pt = partial_transpose(rho, "B")
    inv_err = _max_abs(transpose_stack(pt, "B") - rho.matrix)
    tr_pt = abs(float(np.trace(pt).real) - 1.0)
    ok = inv_err <= tols.reshuffle and tr_pt <= tols.reshuffle
    record("partial-transpose-involution", ok, f"inv={inv_err:.2e}")

    root = sqrt_stack(es.values, es.vectors)
    sq_err = _max_abs(root @ root - rho.matrix)
    record("sqrt-roundtrip", sq_err <= tols.rebuilt, f"{sq_err:.2e}")

    # S(AB), S(A), S(B) once; the mutual entropy and the q = 1 conditional
    # entropies are the same sums as ``classify``'s and ``conditional_tsallis``'s.
    s1 = von_neumann(rho, tols=tols)
    s_a, s_b = von_neumann(marg_a, tols=tols), von_neumann(marg_b, tols=tols)
    mut = s_a + s_b - s1
    cond_a, cond_b = s1 - s_a, s1 - s_b
    record("mutual-nonnegative", mut >= -tols.hermiticity, f"{mut:.2e}")

    up = abs(tsallis(rho, 1.0 + 1e-4, tols=tols) - s1)
    down = abs(tsallis(rho, 1.0 - 1e-4, tols=tols) - s1)
    record("tsallis-continuity", up <= tols.continuity and down <= tols.continuity, f"{max(up, down):.2e}")

    conc = concurrence(rho, tols=tols)
    record("concurrence-range", -tols.support_cutoff <= conc <= 1.0 + tols.hermiticity, f"{conc}")

    flip_gap = abs(conc - concurrence(spin_flip(rho, tols=tols), tols=tols))
    record("concurrence-flip-invariance", flip_gap <= tols.concurrence_zero, f"{flip_gap:.2e}")

    u_local = tensor_product(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
    rotated = DensityMatrix(u_local @ rho.matrix @ u_local.conj().T, tols=tols)
    lu_gap = abs(conc - concurrence(rotated, tols=tols))
    record("concurrence-local-unitary", lu_gap <= tols.concurrence_zero, f"{lu_gap:.2e}")

    ppt_min = float(hermitian_eig(pt, tols=tols).values[-1])
    zero = tols.concurrence_zero
    ppt_ok = conc > zero and ppt_min < -zero or conc <= zero and ppt_min >= -zero
    record("concurrence-ppt-equivalence", ppt_ok, f"C={conc:.3e} ppt={ppt_min:.3e}")

    rho_d, joint, frame_values, weights = decohere(rho, tols=tols)
    marg_d = marginal_stack(rho_d.matrix[None], tols=tols)[0][0]
    err_a = _max_abs(marg_d[0] - marg_a.matrix)
    err_b = _max_abs(marg_d[1] - marg_b.matrix)
    record("decohere-marginals", err_a <= tols.identity and err_b <= tols.identity, f"{max(err_a, err_b):.2e}")

    idem = _max_abs(decohere(rho_d, tols=tols).state.matrix - rho_d.matrix)
    record("decohere-idempotent", idem <= tols.reshuffle, f"{idem:.2e}")

    values_a, values_b = frame_values
    err_a = _max_abs(joint.sum(axis=1) - values_a)
    err_b = _max_abs(joint.sum(axis=0) - values_b)
    ok = err_a <= tols.hermiticity and err_b <= tols.hermiticity
    record("decohere-joint-marginals", ok, f"{max(err_a, err_b):.2e}")

    s_d = von_neumann(rho_d, tols=tols)
    record("klein-entropy-increase", s_d >= s1 - tols.identity, f"S_d-S={s_d - s1:.2e}")

    err_a = _max_abs(np.einsum("abg,g->a", weights, rho.eigenvalues) - values_a)
    err_b = _max_abs(np.einsum("abg,g->b", weights, rho.eigenvalues) - values_b)
    record("overlap-reconstruction", err_a <= tols.identity and err_b <= tols.identity, f"{max(err_a, err_b):.2e}")

    # P(alpha, beta) / p_beta and P(alpha, beta) / p_alpha over the marginal values off the cutoff.
    sides = ((values_b, joint), (values_a, joint.T))
    ratios = np.concatenate([sums[:, k] / v for vals, sums in sides for k, v in enumerate(vals)
                             if not v <= tols.support_cutoff])
    worst_ratio = float(ratios.max())
    ok = float(ratios.min()) >= -tols.support_cutoff and worst_ratio <= 1.0 + tols.hermiticity
    record("joint-conditional-probability", ok, f"worst ratio {worst_ratio:.12g}")

    deficit = s_d - s1
    record("deficit-bounds", -tols.identity <= deficit <= mut + tols.identity, f"D={deficit:.3e} S={mut:.3e}")

    # D - I with D by a second route: rho_d is rho's pinching in rho_d's eigenbasis, so D = S(rho || rho_d).
    # (-S(rho_d || rho_A x rho_B) is infinite wherever a marginal eigenvalue squared falls below the support cutoff.)
    gap = deficit - mut
    gap_identity = abs(gap - (relative_entropy(rho, rho_d, tols=tols) - mut))
    record("deficit-mutual-gap-identity", gap_identity <= tols.identity and gap <= tols.identity, f"{gap_identity:.2e}")

    if amps is not None:
        record("pure-marginal-entropy-symmetry", abs(s_a - s_b) <= tols.identity, f"{abs(s_a - s_b):.2e}")

        pure_c = pure_concurrence(amps)
        nonpos = cond_a <= tols.hermiticity and cond_b <= tols.hermiticity
        equality = abs(cond_a) <= tols.hermiticity and abs(cond_b) <= tols.hermiticity
        ok = nonpos and (equality and pure_c <= zero or not equality and pure_c > zero)
        record("pure-conditional-nonpositive", ok, f"cond=({cond_a:.3e},{cond_b:.3e}) C={pure_c:.3e}")

        vec_a, vec_b = bloch_vectors(amps, tols=tols)
        _, residual = purity_check(amps, tols=tols)
        norm_a, norm_b = np.linalg.norm((vec_a, vec_b), axis=1)
        norm_gap = abs(norm_a - norm_b)
        ok = residual <= tols.hermiticity and norm_gap <= tols.hermiticity
        record("pure-bloch-identity", ok, f"res={residual:.2e}")

        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ct = correlation_tensor(amps, tols=tols)
        rebuilt = tensor_product(I2, I2).astype(complex)
        for i, pauli in enumerate(paulis):
            rebuilt += vec_a[i] * tensor_product(pauli, I2)
            rebuilt += vec_b[i] * tensor_product(I2, pauli)
            for j in range(3):
                rebuilt += ct[i, j] * tensor_product(pauli, paulis[j])
        rebuilt /= 4.0
        pauli_err = _max_abs(rebuilt - rho.matrix)
        record("pure-pauli-reconstruction", pauli_err <= tols.identity, f"{pauli_err:.2e}")

        gap_c = abs(pure_c - conc)
        gap_bloch = abs(pure_c - math.sqrt(max(1.0 - float(vec_a @ vec_a), 0.0)))
        record("pure-concurrence-routes", gap_c <= zero and gap_bloch <= zero, f"{max(gap_c, gap_bloch):.2e}")

    if product:
        prod_gap = _max_abs(rho.matrix - prod.matrix)
        record("product-mutual-zero", mut <= tols.hermiticity and prod_gap <= tols.rebuilt, f"mut={mut:.2e}")
        # S(AB) - S(A) = S(B) and S(AB) - S(B) = S(A), both nonnegative.
        ok = abs(cond_a - s_b) <= tols.identity and abs(cond_b - s_a) <= tols.identity
        ok = ok and cond_a >= -tols.identity and cond_b >= -tols.identity
        record("product-entropy-difference", ok, f"({cond_a:.3e},{cond_b:.3e})")

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
