"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is computed by a Hermitian route: the eigenvalues
of rho * rho_tilde equal those of sqrt(rho) rho_tilde sqrt(rho), which is
Hermitian PSD, so no general non-Hermitian eigensolver is needed.
``concurrence_stack`` evaluates it on a validated stack ``(N, 4, 4)``
with its eigendecompositions, and ``lambda_spectrum`` is its N = 1 call; a
single state's concurrence is ``classify(rho).concurrence``.  A
brute-force cross-check against the characteristic polynomial of the
matrix product lives in the test suite.  ``pure_concurrence`` is the
closed form on a stack of pure-state amplitudes ``(..., 4)`` and solves
no eigenproblem.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    SIGMA_Y,
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    eigh_stack,
    sqrt_stack,
    tensor_product,
)

__all__ = ["spin_flip_stack", "lambda_spectrum", "concurrence_stack", "pure_concurrence"]

_YY = tensor_product(SIGMA_Y, SIGMA_Y)

# Eigenvalues of the Hermitian core below this are round-off zeros; taking
# their square root would inflate them to ~1e-8 and bias the concurrence.
# A float64 round-off level, not a bound: ``--tolerance`` would move printed concurrences.
_CORE_NOISE_FLOOR = 1e-14


def spin_flip_stack(m: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) m* (sigma_y x sigma_y), conjugated in the computational basis,
    for each two-qubit matrix of ``(..., 4, 4)``.  The flip of a state is a state."""
    if np.shape(m)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit matrices (..., 4, 4) required, got shape {np.shape(m)}")
    f = _YY @ np.conj(m) @ _YY
    return 0.5 * (f + f.conj().swapaxes(-1, -2))


def _lambda_stack(m: np.ndarray, values: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values ``(N, 4)``, descending, of a stack with its eigendecompositions."""
    root = sqrt_stack(values, vectors)
    core = root @ spin_flip_stack(m) @ root
    vals, _ = eigh_stack(0.5 * (core + core.conj().swapaxes(-1, -2)), tols=tols)
    CheckError.below("lambda nonnegativity", vals[:, -1], -tols.identity)
    return np.sqrt(np.where(vals < _CORE_NOISE_FLOOR, 0.0, vals))


def concurrence_stack(m: np.ndarray, values: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) for each state of the stack."""
    lam = _lambda_stack(m, values, vectors, tols=tols)
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(lam, axis=-1), 0.0)


def lambda_spectrum(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values: square roots of the eigenvalues of rho times its spin flip, descending."""
    return _lambda_stack(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None], tols=tols)[0]


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
