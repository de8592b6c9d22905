"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is computed by a Hermitian route: the eigenvalues
of rho * rho_tilde equal those of the core sqrt(rho) rho_tilde sqrt(rho),
which is Hermitian PSD, so no general non-Hermitian eigensolver is
needed.  Only the core's eigenvalues are read, so ``eigvalsh_stack``
solves it and no eigenvectors are built.  On a validated stack
``(N, 4, 4)`` with its eigendecompositions, ``spin_flip_core_stack``
builds the cores and ``core_concurrence`` turns their spectra into
concurrences; ``concurrence_stack`` is the two combined, and a caller
with other spectra to solve can put the cores into its own stack.
``lambda_spectrum`` is the N = 1 call; a single state's concurrence is
``classify(rho).concurrence``.  A brute-force cross-check against the
characteristic polynomial of the matrix product lives in the test suite.
``pure_concurrence`` is the closed form on a stack of pure-state
amplitudes ``(..., 4)`` and solves no eigenproblem.
"""

from __future__ import annotations

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances, eigvalsh_stack, sqrt_stack

__all__ = [
    "spin_flip_stack",
    "spin_flip_core_stack",
    "core_concurrence",
    "lambda_spectrum",
    "concurrence_stack",
    "pure_concurrence",
]

# sigma_y x sigma_y is anti-diagonal with entries s = (-1, 1, 1, -1), so conjugating by it
# reverses both indices and multiplies entry (i, j) by s_i s_j.
_FLIP_SIGNS = np.outer((-1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, 1.0, -1.0))

# Eigenvalues of the Hermitian core below this are round-off zeros; taking
# their square root would inflate them to ~1e-8 and bias the concurrence.
# A float64 round-off level, not a bound: ``--tolerance`` would move printed concurrences.
_CORE_NOISE_FLOOR = 1e-14


def spin_flip_stack(m: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) m* (sigma_y x sigma_y), conjugated in the computational basis,
    for each two-qubit matrix of ``(..., 4, 4)``.  The flip of a state is a state."""
    if np.shape(m)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit matrices (..., 4, 4) required, got shape {np.shape(m)}")
    f = _FLIP_SIGNS * np.conj(m)[..., ::-1, ::-1]
    return 0.5 * (f + f.conj().swapaxes(-1, -2))


def spin_flip_core_stack(m: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Hermitian cores sqrt(rho) rho_tilde sqrt(rho) ``(N, 4, 4)`` of a stack with its eigendecompositions."""
    root = sqrt_stack(values, vectors)
    core = root @ spin_flip_stack(m) @ root
    return 0.5 * (core + core.conj().swapaxes(-1, -2))


def _lambdas(core_values: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Spin-flip singular values ``(N, 4)``, descending, from the cores' descending eigenvalues."""
    CheckError.below("lambda nonnegativity", core_values[:, -1], -tols.identity)
    return np.sqrt(np.where(core_values < _CORE_NOISE_FLOOR, 0.0, core_values))


def core_concurrence(core_values: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) per state, from the cores' descending eigenvalues ``(N, 4)``."""
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(_lambdas(core_values, tols), axis=-1), 0.0)


def concurrence_stack(m: np.ndarray, values: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Concurrence of each state of a validated stack with its eigendecompositions."""
    return core_concurrence(eigvalsh_stack(spin_flip_core_stack(m, values, vectors), tols=tols), tols=tols)


def lambda_spectrum(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values: square roots of the eigenvalues of rho times its spin flip, descending."""
    core = spin_flip_core_stack(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])
    return _lambdas(eigvalsh_stack(core, tols=tols), tols)[0]


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
