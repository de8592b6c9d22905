"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is computed by a Hermitian route.  With
rho = V W V† and Y = sigma_y x sigma_y, Wootters' symmetric matrix
tau = sqrt(W) V^T Y V sqrt(W) (PRL 80, 2245, 1998) has singular values
lambda_i, the square roots of the eigenvalues of rho * rho_tilde, so the
Hermitian PSD core tau† tau has eigenvalues lambda_i^2 and no general
non-Hermitian eigensolver is needed.  Y V is V with its rows reversed and
signed, so tau takes one 4x4 product and its core a second.  Only the
core's eigenvalues are read, so ``eigvalsh_stack`` solves it and no
eigenvectors are built.  From a validated stack's eigendecompositions,
``spin_flip_core_stack`` builds the cores and ``core_concurrence`` turns
their spectra into concurrences; a caller puts the cores into its own
stack with the other spectra it solves.  ``lambda_spectrum`` is the
N = 1 call; a single state's concurrence is
``classify(rho).concurrence``.  A brute-force cross-check against the
characteristic polynomial of the matrix product lives in the test suite.
``pure_concurrence`` is the closed form on a stack of pure-state
amplitudes ``(..., 4)`` and solves no eigenproblem.
"""

from __future__ import annotations

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances, eigvalsh_stack

__all__ = [
    "spin_flip_stack",
    "spin_flip_core_stack",
    "core_concurrence",
    "lambda_spectrum",
    "pure_concurrence",
]

# sigma_y x sigma_y is anti-diagonal with entries s = (-1, 1, 1, -1): multiplying by it
# reverses the row index and multiplies row i by s_i, and conjugating by it reverses both
# indices and multiplies entry (i, j) by s_i s_j.
_SIGNS = np.array((-1.0, 1.0, 1.0, -1.0))
_FLIP_SIGNS = np.outer(_SIGNS, _SIGNS)

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


def spin_flip_core_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Hermitian cores tau† tau ``(..., 4, 4)`` from the eigendecompositions ``(values, vectors)``
    of a stack of two-qubit states, tau = sqrt(W) V^T Y V sqrt(W) in each state's eigenbasis."""
    if np.shape(vectors)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit eigenvectors (..., 4, 4) required, got shape {np.shape(vectors)}")
    b = vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]
    tau = b.swapaxes(-1, -2) @ (_SIGNS[:, None] * b[..., ::-1, :])
    # Entries (i, j) and (j, i) of tau† tau are sums of conjugate products: no symmetrizing pass.
    return tau.conj().swapaxes(-1, -2) @ tau


def _lambdas(core_values: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Spin-flip singular values ``(..., 4)``, descending, from the cores' descending eigenvalues.

    The check reads ``core_values[..., -1]``, so on a stack ``(N, ...)`` a failure names state k.
    """
    CheckError.below("lambda nonnegativity", core_values[..., -1], -tols.identity)
    return np.sqrt(np.where(core_values < _CORE_NOISE_FLOOR, 0.0, core_values))


def core_concurrence(core_values: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) per core, from the cores' descending eigenvalues ``(..., 4)``."""
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(_lambdas(core_values, tols), axis=-1), 0.0)


def lambda_spectrum(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values: square roots of the eigenvalues of rho times its spin flip, descending."""
    core = spin_flip_core_stack(rho.eigenvalues[None], rho.eigenvectors[None])
    return _lambdas(eigvalsh_stack(core, tols=tols), tols)[0]


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
