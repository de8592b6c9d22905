"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is computed by a Hermitian route: the eigenvalues
of rho * rho_tilde equal those of sqrt(rho) rho_tilde sqrt(rho), which is
Hermitian PSD, so no general non-Hermitian eigensolver is needed.  A
brute-force cross-check against the characteristic polynomial of the
matrix product lives in the test suite.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    SIGMA_Y,
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    hermitian_eig,
    tensor_product,
)

__all__ = ["spin_flip", "lambda_spectrum", "concurrence", "pure_concurrence"]

_YY = tensor_product(SIGMA_Y, SIGMA_Y)

# Eigenvalues of the Hermitian core below this are round-off zeros; taking
# their square root would inflate them to ~1e-8 and bias the concurrence.
_CORE_NOISE_FLOOR = 1e-14


def _require_two_qubit(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise CheckError("dims", 0.0, f"two-qubit state required, got dims {rho.dims}")


def _flipped(m: np.ndarray) -> np.ndarray:
    f = _YY @ m.conj() @ _YY
    return 0.5 * (f + f.conj().T)


def spin_flip(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y), conjugated in the computational basis."""
    _require_two_qubit(rho)
    return DensityMatrix(_flipped(rho.matrix), (2, 2), tols=tols)


def lambda_spectrum(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values: square roots of the eigenvalues of rho * spin_flip(rho), descending."""
    _require_two_qubit(rho)
    es = rho.eigensystem()
    root = (es.vectors * np.sqrt(np.clip(es.values, 0.0, None))) @ es.vectors.conj().T
    core = root @ _flipped(rho.matrix) @ root
    vals = hermitian_eig(0.5 * (core + core.conj().T), tols=tols).values
    if vals[-1] < -tols.identity:
        raise CheckError("lambda nonnegativity", vals[-1])
    return np.sqrt(np.where(vals < _CORE_NOISE_FLOOR, 0.0, vals))


def concurrence(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0); zero iff separable."""
    l1, l2, l3, l4 = lambda_spectrum(rho, tols=tols).tolist()
    return max(l1 - l2 - l3 - l4, 0.0)


def pure_concurrence(amps) -> float:
    """Closed form 2 |a11 a00 - a01 a10| for a pure two-qubit state."""
    return 2.0 * abs(amps.a11 * amps.a00 - amps.a01 * amps.a10)
