"""Wootters concurrence for two-qubit density matrices.

With rho = V W V† and Y = sigma_y x sigma_y, Wootters' matrix
tau = sqrt(W) V^T Y V sqrt(W) (PRL 80, 2245, 1998) is complex symmetric,
and the lambda_i are its singular values, the square roots of the
eigenvalues of rho * rho_tilde; C = max(lambda_1 - lambda_2 - lambda_3 -
lambda_4, 0).  Y V is V with its rows reversed and signed, so tau takes
one 4x4 product, real where V is, and ``svdvals_stack`` reads the
lambdas without a square root that would inflate a round-off zero.

``concurrence`` takes a validated stack's eigendecompositions and
returns the lambdas, in one values-only call; ``wootters_concurrence``
turns them into concurrences.  A single state's concurrence is
``classify(rho).concurrence``.  A brute-force cross-check against the
characteristic polynomial of the matrix product lives in the test suite.
``pure_concurrence`` is the closed form on a stack of pure-state
amplitudes ``(..., 4)`` and solves no eigenproblem.
"""

from __future__ import annotations

import numpy as np

from .linalg import TOLS, Tolerances, require_two_qubits, svdvals_stack

__all__ = [
    "spin_flip_stack",
    "concurrence",
    "wootters_concurrence",
    "pure_concurrence",
]

# sigma_y x sigma_y is anti-diagonal with entries s = (-1, 1, 1, -1): multiplying by it
# reverses the row index and multiplies row i by s_i, and conjugating by it reverses both
# indices and multiplies entry (i, j) by s_i s_j.
_SIGNS = np.array((-1.0, 1.0, 1.0, -1.0))
_FLIP_SIGNS = np.outer(_SIGNS, _SIGNS)


def spin_flip_stack(m: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) m* (sigma_y x sigma_y), conjugated in the computational basis,
    for each two-qubit matrix of ``(..., 4, 4)``.  The flip of a state is a state."""
    require_two_qubits(m)
    f = _FLIP_SIGNS * np.conj(m)[..., ::-1, ::-1]
    return 0.5 * (f + f.conj().swapaxes(-1, -2))


def _tau(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """tau = sqrt(W) V^T Y V sqrt(W) ``(..., 4, 4)`` in each eigenbasis, real where ``vectors`` is."""
    require_two_qubits(vectors)
    b = vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]
    return b.swapaxes(-1, -2) @ (_SIGNS[:, None] * b[..., ::-1, :])


def concurrence(values: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """The spin-flip lambdas ``(..., 4)``, descending, of a stack of two-qubit states from their
    eigendecompositions ``(values, vectors)``: tau's singular values, in one values-only call whose
    hermiticity check is the check that tau = tau^T."""
    return svdvals_stack(_tau(values, vectors), tols=tols)


def wootters_concurrence(lam: np.ndarray) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) per state, from the descending lambdas ``(..., 4)``."""
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(lam, axis=-1), 0.0)


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
