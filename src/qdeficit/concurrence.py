"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is read from a real symmetric matrix.  With
rho = V W V† and Y = sigma_y x sigma_y, Wootters' matrix
tau = sqrt(W) V^T Y V sqrt(W) (PRL 80, 2245, 1998) is complex symmetric,
and its singular values are the lambda_i, the square roots of the
eigenvalues of rho * rho_tilde.  Y V is V with its rows reversed and
signed, so tau takes one 4x4 product.

Where V is real, as ``eigh_stack`` returns it for a real stack, tau is
real symmetric: its eigenvalues are real, and its singular values are
their absolute values, so lambda = |eig tau| sorted descending, from one
4x4 values-only solve.  Where V is complex, the real-linear map
z -> tau z* on C^4 is, in the coordinates (Re z, Im z), the real
dilation M = [[Re tau, Im tau], [Im tau, -Re tau]], symmetric because
tau is.  M^2 is the real form of z -> tau tau† z, so M's eigenvalues
square to the lambda_i^2; and M anticommutes with the real form of i, so
its spectrum is symmetric about 0.  M's spectrum is therefore +-lambda_i,
and its four largest eigenvalues are the lambda_i to absolute round-off.
Neither route takes a square root to inflate a round-off zero.  Either
matrix is solved by ``eigvalsh_stack`` with LAPACK's real driver, and
its hermiticity check is the check that tau = tau^T.

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

from .linalg import TOLS, Tolerances, eigvalsh_stack, require_two_qubits

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
# Entry (a, b) of the dilation of tau is element (a % 4, b % 4) of tau: its real part, index 0 of the
# pair complex128 stores, in the diagonal quadrants, negated in the lower right one; its imaginary
# part, index 1, in the other two.
_QUADRANT, _ENTRY = np.divmod(np.arange(8), 4)
_DILATION_INDEX = 2 * (4 * _ENTRY[:, None] + _ENTRY) + (_QUADRANT[:, None] != _QUADRANT)
_DILATION_SIGNS = np.where(_QUADRANT[:, None] & _QUADRANT, -1.0, 1.0)


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


def _dilation(tau: np.ndarray) -> np.ndarray:
    """The real dilations [[Re tau, Im tau], [Im tau, -Re tau]] ``(..., 8, 8)`` of a complex stack
    ``(..., 4, 4)``: one gather from tau's interleaved real and imaginary parts, times the signs."""
    flat = tau.view(float).reshape(tau.shape[:-2] + (32,))
    return np.take(flat, _DILATION_INDEX, axis=-1) * _DILATION_SIGNS


def concurrence(values: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """The spin-flip lambdas ``(..., 4)``, descending, of a stack of two-qubit states from their
    eigendecompositions ``(values, vectors)``, in one values-only solve.

    Real ``vectors`` make tau real symmetric, tau = O diag(e) O^T with O
    orthogonal, so its singular values, the lambdas, are |e_i|: its
    eigenvalues are +-lambda_i, and one 4x4 real solve gives them.  A
    complex tau is solved through its 8x8 real dilation, whose four
    largest eigenvalues are the lambdas (see the module docstring).
    """
    tau = _tau(values, vectors)
    if tau.dtype == np.float64:
        return np.sort(np.abs(eigvalsh_stack(tau, tols=tols)), axis=-1)[..., ::-1]
    return np.maximum(eigvalsh_stack(_dilation(tau), tols=tols)[..., :4], 0.0)


def wootters_concurrence(lam: np.ndarray) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) per state, from the descending lambdas ``(..., 4)``."""
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(lam, axis=-1), 0.0)


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
