"""Wootters concurrence for two-qubit density matrices.

The spin-flip spectrum is read from a real symmetric matrix.  With
rho = V W V† and Y = sigma_y x sigma_y, Wootters' matrix
tau = sqrt(W) V^T Y V sqrt(W) (PRL 80, 2245, 1998) is complex symmetric,
and its singular values are the lambda_i, the square roots of the
eigenvalues of rho * rho_tilde.  Y V is V with its rows reversed and
signed, so tau takes one 4x4 product.  The real-linear map z -> tau z*
on C^4 is, in the coordinates (Re z, Im z), the real dilation
M = [[Re tau, Im tau], [Im tau, -Re tau]], symmetric because tau is.
M^2 is the real form of z -> tau tau† z, so M's eigenvalues square to
the lambda_i^2; and M anticommutes with the real form of i, so its
spectrum is symmetric about 0.  M's spectrum is therefore +-lambda_i,
and its four largest eigenvalues are the lambda_i to absolute round-off,
with no square root to inflate a round-off zero.  Only that spectrum is
read, so ``eigvalsh_stack`` solves M with LAPACK's real driver, and its
hermiticity check on M is the check that tau = tau^T.

From a validated stack's eigendecompositions, ``spin_flip_dilation_stack``
builds the dilations and ``dilation_concurrence`` turns their spectra into
concurrences; a caller solves the dilations in its own values-only call.
``lambda_spectrum`` is the N = 1 call; a single state's concurrence is
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
    "spin_flip_dilation_stack",
    "dilation_concurrence",
    "lambda_spectrum",
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
    if np.shape(m)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit matrices (..., 4, 4) required, got shape {np.shape(m)}")
    f = _FLIP_SIGNS * np.conj(m)[..., ::-1, ::-1]
    return 0.5 * (f + f.conj().swapaxes(-1, -2))


def spin_flip_dilation_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Real dilations [[Re tau, Im tau], [Im tau, -Re tau]] ``(..., 8, 8)`` from the eigendecompositions
    ``(values, vectors)`` of a stack of two-qubit states, tau = sqrt(W) V^T Y V sqrt(W) in each eigenbasis."""
    if np.shape(vectors)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit eigenvectors (..., 4, 4) required, got shape {np.shape(vectors)}")
    b = vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]
    tau = b.swapaxes(-1, -2) @ (_SIGNS[:, None] * b[..., ::-1, :])
    out = np.empty(tau.shape[:-2] + (8, 8))
    out[..., :4, :4] = tau.real
    np.negative(tau.real, out=out[..., 4:, 4:])
    out[..., :4, 4:] = out[..., 4:, :4] = tau.imag
    return out


def dilation_concurrence(dilation_values: np.ndarray) -> np.ndarray:
    """max(lambda1 - lambda2 - lambda3 - lambda4, 0) per dilation, from its descending eigenvalues
    ``(..., 8)``: the lambdas are the four largest, floored at 0."""
    lam = np.maximum(dilation_values[..., :4], 0.0)
    # subtract.reduce is ((l1 - l2) - l3) - l4, left to right.
    return np.maximum(np.subtract.reduce(lam, axis=-1), 0.0)


def lambda_spectrum(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Spin-flip singular values: square roots of the eigenvalues of rho times its spin flip, descending."""
    dilation = spin_flip_dilation_stack(rho.eigenvalues[None], rho.eigenvectors[None])
    return np.maximum(eigvalsh_stack(dilation, tols=tols)[0, :4], 0.0)


def pure_concurrence(amps) -> np.ndarray:
    """Closed form 2 |a11 a00 - a01 a10| for pure two-qubit states ``(..., 4)``, one value per state."""
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 2.0 * np.abs(a11 * a00 - a01 * a10)
