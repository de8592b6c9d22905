"""The classifier by the matrix route: the second route that ``structure._classify``'s Fano form must agree with.

Where ``structure`` reads the marginals, the frame, the joint P, rho_d and
the overlap weights from Fano coefficients, this route forms them as
matrices: the partial traces by ``ndarray.trace``, the marginals' own
``eigh`` for their spectra and eigenvectors, the product frame u as a
tensor product, P as the diagonal of u^dagger rho u by ``einsum``, rho_d as
u diag(P) u^dagger, and the weights as |u^dagger v|^2.  A degenerate side
(eigenvalue gap at most ``tols.degeneracy``) takes the computational
basis.  The concurrence and the partial transpose's spectrum share their
solve with ``structure``.  The checks are left out: it runs on valid
states only, and a check changes no value.
"""

from __future__ import annotations

import numpy as np

from qdeficit.concurrence import concurrence, wootters_concurrence
from qdeficit.entropy import entropy_stack
from qdeficit.linalg import TOLS, Tolerances, density_stack, eigvalsh_stack, tensor_product, transpose_stack
from qdeficit.structure import Classification

# Real, so that they may be written into the real marginal eigenvectors of a real stack.
_EYE2 = np.eye(2)
_SWAP2 = _EYE2[:, ::-1].copy()


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def marginals(m: np.ndarray, tols: Tolerances = TOLS):
    """``(matrices, values, vectors)`` of both marginals, indexed ``[state, side A/B, ...]``."""
    split = m.reshape(-1, 2, 2, 2, 2)
    mats = _hermitian_part(np.stack((split.trace(axis1=-3, axis2=-1), split.trace(axis1=-4, axis2=-2)), axis=-3))
    _, values, vectors = density_stack(mats, tols=tols)
    return mats, values, vectors


def _frame(marg: np.ndarray, values: np.ndarray, vectors: np.ndarray, tols: Tolerances):
    """The frame, a degenerate side ordered by descending diagonal where ``structure`` keeps
    index order: no column may depend on that order."""
    degenerate = values[..., 0] - values[..., 1] <= tols.degeneracy
    if np.count_nonzero(degenerate):
        diag = np.real(np.diagonal(marg[degenerate], axis1=-2, axis2=-1))
        swap = diag[:, 1] > diag[:, 0]
        values, vectors = values.copy(), vectors.copy()
        values[degenerate] = np.where(swap[:, None], diag[:, ::-1], diag)
        vectors[degenerate] = np.where(swap[:, None, None], _SWAP2, _EYE2)
    return values, degenerate, tensor_product(vectors[:, 0], vectors[:, 1])


def classify_columns(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances = TOLS) -> Classification:
    """Every ``Classification`` column of a validated stack ``(m, w, v)``."""
    conc = wootters_concurrence(concurrence(w, v, tols=tols))
    ppt_min = eigvalsh_stack(transpose_stack(m), tols=tols)[:, -1]
    s = entropy_stack(w, tols=tols)
    marg, marg_w, marg_v = marginals(m, tols)
    s_marg = entropy_stack(marg_w, tols=tols)
    s_a, s_b = s_marg[:, 0], s_marg[:, 1]
    mutual = s_a + s_b - s

    frame_w, degenerate, u = _frame(marg, marg_w, marg_v, tols)
    p = np.maximum(np.einsum("nij,nik,nkj->nj", u.conj(), m, u).real, 0.0)
    mat_d = (u * p[:, None, :]) @ u.conj().swapaxes(-1, -2)
    mat_d = 0.5 * (mat_d + mat_d.conj().swapaxes(-1, -2))
    weights = (np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2).reshape(-1, 2, 2, 4)
    deficit = entropy_stack(np.sort(p, axis=-1)[:, ::-1], tols=tols) - s

    connection = np.array((weights.sum(axis=2), weights.sum(axis=1))).swapaxes(0, 1)
    live = (frame_w[..., None] > tols.support_cutoff) & (connection > tols.support_cutoff)
    ratios = w[:, None, None, :] / np.maximum(frame_w, tols.support_cutoff)[..., None]
    side_max = np.max(ratios, axis=(-2, -1), where=live, initial=0.0)
    defined = (side_max <= 1.0 + tols.hermiticity).all(axis=-1)
    commutes = np.abs(m - mat_d).max(axis=(-2, -1)) <= tols.identity
    return Classification(
        conc, s - s_a, s - s_b, mutual, deficit, ppt_min, defined, commutes, degenerate, side_max.max(axis=-1)
    )
