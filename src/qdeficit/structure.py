"""The marginal-eigenbasis machinery for two-qubit states: product frames,
overlap weights, decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both qubit marginals.  Dropping the off-diagonal elements of a state in
that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit, ``classify``'s
``deficit``.

Every figure is computed once, by array kernels over a validated stack
``(m, w, v)``: the matrices ``m`` ``(N, 4, 4)`` with their descending
eigenvalues ``w`` and eigenvectors ``v``.  The frame sequence (frame,
decohered matrices, joint distribution, overlap weights) is one pass,
``decohere_stack``.  ``classify_stack`` runs every kernel on a whole
stack and returns a ``Classification`` of arrays, one entry per state.
``classify`` is its N = 1 call on a ``DensityMatrix``'s own eigen-data:
the same ``Classification``, holding row 0 as Python scalars.
``verdicts`` words one such row.  A failed check names the lowest
failing state of a stack.

rho_d is diagonal in the product frame, and that diagonal is the joint
distribution P(alpha, beta).  So rho_d's spectrum is P, and S(rho_d) is
the Shannon entropy H(P): the deficit needs no eigensolve of rho_d.
rho_d's density checks are read from P as well: nonnegativity of P is
its psd check, P's sum its trace check, and rho_d is Hermitian by
construction.  The four entropies a classification reads, S(rho),
S(rho_A), S(rho_B) and H(P), come from one ``entropy_stack`` pass over
the spectra [rho, rho_A, rho_B, P], each zero-padded to four levels; a
padding zero lies off the support and adds nothing.  The eigensolves
stay three calls per stack.

A marginal whose two eigenvalues differ by more than ``tols.degeneracy``
contributes its eigenvectors; otherwise its eigenbasis is not unique and
the frame takes the computational basis, ordered by descending diagonal
entry (ties keep index order).  On a stack this rule is a per-state,
per-side mask, so degenerate and generic states share one call.  That
makes decoherence deterministic but basis-dependent exactly where the
construction itself is underdetermined, so the classifier records when
the fallback fired.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .concurrence import core_concurrence, spin_flip_core_stack
from .entropy import entropy_stack
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    marginal_stack,
    tensor_product,
    transpose_stack,
)

__all__ = [
    "Classification",
    "Decoherence",
    "decohere_stack",
    "classify_stack",
    "classify",
    "verdicts",
]

_EYE2 = np.eye(2, dtype=complex)
_SWAP2 = _EYE2[:, ::-1].copy()
_EYE4 = np.eye(4)


def _frame_stack(marg: np.ndarray, values: np.ndarray, vectors: np.ndarray, tols: Tolerances):
    """Frame eigenvalues ``(N, 2, 2)`` per side, the degeneracy mask ``(N, 2)``, the product
    vectors ``u`` ``(N, 4, 4)`` and their conjugate, from the marginals' eigendecompositions."""
    degenerate = values[..., 0] - values[..., 1] <= tols.degeneracy
    if np.count_nonzero(degenerate):
        diag = np.real(np.diagonal(marg[degenerate], axis1=-2, axis2=-1))
        swap = diag[:, 1] > diag[:, 0]
        values, vectors = values.copy(), vectors.copy()
        values[degenerate] = np.where(swap[:, None], diag[:, ::-1], diag)
        vectors[degenerate] = np.where(swap[:, None, None], _SWAP2, _EYE2)
    u = tensor_product(vectors[:, 0], vectors[:, 1])
    u_conj = u.conj()
    gram = np.abs(u_conj.swapaxes(-1, -2) @ u - _EYE4)
    if not gram.max() <= tols.identity:
        CheckError.above("frame orthonormality", gram.max(axis=(-2, -1)), tols.identity)
    CheckError.above("marginal normalization", np.abs(values.sum(axis=-1) - 1.0), tols.hermiticity)
    return values, degenerate, u, u_conj


def _dephase(m: np.ndarray, u: np.ndarray, u_conj: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Decohered matrices ``(N, 4, 4)`` and their joint diagonals ``(N, 4)`` in the frames ``u``,
    whose conjugate is ``u_conj``."""
    diag = np.einsum("nij,nik,nkj->nj", u_conj, m, u).real
    if not diag.min() >= -tols.psd:
        CheckError.below("joint nonnegativity", diag.min(axis=-1), -tols.psd)
    diag = np.maximum(diag, 0.0)
    mat = (u * diag[:, None, :]) @ u_conj.swapaxes(-1, -2)
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2)), diag


def _overlap_stack(u_conj: np.ndarray, vectors: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Squared overlaps ``(N, 2, 2, 4)`` of each frame, given by its conjugate ``u_conj``, with its
    state's eigenvectors."""
    weights = np.abs(u_conj.swapaxes(-1, -2) @ vectors) ** 2
    err = np.maximum(np.abs(weights.sum(axis=-2) - 1.0), np.abs(weights.sum(axis=-1) - 1.0))
    if not err.max() <= tols.hermiticity:
        CheckError.above("overlap normalization", err.max(axis=-1), tols.hermiticity)
    return weights.reshape(-1, 2, 2, 4)


def _ratio_stack(weights: np.ndarray, values: np.ndarray, frame_values: np.ndarray, tols: Tolerances):
    """Largest composite/marginal eigenvalue ratio per side ``(N, 2)`` and the defined flag ``(N,)``.

    Pairs whose total overlap weight vanishes are skipped: they never
    enter any entropy expression.
    """
    connection = np.empty((len(weights), 2, 2, 4))  # (N, side A/B, frame index, Gamma)
    np.add.reduce(weights, axis=2, out=connection[:, 0])
    np.add.reduce(weights, axis=1, out=connection[:, 1])
    live = (frame_values[..., None] > tols.support_cutoff) & (connection > tols.support_cutoff)
    # The floor only keeps the masked-out rows finite.
    ratios = values[:, None, None, :] / np.maximum(frame_values, tols.support_cutoff)[..., None]
    side_max = np.maximum.reduce(ratios, axis=(-2, -1), where=live, initial=0.0)
    return side_max, (side_max <= 1.0 + tols.hermiticity).all(axis=-1)


class Classification(NamedTuple):
    """Every figure of two-qubit states: ``classify_stack``'s arrays, one entry per state,
    or ``classify``'s Python scalars for one state.

    The conditional probabilities are defined while ``worst_eigen_ratio``
    is at most 1 + ``tols.hermiticity``.
    """

    concurrence: np.ndarray  # (N,)
    entropy_diff_a: np.ndarray  # (N,): S(AB) - S(A)
    entropy_diff_b: np.ndarray  # (N,): S(AB) - S(B)
    mutual: np.ndarray  # (N,): S(A) + S(B) - S(AB)
    deficit: np.ndarray  # (N,): S(rho_d) - S(AB)
    ppt_min_eig: np.ndarray  # (N,)
    conditional_prob_defined: np.ndarray  # bool (N,)
    commutes_with_marginals: np.ndarray  # bool (N,)
    frame_fallback: np.ndarray  # bool (N, side A/B): the side took the computational-basis frame
    worst_eigen_ratio: np.ndarray  # (N,): the larger side of ``_ratio_stack``'s maxima


class Decoherence(NamedTuple):
    """The frame pass over a stack of N states: ``decohere_stack``'s result."""

    matrices: np.ndarray  # rho_d (N, 4, 4), diagonal in each state's frame
    joint: np.ndarray  # P[alpha, beta] (N, 2, 2), the diagonal of rho_d in the frame
    frame_values: np.ndarray  # (N, side A/B, alpha): the frame's marginal eigenvalues
    degenerate: np.ndarray  # (N, side A/B): the side took the computational-basis frame
    weights: np.ndarray  # |<alpha, beta|Gamma>|^2 (N, alpha, beta, Gamma)


def decohere_stack(m: np.ndarray, marginals, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> Decoherence:
    """Drop all off-diagonal elements of each state in its marginal-eigenbasis product frame.

    ``m`` is a validated stack ``(N, 4, 4)`` and ``marginals`` its
    ``marginal_stack(m)``, ``vectors`` ``(N, 4, 4)`` the states'
    eigenvectors, which the overlap weights read.  Both marginals are
    preserved, and the joint's row/column sums are the frame's marginal
    eigenvalues.
    """
    marg, marg_w, marg_v = marginals
    frame_w, degenerate, u, u_conj = _frame_stack(marg, marg_w, marg_v, tols)
    mat_d, joint = _dephase(m, u, u_conj, tols)
    return Decoherence(mat_d, joint.reshape(-1, 2, 2), frame_w, degenerate, _overlap_stack(u_conj, vectors, tols))


def _classify(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> Classification:
    """Every figure of each state of a validated stack ``(m, w, v)``, as columns."""
    n = len(m)
    # The spin-flip cores and the partial transposes need only spectra: one values-only call
    # on (N, 2, 4, 4), so a failing check names state k // 2 of the flat index k.
    pairs = np.empty((n, 2, 4, 4), dtype=complex)
    pairs[:, 0] = spin_flip_core_stack(m, w, v)
    pairs[:, 1] = transpose_stack(m, "B")
    spectra = eigvalsh_stack(pairs, tols=tols)
    conc = core_concurrence(spectra[:, 0], tols=tols)
    ppt_min = spectra[:, 1, -1]
    # The entropy input check on rho, ahead of the marginals' and the frame's checks; the pass below repeats it.
    CheckError.below("psd", w[:, -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")
    marginals = marginal_stack(m, tols=tols)
    mat_d, joint, frame_w, degenerate, weights = decohere_stack(m, marginals, v, tols=tols)
    # rho_d is diagonal in the frame, so its spectrum is the joint P: S(rho_d) = H(P).  _dephase has
    # checked P >= -psd (the psd check) and made rho_d Hermitian; its trace is P's sum.
    p = joint.reshape(-1, 4)
    tr = p.sum(axis=-1)
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"decohered trace {tr[k]:.12g}")
    # One entropy pass over the spectra of rho, rho_A, rho_B and rho_d, zero-padded to four levels.
    # The zeros lie off the support; the marginals passed the psd check in marginal_stack, and P >= 0.
    levels = np.zeros((n, 4, 4))
    levels[:, 0] = w
    levels[:, 1:3, :2] = marginals[1]
    levels[:, 3] = np.sort(p, axis=-1)[:, ::-1]
    s, s_a, s_b, s_d = entropy_stack(levels, tols=tols).T
    mutual = s_a + s_b - s
    deficit = s_d - s
    side_max, defined = _ratio_stack(weights, w, frame_w, tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = np.abs(m - mat_d).max(axis=(-2, -1)) <= tols.identity

    inside = (deficit >= -tols.identity) & (deficit <= mutual + tols.identity)
    CheckError.raise_first("deficit bounds", ~inside, deficit, lambda k: f"mutual={mutual[k]:.12g}")
    return Classification(
        conc, s - s_a, s - s_b, mutual, deficit, ppt_min, defined, commutes, degenerate, side_max.max(axis=-1)
    )


def classify_stack(matrices, *, tols: Tolerances = TOLS) -> Classification:
    """Every figure of each two-qubit state of a stack ``(N, 4, 4)``, one array per figure.

    Each matrix is validated as ``DensityMatrix`` validates it; the first
    failing check raises for the lowest failing state and names it.
    S(rho_d) is read from the joint P(alpha, beta), which is rho_d's
    spectrum.  The stack takes three eigensolver calls: ``eigh`` on the
    states and on their marginals, whose eigenvectors the frame and the
    overlap weights read, and one values-only ``eigvalsh`` on the
    spin-flip cores and the partial transposes together.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"a stack of two-qubit states (N, 4, 4) required, got shape {m.shape}")
    w, v = density_stack(m, tols=tols)
    return _classify(m, w, v, tols)


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> Classification:
    """``classify_stack``'s row 0 for one two-qubit state, from its own eigen-data, as Python scalars.

    ``frame_fallback`` is the (A, B) pair of sides whose degenerate
    marginal took the computational-basis frame.
    """
    cols = _classify(rho_ab.matrix[None], rho_ab.eigenvalues[None], rho_ab.eigenvectors[None], tols)
    row = Classification._make(col[0].tolist() for col in cols)
    return row._replace(frame_fallback=tuple(row.frame_fallback))


def verdicts(report: Classification, *, tols: Tolerances = TOLS) -> tuple[str, ...]:
    """The verdict strings of one ``classify`` result."""
    c, (deg_a, deg_b) = report.concurrence, report.frame_fallback
    out = []
    if c <= tols.concurrence_zero:
        out.append("separable (concurrence = 0)")
    else:
        out.append(f"entangled (concurrence = {c:.6g})")
        if max(abs(report.entropy_diff_a), abs(report.entropy_diff_b)) <= tols.identity:
            out.append("entangled despite zero entropy difference")
    if report.mutual <= tols.hermiticity:
        out.append("classically uncorrelated product state")
    if report.commutes_with_marginals:
        out.append("commutes with both marginal eigenframes: decoherence fixed point")
    if report.conditional_prob_defined:
        out.append("conditional probabilities defined: eigenvalue ratios bounded by one")
    if deg_a or deg_b:
        which = "A" * deg_a + "B" * deg_b
        out.append(f"degenerate marginal spectrum ({which}): computational-basis frame applied")
    return tuple(out)
