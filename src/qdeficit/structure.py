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
stack and returns one array column per figure; ``classify`` is its
N = 1 call, and only it builds a ``ClassificationReport`` with verdict
strings.  A failed check names the lowest failing state of a stack.

rho_d is diagonal in the product frame, and that diagonal is the joint
distribution P(alpha, beta).  So rho_d's spectrum is P, and S(rho_d) is
the Shannon entropy H(P): the deficit needs no eigensolve of rho_d.
rho_d's density checks are read from P as well: nonnegativity of P is
its psd check, P's sum its trace check, and rho_d is Hermitian by
construction.

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

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .concurrence import concurrence_stack
from .entropy import entropy_stack
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_stack,
    eigh_stack,
    marginal_stack,
    require_two_qubit,
    tensor_product,
    transpose_stack,
)

__all__ = [
    "ClassificationReport",
    "ClassificationColumns",
    "Decoherence",
    "decohere_stack",
    "classify_stack",
    "classify",
]

_EYE2 = np.eye(2, dtype=complex)
_SWAP2 = _EYE2[:, ::-1].copy()
_EYE4 = np.eye(4)


def _frame_stack(marg: np.ndarray, values: np.ndarray, vectors: np.ndarray, tols: Tolerances):
    """Frame eigenvalues ``(N, 2, 2)`` per side, the degeneracy mask ``(N, 2)`` and the
    product vectors ``(N, 4, 4)``, from the marginals' eigensystems."""
    degenerate = values[..., 0] - values[..., 1] <= tols.degeneracy
    if np.count_nonzero(degenerate):
        diag = np.real(np.diagonal(marg[degenerate], axis1=-2, axis2=-1))
        swap = diag[:, 1] > diag[:, 0]
        values, vectors = values.copy(), vectors.copy()
        values[degenerate] = np.where(swap[:, None], diag[:, ::-1], diag)
        vectors[degenerate] = np.where(swap[:, None, None], _SWAP2, _EYE2)
    u = tensor_product(vectors[:, 0], vectors[:, 1])
    gram = np.abs(u.conj().swapaxes(-1, -2) @ u - _EYE4)
    if not gram.max() <= tols.identity:
        CheckError.above("frame orthonormality", gram.max(axis=(-2, -1)), tols.identity)
    CheckError.above("marginal normalization", np.abs(values.sum(axis=-1) - 1.0), tols.hermiticity)
    return values, degenerate, u


def _dephase(m: np.ndarray, u: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Decohered matrices ``(N, 4, 4)`` and their joint diagonals ``(N, 4)`` in the frames ``u``."""
    diag = np.einsum("nij,nik,nkj->nj", u.conj(), m, u).real
    if not diag.min() >= -tols.psd:
        CheckError.below("joint nonnegativity", diag.min(axis=-1), -tols.psd)
    diag = np.maximum(diag, 0.0)
    mat = (u * diag[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2)), diag


def _overlap_stack(u: np.ndarray, vectors: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Squared overlaps ``(N, 2, 2, 4)`` of each frame with its state's eigenvectors."""
    weights = np.abs(u.conj().swapaxes(-1, -2) @ vectors) ** 2
    err = np.maximum(np.abs(weights.sum(axis=-2) - 1.0), np.abs(weights.sum(axis=-1) - 1.0))
    if not err.max() <= tols.hermiticity:
        CheckError.above("overlap normalization", err.max(axis=-1), tols.hermiticity)
    return weights.reshape(-1, 2, 2, 4)


def _ratio_stack(weights: np.ndarray, values: np.ndarray, frame_values: np.ndarray, tols: Tolerances):
    """Largest composite/marginal eigenvalue ratio per side ``(N, 2)`` and the defined flag ``(N,)``.

    Pairs whose total overlap weight vanishes are skipped: they never
    enter any entropy expression.
    """
    connection = np.array((weights.sum(axis=2), weights.sum(axis=1))).swapaxes(0, 1)
    live = (frame_values[..., None] > tols.support_cutoff) & (connection > tols.support_cutoff)
    # The floor only keeps the masked-out rows finite.
    ratios = values[:, None, None, :] / np.maximum(frame_values, tols.support_cutoff)[..., None]
    side_max = np.max(ratios, axis=(-2, -1), where=live, initial=0.0)
    return side_max, (side_max <= 1.0 + tols.hermiticity).all(axis=-1)


@dataclass(frozen=True)
class ClassificationReport:
    """Every figure of one two-qubit state, with its verdicts: ``classify``'s result.

    ``frame_fallback`` is the (A, B) pair of sides whose degenerate marginal
    took the computational-basis frame.  ``worst_eigen_ratio`` is the
    largest composite/marginal eigenvalue ratio over both sides; the
    conditional probabilities are defined while it is at most
    1 + ``tols.hermiticity``.
    """

    concurrence: float
    entropy_diff_a: float
    entropy_diff_b: float
    mutual: float
    deficit: float
    ppt_min_eig: float
    conditional_prob_defined: bool
    commutes_with_marginals: bool
    frame_fallback: tuple[bool, bool]
    worst_eigen_ratio: float
    verdicts: tuple[str, ...]

    def as_dict(self) -> dict:
        return {**asdict(self), "frame_fallback": list(self.frame_fallback), "verdicts": list(self.verdicts)}


class ClassificationColumns(NamedTuple):
    """``classify_stack``'s result: one array per figure, one entry per state of the stack."""

    concurrence: np.ndarray  # (N,)
    entropy_diff_a: np.ndarray  # (N,): S(AB) - S(A)
    entropy_diff_b: np.ndarray  # (N,): S(AB) - S(B)
    mutual: np.ndarray  # (N,): S(A) + S(B) - S(AB)
    deficit: np.ndarray  # (N,): S(rho_d) - S(AB)
    ppt_min_eig: np.ndarray  # (N,)
    conditional_prob_defined: np.ndarray  # bool (N,)
    commutes_with_marginals: np.ndarray  # bool (N,)
    degenerate: np.ndarray  # bool (N, side A/B): the side took the computational-basis frame
    worst_eigen_ratio: np.ndarray  # (N,): the larger side of ``_ratio_stack``'s maxima


class Decoherence(NamedTuple):
    """The frame pass over a stack of N states: ``decohere_stack``'s result."""

    matrices: np.ndarray  # rho_d (N, 4, 4), diagonal in each state's frame
    joint: np.ndarray  # P[alpha, beta] (N, 2, 2), the diagonal of rho_d in the frame
    frame_values: np.ndarray  # (N, side A/B, alpha): the frame's marginal eigenvalues
    degenerate: np.ndarray  # (N, side A/B): the side took the computational-basis frame
    weights: np.ndarray | None  # |<alpha, beta|Gamma>|^2 (N, alpha, beta, Gamma); None without eigenvectors


def decohere_stack(
    m: np.ndarray, marginals, vectors: np.ndarray | None = None, *, tols: Tolerances = TOLS
) -> Decoherence:
    """Drop all off-diagonal elements of each state in its marginal-eigenbasis product frame.

    ``m`` is a validated stack ``(N, 4, 4)`` and ``marginals`` its
    ``marginal_stack(m)``.  Both marginals are preserved, and the joint's
    row/column sums are the frame's marginal eigenvalues.  The overlap
    weights need the states' eigenvectors ``vectors`` ``(N, 4, 4)``.
    """
    marg, marg_w, marg_v = marginals
    frame_w, degenerate, u = _frame_stack(marg, marg_w, marg_v, tols)
    mat_d, joint = _dephase(m, u, tols)
    weights = None if vectors is None else _overlap_stack(u, vectors, tols)
    return Decoherence(mat_d, joint.reshape(-1, 2, 2), frame_w, degenerate, weights)


def _classify(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> ClassificationColumns:
    """Every figure of each state of a validated stack ``(m, w, v)``, as columns."""
    conc = concurrence_stack(m, w, v, tols=tols)
    s = entropy_stack(w, tols=tols)
    marginals = marginal_stack(m, tols=tols)
    s_marg = entropy_stack(marginals[1], tols=tols)
    s_a, s_b = s_marg[:, 0], s_marg[:, 1]
    mutual = s_a + s_b - s
    mat_d, joint, frame_w, degenerate, weights = decohere_stack(m, marginals, v, tols=tols)
    # rho_d is diagonal in the frame, so its spectrum is the joint P: S(rho_d) = H(P).  _dephase has
    # checked P >= -psd (the psd check) and made rho_d Hermitian; its trace is P's sum.
    p = joint.reshape(-1, 4)
    tr = p.sum(axis=-1)
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"decohered trace {tr[k]:.12g}")
    deficit = entropy_stack(np.sort(p, axis=-1)[:, ::-1], tols=tols) - s
    ppt_min = eigh_stack(transpose_stack(m, "B"), tols=tols)[0][:, -1]
    side_max, defined = _ratio_stack(weights, w, frame_w, tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = np.abs(m - mat_d).max(axis=(-2, -1)) <= tols.identity

    inside = (deficit >= -tols.identity) & (deficit <= mutual + tols.identity)
    CheckError.raise_first("deficit bounds", ~inside, deficit, lambda k: f"mutual={mutual[k]:.12g}")
    return ClassificationColumns(
        conc, s - s_a, s - s_b, mutual, deficit, ppt_min, defined, commutes, degenerate, side_max.max(axis=-1)
    )


def _report(cols: ClassificationColumns, tols: Tolerances) -> ClassificationReport:
    """The report of the first state of ``cols``, as Python scalars, with its verdicts."""
    c, d_a, d_b, mut, dfc, ppt, dfn, com, (deg_a, deg_b), ratio = (col[0].tolist() for col in cols)
    sep, same, product = tols.concurrence_zero, tols.identity, tols.hermiticity
    verdicts = []
    if c <= sep:
        verdicts.append("separable (concurrence = 0)")
    else:
        verdicts.append(f"entangled (concurrence = {c:.6g})")
        if max(abs(d_a), abs(d_b)) <= same:
            verdicts.append("entangled despite zero entropy difference")
    if mut <= product:
        verdicts.append("classically uncorrelated product state")
    if com:
        verdicts.append("commutes with both marginal eigenframes: decoherence fixed point")
    if dfn:
        verdicts.append("conditional probabilities defined: eigenvalue ratios bounded by one")
    if deg_a or deg_b:
        which = "A" * deg_a + "B" * deg_b
        verdicts.append(f"degenerate marginal spectrum ({which}): computational-basis frame applied")
    return ClassificationReport(c, d_a, d_b, mut, dfc, ppt, dfn, com, (deg_a, deg_b), ratio, tuple(verdicts))


def classify_stack(matrices, *, tols: Tolerances = TOLS) -> ClassificationColumns:
    """Every ``classify`` figure of each two-qubit state of a stack ``(N, 4, 4)``, one array per figure.

    Each matrix is validated as ``DensityMatrix`` validates it; the first
    failing check raises for the lowest failing state and names it.  No
    verdict strings are built: ``classify`` adds them for one state.
    S(rho_d) is read from the joint P(alpha, beta), which is rho_d's
    spectrum, so the stack takes four eigensolves: the states, their
    marginals, the spin-flip cores and the partial transposes.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"a stack of two-qubit states (N, 4, 4) required, got shape {m.shape}")
    w, v = density_stack(m, tols=tols)
    return _classify(m, w, v, tols)


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> ClassificationReport:
    """Aggregate every diagnostic for a two-qubit state into one report."""
    require_two_qubit(rho_ab)
    es = rho_ab.eigensystem()
    return _report(_classify(rho_ab.matrix[None], es.values[None], es.vectors[None], tols), tols)
