"""The marginal-eigenbasis machinery: product frames, overlap weights,
decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both marginals.  Dropping the off-diagonal elements of a composite state
in that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit.

Every figure is computed once, by array kernels over a validated stack
``(m, w, v)``: the matrices ``m`` ``(N, 4, 4)`` with their descending
eigenvalues ``w`` and eigenvectors ``v``.  ``classify_stack`` runs them on
a whole stack; ``classify``, ``alpha_beta_frame``, ``decohere_in_frame``,
``overlap_tensor`` and ``conditional_ratio_check`` are their N = 1 calls.
A failed check names the lowest failing state of a stack.

The frame is built for two qubits only.  A marginal whose two
eigenvalues differ by more than ``tols.degeneracy`` contributes its
eigenvectors; otherwise its eigenbasis is not unique and the frame takes
the computational basis, ordered by descending diagonal entry (ties keep
index order).  On a stack this rule is a per-state, per-side mask, so
degenerate and generic states share one call.  That makes decoherence
deterministic but basis-dependent exactly where the construction itself
is underdetermined, so the classifier records when the fallback fired.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .concurrence import concurrence_stack
from .entropy import entropy_stack, von_neumann
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    EigenSystem,
    Tolerances,
    density_stack,
    eigh_stack,
    marginal_stack,
    tensor_product,
    transpose_stack,
)

__all__ = [
    "AlphaBetaFrame",
    "ClassificationReport",
    "alpha_beta_frame",
    "overlap_tensor",
    "decohere_in_frame",
    "decohere",
    "quantum_deficit",
    "conditional_ratio_check",
    "classify_stack",
    "classify",
]

_QUBITS = (2, 2)
_EYE2 = np.eye(2, dtype=complex)
_SWAP2 = _EYE2[:, ::-1].copy()
_EYE4 = np.eye(4)


def _require_two_qubit(rho: DensityMatrix) -> None:
    if rho.dims != _QUBITS:
        raise CheckError("dims", 0.0, f"two-qubit state required, got dims {rho.dims}")


def _frame_stack(marg: np.ndarray, values: np.ndarray, vectors: np.ndarray, tols: Tolerances):
    """Frame eigenvalues ``(N, 2, 2)`` and vectors ``(N, 2, 2, 2)`` per side, the degeneracy mask
    ``(N, 2)`` and the product vectors ``(N, 4, 4)``, from the marginals' eigensystems."""
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
    return values, vectors, degenerate, u


def _decohere_stack(m: np.ndarray, u: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
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
class AlphaBetaFrame:
    """Product basis built from the eigenvectors of both marginals.

    ``product_vectors[:, alpha * dB + beta]`` is the composite basis
    vector |alpha, beta> (alpha-major ordering).
    """

    eig_a: EigenSystem
    eig_b: EigenSystem
    product_vectors: np.ndarray
    degenerate_a: bool
    degenerate_b: bool

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.eig_a.values), len(self.eig_b.values))


@dataclass(frozen=True)
class ClassificationReport:
    concurrence: float
    entropy_diff_a: float
    entropy_diff_b: float
    mutual: float
    deficit: float
    ppt_min_eig: float
    conditional_prob_defined: bool
    commutes_with_marginals: bool
    verdicts: tuple[str, ...]

    def as_dict(self) -> dict:
        return {**asdict(self), "verdicts": list(self.verdicts)}


def alpha_beta_frame(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> AlphaBetaFrame:
    """Eigensystems of both qubit marginals plus their product basis."""
    _require_two_qubit(rho_ab)
    marg_a, marg_b = rho_ab.marginal("A"), rho_ab.marginal("B")
    es_a, es_b = marg_a.eigensystem(), marg_b.eigensystem()
    values, vectors, degenerate, u = _frame_stack(
        np.array([(marg_a.matrix, marg_b.matrix)]),
        np.array([(es_a.values, es_b.values)]),
        np.array([(es_a.vectors, es_b.vectors)]),
        tols,
    )
    return AlphaBetaFrame(
        EigenSystem(values[0, 0], vectors[0, 0]),
        EigenSystem(values[0, 1], vectors[0, 1]),
        u[0],
        bool(degenerate[0, 0]),
        bool(degenerate[0, 1]),
    )


def _require_frame_dims(rho_ab: DensityMatrix, frame: AlphaBetaFrame) -> None:
    if frame.dims != rho_ab.dims:
        raise CheckError("dims", 0.0, f"frame dims {frame.dims} do not match state {rho_ab.dims}")


def overlap_tensor(rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Squared overlaps |<alpha,beta|Gamma>|^2, indexed [alpha, beta, Gamma]."""
    _require_frame_dims(rho_ab, frame)
    return _overlap_stack(frame.product_vectors[None], rho_ab.eigensystem().vectors[None], tols)[0]


def decohere_in_frame(
    rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS
) -> tuple[DensityMatrix, np.ndarray]:
    """``decohere`` in ``frame = alpha_beta_frame(rho_ab)``, built once by the caller."""
    _require_frame_dims(rho_ab, frame)
    mat, diag = _decohere_stack(rho_ab.matrix[None], frame.product_vectors[None], tols)
    return DensityMatrix(mat[0], rho_ab.dims, tols=tols), diag[0].reshape(rho_ab.dims)


def decohere(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> tuple[DensityMatrix, np.ndarray]:
    """Drop all off-diagonal elements in the marginal-eigenbasis product frame.

    Returns the decohered state and the joint distribution P[alpha, beta]
    of its diagonal.  Both marginals are preserved, and the joint's
    row/column sums are the marginal eigenvalue distributions.
    """
    return decohere_in_frame(rho_ab, alpha_beta_frame(rho_ab, tols=tols), tols=tols)


def quantum_deficit(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """Entropy gained by decohering in the marginal eigenframe: S_d - S >= 0."""
    rho_d, _ = decohere(rho_ab, tols=tols)
    return von_neumann(rho_d, tols=tols) - von_neumann(rho_ab, tols=tols)


def conditional_ratio_check(
    rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS
) -> tuple[float, float, bool]:
    """Largest composite/marginal eigenvalue ratio over overlap-connected pairs.

    Ratios at or below one on both sides mean the eigenvalue ratios can be
    read as conditional probabilities.
    """
    weights = overlap_tensor(rho_ab, frame, tols=tols)
    frame_values = np.array([(frame.eig_a.values, frame.eig_b.values)])
    side_max, defined = _ratio_stack(weights[None], rho_ab.eigenvalues[None], frame_values, tols)
    return float(side_max[0, 0]), float(side_max[0, 1]), bool(defined[0])


def _classify(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> list[ClassificationReport]:
    """Every diagnostic of each state of a validated stack ``(m, w, v)``."""
    conc = concurrence_stack(m, w, v, tols=tols)
    s = entropy_stack(w, tols=tols)
    marg, marg_w, marg_v = marginal_stack(m, _QUBITS, tols=tols)
    s_marg = entropy_stack(marg_w, tols=tols)
    s_a, s_b = s_marg[:, 0], s_marg[:, 1]
    diff_a, diff_b = s - s_a, s - s_b
    mutual = s_a + s_b - s
    frame_w, _, degenerate, u = _frame_stack(marg, marg_w, marg_v, tols)
    mat_d, _ = _decohere_stack(m, u, tols)
    deficit = entropy_stack(density_stack(mat_d, tols=tols)[0], tols=tols) - s
    ppt_min = eigh_stack(transpose_stack(m, _QUBITS, "B"), tols=tols)[0][:, -1]
    _, defined = _ratio_stack(_overlap_stack(u, v, tols), w, frame_w, tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = np.abs(m - mat_d).max(axis=(-2, -1)) <= tols.identity

    inside = (deficit >= -tols.identity) & (deficit <= mutual + tols.identity)
    CheckError.raise_first("deficit bounds", ~inside, deficit, lambda k: f"mutual={mutual[k]:.12g}")

    sep, same, product = tols.concurrence_zero, tols.identity, tols.hermiticity
    reports = []
    for row in zip(
        conc.tolist(), diff_a.tolist(), diff_b.tolist(), mutual.tolist(), deficit.tolist(), ppt_min.tolist(),
        defined.tolist(), commutes.tolist(), degenerate.tolist(),
    ):
        c, d_a, d_b, mut, dfc, ppt, dfn, com, (deg_a, deg_b) = row
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
        reports.append(ClassificationReport(c, d_a, d_b, mut, dfc, ppt, dfn, com, tuple(verdicts)))
    return reports


def classify_stack(matrices, *, tols: Tolerances = TOLS) -> list[ClassificationReport]:
    """One ``ClassificationReport`` per two-qubit state of a stack ``(N, 4, 4)``.

    Each matrix is validated as ``DensityMatrix`` validates it; the first
    failing check raises for the lowest failing state and names it.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"a stack of two-qubit states (N, 4, 4) required, got shape {m.shape}")
    w, v = density_stack(m, tols=tols)
    return _classify(m, w, v, tols)


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> ClassificationReport:
    """Aggregate every diagnostic for a two-qubit state into one report."""
    _require_two_qubit(rho_ab)
    es = rho_ab.eigensystem()
    return _classify(rho_ab.matrix[None], es.values[None], es.vectors[None], tols)[0]
