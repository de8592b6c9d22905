"""The marginal-eigenbasis machinery: product frames, overlap weights,
decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both marginals.  Dropping the off-diagonal elements of a composite state
in that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit.

The frame is built for two qubits only.  A marginal whose two
eigenvalues differ by more than ``tols.degeneracy`` contributes its
eigenvectors; otherwise its eigenbasis is not unique and the frame takes
the computational basis, ordered by descending diagonal entry (ties keep
index order).  That makes decoherence deterministic but basis-dependent
exactly where the construction itself is underdetermined, so the
classifier records when the fallback fired.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .concurrence import concurrence
from .entropy import von_neumann
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    EigenSystem,
    Tolerances,
    hermitian_eig,
    partial_transpose,
    tensor_product,
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
    "classify",
]

def _frame_eigensystem(marg: DensityMatrix, tols: Tolerances) -> tuple[EigenSystem, bool]:
    """Qubit marginal eigensystem, or the computational basis when degenerate."""
    es = marg.eigensystem()
    if es.values[0] - es.values[1] > tols.degeneracy:
        return es, False
    diag = np.real(np.diagonal(marg.matrix))
    order = np.argsort(-diag, kind="stable")
    return EigenSystem(diag[order], np.eye(2, dtype=complex)[:, order]), True


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
    if rho_ab.dims != (2, 2):
        raise CheckError("dims", 0.0, f"two-qubit state required, got dims {rho_ab.dims}")
    eig_a, deg_a = _frame_eigensystem(rho_ab.marginal("A"), tols)
    eig_b, deg_b = _frame_eigensystem(rho_ab.marginal("B"), tols)
    u = tensor_product(eig_a.vectors, eig_b.vectors)
    gram = float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
    if gram > tols.identity:
        raise CheckError("frame orthonormality", gram)
    for es in (eig_a, eig_b):
        err = abs(float(np.sum(es.values)) - 1.0)
        if err > tols.hermiticity:
            raise CheckError("marginal normalization", err)
    return AlphaBetaFrame(eig_a, eig_b, u, deg_a, deg_b)


def overlap_tensor(rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Squared overlaps |<alpha,beta|Gamma>|^2, indexed [alpha, beta, Gamma]."""
    da, db = rho_ab.dims
    if frame.dims != (da, db):
        raise CheckError("dims", 0.0, f"frame dims {frame.dims} do not match state {rho_ab.dims}")
    overlaps = frame.product_vectors.conj().T @ rho_ab.eigensystem().vectors
    weights = (np.abs(overlaps) ** 2).reshape(da, db, da * db)
    per_gamma, per_pair = weights.sum(axis=(0, 1)), weights.sum(axis=2)
    err = max(float(np.max(np.abs(per_gamma - 1.0))), float(np.max(np.abs(per_pair - 1.0))))
    if err > tols.hermiticity:
        raise CheckError("overlap normalization", err)
    return weights


def decohere_in_frame(
    rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS
) -> tuple[DensityMatrix, np.ndarray]:
    """``decohere`` in ``frame = alpha_beta_frame(rho_ab)``, built once by the caller."""
    if frame.dims != rho_ab.dims:
        raise CheckError("dims", 0.0, f"frame dims {frame.dims} do not match state {rho_ab.dims}")
    u = frame.product_vectors
    diag = np.real(np.einsum("ij,ik,kj->j", u.conj(), rho_ab.matrix, u))
    if float(diag.min()) < -tols.psd:
        raise CheckError("joint nonnegativity", float(diag.min()))
    diag = np.clip(diag, 0.0, None)
    mat = (u * diag) @ u.conj().T
    rho_d = DensityMatrix(0.5 * (mat + mat.conj().T), rho_ab.dims, tols=tols)
    return rho_d, diag.reshape(rho_ab.dims)


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
    read as conditional probabilities.  Pairs whose total overlap weight
    vanishes are skipped: they never enter any entropy expression.
    """
    weights = overlap_tensor(rho_ab, frame, tols=tols)
    big = rho_ab.eigenvalues

    def side_max(marg_vals: np.ndarray, connection: np.ndarray) -> float:
        live = (marg_vals[:, None] > tols.support_cutoff) & (connection > tols.support_cutoff)
        # The floor only keeps the masked-out rows finite.
        ratios = big / np.maximum(marg_vals, tols.support_cutoff)[:, None]
        return float(np.max(ratios, where=live, initial=0.0))

    max_a = side_max(frame.eig_a.values, weights.sum(axis=1))
    max_b = side_max(frame.eig_b.values, weights.sum(axis=0))
    defined = max_a <= 1.0 + tols.hermiticity and max_b <= 1.0 + tols.hermiticity
    return max_a, max_b, defined


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> ClassificationReport:
    """Aggregate every diagnostic for a two-qubit state into one report."""
    conc = concurrence(rho_ab, tols=tols)
    s = von_neumann(rho_ab, tols=tols)
    s_a = von_neumann(rho_ab.marginal("A"), tols=tols)
    s_b = von_neumann(rho_ab.marginal("B"), tols=tols)
    diff_a, diff_b = s - s_a, s - s_b
    mutual = s_a + s_b - s
    frame = alpha_beta_frame(rho_ab, tols=tols)
    rho_d, _ = decohere_in_frame(rho_ab, frame, tols=tols)
    deficit = von_neumann(rho_d, tols=tols) - s
    ppt_min = float(hermitian_eig(partial_transpose(rho_ab, "B"), tols=tols).values[-1])
    _, _, defined = conditional_ratio_check(rho_ab, frame, tols=tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = float(np.max(np.abs(rho_ab.matrix - rho_d.matrix))) <= tols.identity

    if deficit < -tols.identity or deficit > mutual + tols.identity:
        raise CheckError("deficit bounds", deficit, f"mutual={mutual:.12g}")

    verdicts = []
    if conc <= tols.concurrence_zero:
        verdicts.append("separable (concurrence = 0)")
    else:
        verdicts.append(f"entangled (concurrence = {conc:.6g})")
        if max(abs(diff_a), abs(diff_b)) <= tols.identity:
            verdicts.append("entangled despite zero entropy difference")
    if mutual <= tols.hermiticity:
        verdicts.append("classically uncorrelated product state")
    if commutes:
        verdicts.append("commutes with both marginal eigenframes: decoherence fixed point")
    if defined:
        verdicts.append("conditional probabilities defined: eigenvalue ratios bounded by one")
    if frame.degenerate_a or frame.degenerate_b:
        which = "".join(s for s, d in (("A", frame.degenerate_a), ("B", frame.degenerate_b)) if d)
        verdicts.append(f"degenerate marginal spectrum ({which}): computational-basis frame applied")

    return ClassificationReport(
        concurrence=conc,
        entropy_diff_a=diff_a,
        entropy_diff_b=diff_b,
        mutual=mutual,
        deficit=deficit,
        ppt_min_eig=ppt_min,
        conditional_prob_defined=defined,
        commutes_with_marginals=commutes,
        verdicts=tuple(verdicts),
    )
