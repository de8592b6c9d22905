"""The marginal-eigenbasis machinery: product frames, overlap weights,
decohered states, the quantum deficit, and local decompositions.

The central object is the product basis built from the eigenvectors of
both marginals.  Dropping the off-diagonal elements of a composite state
in that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit.

Where a marginal is degenerate its eigenbasis is not unique; the frame
then falls back to the computational basis inside each degenerate
eigenspace.  That makes decoherence deterministic but basis-dependent
exactly where the construction itself is underdetermined, so the
classifier records when the fallback fired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import concurrence
from .entropy import mutual_entropy, von_neumann
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
    "OverlapTensor",
    "JointDistribution",
    "LocalDecomposition",
    "ClassificationReport",
    "alpha_beta_frame",
    "overlap_tensor",
    "decohere_in_frame",
    "decohere",
    "quantum_deficit",
    "deficit_mutual_gap",
    "conditional_ratio_check",
    "commutes_with_marginals",
    "decomposition_commutes",
    "reconstruct",
    "classify",
]

# Weight below which an (alpha, Gamma) pair counts as disconnected in the
# conditional-ratio scan: a ratio with zero overlap weight never enters
# any entropy expression.
_CONNECTION_CUTOFF = 1e-12


def _frame_eigensystem(marg: DensityMatrix, tols: Tolerances) -> tuple[EigenSystem, bool]:
    """Marginal eigensystem with the computational-basis degeneracy rule."""
    es = marg.eigensystem()
    vals = es.values
    d = len(vals)
    clusters = []
    start = 0
    for i in range(1, d + 1):
        if i == d or vals[i - 1] - vals[i] > tols.degeneracy:
            clusters.append((start, i))
            start = i
    if all(b - a == 1 for a, b in clusters):
        return es, False
    vecs = es.vectors.copy()
    for a, b in clusters:
        k = b - a
        if k == 1:
            continue
        if k == d:
            vecs[:, a:b] = np.eye(d, dtype=complex)
        else:
            # Orthonormalize the computational basis projected onto the
            # degenerate eigenspace (deterministic, index order).
            proj = vecs[:, a:b] @ vecs[:, a:b].conj().T
            chosen: list[np.ndarray] = []
            for j in range(d):
                cand = proj[:, j].copy()
                for u in chosen:
                    cand -= u * (u.conj() @ cand)
                norm = float(np.linalg.norm(cand))
                if norm > 1e-6:
                    chosen.append(cand / norm)
                if len(chosen) == k:
                    break
            vecs[:, a:b] = np.column_stack(chosen)
    rayleigh = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), marg.matrix, vecs))
    order = np.argsort(-rayleigh, kind="stable")
    return EigenSystem(rayleigh[order], vecs[:, order]), True


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

    def __post_init__(self):
        u = self.product_vectors
        gram = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))
        if gram > 1e-9:
            raise CheckError("frame orthonormality", gram)
        for es in (self.eig_a, self.eig_b):
            err = abs(float(np.sum(es.values)) - 1.0)
            if err > 1e-10:
                raise CheckError("marginal normalization", err)

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.eig_a.values), len(self.eig_b.values))


@dataclass(frozen=True)
class OverlapTensor:
    """Squared overlaps |<alpha,beta|Gamma>|^2, indexed [alpha][beta][Gamma]."""

    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        per_gamma = w.sum(axis=(0, 1))
        per_pair = w.sum(axis=2)
        err = max(float(np.max(np.abs(per_gamma - 1.0))), float(np.max(np.abs(per_pair - 1.0))))
        if err > 1e-10:
            raise CheckError("overlap normalization", err)


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities P(alpha, beta) of the decohered state."""

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        if float(p.min()) < -1e-12:
            raise CheckError("joint nonnegativity", float(p.min()))
        err = abs(float(p.sum()) - 1.0)
        if err > 1e-10:
            raise CheckError("joint normalization", err)

    def row_marginals(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class LocalDecomposition:
    """Weighted product terms sum(w_j rho_j(A) x sigma_j(B)).

    Weights must sum to one but may be negative (pseudo-mixtures).
    """

    terms: tuple[tuple[float, DensityMatrix, DensityMatrix], ...]

    def __post_init__(self):
        if not self.terms:
            raise CheckError("decomposition size", 0.0, "at least one term required")
        total = sum(w for w, _, _ in self.terms)
        if abs(total - 1.0) > 1e-10:
            raise CheckError("decomposition weights", abs(total - 1.0))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _, _ in self.terms)

    @property
    def all_weights_nonnegative(self) -> bool:
        return all(w >= -1e-12 for w in self.weights)


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
        return {
            "concurrence": self.concurrence,
            "entropy_diff_a": self.entropy_diff_a,
            "entropy_diff_b": self.entropy_diff_b,
            "mutual": self.mutual,
            "deficit": self.deficit,
            "ppt_min_eig": self.ppt_min_eig,
            "conditional_prob_defined": self.conditional_prob_defined,
            "commutes_with_marginals": self.commutes_with_marginals,
            "verdicts": list(self.verdicts),
        }


def alpha_beta_frame(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> AlphaBetaFrame:
    """Eigensystems of both marginals plus their product basis."""
    if not rho_ab.is_composite:
        raise CheckError("composite", 0.0, "frame needs composite dims")
    eig_a, deg_a = _frame_eigensystem(rho_ab.marginal("A"), tols)
    eig_b, deg_b = _frame_eigensystem(rho_ab.marginal("B"), tols)
    u = np.kron(eig_a.vectors, eig_b.vectors)
    return AlphaBetaFrame(eig_a, eig_b, u, deg_a, deg_b)


def overlap_tensor(rho_ab: DensityMatrix, frame: AlphaBetaFrame) -> OverlapTensor:
    """|<alpha,beta|Gamma>|^2 between the frame and the composite eigenvectors."""
    da, db = rho_ab.dims
    if frame.dims != (da, db):
        raise CheckError("dims", 0.0, f"frame dims {frame.dims} do not match state {rho_ab.dims}")
    overlaps = frame.product_vectors.conj().T @ rho_ab.eigensystem().vectors
    return OverlapTensor((np.abs(overlaps) ** 2).reshape(da, db, da * db))


def decohere_in_frame(
    rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS
) -> tuple[DensityMatrix, JointDistribution]:
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
    joint = JointDistribution(diag.reshape(rho_ab.dims))
    return rho_d, joint


def decohere(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> tuple[DensityMatrix, JointDistribution]:
    """Drop all off-diagonal elements in the marginal-eigenbasis product frame.

    Returns the decohered state and the joint distribution of its diagonal.
    Both marginals are preserved, and the joint's row/column sums are the
    marginal eigenvalue distributions.
    """
    return decohere_in_frame(rho_ab, alpha_beta_frame(rho_ab, tols=tols), tols=tols)


def quantum_deficit(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """Entropy gained by decohering in the marginal eigenframe: S_d - S >= 0."""
    rho_d, _ = decohere(rho_ab, tols=tols)
    return von_neumann(rho_d, tols=tols) - von_neumann(rho_ab, tols=tols)


def deficit_mutual_gap(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """Deficit minus mutual entropy; equals S_d - S(A) - S(B) and is <= 0."""
    return quantum_deficit(rho_ab, tols=tols) - mutual_entropy(rho_ab, tols=tols)


def conditional_ratio_check(
    rho_ab: DensityMatrix, frame: AlphaBetaFrame, *, tols: Tolerances = TOLS
) -> tuple[float, float, bool]:
    """Largest composite/marginal eigenvalue ratio over overlap-connected pairs.

    Ratios at or below one on both sides mean the eigenvalue ratios can be
    read as conditional probabilities.  Pairs whose total overlap weight
    vanishes are skipped: they never enter any entropy expression.
    """
    weights = overlap_tensor(rho_ab, frame).weights
    big = rho_ab.eigenvalues

    def side_max(marg_vals: np.ndarray, connection: np.ndarray) -> float:
        best = 0.0
        for i, p in enumerate(marg_vals):
            if p <= tols.support_cutoff:
                continue
            for g, big_val in enumerate(big):
                if connection[i, g] > _CONNECTION_CUTOFF:
                    best = max(best, float(big_val) / float(p))
        return best

    max_a = side_max(frame.eig_a.values, weights.sum(axis=1))
    max_b = side_max(frame.eig_b.values, weights.sum(axis=0))
    defined = max_a <= 1.0 + 1e-10 and max_b <= 1.0 + 1e-10
    return max_a, max_b, defined


def _commutes_with_frame(rho_ab: DensityMatrix, frame: AlphaBetaFrame, tols: Tolerances) -> bool:
    """Commutation with distinct-weight operators sharing the frame's projectors.

    Using weights 1..d instead of the marginal eigenvalues keeps the test
    meaningful when a marginal is degenerate (where the literal marginal
    operator is proportional to the identity and commutes with anything);
    commuting in this sense is exactly the decoherence fixed-point
    condition.
    """
    da, db = rho_ab.dims
    m = rho_ab.matrix
    for es, build in (
        (frame.eig_a, lambda k: tensor_product(k, np.eye(db))),
        (frame.eig_b, lambda k: tensor_product(np.eye(da), k)),
    ):
        marker = (es.vectors * np.arange(1, len(es.values) + 1)) @ es.vectors.conj().T
        big = build(marker)
        comm = float(np.max(np.abs(m @ big - big @ m)))
        if comm > tols.commutator:
            return False
    return True


def commutes_with_marginals(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> bool:
    """True iff the state commutes with both marginal eigenframe operators.

    When true, decohering is the identity (the state already carries no
    coherence between distinct frame vectors).
    """
    frame = alpha_beta_frame(rho_ab, tols=tols)
    return _commutes_with_frame(rho_ab, frame, tols)


def decomposition_commutes(dec: LocalDecomposition, *, tols: Tolerances = TOLS) -> bool:
    """True iff all factor pairs commute within each subsystem."""
    for pick in (1, 2):
        mats = [term[pick].matrix for term in dec.terms]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = float(np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])))
                if comm > tols.commutator:
                    return False
    return True


def reconstruct(dec: LocalDecomposition, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Assemble sum(w_j rho_j x sigma_j); the result must be a valid state."""
    _, first_a, first_b = dec.terms[0]
    da, db = first_a.dim, first_b.dim
    total = np.zeros((da * db, da * db), dtype=complex)
    for w, fa, fb in dec.terms:
        total += w * tensor_product(fa.matrix, fb.matrix)
    return DensityMatrix(0.5 * (total + total.conj().T), (da, db), tols=tols)


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> ClassificationReport:
    """Aggregate every diagnostic for a two-qubit state into one report."""
    if rho_ab.dims != (2, 2):
        raise CheckError("dims", 0.0, f"two-qubit state required, got dims {rho_ab.dims}")
    conc = concurrence(rho_ab, tols=tols)
    diff_a = von_neumann(rho_ab, tols=tols) - von_neumann(rho_ab.marginal("A"), tols=tols)
    diff_b = von_neumann(rho_ab, tols=tols) - von_neumann(rho_ab.marginal("B"), tols=tols)
    mutual = mutual_entropy(rho_ab, tols=tols)
    frame = alpha_beta_frame(rho_ab, tols=tols)
    rho_d, _ = decohere_in_frame(rho_ab, frame, tols=tols)
    deficit = von_neumann(rho_d, tols=tols) - von_neumann(rho_ab, tols=tols)
    ppt_min = float(hermitian_eig(partial_transpose(rho_ab, "B"), tols=tols).values[-1])
    _, _, defined = conditional_ratio_check(rho_ab, frame, tols=tols)
    commutes = _commutes_with_frame(rho_ab, frame, tols)

    if deficit < -1e-9 or deficit > mutual + 1e-9:
        raise CheckError("deficit bounds", deficit, f"mutual={mutual:.12g}")

    verdicts = []
    if conc <= tols.concurrence_zero:
        verdicts.append("separable (concurrence = 0)")
    else:
        verdicts.append(f"entangled (concurrence = {conc:.6g})")
        if max(abs(diff_a), abs(diff_b)) <= 1e-9:
            verdicts.append("entangled despite zero entropy difference")
    if mutual <= 1e-10:
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
