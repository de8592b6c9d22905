"""Entropy functionals: von Neumann, Tsallis, conditional, mutual, relative.

All entropies are in natural log units (nats).  Eigenvalues in
``[-tols.psd, 0)`` are clipped to zero before evaluation; anything more
negative is rejected.  Eigenvalues at or below the support cutoff
contribute nothing (the 0*log(0) = 0 convention).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances

__all__ = [
    "von_neumann",
    "tsallis",
    "entropy_difference",
    "conditional_tsallis",
    "tsallis_infinity_criterion",
    "mutual_entropy",
    "relative_entropy",
]

# Slack used when comparing leading eigenvalues in the large-q criterion.
_EIG_COMPARE_TOL = 1e-12


def _clipped_spectrum(rho: DensityMatrix, tols: Tolerances) -> np.ndarray:
    vals = rho.eigenvalues
    if vals[-1] < -tols.psd:
        raise CheckError("psd", vals[-1], "negative eigenvalue in entropy input")
    return np.clip(vals, 0.0, None)


def von_neumann(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """-Tr(rho ln rho), evaluated on the eigenvalue support."""
    vals = _clipped_spectrum(rho, tols)
    support = vals[vals > tols.support_cutoff]
    return float(-np.sum(support * np.log(support)))


def tsallis(rho: DensityMatrix, q: float, *, tols: Tolerances = TOLS) -> float:
    """(Tr rho^q - 1) / (1 - q); dispatches to von Neumann at q = 1."""
    if q <= 0:
        raise ValueError(f"Tsallis index must be positive, got {q}")
    if q == 1:
        return von_neumann(rho, tols=tols)
    vals = _clipped_spectrum(rho, tols)
    support = vals[vals > tols.support_cutoff]
    return float((np.sum(support**q) - 1.0) / (1.0 - q))


def entropy_difference(rho_ab: DensityMatrix, side: str, q: float = 1.0, *, tols: Tolerances = TOLS) -> float:
    """S_q(composite) - S_q(one marginal).  Sign is unconstrained in general."""
    return tsallis(rho_ab, q, tols=tols) - tsallis(rho_ab.marginal(side), q, tols=tols)


def conditional_tsallis(rho_ab: DensityMatrix, side: str, q: float = 1.0, *, tols: Tolerances = TOLS) -> float:
    """Conditional entropy (S_q(AB) - S_q(side)) / (1 + (1-q) S_q(side)).

    ``side`` names the marginal that is subtracted (and conditions the
    denominator).  At q = 1 this reduces to the plain entropy difference.
    """
    if q <= 0:
        raise ValueError(f"Tsallis index must be positive, got {q}")
    marg = rho_ab.marginal(side)
    s_side = tsallis(marg, q, tols=tols)
    denom = 1.0 + (1.0 - q) * s_side
    if abs(denom) <= 1e-12:
        # The denominator equals Tr(marginal^q), which is positive but at
        # large q cancels catastrophically in the formula above; evaluate
        # it directly and only reject a genuine underflow to zero.
        vals = _clipped_spectrum(marg, tols)
        support = vals[vals > tols.support_cutoff]
        denom = float(np.sum(support**q))
        if denom <= 1e-300:
            raise CheckError(
                "conditional denominator",
                abs(denom),
                f"1 + (1-q) S_q vanishes at q={q}, S_q({side})={s_side:.12g}",
            )
    return (tsallis(rho_ab, q, tols=tols) - s_side) / denom


def tsallis_infinity_criterion(rho_ab: DensityMatrix) -> tuple[bool, bool]:
    """Sign of the conditional entropy in the q -> infinity limit.

    For large q, Tr rho^q is dominated by the largest eigenvalue, so the
    conditional entropy subtracting side X is eventually nonnegative
    exactly when max eig of the composite <= max eig of marginal X.
    Returns (satisfied for side A, satisfied for side B).  The reduction
    is cross-validated against direct evaluation at q = 50 in the test
    suite; note that at any finite q eigenvalue multiplicities still
    matter in a narrow band around the boundary.
    """
    top = rho_ab.eigenvalues[0]
    top_a = rho_ab.marginal("A").eigenvalues[0]
    top_b = rho_ab.marginal("B").eigenvalues[0]
    return (top <= top_a + _EIG_COMPARE_TOL, top <= top_b + _EIG_COMPARE_TOL)


def mutual_entropy(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """S(A) + S(B) - S(A,B); zero exactly for product states."""
    return (
        von_neumann(rho_ab.marginal("A"), tols=tols)
        + von_neumann(rho_ab.marginal("B"), tols=tols)
        - von_neumann(rho_ab, tols=tols)
    )


def relative_entropy(rho1: DensityMatrix, rho2: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """Tr rho1 (ln rho1 - ln rho2).

    Returns ``math.inf`` when rho1 carries more than 1e-10 of weight
    outside the support of rho2 (instead of raising, so that random-state
    audits can probe arbitrary pairs).
    """
    if rho1.dims != rho2.dims:
        raise CheckError("dims", 0.0, f"dims differ: {rho1.dims} vs {rho2.dims}")
    eig2 = rho2.eigensystem()
    # w_g = <g|rho1|g> over rho2's eigenvectors |g>: Tr rho1 ln rho2 = sum w_g ln lambda_g.
    weights = np.real(np.einsum("ig,ij,jg->g", eig2.vectors.conj(), rho1.matrix, eig2.vectors))
    support = eig2.values > tols.support_cutoff
    if float(np.sum(weights[~support])) > 1e-10:
        return math.inf
    cross = float(np.sum(weights[support] * np.log(eig2.values[support])))
    return -von_neumann(rho1, tols=tols) - cross
