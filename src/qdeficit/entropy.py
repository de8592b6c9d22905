"""Entropy functionals: von Neumann, Tsallis, conditional, relative.

All entropies are in natural log units (nats).  A spectrum whose lowest
eigenvalue is below ``-tols.psd`` is rejected.  Eigenvalues at or below
the support cutoff, those in ``[-tols.psd, 0)`` among them, contribute
nothing (the 0*log(0) = 0 convention).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances

__all__ = [
    "entropy_stack",
    "von_neumann",
    "tsallis_stack",
    "conditional_tsallis",
    "tsallis_infinity_criterion",
    "relative_entropy_stack",
]


def _require_psd(values: np.ndarray, tols: Tolerances) -> None:
    """Descending spectra ``(N, ..., n)``: each lowest eigenvalue must be >= -tols.psd."""
    CheckError.below("psd", values[..., -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")


def _log_power_sum(rho: DensityMatrix, q: float, tols: Tolerances) -> float:
    """ln Tr rho^q with the largest eigenvalue factored out, so no power underflows."""
    vals = rho.eigenvalues
    _require_psd(vals[None], tols)
    support = vals[vals > tols.support_cutoff]
    top = support[0]
    return float(q * np.log(top) + np.log(np.sum((support / top) ** q)))


def entropy_stack(values: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """-sum x ln x over the last axis of descending spectra ``(N, ..., n)``, on the support."""
    _require_psd(values, tols)
    # Entries off the support become 1, whose x ln x is exactly 0.
    vals = np.where(values > tols.support_cutoff, values, 1.0)
    return -np.add.reduce(vals * np.log(vals), axis=-1)


def von_neumann(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> float:
    """-Tr(rho ln rho), evaluated on the eigenvalue support."""
    return float(entropy_stack(rho.eigenvalues[None], tols=tols)[0])


def _require_index(q: float) -> None:
    if not 0 < q < math.inf:
        raise ValueError(f"Tsallis index must be finite and positive, got {q}")


def tsallis_stack(values: np.ndarray, q: float, *, tols: Tolerances = TOLS) -> np.ndarray:
    """(sum x^q - 1) / (1 - q) over the last axis of descending spectra ``(N, ..., n)``, on the support.

    At q = 1 this is ``entropy_stack``.
    """
    _require_index(q)
    if q == 1:
        return entropy_stack(values, tols=tols)
    _require_psd(values, tols)
    # Entries off the support become 0, whose q-th power is exactly 0.
    support = np.where(values > tols.support_cutoff, values, 0.0)
    return (np.sum(support**q, axis=-1) - 1.0) / (1.0 - q)


def conditional_tsallis(rho_ab: DensityMatrix, side: str, q: float = 1.0, *, tols: Tolerances = TOLS) -> float:
    """Conditional entropy (S_q(AB) - S_q(side)) / (1 + (1-q) S_q(side)).

    ``side`` names the marginal that is subtracted (and conditions the
    denominator).  At q = 1 this reduces to the plain entropy difference.
    Otherwise the denominator is Tr rho_side^q and the ratio equals
    (Tr rho^q / Tr rho_side^q - 1) / (1 - q); it is evaluated from the two
    log power sums, so neither the difference of two entropies near
    1/(q-1) nor a vanishing Tr rho_side^q costs the sign at large q.  A
    ratio beyond the float range returns ``-inf``.
    """
    _require_index(q)
    marg = rho_ab.marginal(side)
    if q == 1:
        return von_neumann(rho_ab, tols=tols) - von_neumann(marg, tols=tols)
    log_ratio = _log_power_sum(rho_ab, q, tols) - _log_power_sum(marg, q, tols)
    try:
        return -math.expm1(log_ratio) / (q - 1.0)
    except OverflowError:  # Tr rho^q / Tr rho_side^q exceeds the float range, which needs q > 1
        return -math.inf


def tsallis_infinity_criterion(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> tuple[bool, bool]:
    """Sign of the conditional entropy in the q -> infinity limit.

    For large q, Tr rho^q is dominated by the largest eigenvalue, so the
    conditional entropy subtracting side X is eventually nonnegative
    exactly when max eig of the composite <= max eig of marginal X.
    Returns (satisfied for side A, satisfied for side B).  The reduction
    is cross-validated against direct evaluation at q = 50 and q = 100 in
    the test suite; note that at any finite q eigenvalue multiplicities
    still matter in a narrow band around the boundary.
    """
    top = rho_ab.eigenvalues[0]
    top_a = rho_ab.marginal("A").eigenvalues[0]
    top_b = rho_ab.marginal("B").eigenvalues[0]
    return (top <= top_a + tols.support_cutoff, top <= top_b + tols.support_cutoff)


def relative_entropy_stack(
    m1: np.ndarray, values1: np.ndarray, values2: np.ndarray, vectors2: np.ndarray, *, tols: Tolerances = TOLS
) -> np.ndarray:
    """Tr rho1 (ln rho1 - ln rho2) for each pair of a stack.

    ``m1`` ``(N, n, n)`` are the rho1 matrices with their descending
    spectra ``values1``; ``values2`` and ``vectors2`` are the rho2
    eigendecompositions.  A pair is ``inf`` when rho1 carries more than
    ``tols.hermiticity`` of weight outside the support of rho2 (instead
    of raising, so that random-state audits can probe arbitrary pairs).
    """
    if m1.shape[-1] != vectors2.shape[-1]:
        raise CheckError("dims", 0.0, f"matrix sides differ: {m1.shape[-1]} vs {vectors2.shape[-1]}")
    # w_g = <g|rho1|g> over rho2's eigenvectors |g>: Tr rho1 ln rho2 = sum w_g ln lambda_g.
    weights = np.einsum("...ig,...ij,...jg->...g", vectors2.conj(), m1, vectors2).real
    support = values2 > tols.support_cutoff
    outside = np.sum(weights, axis=-1, where=~support)
    cross = np.sum(weights * np.log(np.where(support, values2, 1.0)), axis=-1, where=support)
    return np.where(outside > tols.hermiticity, math.inf, -entropy_stack(values1, tols=tols) - cross)
