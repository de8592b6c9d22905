"""Entropy functionals on stacks of descending spectra: von Neumann, Tsallis, conditional, relative.

Each function reads spectra ``(N, ..., n)``, eigenvalues descending along
the last axis, as ``density_stack`` and ``marginal_stack`` return them.
It gives one value per spectrum; the conditional entropies give one per
state and side.  All entropies are in natural log units (nats).  A
spectrum whose lowest eigenvalue is below ``-tols.psd`` is rejected.
Eigenvalues at or below the support cutoff, those in ``[-tols.psd, 0)``
among them, contribute nothing (the 0*log(0) = 0 convention).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import TOLS, CheckError, Tolerances

__all__ = [
    "entropy_stack",
    "tsallis_stack",
    "conditional_tsallis",
    "tsallis_infinity_criterion",
    "relative_entropy_stack",
]


def _require_psd(values: np.ndarray, tols: Tolerances) -> None:
    """Descending spectra ``(N, ..., n)``: each lowest eigenvalue must be >= -tols.psd."""
    CheckError.below("psd", values[..., -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")


def _log_power_sum(values: np.ndarray, q: float, tols: Tolerances) -> np.ndarray:
    """ln Tr rho^q over the last axis of descending spectra ``(N, ..., n)``, with the largest
    eigenvalue factored out, so no power underflows."""
    _require_psd(values, tols)
    top = values[..., :1]
    # The support is a prefix of a descending spectrum, so the zeros off it trail the sum.
    ratios = np.where(values > tols.support_cutoff, values / top, 0.0) ** q
    return q * np.log(top[..., 0]) + np.log(np.add.reduce(ratios, axis=-1))


def entropy_stack(values: np.ndarray, *, tols: Tolerances = TOLS) -> np.ndarray:
    """-sum x ln x over the last axis of descending spectra ``(N, ..., n)``, on the support."""
    _require_psd(values, tols)
    # Entries off the support become 1, whose x ln x is exactly 0.
    vals = np.where(values > tols.support_cutoff, values, 1.0)
    return -np.add.reduce(vals * np.log(vals), axis=-1)


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
    # The plain power sum, not _log_power_sum: at q = 1 +- 1e-4 over 351 spectra, its worst error
    # against 50-digit mpmath was 2.3e-12, the log route's 3.4e-12.  The log route serves the
    # conditional at large q, where Tr rho^q underflows.
    # Entries off the support become 0, whose q-th power is exactly 0.
    support = np.where(values > tols.support_cutoff, values, 0.0)
    return (np.add.reduce(support**q, axis=-1) - 1.0) / (1.0 - q)


def conditional_tsallis(
    values: np.ndarray, marginal_values: np.ndarray, q: float = 1.0, *, tols: Tolerances = TOLS
) -> np.ndarray:
    """Conditional entropies (S_q(AB) - S_q(X)) / (1 + (1-q) S_q(X)), ``(N, side A/B)``.

    ``values`` ``(N, 4)`` are the states' spectra and ``marginal_values``
    ``(N, 2, 2)`` their marginals', ``[state, side A/B]``; side X is the
    marginal that is subtracted.  At q = 1 this is the plain entropy
    difference.  Otherwise the denominator is Tr rho_X^q and the ratio is
    (Tr rho^q / Tr rho_X^q - 1) / (1 - q), evaluated from the two log
    power sums, so neither the difference of two entropies near 1/(q-1)
    nor a vanishing Tr rho_X^q costs the sign at large q.  A ratio beyond
    the float range gives ``-inf``.
    """
    _require_index(q)
    if q == 1:
        return entropy_stack(values, tols=tols)[:, None] - entropy_stack(marginal_values, tols=tols)
    log_ratio = _log_power_sum(values, q, tols)[:, None] - _log_power_sum(marginal_values, q, tols)
    # Tr rho^q / Tr rho_X^q beyond the float range, which needs q > 1, overflows to inf: the ratio is -inf.
    with np.errstate(over="ignore"):
        return -np.expm1(log_ratio) / (q - 1.0)


def tsallis_infinity_criterion(
    values: np.ndarray, marginal_values: np.ndarray, *, tols: Tolerances = TOLS
) -> np.ndarray:
    """Sign of the conditional entropy in the q -> infinity limit, ``(N, side A/B)`` booleans,
    from ``conditional_tsallis``'s spectra.

    For large q, Tr rho^q is dominated by the largest eigenvalue, so the
    conditional entropy subtracting side X is eventually nonnegative
    exactly when max eig of the composite <= max eig of marginal X.  The
    reduction is cross-validated against direct evaluation at q = 50 and
    q = 100 in the test suite; note that at any finite q eigenvalue
    multiplicities still matter in a narrow band around the boundary.
    """
    return values[:, None, 0] <= marginal_values[..., 0] + tols.support_cutoff


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
    weights = np.add.reduce((vectors2.conj() * (m1 @ vectors2)).real, axis=-2)
    support = values2 > tols.support_cutoff
    outside = np.add.reduce(weights, axis=-1, where=~support)
    cross = np.add.reduce(weights * np.log(np.where(support, values2, 1.0)), axis=-1, where=support)
    return np.where(outside > tols.hermiticity, math.inf, -entropy_stack(values1, tols=tols) - cross)
