"""The marginal-eigenbasis machinery for two-qubit states: product frames,
overlap weights, decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both qubit marginals.  Dropping the off-diagonal elements of a state in
that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit, ``classify``'s
``deficit``.

Every figure is computed once, by array kernels over a validated stack
``(m, w, v)``: the matrices ``m`` ``(N, 4, 4)`` with their descending
eigenvalues ``w`` and eigenvectors ``v``.  ``classify_stack`` returns a
``Classification`` of arrays, one entry per state; ``classify`` is its
N = 1 call on a ``DensityMatrix``'s own eigen-data, holding row 0 as
Python scalars, and ``verdicts`` words such a row.  A failed check names
the lowest failing state of a stack.

The frame pass, ``decohere_stack``, works in Fano form (U. Fano, Rev.
Mod. Phys. 55, 855, 1983): R_mu,nu = Tr rho sigma_mu x sigma_nu, whose
column a = R[1:, 0] and row b = R[0, 1:] are the marginals' Bloch vectors.
Side A's eigenprojectors are (I +- n.sigma) / 2 with n = a / |a|, so with
f = (1, +-n) its eigenvalues, the frame values, are f . (R_00, a) / 2, and
the weight of |alpha, beta><alpha, beta| in a matrix with coefficients R
is f_A^T R f_B / 4: the joint P(alpha, beta) for rho, the overlaps
|<alpha, beta|Gamma>|^2 for rho's eigenprojectors.  rho_d has the
coefficients sum P f_A f_B^T.  So a stack takes one ``eigh`` call, on the
states, and two values-only ``eigvalsh`` calls, one on the real spin-flip
dilations and one on the complex partial transposes.  rho_d's spectrum is
P: S(rho_d) = H(P), P >= 0 is its psd check and P's sum its trace check.

A side's eigenvalue gap is |a|.  At most ``tols.degeneracy``, its
eigenbasis is not unique and its axis is z: the computational basis in
index order, with the marginal's diagonal as frame values; no figure
depends on that order.  On a stack the rule is a per-state, per-side
mask, so degenerate and generic states share one call.  Decoherence is
then basis-dependent exactly where the construction is underdetermined,
and the classifier records when the fallback fired.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .concurrence import dilation_concurrence, spin_flip_dilation_stack
from .entropy import entropy_stack
from .linalg import (
    PAULI_PRODUCTS,
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    fano_stack,
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

# The axis of a degenerate side: the computational basis, |1> (index 0) as the +1 state.
_Z_AXIS = np.array((0.0, 0.0, 1.0))
# f / 2 = (1, +-n) / 2 for frame index alpha = 0, 1; (R_00, a) and (R_00, b), column and row 0 of R.
_HALF_SIGNS = np.array((0.5, -0.5))[:, None]
_BLOCH = np.array(((0, 4, 8, 12), (0, 1, 2, 3)))
# sigma_mu x sigma_nu as real rows ``(16, 32)``: real coefficients C_mu,nu times them give
# sum C_mu,nu sigma_mu x sigma_nu, its real and imaginary parts interleaved as complex128 stores them.
_PRODUCT_ROWS = PAULI_PRODUCTS.reshape(16, 16).view(float)


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
    frame_values: np.ndarray  # (N, side A/B, alpha): marginal eigenvalues, a degenerate side's diagonal in index order
    degenerate: np.ndarray  # (N, side A/B): the side took the computational-basis frame
    weights: np.ndarray  # |<alpha, beta|Gamma>|^2 (N, alpha, beta, Gamma)


def decohere_stack(m: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> Decoherence:
    """Drop all off-diagonal elements of each state in its marginal-eigenbasis product frame.

    ``m`` is a validated stack ``(N, 4, 4)`` and ``vectors`` its eigenvectors: one
    ``fano_stack`` product gives R for the states and for their eigenprojectors.
    """
    if m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit matrices (N, 4, 4) required, got shape {m.shape}")
    n = len(m)
    mats = np.empty((n, 5, 4, 4), dtype=complex)
    mats[:, 0] = m
    columns = vectors.swapaxes(-1, -2)
    np.multiply(columns[..., :, None], columns.conj()[..., None, :], out=mats[:, 1:])
    r = fano_stack(mats).reshape(n, 5, 16)
    tr = r[:, 0, 0]  # R_00, the trace both marginals share
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"trace {complex(tr[k]):.12g}")

    # Per side: (R_00, Bloch vector), its axis and the frame vectors f[side, alpha] / 2 = (1, +-n) / 2.
    bloch = r[:, 0, _BLOCH]
    norm = np.sqrt(np.einsum("nsi,nsi->ns", bloch[..., 1:], bloch[..., 1:]))
    degenerate = norm <= tols.degeneracy
    axis = np.where(degenerate[..., None], _Z_AXIS, bloch[..., 1:] / np.maximum(norm, tols.degeneracy)[..., None])
    half_f = np.full((n, 2, 2, 4), 0.5)
    half_f[..., 1:] = _HALF_SIGNS * axis[:, :, None]
    frame_w = (half_f @ bloch[..., None])[..., 0]
    CheckError.below("psd", frame_w, -tols.psd, lambda k: "negative eigenvalue")

    # f_A f_B^T / 4, the coefficients of |alpha, beta><alpha, beta| ``(N, mu nu, alpha beta)``, and
    # their weights in the state (the joint P) and in its eigenprojectors (the overlaps).
    ft = half_f.swapaxes(-1, -2)
    projectors = (ft[:, 0, :, None, :, None] * ft[:, 1, None, :, None, :]).reshape(n, 16, 4)
    out = r @ projectors
    CheckError.below("joint nonnegativity", out[:, 0], -tols.psd)
    joint = np.maximum(out[:, 0], 0.0)
    overlaps = out[:, 1:]
    err = np.maximum(np.abs(overlaps.sum(axis=-2) - 1.0), np.abs(overlaps.sum(axis=-1) - 1.0))
    CheckError.above("overlap normalization", err, tols.hermiticity)

    # rho_d = sum P(alpha, beta) |alpha, beta><alpha, beta|, through its coefficients.
    mat_d = ((projectors @ joint[..., None])[..., 0] @ _PRODUCT_ROWS).view(complex).reshape(n, 4, 4)
    weights = overlaps.swapaxes(-1, -2).reshape(n, 2, 2, 4)
    return Decoherence(mat_d, joint.reshape(n, 2, 2), frame_w, degenerate, weights)


def _classify(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> Classification:
    """Every figure of each state of a validated stack ``(m, w, v)``, as columns."""
    n = len(m)
    # The spin-flip dilations and the partial transposes need only spectra: one values-only call
    # each, the first on real matrices and the second on complex ones.
    conc = dilation_concurrence(eigvalsh_stack(spin_flip_dilation_stack(w, v), tols=tols))
    ppt_min = eigvalsh_stack(transpose_stack(m, "B"), tols=tols)[:, -1]
    # The entropy input check on rho, ahead of the frame's checks; the pass below repeats it.
    CheckError.below("psd", w[:, -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")
    mat_d, joint, frame_w, degenerate, weights = decohere_stack(m, v, tols=tols)
    # rho_d's spectrum is P, which decohere_stack checked against -psd: S(rho_d) = H(P), its trace P's sum.
    p = joint.reshape(-1, 4)
    tr = p.sum(axis=-1)
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"decohered trace {tr[k]:.12g}")
    # One entropy pass over the spectra of rho, rho_A and rho_B (the frame values, in any order) and
    # rho_d, zero-padded to four levels off the support; the frame values passed the psd check.
    levels = np.zeros((n, 4, 4))
    levels[:, 0] = w
    levels[:, 1:3, :2] = frame_w
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
    failing check raises for the lowest failing state and names it.  The
    stack takes three eigensolver calls: ``eigh`` on the states, and one
    values-only ``eigvalsh`` each on the spin-flip dilations and on the
    partial transposes.
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
