"""The marginal-eigenbasis machinery for two-qubit states: product frames,
overlap weights, decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both qubit marginals.  Dropping the off-diagonal elements of a state in
that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit, ``classify``'s
``deficit``.

Every figure is computed once, by array kernels over a validated stack
``(m, w, v)``: the matrices ``m`` ``(N, 4, 4)`` with their descending
eigenvalues ``w`` and eigenvectors ``v``.  The kernels form two layers.

- The figure layer, ``figures_stack``, returns ``Figures``: the
  concurrence, S(AB) - S(A), S(AB) - S(B), the mutual entropy, the
  deficit and the least eigenvalue of the partial transpose, the columns
  ``werner-sweep`` prints.  It runs every check that guards them: the
  validation of the stack, the entropy input ``psd`` check on rho, the
  frame's ``trace``, ``psd`` and ``joint nonnegativity``, rho_d's
  ``trace`` and ``deficit bounds``.
- The diagnostic layer, ``classify_stack``, calls the figure layer and
  builds on it the eigenprojectors' overlap weights, the eigenvalue
  ratio test and rho_d, for ``commutes_with_marginals``.  Its
  ``Classification`` holds the ``Figures`` and these diagnostics.  The
  ``overlap normalization`` check guards only the weights, so it runs
  where they are computed (``classify``, ``decohere_stack`` and the
  audit), after the figure checks, and not in the sweep.

Both layers read P by the same product, so ``figures_stack``'s columns
are ``classify_stack``'s bit for bit.  ``classify`` is
``classify_stack``'s N = 1 call on a ``DensityMatrix``'s own eigen-data,
holding row 0 as Python scalars, and ``verdicts`` words such a row.  A
failed check names the lowest failing state of a stack.

The frame pass works in Fano form (U. Fano, Rev. Mod. Phys. 55, 855,
1983): R_mu,nu = Tr rho sigma_mu x sigma_nu, whose
column a = R[1:, 0] and row b = R[0, 1:] are the marginals' Bloch vectors.
Side A's eigenprojectors are (I +- n.sigma) / 2 with n = a / |a|, so with
f = (1, +-n) its eigenvalues, the frame values, are f . (R_00, a) / 2, and
the weight of |alpha, beta><alpha, beta| in a matrix with coefficients R
is f_A^T R f_B / 4: the joint P(alpha, beta) for rho, the overlaps
|<alpha, beta|Gamma>|^2 for rho's eigenprojectors.  rho_d has the
coefficients sum P f_A f_B^T; ``decohere_stack`` returns it with P, the
frame values and the overlaps.  So a stack takes one ``eigh`` call, on
the states, and two values-only ``eigvalsh`` calls, one on the real
spin-flip dilations and one on the complex partial transposes, in either
layer.  rho_d's spectrum is P: S(rho_d) = H(P), P >= 0 is its psd check
and P's sum its trace check.

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
    "Figures",
    "Classification",
    "Decoherence",
    "decohere_stack",
    "figures_stack",
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
    return side_max, np.logical_and.reduce(side_max <= 1.0 + tols.hermiticity, axis=-1)


class Figures(NamedTuple):
    """The figures ``werner-sweep`` prints, and a ``Classification``'s first six fields:
    ``figures_stack``'s arrays, one entry per state."""

    concurrence: np.ndarray  # (N,)
    entropy_diff_a: np.ndarray  # (N,): S(AB) - S(A)
    entropy_diff_b: np.ndarray  # (N,): S(AB) - S(B)
    mutual: np.ndarray  # (N,): S(A) + S(B) - S(AB)
    deficit: np.ndarray  # (N,): S(rho_d) - S(AB)
    ppt_min_eig: np.ndarray  # (N,)


class Classification(NamedTuple):
    """Every figure of two-qubit states: ``classify_stack``'s arrays, one entry per state,
    or ``classify``'s Python scalars for one state.

    The first six fields are the ``Figures``.  The conditional
    probabilities are defined while ``worst_eigen_ratio`` is at most
    1 + ``tols.hermiticity``.
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


class _Frame(NamedTuple):
    """``_frame_pass``'s result for N states."""

    frame_values: np.ndarray  # (N, side A/B, alpha)
    degenerate: np.ndarray  # (N, side A/B)
    projectors: np.ndarray  # f_A f_B^T / 4, the coefficients of |alpha, beta><alpha, beta| (N, mu nu, alpha beta)
    joint: np.ndarray  # P (N, alpha beta), checked nonnegative


def _fano_rows(m: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """R ``(N, 5, 16)`` of each state (row 0) and of its eigenprojectors |Gamma><Gamma|: one ``fano_stack`` call."""
    n = len(m)
    mats = np.empty((n, 5, 4, 4), dtype=complex)
    mats[:, 0] = m
    columns = vectors.swapaxes(-1, -2)
    np.multiply(columns[..., :, None], columns.conj()[..., None, :], out=mats[:, 1:])
    return fano_stack(mats).reshape(n, 5, 16)


def _frame_pass(r: np.ndarray, tols: Tolerances) -> _Frame:
    """Each state's product frame and joint P from its own Fano row ``r`` ``(N, 16)``."""
    n = len(r)
    tr = r[:, 0]  # R_00, the trace both marginals share
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"trace {complex(tr[k]):.12g}")

    # Per side: (R_00, Bloch vector), its axis and the frame vectors f[side, alpha] / 2 = (1, +-n) / 2.
    bloch = r[:, _BLOCH]
    norm = np.sqrt(np.einsum("nsi,nsi->ns", bloch[..., 1:], bloch[..., 1:]))
    degenerate = norm <= tols.degeneracy
    axis = np.where(degenerate[..., None], _Z_AXIS, bloch[..., 1:] / np.maximum(norm, tols.degeneracy)[..., None])
    half_f = np.empty((n, 2, 2, 4))
    half_f[..., 0] = 0.5
    np.multiply(_HALF_SIGNS, axis[:, :, None], out=half_f[..., 1:])
    frame_w = (half_f @ bloch[..., None])[..., 0]
    CheckError.below("psd", frame_w, -tols.psd, lambda k: "negative eigenvalue")

    # P is the weight of each |alpha, beta><alpha, beta| in the state, f_A^T R f_B / 4.
    ft = half_f.swapaxes(-1, -2)
    projectors = (ft[:, 0, :, None, :, None] * ft[:, 1, None, :, None, :]).reshape(n, 16, 4)
    joint = (r[:, None] @ projectors)[:, 0]
    CheckError.below("joint nonnegativity", joint, -tols.psd)
    return _Frame(frame_w, degenerate, projectors, np.maximum(joint, 0.0))


def _overlap_pass(r: np.ndarray, projectors: np.ndarray, tols: Tolerances) -> np.ndarray:
    """|<alpha, beta|Gamma>|^2 ``(N, alpha, beta, Gamma)``, the weight of each frame projector in
    each eigenprojector, from ``_fano_rows``' R ``(N, 5, 16)``.

    The product runs over all five rows and drops the state's: on the
    contiguous block it is cheaper than on the strided rows 1-4 alone.
    """
    overlaps = (r @ projectors)[:, 1:]
    err = np.maximum(np.abs(np.add.reduce(overlaps, axis=-2) - 1.0), np.abs(np.add.reduce(overlaps, axis=-1) - 1.0))
    CheckError.above("overlap normalization", err, tols.hermiticity)
    return overlaps.swapaxes(-1, -2).reshape(len(overlaps), 2, 2, 4)


def _decohered(frame: _Frame) -> np.ndarray:
    """rho_d = sum P(alpha, beta) |alpha, beta><alpha, beta| ``(N, 4, 4)``, through its coefficients."""
    coefficients = (frame.projectors @ frame.joint[..., None])[..., 0]
    return (coefficients @ _PRODUCT_ROWS).view(complex).reshape(len(coefficients), 4, 4)


def _require_stack(m: np.ndarray) -> None:
    if m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"a stack of two-qubit states (N, 4, 4) required, got shape {m.shape}")


def decohere_stack(m: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> Decoherence:
    """Drop all off-diagonal elements of each state in its marginal-eigenbasis product frame.

    ``m`` is a validated stack ``(N, 4, 4)`` and ``vectors`` its eigenvectors: one
    ``fano_stack`` product gives R for the states and for their eigenprojectors.
    """
    _require_stack(m)
    r = _fano_rows(m, vectors)
    frame = _frame_pass(r[:, 0], tols)
    weights = _overlap_pass(r, frame.projectors, tols)
    return Decoherence(_decohered(frame), frame.joint.reshape(-1, 2, 2), frame.frame_values, frame.degenerate, weights)


def _figures(m: np.ndarray, w: np.ndarray, v: np.ndarray, r: np.ndarray, tols: Tolerances):
    """The ``Figures`` of a validated stack ``(m, w, v)`` whose Fano rows are ``r`` ``(N, 16)``,
    and the ``_Frame`` they were read from."""
    n = len(m)
    # The spin-flip dilations and the partial transposes need only spectra: one values-only call
    # each, the first on real matrices and the second on complex ones.
    conc = dilation_concurrence(eigvalsh_stack(spin_flip_dilation_stack(w, v), tols=tols))
    ppt_min = eigvalsh_stack(transpose_stack(m, "B"), tols=tols)[:, -1]
    # The entropy input check on rho, ahead of the frame's checks; the pass below repeats it.
    CheckError.below("psd", w[:, -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")
    frame = _frame_pass(r, tols)
    # rho_d's spectrum is P, which the frame pass checked against -psd: S(rho_d) = H(P), its trace P's sum.
    p = frame.joint
    tr = np.add.reduce(p, axis=-1)
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"decohered trace {tr[k]:.12g}")
    # One entropy pass over the spectra of rho, rho_A and rho_B (the frame values, in any order) and
    # rho_d, zero-padded to four levels off the support; the frame values passed the psd check.
    levels = np.zeros((n, 4, 4))
    levels[:, 0] = w
    levels[:, 1:3, :2] = frame.frame_values
    levels[:, 3] = p
    levels[:, 3, ::-1].sort(axis=-1)  # ascending through the reversed view: P descending, in place
    s, s_a, s_b, s_d = entropy_stack(levels, tols=tols).T
    mutual = s_a + s_b - s
    deficit = s_d - s
    inside = (deficit >= -tols.identity) & (deficit <= mutual + tols.identity)
    CheckError.raise_first("deficit bounds", ~inside, deficit, lambda k: f"mutual={mutual[k]:.12g}")
    return Figures(conc, s - s_a, s - s_b, mutual, deficit, ppt_min), frame


def _classify(m: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> Classification:
    """Every figure of each state of a validated stack ``(m, w, v)``, as columns: the
    ``Figures`` first, then the diagnostics read from the eigenprojectors' overlaps and rho_d."""
    r = _fano_rows(m, v)
    figures, frame = _figures(m, w, v, r[:, 0], tols)
    weights = _overlap_pass(r, frame.projectors, tols)
    side_max, defined = _ratio_stack(weights, w, frame.frame_values, tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = np.maximum.reduce(np.abs(m - _decohered(frame)), axis=(-2, -1)) <= tols.identity
    return Classification(*figures, defined, commutes, frame.degenerate, np.maximum.reduce(side_max, axis=-1))


def _validated_stack(matrices, tols: Tolerances):
    """``(m, w, v)``: a stack ``(N, 4, 4)`` validated as ``DensityMatrix`` validates each matrix."""
    m = np.asarray(matrices, dtype=complex)
    _require_stack(m)
    return (m, *density_stack(m, tols=tols))


def figures_stack(matrices, *, tols: Tolerances = TOLS) -> Figures:
    """The ``Figures`` of each two-qubit state of a stack ``(N, 4, 4)``, bit for bit
    ``classify_stack``'s first six columns, without its diagnostics.

    Validation, the three eigensolver calls and every check that guards
    a figure are ``classify_stack``'s; the eigenprojectors' overlaps, the
    ratio test and rho_d are not computed.
    """
    m, w, v = _validated_stack(matrices, tols)
    return _figures(m, w, v, fano_stack(m).reshape(len(m), 16), tols)[0]


def classify_stack(matrices, *, tols: Tolerances = TOLS) -> Classification:
    """Every figure of each two-qubit state of a stack ``(N, 4, 4)``, one array per figure:
    ``figures_stack``'s columns, then the diagnostics.

    Each matrix is validated as ``DensityMatrix`` validates it; the first
    failing check raises for the lowest failing state and names it.  The
    stack takes three eigensolver calls: ``eigh`` on the states, and one
    values-only ``eigvalsh`` each on the spin-flip dilations and on the
    partial transposes.
    """
    return _classify(*_validated_stack(matrices, tols), tols)


def classify(rho_ab: DensityMatrix, *, tols: Tolerances = TOLS) -> Classification:
    """``classify_stack``'s row 0 for one two-qubit state, from its own eigen-data, as Python scalars.

    ``frame_fallback`` is the (A, B) pair of sides whose degenerate
    marginal took the computational-basis frame.
    """
    cols = _classify(rho_ab.matrix[None], rho_ab.eigenvalues[None], rho_ab.eigenvectors[None], tols)
    return Classification(
        *(col.item() for col in cols[:-2]), tuple(cols.frame_fallback[0].tolist()), cols.worst_eigen_ratio.item()
    )


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
