"""The marginal-eigenbasis machinery for two-qubit states: product frames,
overlap weights, decohered states and the quantum deficit.

The central object is the product basis built from the eigenvectors of
both qubit marginals.  Dropping the off-diagonal elements of a state in
that basis ("decohering") preserves both marginals exactly, and the
entropy increase it causes is the quantum deficit, ``classify``'s
``deficit``.

Every figure is computed once, by array kernels over a validated stack
``(m, w, v)``, ``density_stack``'s triple: the matrices ``m`` ``(N, 4, 4)``
with their descending eigenvalues ``w`` and eigenvectors ``v``, ``m`` and
``v`` float64 for a real stack.  The kernels form two layers.

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
|<alpha, beta|Gamma>|^2 for rho's eigenprojectors.  The frame pass reads
every weight in that one product over a stack of R ``(N, K, 4, 4)``: row
0 is the state's, and rows 1-4, where the overlaps are wanted, its
eigenprojectors'.  rho_d has the coefficients sum P f_A f_B^T;
``decohere_stack`` returns it with P and the overlaps.
So a stack takes one ``eigh`` call, on the states, and two values-only
calls, in either layer: one in ``concurrence`` on Wootters' tau, an
``eigvalsh`` for a real stack and an ``svd`` for a complex one, and one
``eigvalsh`` on the partial transposes.  rho_d's spectrum is P:
S(rho_d) = H(P), P >= 0 is its psd check and P's sum its trace check.

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

from .concurrence import concurrence, wootters_concurrence
from .entropy import entropy_stack
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_stack,
    eigvalsh_stack,
    fano_stack,
    pauli_sum,
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
# f / 2 = (1, +-n) / 2 for frame index alpha = 0, 1.
_HALF_SIGNS = np.array((0.5, -0.5))[:, None]
# The indices (mu, nu) of (R_00, a) and (R_00, b), column and row 0 of R.
_BLOCH_MU = np.array(((0, 1, 2, 3), (0, 0, 0, 0)))
_BLOCH_NU = _BLOCH_MU[::-1]


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


Classification = NamedTuple("Classification", [
    *Figures.__annotations__.items(),
    ("conditional_prob_defined", np.ndarray),  # bool (N,)
    ("commutes_with_marginals", np.ndarray),  # bool (N,)
    ("frame_fallback", np.ndarray),  # bool (N, side A/B): the side took the computational-basis frame
    ("worst_eigen_ratio", np.ndarray),  # (N,): the larger side of ``_ratio_stack``'s maxima
])
Classification.__doc__ = """Every figure of two-qubit states: ``classify_stack``'s arrays, one entry per state,
or ``classify``'s Python scalars for one state.

The first six fields are the ``Figures``.  The conditional probabilities
are defined while ``worst_eigen_ratio`` is at most 1 + ``tols.hermiticity``.
"""


class Decoherence(NamedTuple):
    """The frame pass over a stack of N states: ``decohere_stack``'s result.

    Which sides took the computational-basis frame is ``classify``'s ``frame_fallback``.
    """

    matrices: np.ndarray  # rho_d (N, 4, 4), diagonal in each state's frame
    joint: np.ndarray  # P[alpha, beta] (N, 2, 2), the diagonal of rho_d in the frame
    weights: np.ndarray  # |<alpha, beta|Gamma>|^2 (N, alpha, beta, Gamma)


class _Frame(NamedTuple):
    """``_frame_pass``'s result for N states."""

    frame_values: np.ndarray  # (N, side A/B, alpha)
    degenerate: np.ndarray  # (N, side A/B)
    half_f: np.ndarray  # f / 2 (N, side A/B, alpha, mu): |alpha><alpha| = sum_mu (f / 2)_mu sigma_mu
    joint: np.ndarray  # P (N, alpha, beta), checked nonnegative
    overlaps: np.ndarray  # the weights f_A^T R f_B / 4 of rows 1.. of R (N, K - 1, alpha, beta), unchecked


def _fano_rows(m: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """R ``(N, 5, 4, 4)`` of each state (row 0) and of its eigenprojectors |Gamma><Gamma|, built in ``m``'s
    dtype, which ``density_stack`` gives ``vectors`` too: one ``fano_stack`` call."""
    mats = np.empty((len(m), 5, 4, 4), dtype=m.dtype)
    mats[:, 0] = m
    columns = vectors.swapaxes(-1, -2)
    np.multiply(columns[..., :, None], columns.conj()[..., None, :], out=mats[:, 1:])
    return fano_stack(mats)


def _frame_pass(r: np.ndarray, tols: Tolerances) -> _Frame:
    """Each state's product frame, and the weights of its frame projectors in each row of ``r``
    ``(N, K, 4, 4)``: P from the state's own R, row 0, the overlaps from rows 1 to K - 1."""
    n = len(r)
    tr = r[:, 0, 0, 0]  # R_00, the trace both marginals share
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"trace {complex(tr[k]):.12g}")

    # Per side: (R_00, Bloch vector), its axis and the frame vectors f[side, alpha] / 2 = (1, +-n) / 2.
    bloch = r[:, 0, _BLOCH_MU, _BLOCH_NU]
    norm = np.sqrt(np.einsum("nsi,nsi->ns", bloch[..., 1:], bloch[..., 1:]))
    degenerate = norm <= tols.degeneracy
    axis = np.where(degenerate[..., None], _Z_AXIS, bloch[..., 1:] / np.maximum(norm, tols.degeneracy)[..., None])
    half_f = np.empty((n, 2, 2, 4))
    half_f[..., 0] = 0.5
    np.multiply(_HALF_SIGNS, axis[:, :, None], out=half_f[..., 1:])
    frame_w = (half_f @ bloch[..., None])[..., 0]
    CheckError.below("psd", frame_w, -tols.psd, lambda k: "negative eigenvalue")

    # The weight of each |alpha, beta><alpha, beta| in each row, f_A^T R f_B / 4: row 0 is P.
    weights = half_f[:, None, 0] @ r @ half_f[:, None, 1].swapaxes(-1, -2)
    joint = weights[:, 0]
    CheckError.below("joint nonnegativity", joint, -tols.psd)
    return _Frame(frame_w, degenerate, half_f, np.maximum(joint, 0.0), weights[:, 1:])


def _overlap_pass(overlaps: np.ndarray, tols: Tolerances) -> np.ndarray:
    """The overlaps |<alpha, beta|Gamma>|^2 ``(N, Gamma, alpha, beta)`` of ``_frame_pass``, checked to sum
    to one over the frame and over Gamma, as ``(N, alpha, beta, Gamma)``."""
    per_gamma = np.add.reduce(overlaps, axis=(-2, -1))
    per_frame = np.add.reduce(overlaps, axis=1).reshape(per_gamma.shape)
    err = np.maximum(np.abs(per_gamma - 1.0), np.abs(per_frame - 1.0))
    CheckError.above("overlap normalization", err, tols.hermiticity)
    return overlaps.transpose(0, 2, 3, 1)


def _decohered(frame: _Frame, m: np.ndarray) -> np.ndarray:
    """rho_d = sum P(alpha, beta) |alpha, beta><alpha, beta| ``(N, 4, 4)`` of the states ``m``, in their
    dtype, through its coefficients sum P f_A f_B^T / 4."""
    half_f = frame.half_f
    return pauli_sum(half_f[:, 0].swapaxes(-1, -2) @ frame.joint @ half_f[:, 1], m)


def _require_stack(matrices) -> np.ndarray:
    """``matrices`` as an array, once it passes the ``dims`` check: a stack ``(N, 4, 4)``."""
    m = np.asarray(matrices)
    if m.shape[1:] != (4, 4):
        raise CheckError("dims", 0.0, f"a stack of two-qubit states (N, 4, 4) required, got shape {m.shape}")
    return m


def decohere_stack(m: np.ndarray, vectors: np.ndarray, *, tols: Tolerances = TOLS) -> Decoherence:
    """Drop all off-diagonal elements of each state in its marginal-eigenbasis product frame.

    ``m`` is a validated stack ``(N, 4, 4)`` and ``vectors`` its eigenvectors: one
    ``fano_stack`` product gives R for the states and for their eigenprojectors.
    """
    m = _require_stack(m)
    frame = _frame_pass(_fano_rows(m, vectors), tols)
    return Decoherence(_decohered(frame, m), frame.joint, _overlap_pass(frame.overlaps, tols))


def _figures(m: np.ndarray, w: np.ndarray, v: np.ndarray, r: np.ndarray, tols: Tolerances):
    """The ``Figures`` of a validated stack ``(m, w, v)`` whose Fano rows are ``r`` ``(N, K, 4, 4)``,
    the state's first, and the ``_Frame`` they were read from."""
    n = len(m)
    # The spin-flip lambdas and the partial transposes need only spectra: one values-only call each.
    conc = wootters_concurrence(concurrence(w, v, tols=tols))
    ppt_min = eigvalsh_stack(transpose_stack(m), tols=tols)[:, -1]
    # The entropy input check on rho, ahead of the frame's checks; the pass below repeats it.
    CheckError.below("psd", w[:, -1], -tols.psd, lambda k: "negative eigenvalue in entropy input")
    frame = _frame_pass(r, tols)
    # rho_d's spectrum is P, which the frame pass checked against -psd: S(rho_d) = H(P), its trace P's sum.
    p = frame.joint
    tr = np.add.reduce(p, axis=(-2, -1))
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"decohered trace {tr[k]:.12g}")
    # One entropy pass over the spectra of rho, rho_A and rho_B (the frame values, in any order) and
    # rho_d, zero-padded to four levels off the support; the frame values passed the psd check.
    levels = np.zeros((n, 4, 4))
    levels[:, 0] = w
    levels[:, 1:3, :2] = frame.frame_values
    levels[:, 3] = p.reshape(n, 4)
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
    figures, frame = _figures(m, w, v, _fano_rows(m, v), tols)
    weights = _overlap_pass(frame.overlaps, tols)
    side_max, defined = _ratio_stack(weights, w, frame.frame_values, tols)
    # Commuting with both frames' projectors is the decoherence fixed point rho = rho_d.
    commutes = np.maximum.reduce(np.abs(m - _decohered(frame, m)), axis=(-2, -1)) <= tols.identity
    return Classification(*figures, defined, commutes, frame.degenerate, np.maximum.reduce(side_max, axis=-1))


def figures_stack(matrices, *, tols: Tolerances = TOLS) -> Figures:
    """The ``Figures`` of each two-qubit state of a stack ``(N, 4, 4)``, bit for bit
    ``classify_stack``'s first six columns, without its diagnostics.

    Validation, the three eigensolver calls and every check that guards
    a figure are ``classify_stack``'s; the eigenprojectors' overlaps, the
    ratio test and rho_d are not computed.
    """
    m, w, v = density_stack(_require_stack(matrices), tols=tols)
    return _figures(m, w, v, fano_stack(m)[:, None], tols)[0]


def classify_stack(matrices, *, tols: Tolerances = TOLS) -> Classification:
    """Every figure of each two-qubit state of a stack ``(N, 4, 4)``, one array per figure:
    ``figures_stack``'s columns, then the diagnostics.

    Each matrix is validated as ``DensityMatrix`` validates it; the first
    failing check raises for the lowest failing state and names it.  The
    stack takes three solver calls: ``eigh`` on the states, and one
    values-only call each on the spin-flip tau (``eigvalsh`` if it is real,
    else ``svd``) and on the partial transposes (``eigvalsh``).
    """
    return _classify(*density_stack(_require_stack(matrices), tols=tols), tols)


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
