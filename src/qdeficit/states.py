"""State constructors: Werner family, the paper's reference states and pure
two-qubit states, as plain arrays.

The paper's eight reference states, E1..E6 and the isospectral pair iso:E
and iso:S, are one table of matrices, ``_REFERENCE``, keyed by registry name.
iso:E is entangled and iso:S separable, yet they share their global and
marginal spectra: the quantum deficit tells them apart, no spectrum-only
functional does.  These states and the Werner family are real and built
as float64, which validation keeps.  ``REFERENCE_FIGURES`` holds their
figures under the same names, one record each: ``closed``, the closed
forms that ``table1`` (E1..E6) and ``iso-report`` (the pair) check, and
``printed``, the decimals of the paper's Table 1.  A record's column is a
``classify`` field, or D or I in units of ln 2 (``deficit_over_ln2``,
``mutual_over_ln2``).

Computational basis order is |11>, |10>, |01>, |00> throughout.  A pure
state is its amplitude vector (a11, a10, a01, a00) in that order, and a
stack of them is a complex array ``(..., 4)``: ``bloch_vectors`` and
``correlation_tensor`` read each entry of their closed forms from one
table of the six amplitude pair products.  This module builds arrays and
validates no state; ``linalg`` validates them, where a command uses them.
Nothing here normalizes amplitudes: a ``pure:`` spec resolves to the
projector, whose trace, |psi|^2, the validation holds to 1.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import TOLS, CheckError, Tolerances

__all__ = [
    "RegistryError",
    "werner_matrices",
    "bloch_vectors",
    "correlation_tensor",
    "from_registry",
    "EXAMPLE_NAMES",
    "LN2",
    "REFERENCE_FIGURES",
]

EXAMPLE_NAMES = ("E1", "E2", "E3", "E4", "E5", "E6")

LN2, LN3, LN5 = math.log(2.0), math.log(3.0), math.log(5.0)


class RegistryError(ValueError):
    """Unknown or malformed state-registry specifier."""


def _projector(entries) -> np.ndarray:
    v = np.asarray(entries)
    return np.outer(v, v.conj())


_BELL_PROJECTOR = _projector(np.array([1, 0, 0, 1]) / math.sqrt(2))  # Phi = (|11> + |00>)/sqrt(2)
_MAXIMALLY_MIXED = np.eye(4) / 4.0


_REFERENCE = {
    "E1": (_projector([0, -2, 1, 0]) + _projector([0, 0, 0, 1])) / 6.0,
    "E2": (_projector([0, 1, 1, 0]) + 4.0 * _projector([0, 0, 0, 1])) / 6.0,
    "E3": (_projector([0, 1, 1, 0]) + _projector([0, 0, 0, 1])) / 3.0,
    "E4": _projector(np.array([0, 1, -1, 0]) / math.sqrt(2)),
    "E5": np.diag([0.0, 0.0, 0.5, 0.5]),
    "E6": np.diag([0.5, 0.0, 0.0, 0.5]),
    "iso:E": (_projector([1, 0, 0, 0]) + _projector([0, 1, 1, 0])) / 3.0,
    "iso:S": np.diag([1.0, 0.0, 0.0, 2.0]) / 3.0,
}

REFERENCE_FIGURES = {
    "E1": {"closed": {
        "concurrence": 2.0 / 3.0,
        "entropy_diff_a": (5.0 / 6.0) * math.log(4.0 / 5.0),
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": (5.0 * LN5 - 8.0 * LN2) / (6.0 * LN2),
        "mutual_over_ln2": (3.0 * LN3 - 2.0 * LN2) / (3.0 * LN2),
    }, "printed": {"deficit_over_ln2": 0.6016, "mutual_over_ln2": 0.9182}},
    "E2": {"closed": {
        "concurrence": 1.0 / 3.0,
        "entropy_diff_a": (5.0 / 6.0) * math.log(5.0 / 4.0),
        "entropy_diff_b": (5.0 / 6.0) * math.log(5.0 / 4.0),
        "deficit_over_ln2": 1.0 / 3.0,
        "mutual_over_ln2": (3.0 * LN3 + 8.0 * LN2 - 5.0 * LN5) / (3.0 * LN2),
    }, "printed": {"mutual_over_ln2": 0.3817}},
    "E3": {"closed": {
        "concurrence": 2.0 / 3.0,
        "entropy_diff_a": 0.0,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 2.0 / 3.0,
        "mutual_over_ln2": (3.0 * LN3 - 2.0 * LN2) / (3.0 * LN2),
    }, "printed": {"mutual_over_ln2": 0.9183}},
    "E4": {"closed": {
        "concurrence": 1.0,
        "entropy_diff_a": -LN2,
        "entropy_diff_b": -LN2,
        "deficit_over_ln2": 1.0,
        "mutual_over_ln2": 2.0,
    }, "printed": {}},
    "E5": {"closed": {
        "concurrence": 0.0,
        "entropy_diff_a": LN2,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 0.0,
        "mutual_over_ln2": 0.0,
    }, "printed": {}},
    "E6": {"closed": {
        "concurrence": 0.0,
        "entropy_diff_a": 0.0,
        "entropy_diff_b": 0.0,
        "deficit_over_ln2": 0.0,
        "mutual_over_ln2": 1.0,
    }, "printed": {}},
    "iso:E": {"closed": {"concurrence": 2.0 / 3.0, "mutual": (3.0 * LN3 - 2.0 * LN2) / 3.0,
                         "deficit": (2.0 / 3.0) * LN2}, "printed": {}},
    "iso:S": {"closed": {"concurrence": 0.0, "mutual": (3.0 * LN3 - 2.0 * LN2) / 3.0, "deficit": 0.0},
              "printed": {}},
}


def werner_matrices(ps) -> np.ndarray:
    """Stack ``(N, 4, 4)`` of p |Phi><Phi| + (1-p) I/4, one matrix per p in ``ps``."""
    ps = np.asarray(ps, dtype=float).reshape(-1)
    inside = (ps >= 0.0) & (ps <= 1.0)
    if not inside.all():
        raise ValueError(f"werner parameter must lie in [0, 1], got {ps[~inside][0]}")
    return ps[:, None, None] * _BELL_PROJECTOR + (1.0 - ps)[:, None, None] * _MAXIMALLY_MIXED


# The terms of ``_pair_terms``, pairs ij = 01, 02, 03, 12, 13, 23 of (a11, a10, a01, a00): re_ij = 2 Re a_i a_j*
# (0..5), im_ij = -2 Im a_i a_j* (6..11), -re_ij (12..17), -im_ij (18..23); each entry sums two, by the tables:
# s_x(A) = re02 + re13, s_y(A) = im02 + im13, s_x(B) = re01 + re23, s_y(B) = im01 + im23;
# C_xx = re03 + re12, C_xy = im03 - im12, C_xz = re02 - re13, C_yx = im03 + im12, C_yy = re12 - re03,
# C_yz = im02 - im13, C_zx = re01 - re23, C_zy = im01 - im23.
_PAIR_I, _PAIR_J = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
_TERM_SCALE = np.repeat([2.0, -2.0, -2.0, 2.0], 6)
_BLOCH_TERMS = np.array([[1, 7, 0, 6], [4, 10, 5, 11]])
_CORRELATION_TERMS = np.array([[2, 8, 1, 8, 3, 7, 0, 6], [3, 21, 16, 9, 14, 22, 17, 23]])


def _pair_terms(amps):
    """The 24 terms ``(..., 24)`` of the closed forms of pure states ``(..., 4)``, and |a_i|^2 ``(4, ...)``."""
    a = np.asarray(amps, dtype=complex)
    products = np.take(a, _PAIR_I, axis=-1) * np.take(a, _PAIR_J, axis=-1).conj()
    return np.concatenate((products.real, products.imag) * 2, axis=-1) * _TERM_SCALE, np.moveaxis(abs(a) ** 2, -1, 0)


def bloch_vectors(amps, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Polarization vectors of both qubits of pure states ``(..., 4)``: rows A and B of ``(..., 2, 3)``.

    Each row must satisfy |s| <= 1 within ``tols.hermiticity``.
    """
    terms, (p11, p10, p01, p00) = _pair_terms(amps)
    s = np.empty(terms.shape[:-1] + (2, 3))
    s[..., :2] = (terms[..., _BLOCH_TERMS[0]] + terms[..., _BLOCH_TERMS[1]]).reshape(terms.shape[:-1] + (2, 2))
    s[..., 0, 2], s[..., 1, 2] = p11 - p01 + p10 - p00, p11 - p10 + p01 - p00
    CheckError.above("bloch norm", np.sum(s * s, axis=-1).reshape(-1, 2) - 1.0, tols.hermiticity)
    return s


def correlation_tensor(amps, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Two-qubit correlation tensor C_ij = <tau_i x tau_j> of pure states ``(..., 4)``, ``(..., 3, 3)``.

    Every entry must lie in [-1, 1] within ``tols.hermiticity``.
    """
    terms, (p11, p10, p01, p00) = _pair_terms(amps)
    c = np.empty(terms.shape[:-1] + (9,))
    c[..., :8] = terms[..., _CORRELATION_TERMS[0]] + terms[..., _CORRELATION_TERMS[1]]
    c[..., 8] = p11 - p10 - p01 + p00
    CheckError.above("correlation bound", np.abs(c).reshape(-1, 9) - 1.0, tols.hermiticity)
    return c.reshape(c.shape[:-1] + (3, 3))


def from_registry(spec: str) -> np.ndarray:
    """Resolve a registry name to its 4x4 matrix, unvalidated and the caller's own copy.

    Accepted forms: ``E1``..``E6``, ``iso:E``, ``iso:S``, ``werner:<p>``,
    and ``pure:<a11>,<a10>,<a01>,<a00>`` with complex-literal components
    such as ``0.5+0.5j``.  The matrix is float64, except a ``pure:`` spec's
    projector, which is complex; validation solves it as real when every
    imaginary part is zero.
    """
    spec = spec.strip()
    if spec in _REFERENCE:
        return _REFERENCE[spec].copy()
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise RegistryError(f"bad werner parameter in {spec!r}") from exc
        try:
            return werner_matrices(p)[0]
        except ValueError as exc:
            raise RegistryError(str(exc)) from exc
    if spec.startswith("pure:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise RegistryError(f"pure state needs 4 amplitudes, got {len(parts)}")
        try:
            amps = [complex(part.strip()) for part in parts]
        except ValueError as exc:
            raise RegistryError(f"bad amplitude in {spec!r}: {exc}") from exc
        return _projector(amps)
    raise RegistryError(f"unknown state specifier {spec!r}")
