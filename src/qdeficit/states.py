"""State constructors: Werner family, the paper's reference states and pure
two-qubit states, as plain arrays.

The paper's eight reference states, E1..E6 and the isospectral pair iso:E
and iso:S, are one table of matrices, ``_REFERENCE``, keyed by registry name.
iso:E is entangled and iso:S separable, yet they share their global and
marginal spectra: the quantum deficit tells them apart, no spectrum-only
functional does.  These states and the Werner family are real and built
as float64, which validation keeps.

Computational basis order is |11>, |10>, |01>, |00> throughout.  A pure
state is its amplitude vector (a11, a10, a01, a00) in that order, and a
stack of them is a complex array ``(..., 4)``: ``bloch_vectors`` and
``correlation_tensor`` evaluate their closed forms on the whole stack at
once, as ``werner_matrices`` builds a stack of mixed states.  This
module builds arrays and validates no state; ``linalg`` validates them,
where a command uses them.  Nothing here normalizes amplitudes: a
``pure:`` spec resolves to the projector, whose trace, |psi|^2, the
validation holds to 1.
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
]

EXAMPLE_NAMES = ("E1", "E2", "E3", "E4", "E5", "E6")


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


def werner_matrices(ps) -> np.ndarray:
    """Stack ``(N, 4, 4)`` of p |Phi><Phi| + (1-p) I/4, one matrix per p in ``ps``."""
    ps = np.asarray(ps, dtype=float).reshape(-1)
    inside = (ps >= 0.0) & (ps <= 1.0)
    if not inside.all():
        raise ValueError(f"werner parameter must lie in [0, 1], got {ps[~inside][0]}")
    return ps[:, None, None] * _BELL_PROJECTOR + (1.0 - ps)[:, None, None] * _MAXIMALLY_MIXED


def _re2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x y* + y x*
    return 2.0 * (x * y.conj()).real


def _im2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # i (x y* - y x*)
    return -2.0 * (x * y.conj()).imag


def bloch_vectors(amps, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Polarization vectors of both qubits of pure states ``(..., 4)``: rows A and B of ``(..., 2, 3)``.

    Each row must satisfy |s| <= 1 within ``tols.hermiticity``.
    """
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    p11, p10, p01, p00 = abs(a11) ** 2, abs(a10) ** 2, abs(a01) ** 2, abs(a00) ** 2
    s = np.stack((
        np.stack((_re2(a11, a01) + _re2(a10, a00), _im2(a11, a01) + _im2(a10, a00), p11 - p01 + p10 - p00), -1),
        np.stack((_re2(a11, a10) + _re2(a01, a00), _im2(a11, a10) + _im2(a01, a00), p11 - p10 + p01 - p00), -1),
    ), -2)
    CheckError.above("bloch norm", np.sum(s * s, axis=-1).reshape(-1, 2) - 1.0, tols.hermiticity)
    return s


def correlation_tensor(amps, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Two-qubit correlation tensor C_ij = <tau_i x tau_j> of pure states ``(..., 4)``, ``(..., 3, 3)``.

    Every entry must lie in [-1, 1] within ``tols.hermiticity``.
    """
    a11, a10, a01, a00 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    c = np.stack((
        _re2(a11, a00) + _re2(a10, a01),
        _im2(a11, a00) - _im2(a10, a01),
        _re2(a11, a01) - _re2(a10, a00),
        _im2(a11, a00) + _im2(a10, a01),
        -_re2(a11, a00) + _re2(a10, a01),
        _im2(a11, a01) - _im2(a10, a00),
        _re2(a11, a10) - _re2(a01, a00),
        _im2(a11, a10) - _im2(a01, a00),
        abs(a11) ** 2 - abs(a10) ** 2 - abs(a01) ** 2 + abs(a00) ** 2,
    ), -1)
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
