"""State constructors: Werner family, the six reference examples, the
isospectral pair, general pure two-qubit states, and seeded samplers.

Computational basis order is |11>, |10>, |01>, |00> throughout, matching
the amplitude labels (a11, a10, a01, a00) of a pure state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances

__all__ = [
    "PureStateAmplitudes",
    "RegistryError",
    "werner_matrices",
    "werner",
    "example_state",
    "isospectral_pair",
    "pure_density",
    "bloch_vectors",
    "correlation_tensor",
    "purity_check",
    "random_pure",
    "random_mixed",
    "from_registry",
    "EXAMPLE_NAMES",
]

EXAMPLE_NAMES = ("E1", "E2", "E3", "E4", "E5", "E6")


class RegistryError(ValueError):
    """Unknown or malformed state-registry specifier."""


@dataclass(frozen=True)
class PureStateAmplitudes:
    """The four amplitudes of a two-qubit pure state, unit normalized."""

    a11: complex
    a10: complex
    a01: complex
    a00: complex

    def __post_init__(self):
        norm_err = abs(self.norm_squared() - 1.0)
        if not norm_err <= 1e-8:
            raise CheckError("normalization", norm_err, "amplitudes are not renormalized silently")

    def norm_squared(self) -> float:
        return abs(self.a11) ** 2 + abs(self.a10) ** 2 + abs(self.a01) ** 2 + abs(self.a00) ** 2

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a11, self.a10, self.a01, self.a00], dtype=complex)


def _ket(entries) -> np.ndarray:
    return np.asarray(entries, dtype=complex)


def _projector(entries) -> np.ndarray:
    v = _ket(entries)
    return np.outer(v, v.conj())


_BELL_PHI_PLUS = _ket([1, 0, 0, 1]) / math.sqrt(2)  # (|11> + |00>)/sqrt(2)
_BELL_PROJECTOR = _projector(_BELL_PHI_PLUS)
_MAXIMALLY_MIXED = np.eye(4) / 4.0


def werner_matrices(ps) -> np.ndarray:
    """Stack ``(N, 4, 4)`` of p |Phi><Phi| + (1-p) I/4, one matrix per p in ``ps``."""
    ps = np.asarray(ps, dtype=float).reshape(-1)
    inside = (ps >= 0.0) & (ps <= 1.0)
    if not inside.all():
        raise ValueError(f"werner parameter must lie in [0, 1], got {ps[~inside][0]}")
    return ps[:, None, None] * _BELL_PROJECTOR + (1.0 - ps)[:, None, None] * _MAXIMALLY_MIXED


def werner(p: float, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """p |Phi><Phi| + (1-p) I/4 with Phi the (|00>+|11>)/sqrt(2) Bell state."""
    return DensityMatrix(werner_matrices(p)[0], tols=tols)


def _example_matrix(name: str) -> np.ndarray:
    if name == "E1":
        return (_projector([0, -2, 1, 0]) + _projector([0, 0, 0, 1])) / 6.0
    if name == "E2":
        return (_projector([0, 1, 1, 0]) + 4.0 * _projector([0, 0, 0, 1])) / 6.0
    if name == "E3":
        return (_projector([0, 1, 1, 0]) + _projector([0, 0, 0, 1])) / 3.0
    if name == "E4":
        return _projector(_ket([0, 1, -1, 0]) / math.sqrt(2))
    if name == "E5":
        return np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    if name == "E6":
        return np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    raise RegistryError(f"unknown example state {name!r}")


def example_state(name: str, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """One of the six reference mixed/pure states E1..E6."""
    return DensityMatrix(_example_matrix(name), tols=tols)


def isospectral_pair(*, tols: Tolerances = TOLS) -> tuple[DensityMatrix, DensityMatrix]:
    """Two states with identical global and marginal spectra.

    The first is entangled, the second separable; they are distinguished
    by the quantum deficit but not by any spectrum-only functional.
    """
    entangled = (
        _projector([1, 0, 0, 0])
        + np.array(
            [
                [0, 0, 0, 0],
                [0, 1, 1, 0],
                [0, 1, 1, 0],
                [0, 0, 0, 0],
            ],
            dtype=complex,
        )
    ) / 3.0
    separable = np.diag([1.0, 0.0, 0.0, 2.0]).astype(complex) / 3.0
    return (
        DensityMatrix(entangled, tols=tols),
        DensityMatrix(separable, tols=tols),
    )


def pure_density(amps: PureStateAmplitudes, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Rank-one projector |Psi><Psi| of a normalized pure state."""
    return DensityMatrix(_projector(amps.vector), tols=tols)


def _re2(x: complex, y: complex) -> float:
    # x y* + y x*
    return 2.0 * (x * y.conjugate()).real


def _im2(x: complex, y: complex) -> float:
    # i (x y* - y x*)
    return -2.0 * (x * y.conjugate()).imag


def bloch_vectors(amps: PureStateAmplitudes, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Polarization vectors of both qubits of a pure state: rows A and B of a ``(2, 3)`` array.

    Each row must satisfy |s| <= 1 within ``tols.hermiticity``.
    """
    a11, a10, a01, a00 = amps.a11, amps.a10, amps.a01, amps.a00
    p11, p10, p01, p00 = abs(a11) ** 2, abs(a10) ** 2, abs(a01) ** 2, abs(a00) ** 2
    s = np.array((
        (_re2(a11, a01) + _re2(a10, a00), _im2(a11, a01) + _im2(a10, a00), p11 - p01 + p10 - p00),
        (_re2(a11, a10) + _re2(a01, a00), _im2(a11, a10) + _im2(a01, a00), p11 - p10 + p01 - p00),
    ))
    worst = float(np.max(np.sum(s * s, axis=1)))
    if not worst <= 1.0 + tols.hermiticity:
        raise CheckError("bloch norm", worst - 1.0)
    return s


def correlation_tensor(amps: PureStateAmplitudes, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Two-qubit correlation tensor C_ij = <tau_i x tau_j> of a pure state, ``(3, 3)``.

    Every entry must lie in [-1, 1] within ``tols.hermiticity``.
    """
    a11, a10, a01, a00 = amps.a11, amps.a10, amps.a01, amps.a00
    c = np.empty((3, 3))
    c[0, 0] = _re2(a11, a00) + _re2(a10, a01)
    c[0, 1] = _im2(a11, a00) - _im2(a10, a01)
    c[0, 2] = _re2(a11, a01) - _re2(a10, a00)
    c[1, 0] = _im2(a11, a00) + _im2(a10, a01)
    c[1, 1] = -_re2(a11, a00) + _re2(a10, a01)
    c[1, 2] = _im2(a11, a01) - _im2(a10, a00)
    c[2, 0] = _re2(a11, a10) - _re2(a01, a00)
    c[2, 1] = _im2(a11, a10) - _im2(a01, a00)
    c[2, 2] = abs(a11) ** 2 - abs(a10) ** 2 - abs(a01) ** 2 + abs(a00) ** 2
    worst = float(np.max(np.abs(c)))
    if not worst <= 1.0 + tols.hermiticity:
        raise CheckError("correlation bound", worst - 1.0)
    return c


def purity_check(amps: PureStateAmplitudes, *, tols: Tolerances = TOLS) -> tuple[float, float]:
    """Marginal purity (1 + |s|^2)/2 and the residual of the identity
    1 - |s(A)|^2 = 4 |a11 a00 - a01 a10|^2."""
    s_a = bloch_vectors(amps, tols=tols)[0]
    mag2 = float(s_a @ s_a)
    det = amps.a11 * amps.a00 - amps.a01 * amps.a10
    return (1.0 + mag2) / 2.0, abs((1.0 - mag2) - 4.0 * abs(det) ** 2)


def random_pure(seed: int | np.random.Generator) -> PureStateAmplitudes:
    """Haar-uniform pure state: four normalized standard complex Gaussians.

    ``seed`` is anything ``np.random.default_rng`` accepts.  A ``Generator``
    is used as it is, so the amplitudes are its next eight draws.
    """
    return PureStateAmplitudes(*_haar_amplitudes(np.random.default_rng(seed)))


def _haar_amplitudes(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.linalg.norm(z)


def random_mixed(seed: int, rank: int) -> np.ndarray:
    """Matrix ``(4, 4)`` of a convex mix of ``rank`` Haar-random pure projectors with flat-simplex weights.

    ``seed`` is anything ``np.random.default_rng`` accepts.  Like
    ``random_pure``, it returns the draw; ``DensityMatrix`` validates it.
    """
    if not 1 <= rank <= 4:
        raise ValueError(f"rank must lie in 1..4, got {rank}")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=rank)
    weights /= weights.sum()
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = _haar_amplitudes(rng)
        mat += w * np.outer(v, v.conj())
    return 0.5 * (mat + mat.conj().T)


def from_registry(spec: str, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Resolve a registry name to a state.

    Accepted forms: ``E1``..``E6``, ``iso:E``, ``iso:S``, ``werner:<p>``,
    and ``pure:<a11>,<a10>,<a01>,<a00>`` with complex-literal components
    such as ``0.5+0.5j``.
    """
    spec = spec.strip()
    if spec in EXAMPLE_NAMES:
        return example_state(spec, tols=tols)
    if spec in ("iso:E", "iso:S"):
        pair = isospectral_pair(tols=tols)
        return pair[0] if spec == "iso:E" else pair[1]
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise RegistryError(f"bad werner parameter in {spec!r}") from exc
        try:
            return werner(p, tols=tols)
        except ValueError as exc:
            raise RegistryError(str(exc)) from exc
    if spec.startswith("pure:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise RegistryError(f"pure state needs 4 amplitudes, got {len(parts)}")
        try:
            amps = PureStateAmplitudes(*(complex(part.strip()) for part in parts))
        except ValueError as exc:
            raise RegistryError(f"bad amplitude in {spec!r}: {exc}") from exc
        return pure_density(amps, tols=tols)
    raise RegistryError(f"unknown state specifier {spec!r}")
