"""State constructors: Werner family, the paper's reference states, pure
two-qubit states, and seeded samplers.

The paper's eight reference states, E1..E6 and the isospectral pair iso:E
and iso:S, are one table of matrices, ``_REFERENCE``, keyed by registry name.

Computational basis order is |11>, |10>, |01>, |00> throughout.  A pure
state is its amplitude vector (a11, a10, a01, a00) in that order, and a
stack of them is a complex array ``(..., 4)``: ``bloch_vectors`` and
``correlation_tensor`` evaluate their closed forms on the whole stack at
once, as ``werner_matrices`` builds a stack of mixed states.  Nothing
here normalizes or validates amplitudes; ``pure_density`` hands the
projector to ``DensityMatrix``, whose trace check is |psi|^2 = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import TOLS, CheckError, DensityMatrix, Tolerances

__all__ = [
    "RegistryError",
    "werner_matrices",
    "werner",
    "example_state",
    "isospectral_pair",
    "pure_density",
    "bloch_vectors",
    "correlation_tensor",
    "random_pure",
    "random_mixed",
    "from_registry",
    "EXAMPLE_NAMES",
]

EXAMPLE_NAMES = ("E1", "E2", "E3", "E4", "E5", "E6")


class RegistryError(ValueError):
    """Unknown or malformed state-registry specifier."""


def _ket(entries) -> np.ndarray:
    return np.asarray(entries, dtype=complex)


def _projector(entries) -> np.ndarray:
    v = _ket(entries)
    return np.outer(v, v.conj())


_BELL_PHI_PLUS = _ket([1, 0, 0, 1]) / math.sqrt(2)  # (|11> + |00>)/sqrt(2)
_BELL_PROJECTOR = _projector(_BELL_PHI_PLUS)
_MAXIMALLY_MIXED = np.eye(4) / 4.0


_REFERENCE = {
    "E1": (_projector([0, -2, 1, 0]) + _projector([0, 0, 0, 1])) / 6.0,
    "E2": (_projector([0, 1, 1, 0]) + 4.0 * _projector([0, 0, 0, 1])) / 6.0,
    "E3": (_projector([0, 1, 1, 0]) + _projector([0, 0, 0, 1])) / 3.0,
    "E4": _projector(_ket([0, 1, -1, 0]) / math.sqrt(2)),
    "E5": np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex),
    "E6": np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex),
    "iso:E": (_projector([1, 0, 0, 0]) + _projector([0, 1, 1, 0])) / 3.0,
    "iso:S": np.diag([1.0, 0.0, 0.0, 2.0]).astype(complex) / 3.0,
}


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


def example_state(name: str, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """One of the six reference mixed/pure states E1..E6."""
    if name not in EXAMPLE_NAMES:
        raise RegistryError(f"unknown example state {name!r}")
    return DensityMatrix(_REFERENCE[name], tols=tols)


def isospectral_pair(*, tols: Tolerances = TOLS) -> tuple[DensityMatrix, DensityMatrix]:
    """Two states with identical global and marginal spectra.

    The first is entangled, the second separable; they are distinguished
    by the quantum deficit but not by any spectrum-only functional.
    """
    return DensityMatrix(_REFERENCE["iso:E"], tols=tols), DensityMatrix(_REFERENCE["iso:S"], tols=tols)


def pure_density(amps, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Rank-one projector |Psi><Psi| of the amplitudes ``(4,)``; its trace check is |Psi|^2 = 1."""
    return DensityMatrix(_projector(amps), tols=tols)


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


def random_pure(seed: int | np.random.Generator) -> np.ndarray:
    """Amplitudes ``(4,)`` of a Haar-uniform pure state: four normalized standard complex Gaussians.

    ``seed`` is anything ``np.random.default_rng`` accepts.  A ``Generator``
    is used as it is, so the amplitudes are its next eight draws.
    """
    rng = np.random.default_rng(seed)
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
    # The rank vectors in one draw, in random_pure's order: each vector's real parts, then its imaginary parts.
    re, im = rng.standard_normal((rank, 2, 4)).transpose(1, 0, 2)
    # random_pure's np.linalg.norm, one vector per row: the real and the imaginary sums of squares, added.
    norms = np.sqrt(np.einsum("ni,ni->n", re, re) + np.einsum("ni,ni->n", im, im))
    vectors = (re + 1j * im) / norms[:, None]
    mat = np.zeros((4, 4), dtype=complex)
    for w, v in zip(weights, vectors):
        mat += w * _projector(v)
    return 0.5 * (mat + mat.conj().T)


def from_registry(spec: str, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Resolve a registry name to a state.

    Accepted forms: ``E1``..``E6``, ``iso:E``, ``iso:S``, ``werner:<p>``,
    and ``pure:<a11>,<a10>,<a01>,<a00>`` with complex-literal components
    such as ``0.5+0.5j``.
    """
    spec = spec.strip()
    if spec in _REFERENCE:
        return DensityMatrix(_REFERENCE[spec], tols=tols)
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
            amps = [complex(part.strip()) for part in parts]
        except ValueError as exc:
            raise RegistryError(f"bad amplitude in {spec!r}: {exc}") from exc
        return pure_density(amps, tols=tols)
    raise RegistryError(f"unknown state specifier {spec!r}")
