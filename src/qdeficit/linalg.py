"""Dense complex Hermitian linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` complex arrays.  The fixed
two-qubit basis order is ``|11>, |10>, |01>, |00>`` (index 0..3); single
qubits are ordered ``(|1>, |0>)``, so the Pauli matrices below have their
familiar matrix form with ``|1>`` as the +1 eigenvector of ``SIGMA_Z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckError",
    "Tolerances",
    "TOLS",
    "EigenSystem",
    "DensityMatrix",
    "hermitian_eig",
    "tensor_product",
    "partial_transpose",
    "psd_function",
    "matrix_to_json",
    "matrix_from_json",
    "density_to_json",
    "density_from_json",
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
]

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class CheckError(ValueError):
    """A numerical validity check failed.

    Carries the name of the violated check and the offending magnitude so
    callers (and the CLI) can report structured diagnostics.
    """

    def __init__(self, check: str, magnitude: float, detail: str = ""):
        self.check = check
        self.magnitude = float(magnitude)
        msg = f"{check} check failed (magnitude {self.magnitude:.6g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def _bound(default: float, doc: str) -> property:
    return property(lambda self: default * self.scale, doc=f"{doc} (default {default:g}).")


@dataclass(frozen=True)
class Tolerances:
    """The package's one tolerance policy: each bound is its default times ``scale``.

    ``scale`` is the only settable value; the CLI's global ``--tolerance``
    sets it, and it must be finite and positive.  It reaches every check
    and verdict bound in ``linalg``, ``entropy``, ``concurrence``,
    ``structure`` and the CLI's reference-table comparisons; the audit's
    literal per-property bounds do not scale yet.  Eigendecompositions
    come from LAPACK's Hermitian solver and take no tolerance, so scaling
    never changes a computed spectrum.
    """

    scale: float = 1.0

    hermiticity = _bound(1e-10, "Residuals that vanish in exact arithmetic: Hermiticity, trace, normalization")
    psd = _bound(1e-10, "Eigenvalues must be >= -psd")
    support_cutoff = _bound(1e-12, "Eigenvalues and overlap weights at or below this count as zero")
    degeneracy = _bound(1e-10, "Eigenvalue gap below which a qubit marginal counts as degenerate")
    identity = _bound(1e-9, "Two routes to one quantity agree, e.g. rho and rho_d, or D and its bounds")
    concurrence_zero = _bound(1e-8, "Concurrence at or below this counts as separable")
    printed = _bound(1e-4, "Agreement with a decimal printed to four places")

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"tolerance scale must be finite and positive, got {self.scale}")

    def scaled(self, factor: float) -> "Tolerances":
        return Tolerances(self.scale * factor)


TOLS = Tolerances()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (sorted descending) and matching orthonormal eigenvectors.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.  Phases
    are LAPACK's: every consumer forms V f(values) V†, |<u|v>|^2 or
    u† M u, none of which changes when a column gets a unit phase.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _freeze(self.values)
        _freeze(self.vectors)

    def reconstruct(self) -> np.ndarray:
        """Return ``V diag(values) V``:sup:`†`."""
        return (self.vectors * self.values) @ self.vectors.conj().T


def _require_finite(arr: np.ndarray) -> None:
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    if bad:
        raise CheckError("finite", bad, f"{bad} NaN or infinite entries")


def hermitian_eig(m: np.ndarray, *, tols: Tolerances = TOLS) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise CheckError("square", 0.0, f"shape {m.shape} is not square and nonempty")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > tols.hermiticity:
        raise CheckError("hermiticity", herm)
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values[::-1].copy(), vectors[:, ::-1].copy())


class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix on ``dA x dB``.

    ``dims = (dA, dB)`` with ``dB = 1`` allowed for single-subsystem
    states.  Validation happens at construction; the eigendecomposition
    computed for the PSD check is cached, as are the marginals.
    """

    __slots__ = ("matrix", "dims", "_eig", "_marginals", "_tols")

    def __init__(
        self,
        matrix,
        dims: tuple[int, int] | None = None,
        *,
        tols: Tolerances = TOLS,
    ):
        arr = np.array(matrix, dtype=complex)
        # The finite, square and hermiticity checks run first, inside hermitian_eig.
        eig = hermitian_eig(arr, tols=tols)
        n = arr.shape[0]
        if dims is None:
            dims = (2, 2) if n == 4 else (n, 1)
        da, db = int(dims[0]), int(dims[1])
        if da < 1 or db < 1 or da * db != n:
            raise CheckError("dims", 0.0, f"dims {dims} inconsistent with side {n}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > tols.hermiticity:
            raise CheckError("trace", abs(tr - 1.0), f"trace {tr:.12g}")
        if eig.values[-1] < -tols.psd:
            raise CheckError("psd", eig.values[-1], "negative eigenvalue")
        self.matrix = _freeze(arr)
        self.dims = (da, db)
        self._eig = eig
        self._marginals: dict[str, "DensityMatrix"] = {}
        self._tols = tols

    @property
    def is_composite(self) -> bool:
        return self.dims[0] > 1 and self.dims[1] > 1

    def eigensystem(self) -> EigenSystem:
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eig.values

    def marginal(self, keep: str) -> "DensityMatrix":
        """Reduced state of subsystem ``keep`` ('A' or 'B')."""
        if keep not in ("A", "B"):
            raise ValueError(f"subsystem must be 'A' or 'B', got {keep!r}")
        if not self.is_composite:
            raise CheckError("composite", 0.0, "partial trace needs composite dims")
        cached = self._marginals.get(keep)
        if cached is not None:
            return cached
        da, db = self.dims
        r = self.matrix.reshape(da, db, da, db)
        if keep == "A":
            reduced = np.einsum("ikjk->ij", r)
            out = DensityMatrix(0.5 * (reduced + reduced.conj().T), (da, 1), tols=self._tols)
        else:
            reduced = np.einsum("kikj->ij", r)
            out = DensityMatrix(0.5 * (reduced + reduced.conj().T), (db, 1), tols=self._tols)
        self._marginals[keep] = out
        return out

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims}, spectrum={np.round(self.eigenvalues, 6)})"


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with A-index major: entry ((i,k),(j,l)) = a[i,j] b[k,l]."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def partial_transpose(rho: DensityMatrix, side: str) -> np.ndarray:
    """Transpose the indices of one subsystem only.  Hermitian, trace one."""
    if side not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {side!r}")
    if not rho.is_composite:
        raise CheckError("composite", 0.0, "partial transpose needs composite dims")
    da, db = rho.dims
    r = rho.matrix.reshape(da, db, da, db)
    if side == "B":
        out = np.einsum("iljk->ikjl", r)
    else:
        out = np.einsum("jkil->ikjl", r)
    return out.reshape(da * db, da * db)


def psd_function(m: np.ndarray, func: str, *, tols: Tolerances = TOLS) -> np.ndarray:
    """Apply ``sqrt`` to a Hermitian PSD matrix spectrally."""
    if func != "sqrt":
        raise ValueError(f"unsupported matrix function {func!r}")
    eig = hermitian_eig(m, tols=tols)
    vals = eig.values
    if vals[-1] < -tols.psd:
        raise CheckError("psd", vals[-1], "negative eigenvalue")
    out = (eig.vectors * np.sqrt(np.clip(vals, 0.0, None))) @ eig.vectors.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _json_entry(pair) -> complex:
    if len(pair) != 2:
        raise ValueError(f"matrix entry {pair!r} is not an [re, im] pair")
    return complex(pair[0], pair[1])


def matrix_from_json(payload) -> np.ndarray:
    try:
        rows = [[_json_entry(entry) for entry in row] for row in payload]
    except (TypeError, IndexError) as exc:
        raise ValueError("matrix payload must be nested arrays of [re, im] pairs") from exc
    arr = np.array(rows, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("matrix payload must be two-dimensional")
    return arr


def density_to_json(rho: DensityMatrix) -> dict:
    return {"dims": [rho.dims[0], rho.dims[1]], "matrix": matrix_to_json(rho.matrix)}


def density_from_json(payload, *, tols: Tolerances = TOLS) -> DensityMatrix:
    """Parse either {"dims": [dA, dB], "matrix": ...} or a bare matrix."""
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise ValueError("state object must contain a 'matrix' field")
        matrix = matrix_from_json(payload["matrix"])
        dims = payload.get("dims")
        if dims is not None:
            if not (isinstance(dims, (list, tuple)) and len(dims) == 2 and all(type(d) is int for d in dims)):
                raise ValueError(f"'dims' must be a list of two integers, got {dims!r}")
            dims = tuple(dims)
    else:
        matrix = matrix_from_json(payload)
        dims = None
    return DensityMatrix(matrix, dims, tols=tols)
