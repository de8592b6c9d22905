"""Dense complex Hermitian linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` complex arrays.  The fixed
two-qubit basis order is ``|11>, |10>, |01>, |00>`` (index 0..3); single
qubits are ordered ``(|1>, |0>)``, so the Pauli matrices below have their
familiar matrix form with ``|1>`` as the +1 eigenvector of ``SIGMA_Z``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CheckError",
    "Tolerances",
    "TOLS",
    "EigenSystem",
    "DensityMatrix",
    "hermitian_eig",
    "tensor_product",
    "partial_trace",
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
    "BASIS_LABELS",
]

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
BASIS_LABELS = ("11", "10", "01", "00")

# Eigenvector phase convention: entries at or below this magnitude are
# treated as zero when locating the first nonzero component.
_PHASE_CUTOFF = 1e-12


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


@dataclass(frozen=True)
class Tolerances:
    """Central record of the numerical tolerances used across the package.

    ``scaled`` returns a uniformly scaled copy; the CLI exposes this via
    the global ``--tolerance`` flag.  Eigendecompositions come from
    LAPACK's Hermitian solver and take no tolerance, so scaling never
    changes a computed spectrum.
    """

    hermiticity: float = 1e-10
    psd: float = 1e-10  # eigenvalues must be >= -psd
    reconstruction: float = 1e-9
    support_cutoff: float = 1e-12
    degeneracy: float = 1e-10  # eigenvalue gap below which eigenspaces merge
    commutator: float = 1e-9
    concurrence_zero: float = 1e-8

    def scaled(self, factor: float) -> "Tolerances":
        if factor <= 0:
            raise ValueError("tolerance scale factor must be positive")
        return replace(
            self,
            hermiticity=self.hermiticity * factor,
            psd=self.psd * factor,
            reconstruction=self.reconstruction * factor,
            support_cutoff=self.support_cutoff * factor,
            degeneracy=self.degeneracy * factor,
            commutator=self.commutator * factor,
            concurrence_zero=self.concurrence_zero * factor,
        )


TOLS = Tolerances()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (sorted descending) and matching orthonormal eigenvectors.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.  Vector
    phases follow the convention that the first nonzero component of each
    column is real and positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _freeze(self.values)
        _freeze(self.vectors)

    def reconstruct(self) -> np.ndarray:
        """Return ``V diag(values) V``:sup:`†`."""
        return (self.vectors * self.values) @ self.vectors.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    first = np.argmax(np.abs(vectors) > _PHASE_CUTOFF, axis=0)
    pivots = vectors[first, np.arange(vectors.shape[1])]
    return vectors * (pivots.conj() / np.abs(pivots))


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
    return EigenSystem(values[::-1].copy(), _fix_phases(vectors[:, ::-1]))


class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix on ``dA x dB``.

    ``dims = (dA, dB)`` with ``dB = 1`` allowed for single-subsystem
    states.  Validation happens at construction; the eigendecomposition
    computed for the PSD check is cached, as are the marginals.
    """

    __slots__ = ("matrix", "dims", "_eig", "_marginals")

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

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

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
            out = DensityMatrix(0.5 * (reduced + reduced.conj().T), (da, 1))
        else:
            reduced = np.einsum("kikj->ij", r)
            out = DensityMatrix(0.5 * (reduced + reduced.conj().T), (db, 1))
        self._marginals[keep] = out
        return out

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims}, spectrum={np.round(self.eigenvalues, 6)})"


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with A-index major: entry ((i,k),(j,l)) = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one subsystem of a composite state, keeping ``keep``."""
    return rho.marginal(keep)


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
    """Apply ``sqrt`` or ``log`` to a Hermitian PSD matrix spectrally.

    For ``log`` the function acts on the support only (eigenvalues above
    the support cutoff); null directions are projected out, realizing the
    0*log(0) = 0 convention.
    """
    if func not in ("sqrt", "log"):
        raise ValueError(f"unsupported matrix function {func!r}")
    eig = hermitian_eig(m, tols=tols)
    vals = eig.values
    if vals[-1] < -tols.psd:
        raise CheckError("psd", vals[-1], "negative eigenvalue")
    if func == "sqrt":
        fvals = np.sqrt(np.clip(vals, 0.0, None))
    else:
        support = vals > tols.support_cutoff
        fvals = np.zeros_like(vals)
        fvals[support] = np.log(vals[support])
    out = (eig.vectors * fvals) @ eig.vectors.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(payload) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in payload]
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
        dims = (int(dims[0]), int(dims[1])) if dims is not None else None
    else:
        matrix = matrix_from_json(payload)
        dims = None
    return DensityMatrix(matrix, dims, tols=tols)
