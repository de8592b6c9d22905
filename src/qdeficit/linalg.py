"""Dense Hermitian linear algebra for two-qubit states.

Everything here works on plain ``numpy`` arrays, float64 for a real
stack and complex otherwise.  The fixed two-qubit basis order is
``|11>, |10>, |01>, |00>`` (index 0..3); single qubits are ordered
``(|1>, |0>)``, so the Pauli matrices below have their familiar matrix
form with ``|1>`` as the +1 eigenvector of ``SIGMA_Z``.

The ``*_stack`` functions work on stacks ``(N, ..., n, n)`` whose leading
index counts states.  ``density_stack`` is the one validating entry for
states and returns ``(m, values, vectors)``; a ``DensityMatrix``, one
validated two-qubit state, is its N = 1 call and keeps the eigen-data it
computed, so every validity check is written once.  Eigen- and singular
values are solved only here, through three validated entries that share
those checks: ``eigh_stack`` where eigenvectors are read (the states and
the matrices derived from them), ``eigvalsh_stack`` where only the
spectrum is (the partial transposes and the marginals, whose eigenframe
comes from the Fano coefficients instead), and ``svdvals_stack`` for the
singular values of Wootters' complex symmetric tau.
One realness rule decides the driver, for a stack as a whole: a float64
stack, or a complex one whose imaginary parts are all exactly zero, is
solved as real by LAPACK's real symmetric driver, and returns real
eigenvectors; any other stack is solved as complex, and a complex tau
by ``svd``.  A single nonzero imaginary part anywhere keeps the whole
stack complex; a NaN counts as nonzero, so it stays complex and fails
the finite check.  So real or complex is decided once: ``density_stack``
returns ``m`` in the dtype it was solved in, and every stack derived
here from a float64 one is float64.  Every state of the paper, E1-E6,
the isospectral pair and the Werner family, is real.
``fano_stack`` gives the Fano coefficients R_mu,nu = Tr m sigma_mu x sigma_nu over the
16 ``PAULI_PRODUCTS`` (sigma_0 = I), and ``pauli_sum`` m = sum R_mu,nu sigma_mu x sigma_nu / 4.
A check that fails on a stack raises for the lowest failing state and
names it.  Each check first reduces the whole stack to one number in one
C-level call: ``np.count_nonzero`` of the ``isfinite`` mask, or a
``np.maximum`` or ``np.minimum`` ``reduce`` of a residual.  It searches
for the failing state only once that number is out of bounds; the finite
check counts each state's bad entries only then.  The checks on states
run in one fixed order over the whole stack: the caller's ``dims`` (a
``DensityMatrix``'s 4x4 shape, ``structure``'s ``(N, 4, 4)``), then
finite, square, hermiticity, trace and psd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckError",
    "Tolerances",
    "TOLS",
    "DensityMatrix",
    "eigh_stack",
    "eigvalsh_stack",
    "svdvals_stack",
    "density_stack",
    "tensor_product",
    "PAULI_PRODUCTS",
    "fano_stack",
    "pauli_sum",
    "require_two_qubits",
    "marginal_stack",
    "transpose_stack",
    "matrix_from_json",
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

    @classmethod
    def raise_first(cls, check: str, bad: np.ndarray, magnitude: np.ndarray, detail=None) -> None:
        """Raise ``check`` for the lowest state flagged in ``bad``, if any.

        ``bad`` and ``magnitude`` have shape ``(N, ...)``, one leading entry
        per state; ``detail(k)`` describes flat entry ``k``.  With N > 1 the
        message names the failing state.
        """
        if not np.count_nonzero(bad):
            return
        k = int(bad.argmax())
        text = detail(k) if detail else ""
        if len(bad) > 1:
            state = k // (bad.size // len(bad))
            text = f"state {state}: {text}" if text else f"state {state}"
        raise cls(check, magnitude.flat[k], text)

    @classmethod
    def above(cls, check: str, magnitude: np.ndarray, bound: float, detail=None) -> None:
        """``raise_first`` where ``magnitude`` is not <= ``bound`` (NaN fails)."""
        if not _extreme(magnitude, np.maximum) <= bound:
            cls.raise_first(check, ~(magnitude <= bound), magnitude, detail)

    @classmethod
    def below(cls, check: str, value: np.ndarray, bound: float, detail=None) -> None:
        """``raise_first`` where ``value`` is not >= ``bound`` (NaN fails)."""
        if not _extreme(value, np.minimum) >= bound:
            cls.raise_first(check, ~(value >= bound), value, detail)


def _extreme(x: np.ndarray, ufunc: np.ufunc) -> float:
    # A single entry is read as a float: one state pays for no reduction.
    return x.item() if x.size == 1 else ufunc.reduce(x, axis=None)


def _bound(default: float, doc: str) -> property:
    return property(lambda self: default * self.scale, doc=f"{doc} (default {default:g}).")


@dataclass(frozen=True)
class Tolerances:
    """The package's one tolerance policy: each bound is its default times ``scale``.

    ``scale`` is the only settable value; the CLI's global ``--tolerance``
    sets it, and it must be finite and positive.  It reaches every check
    and verdict bound in ``linalg``, ``entropy``, ``structure``, the
    randomized audit and the CLI's reference-table comparisons.
    Eigendecompositions come from LAPACK's Hermitian and real symmetric
    solvers and take no tolerance, so scaling never changes a computed
    spectrum.
    """

    scale: float = 1.0

    hermiticity = _bound(1e-10, "Residuals that vanish in exact arithmetic: Hermiticity, trace, normalization")
    psd = _bound(1e-10, "Eigenvalues must be >= -psd")
    support_cutoff = _bound(1e-12, "Eigenvalues and overlap weights at or below this count as zero")
    degeneracy = _bound(1e-10, "Eigenvalue gap below which a qubit marginal counts as degenerate")
    identity = _bound(1e-9, "Two routes to one quantity agree, e.g. rho and rho_d, or D and its bounds")
    concurrence_zero = _bound(1e-8, "Concurrence at or below this counts as separable")
    printed = _bound(1e-4, "Agreement with a decimal printed to four places")
    reshuffle = _bound(1e-12, "Residuals of exact rearrangements: index reshuffles, involutions, idempotent maps")
    rebuilt = _bound(1e-8, "Residuals of a matrix rebuilt from factors, e.g. a product of marginals")
    continuity = _bound(1e-3, "Tsallis entropy at q = 1 ± 1e-4 against von Neumann")

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"tolerance scale must be finite and positive, got {self.scale}")


TOLS = Tolerances()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _hermitian_stack(m, tols: Tolerances, conj: bool = True) -> np.ndarray:
    """``m`` as a real array if it is float64 or complex with every imaginary part exactly zero,
    else as a complex one, once it passes the finite, square and hermiticity checks.  Without ``conj``
    the hermiticity check holds a complex stack to m = m^T, which on a real stack is the same check."""
    m = np.asarray(m)
    if m.dtype != np.float64:
        m = m.astype(complex, copy=False)
        # One test on the whole stack; a NaN counts as nonzero, so it stays complex and fails finite.
        if not np.count_nonzero(m.imag):
            m = m.real
    real = m.dtype == np.float64
    finite = np.isfinite(m)
    if np.count_nonzero(finite) < finite.size:
        counts = np.count_nonzero(~finite.reshape(len(m), -1), axis=1)
        CheckError.raise_first("finite", counts > 0, counts, lambda k: f"{counts[k]} NaN or infinite entries")
    if m.ndim < 3 or m.shape[-1] != m.shape[-2] or not m.size:
        raise CheckError("square", 0.0, f"shape {m.shape[1:]} is not square and nonempty")
    # A float64 stack is its own conjugate.
    herm = np.abs(m - (m.conj() if conj and not real else m).swapaxes(-1, -2))
    if not np.maximum.reduce(herm, axis=None) <= tols.hermiticity:
        CheckError.above("hermiticity", np.maximum.reduce(herm, axis=(-2, -1)), tols.hermiticity)
    return m


def eigh_stack(m, *, tols: Tolerances = TOLS) -> tuple[np.ndarray, np.ndarray]:
    """Validated eigendecomposition of a stack ``(N, ..., n, n)`` of Hermitian matrices.

    Runs the finite, square and hermiticity checks on every matrix and
    returns ``(values, vectors)``: eigenvalues descending, with
    ``vectors[..., :, j]`` belonging to ``values[..., j]``.  Phases are
    LAPACK's: every consumer forms V f(values) V†, |<u|v>|^2 or u† M u,
    none of which changes when a column gets a unit phase.
    """
    values, vectors = np.linalg.eigh(_hermitian_stack(m, tols))
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


def eigvalsh_stack(m, *, tols: Tolerances = TOLS) -> np.ndarray:
    """``eigh_stack``'s checks and its eigenvalues, descending, without eigenvectors.

    LAPACK computes these without the vectors, so they agree with
    ``eigh_stack``'s to round-off, not bit for bit.
    """
    return np.linalg.eigvalsh(_hermitian_stack(m, tols))[..., ::-1].copy()


def svdvals_stack(m, *, tols: Tolerances = TOLS) -> np.ndarray:
    """The singular values, descending, of a stack ``(N, ..., n, n)`` of complex symmetric matrices.

    Runs the finite and square checks, then the hermiticity check held to
    m = m^T.  Under the realness rule a real stack is real symmetric,
    m = O diag(e) O^T with O orthogonal, so its singular values are |e|,
    from one values-only real solve; any other takes one ``svd`` without
    vectors.
    """
    m = _hermitian_stack(m, tols, conj=False)
    if m.dtype == np.float64:
        return np.sort(np.abs(np.linalg.eigvalsh(m)), axis=-1)[..., ::-1]
    return np.linalg.svd(m, compute_uv=False)


def _density_checks(m: np.ndarray, values: np.ndarray, tols: Tolerances) -> None:
    tr = m.trace(axis1=-2, axis2=-1)
    CheckError.above("trace", abs(tr - 1.0), tols.hermiticity, lambda k: f"trace {complex(tr.flat[k]):.12g}")
    CheckError.below("psd", values[..., -1], -tols.psd, lambda k: "negative eigenvalue")


def density_stack(m, *, tols: Tolerances = TOLS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, values, vectors)``: ``eigh_stack`` plus a density matrix's trace and psd checks on a
    stack ``(N, ..., n, n)``, with ``m`` in the dtype it was solved in, its vectors' dtype."""
    values, vectors = eigh_stack(m, tols=tols)
    if not (isinstance(m, np.ndarray) and m.dtype == vectors.dtype):
        m = (np.real(m) if vectors.dtype == np.float64 else np.asarray(m)).astype(vectors.dtype)
    _density_checks(m, values, tols)
    return m, values, vectors


class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one 4x4 matrix of two qubits.

    Any other shape fails the ``dims`` check, ahead of every other check.
    The read-only ``matrix``, ``eigenvalues`` (descending) and
    ``eigenvectors`` (columns) are ``density_stack``'s row 0, so a real
    state, one with no nonzero imaginary part, is float64 throughout.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "_tols")

    def __init__(self, matrix, *, tols: Tolerances = TOLS):
        arr = np.array(matrix)
        if arr.shape != (4, 4):
            raise CheckError("dims", 0.0, f"a 4x4 two-qubit matrix required, got shape {arr.shape}")
        m, values, vectors = density_stack(arr[None], tols=tols)
        self.matrix = _freeze(m[0])
        self.eigenvalues = _freeze(values[0])
        self.eigenvectors = _freeze(vectors[0])
        self._tols = tols

    def marginal(self, keep: str) -> np.ndarray:
        """The validated 2x2 reduced matrix of qubit ``keep`` ('A' or 'B'): ``marginal_stack``'s row,
        at the state's own tolerances.

        No package code reads it; it stays only because the benchmark's tracer,
        ``bench/spans.py``, wraps it by name, and it goes with ROADMAP item 1."""
        if keep not in ("A", "B"):
            raise ValueError(f"subsystem must be 'A' or 'B', got {keep!r}")
        return marginal_stack(self.matrix[None], tols=self._tols)[0][0, "AB".index(keep)]


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with A-index major: entry ((i,k),(j,l)) = a[i,j] b[k,l].

    Leading axes of stacks ``(..., r, c)`` broadcast, one product per state.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


_PAULIS = np.array((I2, SIGMA_X, SIGMA_Y, SIGMA_Z))
# sigma_mu x sigma_nu indexed [mu, nu], sigma_0 = I.
PAULI_PRODUCTS = _freeze(tensor_product(_PAULIS[:, None], _PAULIS[None, :]))
# Tr m P = sum_ij Re m_ij Re P_ij + Im m_ij Im P_ij for Hermitian m and P: rows (ij, re/im), columns mu nu.
_FANO = PAULI_PRODUCTS.reshape(16, 16).view(float).T.copy()


def require_two_qubits(m) -> None:
    """Fail ``dims`` unless ``m`` is a two-qubit matrix or a stack of them, ``(..., 4, 4)``; any array-like."""
    if np.shape(m)[-2:] != (4, 4):
        raise CheckError("dims", 0.0, f"two-qubit matrices (..., 4, 4) required, got shape {np.shape(m)}")


def fano_stack(m: np.ndarray) -> np.ndarray:
    """Fano coefficients R[mu, nu] = Tr m sigma_mu x sigma_nu of each Hermitian two-qubit matrix of a
    stack ``(..., 4, 4)``: one real product, which skips the vanishing Im R.  A complex stack takes
    ``(..., 32) @ (32, 16)``; a float64 one, whose Im m is zero, the real rows alone, ``(..., 16) @ (16, 16)``."""
    require_two_qubits(m)
    if m.dtype == np.float64:
        return (m.reshape(m.shape[:-2] + (16,)) @ _FANO[::2]).reshape(m.shape)
    m = np.ascontiguousarray(m, dtype=complex)
    return (m.view(float).reshape(m.shape[:-2] + (32,)) @ _FANO).reshape(m.shape)


def pauli_sum(c: np.ndarray, like: np.ndarray) -> np.ndarray:
    """sum c[mu, nu] sigma_mu x sigma_nu of each real coefficient matrix of a stack ``(..., 4, 4)``, ``fano_stack``'s
    inverse up to its factor 4: float64, from the real rows, where ``like`` is float64, else complex."""
    shape, c = c.shape, c.reshape(c.shape[:-2] + (16,))
    if like.dtype == np.float64:
        return (c @ _FANO[::2].T).reshape(shape)
    return (c @ _FANO.T).view(complex).reshape(shape)


def _split(m: np.ndarray) -> np.ndarray:
    """View each two-qubit matrix of ``(..., 4, 4)`` with indices (a, b, a', b')."""
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2))


def _partial_trace(m: np.ndarray, keep: str, out: np.ndarray) -> np.ndarray:
    """Reduced matrix of qubit ``keep`` for each two-qubit matrix of ``(..., 4, 4)``, written to ``out``.

    The two diagonal blocks are added in one call, the sum ``ndarray.trace`` forms.
    """
    x = _split(m)
    if keep == "A":
        return np.add(x[..., 0, :, 0], x[..., 1, :, 1], out=out)
    return np.add(x[..., 0, :, 0, :], x[..., 1, :, 1, :], out=out)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def marginal_stack(m: np.ndarray, *, tols: Tolerances = TOLS):
    """Both qubit marginals of each two-qubit matrix of a stack ``(N, 4, 4)``.

    Returns ``(matrices, values)`` indexed ``[state, side A/B, ...]``:
    both partial traces are written into one ``(N, 2, 2, 2)`` buffer in
    ``m``'s dtype, and the 2N marginals are symmetrized, then validated as
    density matrices and solved values-only in one call each.
    """
    require_two_qubits(m)
    mats = np.empty(m.shape[:-2] + (2, 2, 2), dtype=m.dtype)
    _partial_trace(m, "A", mats[..., 0, :, :])
    _partial_trace(m, "B", mats[..., 1, :, :])
    mats = _hermitian_part(mats)
    values = eigvalsh_stack(mats, tols=tols)
    _density_checks(mats, values, tols)
    return mats, values


def transpose_stack(m: np.ndarray) -> np.ndarray:
    """Transpose the indices of qubit B in each two-qubit matrix of ``(..., 4, 4)``.

    The partial transpose of a state is Hermitian with trace one, but not
    PSD when the state is entangled.
    """
    require_two_qubits(m)
    return _split(m).swapaxes(-3, -1).reshape(m.shape)


def _json_entry(pair) -> complex:
    # type(), not isinstance(): a JSON true/false is a bool, which is an int subclass.
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)):
        raise ValueError(f"matrix entry {pair!r} is not an [re, im] pair of numbers")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError("matrix entry has an integer beyond the float range") from None


def matrix_from_json(payload) -> np.ndarray:
    """A state file's payload, {"dims": [2, 2], "matrix": ...} or a bare matrix, as an unvalidated complex
    array: the entries are parsed first, then an optional ``dims`` must be a pair of integers equal to [2, 2]."""
    dims = None
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise ValueError("state object must contain a 'matrix' field")
        payload, dims = payload["matrix"], payload.get("dims")
    try:
        rows = [[_json_entry(entry) for entry in row] for row in payload]
    except TypeError as exc:
        raise ValueError("matrix payload must be nested arrays of [re, im] pairs") from exc
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix payload has rows of unequal length")
    arr = np.array(rows, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("matrix payload must be two-dimensional")
    if dims is not None:
        if not (isinstance(dims, (list, tuple)) and len(dims) == 2 and all(type(d) is int for d in dims)):
            raise ValueError(f"'dims' must be a list of two integers, got {dims!r}")
        if list(dims) != [2, 2]:
            raise CheckError("dims", 0.0, f"dims {list(dims)} inconsistent with a matrix of dims (2, 2)")
    return arr
