"""Independent numerical oracles used across the test suite, and a JSON writer.

Everything here deliberately avoids the package's own computation paths:
numpy's eigensolvers, explicit entrywise loops, characteristic
polynomial root-finding and mpmath's multiprecision eigensolver serve as
the second route for cross-checks.
``matrix_json`` writes the state-file format that ``density_from_json`` reads.
``random_pure`` and ``random_mixed`` are the seeded state fixtures.
``spectra`` is no oracle: it gives the package's own spectra of a stack of
states and of their marginals, the inputs of the conditional entropies.
"""

from __future__ import annotations

import mpmath
import numpy as np

from qdeficit.linalg import TOLS, density_stack, marginal_stack

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
YY = np.kron(SY, SY)


def matrix_json(m) -> list:
    """Row-major nested lists of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force entrywise Kronecker product, A-index major."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


def numpy_spectrum(m: np.ndarray) -> np.ndarray:
    """Reference eigenvalues (descending) via numpy's Hermitian solver."""
    return np.sort(np.linalg.eigvalsh(m))[::-1]


def random_hermitian(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    # The weighted projectors summed in order from a zero start, as a loop of += would sum them.
    projectors = weights[:, None, None] * (vectors[:, :, None] * vectors[:, None, :].conj())
    mat = np.add.reduce(projectors, axis=0, initial=0j)
    return 0.5 * (mat + mat.conj().T)


def spectra(matrices, *, tols=TOLS) -> tuple[np.ndarray, np.ndarray]:
    """``(w, marg_w)``: the descending spectra ``(N, 4)`` of a stack of two-qubit states and
    ``(N, 2, 2)`` of their marginals, ``[state, side A/B]``, validated at ``tols``."""
    m = np.asarray(matrices, dtype=complex)
    return density_stack(m, tols=tols)[0], marginal_stack(m, tols=tols)[1]


def charpoly_lambdas(rho_matrix: np.ndarray) -> np.ndarray:
    """Spin-flip spectrum by brute force: roots of the characteristic
    polynomial of rho * rho_tilde, square-rooted and sorted descending."""
    product = rho_matrix @ (YY @ rho_matrix.conj() @ YY)
    roots = np.roots(np.poly(product))
    vals = np.clip(np.real(roots), 0.0, None)
    return np.sort(np.sqrt(vals))[::-1]


def mpmath_concurrence(rho_matrix: np.ndarray, dps: int = 40) -> float:
    """Concurrence of the matrix, its float entries taken exactly, from the eigenvalues of
    rho * rho_tilde by mpmath's general eigensolver in ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        entries = np.asarray(rho_matrix, dtype=complex)
        rho = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in entries])
        flip = mpmath.matrix(YY.real) * rho.conjugate() * mpmath.matrix(YY.real)
        roots = mpmath.eig(rho * flip, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(r), 0)) for r in roots), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def gamma_route_matrix(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The spin-flip product expressed through composite eigenvectors.

    Entry (g, g') is P(g) sum_g1 <g|YY|g1*> P(g1) <g1*|YY|g'>; its
    spectrum must match the squared spin-flip singular values.
    """
    n = len(values)
    m = np.zeros((n, n), dtype=complex)
    for g in range(n):
        for gp in range(n):
            total = 0.0 + 0.0j
            for g1 in range(n):
                bra_g = vectors[:, g].conj() @ YY @ vectors[:, g1].conj()
                ket_gp = vectors[:, g1].T @ YY @ vectors[:, gp]
                total += values[g] * bra_g * values[g1] * ket_gp
            m[g, gp] = total
    return m
