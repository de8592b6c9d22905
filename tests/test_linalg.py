import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeficit.concurrence import concurrence, spin_flip_stack
from qdeficit.entropy import conditional_tsallis
from qdeficit.linalg import (
    CheckError,
    DensityMatrix,
    PAULI_PRODUCTS,
    TOLS,
    Tolerances,
    density_stack,
    eigh_stack,
    eigvalsh_stack,
    fano_stack,
    marginal_stack,
    matrix_from_json,
    svdvals_stack,
    tensor_product,
    transpose_stack,
)
from qdeficit.states import bloch_vectors, correlation_tensor, from_registry, werner_matrices
from qdeficit.structure import classify

from helpers import (
    kron_oracle,
    matrix_json,
    numpy_spectrum,
    random_hermitian,
    random_mixed,
    random_pure,
    spectra,
    werner,
)


# Every bound Tolerances derives from its scale, with its default.
BOUNDS = {
    "hermiticity": 1e-10,
    "psd": 1e-10,
    "support_cutoff": 1e-12,
    "degeneracy": 1e-10,
    "identity": 1e-9,
    "concurrence_zero": 1e-8,
    "printed": 1e-4,
    "reshuffle": 1e-12,
    "rebuilt": 1e-8,
    "continuity": 1e-3,
}

NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.nan, np.nan), complex(0.0, np.inf)]


def _eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_stack`` on a stack of one matrix: row 0 of ``(values, vectors)``."""
    values, vectors = eigh_stack(np.asarray(m)[None])
    return values[0], vectors[0]


def _rejected(m) -> CheckError:
    """The error both validated entries raise on the stack ``m``: they must name the same check
    and magnitude, since ``eigvalsh_stack`` runs ``eigh_stack``'s checks."""
    errors = []
    for solve in (eigh_stack, eigvalsh_stack):
        with pytest.raises(CheckError) as err:
            solve(m)
        errors.append(err.value)
    eigh_error, eigvalsh_error = errors
    assert (eigvalsh_error.check, eigvalsh_error.magnitude) == (eigh_error.check, eigh_error.magnitude)
    assert str(eigvalsh_error) == str(eigh_error)
    return eigh_error


def _random_stack(rng, n: int, dim: int = 4) -> np.ndarray:
    return np.array([random_hermitian(rng, dim) for _ in range(n)])


def _rebuild(values, vectors) -> np.ndarray:
    """V diag(values) V^dagger."""
    return (vectors * values) @ vectors.conj().T


class TestHermitianEig:
    """The Hermitian eigendecomposition of one matrix, as ``eigh_stack``'s row 0."""

    def test_identity(self):
        values, vectors = _eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])
        assert np.max(np.abs(_rebuild(values, vectors) - np.eye(2))) < 1e-15

    def test_already_diagonal(self):
        values, vectors = _eig(np.diag([1 / 6, 5 / 6]).astype(complex))
        assert np.allclose(values, [5 / 6, 1 / 6], atol=0)
        # descending order swaps the basis columns
        assert np.allclose(vectors, np.array([[0, 1], [1, 0]]))

    def test_werner_half_spectrum(self):
        values, _ = _eig(werner(0.5).matrix)
        assert np.allclose(values, [0.625, 0.125, 0.125, 0.125], atol=1e-14)

    def test_matches_numpy_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng)
            values, _ = _eig(h)
            assert np.max(np.abs(values - numpy_spectrum(h))) < 1e-12

    def test_deterministic(self):
        h = random_hermitian(np.random.default_rng(3))
        (a_values, a_vectors), (b_values, b_vectors) = _eig(h), _eig(h)
        assert np.array_equal(a_values, b_values)
        assert np.array_equal(a_vectors, b_vectors)

    def test_rejects_non_square(self):
        for shape in ((2, 3), (0, 0)):
            assert _rejected(np.ones(shape)[None]).check == "square"

    def test_rejects_non_hermitian(self):
        err = _rejected(np.array([[0.0, 1.0], [0.0, 0.0]])[None])
        assert err.check == "hermiticity"
        assert err.magnitude == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite(self, bad):
        err = _rejected(np.diag([bad, 0.0])[None])
        assert err.check == "finite"
        assert err.magnitude == 1

    @pytest.mark.parametrize("check", ["finite", "hermiticity"])
    def test_both_entries_name_the_lowest_failing_state(self, check):
        stack = _random_stack(np.random.default_rng(5), 6)
        for k in (4, 2):
            stack[k, 0, 1] = np.nan if check == "finite" else stack[k, 0, 1] + 1.0
        err = _rejected(stack)
        assert err.check == check
        assert "state 2" in str(err)

    def test_finite_runs_before_hermiticity_on_every_state(self):
        """State 0 is not Hermitian and state 1 holds a NaN: the finite check covers the whole
        stack before hermiticity is read, so state 1 fails ``finite``."""
        stack = _random_stack(np.random.default_rng(13), 3)
        stack[0, 0, 1] += 1.0
        stack[1, 2, 3] = np.nan
        err = _rejected(stack)
        assert err.check == "finite"
        assert str(err).endswith("state 1: 1 NaN or infinite entries")

    def test_finite_runs_before_square(self):
        stack = np.zeros((2, 4, 3))
        stack[1, 0, 0] = np.inf
        err = _rejected(stack)
        assert err.check == "finite"
        assert "state 1" in str(err)

    def test_real_hermiticity_magnitude_is_the_largest_asymmetry(self):
        """A float64 stack skips the conjugate; the magnitude is still max |m - m^T| over the
        failing state."""
        x = np.random.default_rng(17).standard_normal((4, 8, 8))
        stack = x + x.swapaxes(-1, -2)
        stack[2, 5, 1] += 3e-7
        stack[2, 0, 6] -= 2e-7
        err = _rejected(stack)
        assert err.check == "hermiticity"
        assert "state 2" in str(err)
        assert err.magnitude == np.max(np.abs(stack[2] - stack[2].T))

    def test_a_stack_of_pairs_names_the_state(self):
        """A check on ``(N, 2, n, n)`` names state k // 2 of flat entry k, as the audit's grouped
        stacks, such as its three spin-flip tau per state, need."""
        stack = _random_stack(np.random.default_rng(9), 10).reshape(5, 2, 4, 4)
        stack[3, 1, 2, 0] += 1.0
        err = _rejected(stack)
        assert err.check == "hermiticity"
        assert "state 3" in str(err)

    @pytest.mark.parametrize(("n", "dim"), [(1, 4), (50, 4), (50, 2)])
    def test_eigvalsh_stack_matches_eigh_stack(self, n, dim):
        stack = _random_stack(np.random.default_rng(n + dim), n, dim)
        values = eigvalsh_stack(stack)
        assert values.shape == (n, dim)
        assert np.all(np.diff(values, axis=-1) <= 0)
        assert np.max(np.abs(values - eigh_stack(stack)[0])) <= 1e-14

    def test_a_real_stack_stays_real(self):
        """A float64 stack goes to LAPACK's real driver: real vectors, and the spectrum of the same
        matrices solved as complex."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 8, 8))
        stack = x + x.swapaxes(-1, -2)
        values, vectors = eigh_stack(stack)
        assert vectors.dtype == np.float64
        assert np.max(np.abs(values - eigh_stack(stack.astype(complex))[0])) <= 1e-13
        assert np.max(np.abs(eigvalsh_stack(stack) - values)) <= 1e-13

    def test_a_complex_stack_with_zero_imaginary_parts_is_solved_as_real(self):
        """Its float64 twin's LAPACK call: the same bits, and real vectors."""
        x = np.random.default_rng(12).standard_normal((20, 4, 4))
        real = x + x.swapaxes(-1, -2)
        twin = real.astype(complex)
        for got, want in zip(eigh_stack(twin), eigh_stack(real)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
        assert np.array_equal(eigvalsh_stack(twin), eigvalsh_stack(real))

    def test_a_nan_imaginary_part_fails_finite(self):
        """A NaN counts as a nonzero imaginary part, so the stack stays complex and fails ``finite``."""
        stack = np.tile(np.eye(4, dtype=complex) / 4, (5, 1, 1))
        stack[3, 1, 2] = complex(0.0, np.nan)
        err = _rejected(stack)
        assert err.check == "finite"
        assert str(err).endswith("state 3: 1 NaN or infinite entries")

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_reconstruction_and_trace_property(self, seed):
        h = random_hermitian(np.random.default_rng(seed))
        values, vectors = _eig(h)
        assert np.max(np.abs(_rebuild(values, vectors) - h)) <= 1e-9
        assert abs(np.sum(values) - np.trace(h).real) <= 1e-9
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) <= 1e-9


class TestSvdvalsStack:
    """Singular values of complex symmetric stacks, such as Wootters' tau, under the realness rule."""

    @staticmethod
    def _real_symmetric(seed: int) -> np.ndarray:
        x = np.random.default_rng(seed).standard_normal((30, 4, 4))
        return x + x.swapaxes(-1, -2)

    def test_a_complex_stack_with_zero_imaginary_parts_takes_the_real_route(self, monkeypatch):
        """As for states: its real part's solve, bit for bit, and no ``svd``."""
        real = self._real_symmetric(43)
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("svd called"))
        assert np.array_equal(svdvals_stack(real.astype(complex)), svdvals_stack(real))

    def test_a_hermitian_stack_that_is_not_symmetric_fails_hermiticity(self):
        """The check holds m to m^T, not to m†, and names the lowest failing state."""
        stack = self._real_symmetric(44)[:5].astype(complex)
        stack[3] = random_hermitian(np.random.default_rng(45))
        with pytest.raises(CheckError) as err:
            svdvals_stack(stack)
        assert err.value.check == "hermiticity"
        assert "state 3" in str(err.value)
        assert err.value.magnitude == np.max(np.abs(stack[3] - stack[3].T))


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_placement(self):
        up = np.diag([1.0, 0.0])  # |1><1|
        down = np.diag([0.0, 1.0])  # |0><0|
        out = tensor_product(up, down)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |10> in the fixed order |11>,|10>,|01>,|00>
        assert np.array_equal(out, expected)

    def test_matches_entrywise_oracle(self):
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        a = (np.eye(2) + sz) / 2
        b = (np.eye(2) - sz) / 2
        assert np.array_equal(tensor_product(a, b), kron_oracle(a, b))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.max(np.abs(tensor_product(x, y) - kron_oracle(x, y))) < 1e-15
        assert np.array_equal(tensor_product(x, y), np.kron(x, y))


class TestPartialTrace:
    def test_singlet_marginal_maximally_mixed(self):
        marg = marginal_stack(from_registry("E4")[None])[0][0]
        assert np.max(np.abs(marg - np.eye(2) / 2)) < 1e-15

    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        sigma_b = np.array([[0.4, -0.1j], [0.1j, 0.6]])
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        marg_a, marg_b = marginal_stack(composite.matrix[None])[0][0]
        assert np.max(np.abs(marg_a - rho_a)) < 1e-15
        assert np.max(np.abs(marg_b - sigma_b)) < 1e-15

    def test_example_marginals(self):
        marg_a, marg_b = marginal_stack(from_registry("E1")[None])[0][0]
        assert np.max(np.abs(marg_a - np.diag([4 / 6, 2 / 6]))) < 1e-15
        assert np.max(np.abs(marg_b - np.diag([1 / 6, 5 / 6]))) < 1e-15

    def test_trace_preserved(self):
        traces = np.trace(marginal_stack(werner(0.37).matrix[None])[0][0], axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) < 1e-14

    def test_marginal_spectra_are_values_only_and_validated(self):
        """The spectra are ``eigvalsh_stack``'s of the returned matrices, bit for bit, and a marginal
        with a negative eigenvalue fails the psd check."""
        mats, values = marginal_stack(np.stack([from_registry(name) for name in ("E1", "E2", "E3")]))
        assert np.array_equal(values, eigvalsh_stack(mats))
        with pytest.raises(CheckError) as err:
            marginal_stack(np.diag([1.5, 0.0, -0.5, 0.0]).astype(complex)[None])
        assert err.value.check == "psd"

    @pytest.mark.parametrize("n", [1, 40])
    def test_marginals_are_bit_identical_to_the_einsum_partial_traces(self, n):
        """On states Hermitian only to within 1e-12, as a validated input may be, so that the
        symmetrization shows."""
        rng = np.random.default_rng(n)
        g = _random_stack(rng, n)
        stack = g @ g.conj().swapaxes(-1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
        stack += 1e-12 * rng.standard_normal(stack.shape)
        mats = marginal_stack(stack)[0]
        for k, pattern in enumerate(("nikjk->nij", "nkikj->nij")):
            reduced = np.einsum(pattern, stack.reshape(n, 2, 2, 2, 2))
            want = 0.5 * (reduced + reduced.conj().swapaxes(-1, -2))
            assert np.array_equal(mats[:, k], want)

    def test_the_one_state_marginal_is_the_stack_row_at_the_state_tolerances(self):
        """``DensityMatrix.marginal`` is kept only for the benchmark's tracer: ``marginal_stack``'s
        row, bit for bit, validated at the state's own tolerances."""
        loose = Tolerances(10.0)
        rng = np.random.default_rng(11)
        noisy = random_mixed(11, 4) + 1e-12 * rng.standard_normal((4, 4))  # Hermitian to within 1e-12
        noisy[0, 0] += 5e-10  # each marginal's trace is off by 5e-10, beyond the default bound
        rho = DensityMatrix(noisy, tols=loose)
        with pytest.raises(CheckError) as err:
            marginal_stack(rho.matrix[None])
        assert err.value.check == "trace"
        mats = marginal_stack(rho.matrix[None], tols=loose)[0][0]
        for k, side in enumerate("AB"):
            assert np.array_equal(rho.marginal(side), mats[k])
        with pytest.raises(ValueError, match="subsystem must be 'A' or 'B', got 'C'"):
            rho.marginal("C")

    @pytest.mark.parametrize("side", [2, 3])
    @pytest.mark.parametrize(
        "kernel",
        [
            marginal_stack,
            spin_flip_stack,
            lambda m: concurrence(np.ones(m.shape[:-1]), m),
            transpose_stack,
            fano_stack,
        ],
        ids=["marginal_stack", "spin_flip_stack", "concurrence", "transpose_stack", "fano_stack"],
    )
    def test_two_qubit_kernels_name_the_shape_they_reject(self, kernel, side):
        """Every kernel that reads two-qubit indices fails ``dims`` on other matrices, naming the shape."""
        stack = (np.eye(side) / side)[None].astype(complex)
        with pytest.raises(CheckError) as err:
            kernel(stack)
        assert err.value.check == "dims"
        assert str(err.value).endswith(f"two-qubit matrices (..., 4, 4) required, got shape (1, {side}, {side})")


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rho_a = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
        sigma_b = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        assert numpy_spectrum(transpose_stack(composite.matrix))[-1] > -1e-12

    def test_werner_crossing_at_one_third(self):
        eps = 1e-9
        below = numpy_spectrum(transpose_stack(werner(1 / 3 - eps).matrix))[-1]
        above = numpy_spectrum(transpose_stack(werner(1 / 3 + eps).matrix))[-1]
        assert below > 0 > above

    def test_singlet_minimum_eigenvalue(self):
        vals = numpy_spectrum(transpose_stack(from_registry("E4")))
        assert vals[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_involution_and_trace(self):
        rho = werner(0.9)
        pt = transpose_stack(rho.matrix)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        back = np.einsum("iljk->ikjl", pt.reshape(2, 2, 2, 2)).reshape(4, 4)
        assert np.max(np.abs(back - rho.matrix)) < 1e-15

    @pytest.mark.parametrize("n", [1, 40])
    def test_bit_identical_to_the_einsum_reshuffles(self, n):
        stack = _random_stack(np.random.default_rng(n), n)
        want = np.einsum("niljk->nikjl", stack.reshape(n, 2, 2, 2, 2)).reshape(n, 4, 4)
        assert np.array_equal(transpose_stack(stack), want)


class TestFanoStack:
    """R[mu, nu] = Tr m sigma_mu x sigma_nu against closed forms, the trace and the Pauli expansion."""

    def test_pure_states_match_the_bloch_and_correlation_closed_forms(self):
        amps = np.array([random_pure(seed) for seed in range(200)])
        want = np.ones((len(amps), 4, 4))
        vecs = bloch_vectors(amps)
        want[:, 1:, 0], want[:, 0, 1:] = vecs[:, 0], vecs[:, 1]
        want[:, 1:, 1:] = correlation_tensor(amps)
        got = fano_stack(np.einsum("...i,...j->...ij", amps, amps.conj()))
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_r00_is_the_trace(self):
        stack = np.array([random_mixed(seed, 1 + seed % 4) for seed in range(50)]) * np.arange(1, 51)[:, None, None]
        assert np.max(np.abs(fano_stack(stack)[:, 0, 0] - stack.trace(axis1=-2, axis2=-1).real)) <= 1e-13

    def test_pauli_expansion_rebuilds_the_stack(self):
        stack = np.array([random_mixed(seed, 1 + seed % 4) for seed in range(50)])
        rebuilt = np.einsum("nmv,mvij->nij", fano_stack(stack), PAULI_PRODUCTS) / 4.0
        assert np.max(np.abs(rebuilt - stack)) <= 1e-15


class TestOneDtype:
    """Real or complex is decided once, by ``density_stack``'s realness rule: a real state stays float64
    through every stack derived from it."""

    def test_werner_matrices_are_float64(self):
        assert werner_matrices([0.0, 0.3, 1.0]).dtype == np.float64

    def test_density_stack_returns_a_zero_imaginary_stack_as_its_real_part(self):
        real = werner_matrices(np.linspace(0.0, 1.0, 7))
        m, values, vectors = density_stack(real.astype(complex))
        assert m.dtype == vectors.dtype == np.float64
        assert np.array_equal(m, real)
        assert np.array_equal(values, density_stack(real)[1])

    def test_density_stack_keeps_a_complex_stack(self):
        stack = np.array([random_mixed(seed, 4) for seed in range(5)])
        m, _, vectors = density_stack(stack)
        assert m is stack
        assert vectors.dtype == np.complex128

    def test_derived_stacks_of_float64_input_stay_float64(self):
        real = werner_matrices(np.linspace(0.0, 1.0, 7))
        mats, values = marginal_stack(real)
        assert mats.dtype == values.dtype == np.float64
        assert transpose_stack(real).dtype == np.float64
        assert tensor_product(mats[:, 0], mats[:, 1]).dtype == np.float64

    def test_fano_real_route_is_the_complex_route(self):
        """The real route drops only the rows of ``_FANO`` that Im m = 0 multiplies."""
        x = np.random.default_rng(13).standard_normal((5000, 4, 4))
        for real in (x + x.swapaxes(-1, -2), werner_matrices(np.arange(0.0, 1.0, 1e-3))):
            assert np.array_equal(fano_stack(real), fano_stack(real.astype(complex)))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m = m.astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(CheckError) as err:
            DensityMatrix(m)
        assert err.value.check == "hermiticity"

    def test_rejects_bad_trace(self):
        with pytest.raises(CheckError) as err:
            DensityMatrix(np.eye(4) / 2)
        assert err.value.check == "trace"

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(CheckError) as err:
            DensityMatrix(np.diag([0.75, 0.75, -0.25, -0.25]))
        assert err.value.check == "psd"

    def test_rejects_inconsistent_dims(self):
        # Only a 4x4 two-qubit matrix passes: a valid qubit state fails as well.
        for side in (1, 2, 3, 8):
            with pytest.raises(CheckError) as err:
                DensityMatrix(np.eye(side) / side)
            assert err.value.check == "dims"
            assert str(err.value).endswith(f"a 4x4 two-qubit matrix required, got shape ({side}, {side})")

    def test_a_real_state_holds_real_eigenvectors(self):
        rho = werner(0.3)
        assert rho.matrix.dtype == np.float64
        assert rho.eigenvectors.dtype == np.float64
        assert np.max(np.abs(_rebuild(rho.eigenvalues, rho.eigenvectors) - rho.matrix)) <= 1e-15

    def test_matrix_is_immutable(self):
        rho = werner(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_eigen_data_is_row_zero_of_density_stack_and_read_only(self):
        rho = werner(0.3)
        _, values, vectors = density_stack(rho.matrix[None])
        assert np.array_equal(rho.eigenvalues, values[0])
        assert np.array_equal(rho.eigenvectors, vectors[0])
        for arr in (rho.eigenvalues, rho.eigenvectors):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rejects_a_stack_of_states(self):
        with pytest.raises(CheckError) as err:
            DensityMatrix(np.stack([np.eye(4) / 4] * 2))
        assert err.value.check == "dims"

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite(self, bad):
        m = (np.eye(4) / 4).astype(complex)
        m[0, 0] = bad
        with pytest.raises(CheckError) as err:
            DensityMatrix(m)
        assert err.value.check == "finite"

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_partial_trace_of_product_property(self, seed):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = z @ z.conj().T
            mats.append(m / np.trace(m).real)
        composite = DensityMatrix(tensor_product(mats[0], mats[1]))
        assert np.max(np.abs(marginal_stack(composite.matrix[None])[0][0] - mats)) <= 1e-12


class TestTolerances:
    def test_scaling(self):
        scaled = Tolerances(10.0)
        assert scaled.hermiticity == pytest.approx(1e-9)
        assert scaled.support_cutoff == pytest.approx(1e-11)
        assert TOLS.hermiticity == 1e-10  # original untouched

    def test_scale_is_the_only_field(self):
        assert [f.name for f in fields(Tolerances)] == ["scale"]

    def test_scaling_reaches_every_field(self):
        scaled = Tolerances(4.0 * TOLS.scale)
        assert scaled == Tolerances(4.0)
        for name in BOUNDS:
            assert getattr(scaled, name) == 4.0 * getattr(TOLS, name), name

    def test_bounds_keep_their_defaults(self):
        assert [name for name, attr in vars(Tolerances).items() if isinstance(attr, property)] == list(BOUNDS)
        assert {name: getattr(TOLS, name) for name in BOUNDS} == BOUNDS

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            Tolerances(0.0)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_scale_that_is_not_finite_and_positive(self, scale):
        with pytest.raises(ValueError):
            Tolerances(scale)

    def test_loose_tolerances_accept_noisy_state(self):
        noisy = werner(0.5).matrix.copy()
        noisy[0, 0] += 3e-10  # breaks trace at default tolerance
        with pytest.raises(CheckError):
            DensityMatrix(noisy)
        DensityMatrix(noisy, tols=Tolerances(10.0))

    def test_marginals_inherit_the_state_tolerances(self):
        loose = Tolerances(10.0)
        noisy = werner(0.5).matrix.copy()
        noisy[0, 0] += 5e-10  # each marginal's trace is off by 5e-10 as well
        rho = DensityMatrix(noisy, tols=loose)
        traces = np.trace(marginal_stack(rho.matrix[None], tols=loose)[0][0], axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - (1.0 + 5e-10))) < 1e-15
        assert math.isfinite(classify(rho, tols=loose).mutual)
        assert np.isfinite(conditional_tsallis(*spectra([rho.matrix], tols=loose), 2.0, tols=loose)).all()


class TestSerialization:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(matrix_from_json(matrix_json(m)), m)

    def test_density_roundtrip(self):
        rho = werner(0.31)
        back = DensityMatrix(matrix_from_json({"dims": [2, 2], "matrix": matrix_json(rho.matrix)}))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_bare_matrix_payload(self):
        rho = DensityMatrix(matrix_from_json(matrix_json(np.eye(4) / 4)))
        assert np.array_equal(rho.matrix, np.eye(4) / 4)

    @pytest.mark.parametrize("spec", ["E1", "pure:0.1,0.7j,0.7,0.1j"])
    def test_both_payload_forms_read_back_as_one_array(self, spec):
        m = from_registry(spec)
        bare = matrix_from_json(matrix_json(m))
        wrapped = matrix_from_json({"dims": [2, 2], "matrix": matrix_json(m)})
        assert bare.dtype == wrapped.dtype == complex
        assert np.array_equal(bare, wrapped)
        assert np.array_equal(bare, m)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])  # not [re, im] pairs
        with pytest.raises(ValueError):
            matrix_from_json([[[1.0, 0.0, 0.0]]])  # [re, im, extra]
        with pytest.raises(ValueError):
            matrix_from_json([[{"a": 1, "b": 2}, [0, 0]], [[0, 0], [1, 0]]])  # object entry
        with pytest.raises(ValueError):
            matrix_from_json([[[True, False]]])  # booleans are not numbers
        with pytest.raises(ValueError):
            DensityMatrix(matrix_from_json({"dims": [2, 2]}))

    @pytest.mark.parametrize("dims", [4, [2], [2, 2, 1], [2.9, 2], [2, 2.0], [True, 4], "22"])
    def test_malformed_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="'dims' must be a list of two integers"):
            DensityMatrix(matrix_from_json({"dims": dims, "matrix": matrix_json(np.eye(4) / 4)}))

    @pytest.mark.parametrize(("dims", "side"), [([1, 4], 4), ([4, 1], 4), ([2, 1], 4), ([2, 2], 2)])
    def test_dims_other_than_the_shapes_rejected(self, dims, side):
        with pytest.raises(CheckError) as err:
            DensityMatrix(matrix_from_json({"dims": dims, "matrix": matrix_json(np.eye(side) / side)}))
        assert err.value.check == "dims"

    def test_qubit_marginal_payload(self):
        """A valid 2x2 state fails ``dims``: the reader's comparison for dims other than [2, 2], else the
        constructor's shape check."""
        qubit = matrix_json(np.eye(2) / 2)
        shape = "a 4x4 two-qubit matrix required, got shape (2, 2)"
        for payload, message in (
            ({"dims": [2, 1], "matrix": qubit}, "dims [2, 1] inconsistent with a matrix of dims (2, 2)"),
            ({"dims": [2, 2], "matrix": qubit}, shape),
            (qubit, shape),
        ):
            with pytest.raises(CheckError) as err:
                DensityMatrix(matrix_from_json(payload))
            assert err.value.check == "dims"
            assert str(err.value).endswith(message)

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            matrix_from_json([[[10**400, 0]]])

    def test_invalid_state_payload(self):
        payload = matrix_json(np.eye(4))  # trace 4
        with pytest.raises(CheckError):
            DensityMatrix(matrix_from_json(payload))
