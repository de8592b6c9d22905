import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeficit.linalg import (
    CheckError,
    DensityMatrix,
    TOLS,
    Tolerances,
    density_from_json,
    density_to_json,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    partial_transpose,
    psd_function,
    tensor_product,
)
from qdeficit.states import example_state, pure_density, PureStateAmplitudes, werner

from helpers import expm_oracle, kron_oracle, numpy_spectrum, random_hermitian


NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.nan, np.nan), complex(0.0, np.inf)]


class TestHermitianEig:
    def test_identity(self):
        es = hermitian_eig(np.eye(2))
        assert np.allclose(es.values, [1.0, 1.0])
        assert np.max(np.abs(es.reconstruct() - np.eye(2))) < 1e-15

    def test_already_diagonal(self):
        es = hermitian_eig(np.diag([1 / 6, 5 / 6]).astype(complex))
        assert np.allclose(es.values, [5 / 6, 1 / 6], atol=0)
        # descending order swaps the basis columns
        assert np.allclose(es.vectors, np.array([[0, 1], [1, 0]]))

    def test_werner_half_spectrum(self):
        es = hermitian_eig(werner(0.5).matrix)
        assert np.allclose(es.values, [0.625, 0.125, 0.125, 0.125], atol=1e-14)

    def test_matches_numpy_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng)
            es = hermitian_eig(h)
            assert np.max(np.abs(es.values - numpy_spectrum(h))) < 1e-12

    def test_deterministic(self):
        h = random_hermitian(np.random.default_rng(3))
        a, b = hermitian_eig(h), hermitian_eig(h)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            es = hermitian_eig(random_hermitian(rng))
            for col in es.vectors.T:
                first = next(x for x in col if abs(x) > 1e-12)
                assert abs(first.imag) < 1e-12 and first.real > 0

    def test_rejects_non_square(self):
        for shape in ((2, 3), (0, 0)):
            with pytest.raises(CheckError) as err:
                hermitian_eig(np.ones(shape))
            assert err.value.check == "square"

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(CheckError) as err:
            hermitian_eig(m)
        assert err.value.check == "hermiticity"
        assert err.value.magnitude == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite(self, bad):
        with pytest.raises(CheckError) as err:
            hermitian_eig(np.diag([bad, 0.0]))
        assert err.value.check == "finite"
        assert err.value.magnitude == 1

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_reconstruction_and_trace_property(self, seed):
        h = random_hermitian(np.random.default_rng(seed))
        es = hermitian_eig(h)
        assert np.max(np.abs(es.reconstruct() - h)) <= 1e-9
        assert abs(np.sum(es.values) - np.trace(h).real) <= 1e-9
        assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(4))) <= 1e-9


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


class TestPartialTrace:
    def test_singlet_marginal_maximally_mixed(self):
        singlet = example_state("E4")
        for side in ("A", "B"):
            marg = partial_trace(singlet, side)
            assert np.max(np.abs(marg.matrix - np.eye(2) / 2)) < 1e-15

    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        sigma_b = np.array([[0.4, -0.1j], [0.1j, 0.6]])
        composite = DensityMatrix(tensor_product(rho_a, sigma_b), (2, 2))
        assert np.max(np.abs(partial_trace(composite, "A").matrix - rho_a)) < 1e-15
        assert np.max(np.abs(partial_trace(composite, "B").matrix - sigma_b)) < 1e-15

    def test_example_marginals(self):
        e1 = example_state("E1")
        assert np.max(np.abs(partial_trace(e1, "A").matrix - np.diag([4 / 6, 2 / 6]))) < 1e-15
        assert np.max(np.abs(partial_trace(e1, "B").matrix - np.diag([1 / 6, 5 / 6]))) < 1e-15

    def test_trace_preserved(self):
        rho = werner(0.37)
        for side in ("A", "B"):
            assert abs(np.trace(partial_trace(rho, side).matrix) - 1.0) < 1e-14

    def test_rejects_single_subsystem(self):
        single = DensityMatrix(np.eye(2) / 2, (2, 1))
        with pytest.raises(CheckError):
            partial_trace(single, "A")


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rho_a = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
        sigma_b = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b), (2, 2))
        for side in ("A", "B"):
            vals = numpy_spectrum(partial_transpose(composite, side))
            assert vals[-1] > -1e-12

    def test_werner_crossing_at_one_third(self):
        eps = 1e-9
        below = numpy_spectrum(partial_transpose(werner(1 / 3 - eps), "B"))[-1]
        above = numpy_spectrum(partial_transpose(werner(1 / 3 + eps), "B"))[-1]
        assert below > 0 > above

    def test_singlet_minimum_eigenvalue(self):
        vals = numpy_spectrum(partial_transpose(example_state("E4"), "B"))
        assert vals[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_involution_and_trace(self):
        rho = werner(0.9)
        pt = partial_transpose(rho, "B")
        assert abs(np.trace(pt) - 1.0) < 1e-12
        back = np.einsum("iljk->ikjl", pt.reshape(2, 2, 2, 2)).reshape(4, 4)
        assert np.max(np.abs(back - rho.matrix)) < 1e-15

    def test_both_sides_share_spectrum(self):
        rho = werner(0.77)
        sa = numpy_spectrum(partial_transpose(rho, "A"))
        sb = numpy_spectrum(partial_transpose(rho, "B"))
        assert np.max(np.abs(sa - sb)) < 1e-12


class TestPsdFunction:
    def test_sqrt_of_scaled_identity(self):
        out = psd_function(np.eye(4) / 4, "sqrt")
        assert np.max(np.abs(out - np.eye(4) / 2)) < 1e-14

    def test_sqrt_diagonal(self):
        out = psd_function(np.diag([4 / 9, 1 / 9, 0, 0]).astype(complex), "sqrt")
        assert np.max(np.abs(out - np.diag([2 / 3, 1 / 3, 0, 0]))) < 1e-14

    def test_log_exp_roundtrip_on_werner(self):
        rho = werner(0.5).matrix
        log = psd_function(rho, "log")
        assert np.max(np.abs(expm_oracle(log) - rho)) < 1e-12

    def test_log_projects_out_null_space(self):
        rho = example_state("E4").matrix  # rank one
        log = psd_function(rho, "log")
        # support log of a projector is the zero matrix
        assert np.max(np.abs(log)) < 1e-12

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = random_hermitian(rng)
            m = h @ h.conj().T / np.trace(h @ h.conj().T).real
            root = psd_function(m, "sqrt")
            assert np.max(np.abs(root @ root - m)) < 1e-8

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(CheckError) as err:
            psd_function(np.diag([1.0, -0.5]).astype(complex), "sqrt")
        assert err.value.check == "psd"

    def test_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            psd_function(np.eye(2), "exp")


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
        with pytest.raises(CheckError):
            DensityMatrix(np.eye(4) / 4, (3, 2))

    def test_matrix_is_immutable(self):
        rho = werner(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

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
        composite = DensityMatrix(tensor_product(mats[0], mats[1]), (2, 2))
        assert np.max(np.abs(partial_trace(composite, "A").matrix - mats[0])) <= 1e-12
        assert np.max(np.abs(partial_trace(composite, "B").matrix - mats[1])) <= 1e-12


class TestTolerances:
    def test_scaling(self):
        scaled = TOLS.scaled(10.0)
        assert scaled.hermiticity == pytest.approx(1e-9)
        assert scaled.support_cutoff == pytest.approx(1e-11)
        assert TOLS.hermiticity == 1e-10  # original untouched

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            TOLS.scaled(0.0)

    def test_loose_tolerances_accept_noisy_state(self):
        noisy = werner(0.5).matrix.copy()
        noisy[0, 0] += 3e-10  # breaks trace at default tolerance
        with pytest.raises(CheckError):
            DensityMatrix(noisy)
        DensityMatrix(noisy, tols=TOLS.scaled(10.0))


class TestSerialization:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_density_roundtrip(self):
        rho = werner(0.31)
        payload = density_to_json(rho)
        back = density_from_json(payload)
        assert back.dims == (2, 2)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_bare_matrix_payload(self):
        payload = matrix_to_json(np.eye(4) / 4)
        rho = density_from_json(payload)
        assert rho.dims == (2, 2)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])  # not [re, im] pairs
        with pytest.raises(ValueError):
            density_from_json({"dims": [2, 2]})

    def test_invalid_state_payload(self):
        payload = matrix_to_json(np.eye(4))  # trace 4
        with pytest.raises(CheckError):
            density_from_json(payload)
