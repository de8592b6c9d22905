import math

import numpy as np
import pytest

from qdeficit.concurrence import concurrence_stack, lambda_spectrum, pure_concurrence, spin_flip_stack
from qdeficit.linalg import CheckError, DensityMatrix, density_stack, eigh_stack, transpose_stack
from qdeficit.states import (
    bloch_vectors,
    example_state,
    isospectral_pair,
    pure_density,
    random_mixed,
    random_pure,
    werner,
)

from helpers import YY, charpoly_lambdas, gamma_route_matrix, haar_unitary, random_hermitian

SINGLET = np.array([0, 1, -1, 0]) / math.sqrt(2)


def _concurrence(*matrices) -> np.ndarray:
    """``concurrence_stack`` over the matrices, validated as one stack."""
    m = np.array(matrices)
    return concurrence_stack(m, *density_stack(m))


class TestSpinFlip:
    def test_maximally_mixed_invariant(self):
        m = np.eye(4) / 4
        assert np.max(np.abs(spin_flip_stack(m) - m)) < 1e-15

    def test_singlet_invariant(self):
        m = example_state("E4").matrix
        assert np.max(np.abs(spin_flip_stack(m) - m)) < 1e-15

    def test_basis_projector_flips(self):
        rho = pure_density([1, 0, 0, 0])  # |11><11|
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0  # |00><00|
        assert np.max(np.abs(spin_flip_stack(rho.matrix) - expected)) < 1e-15

    def test_output_is_valid_state(self):
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(20)])
        values, _ = density_stack(spin_flip_stack(stack))
        assert values[:, -1].min() > -1e-10

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("skew", [0.0, 1e-11])
    def test_bit_identical_to_the_conjugation_by_sigma_y_sigma_y(self, n, skew):
        """The signed index reversal against the symmetrized (YY) m* (YY), also on a stack that is
        Hermitian only to within ``skew``, as a validated input may be."""
        rng = np.random.default_rng(n)
        stack = np.array([random_hermitian(rng) for _ in range(n)])
        stack += skew * rng.standard_normal(stack.shape)
        f = YY @ np.conj(stack) @ YY
        assert np.array_equal(spin_flip_stack(stack), 0.5 * (f + f.conj().swapaxes(-1, -2)))

    def test_rejects_single_subsystem(self):
        with pytest.raises(CheckError) as err:
            spin_flip_stack(np.eye(2) / 2)
        assert err.value.check == "dims"


class TestLambdaSpectrum:
    def test_singlet(self):
        lam = lambda_spectrum(example_state("E4"))
        assert lam == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_maximally_mixed(self):
        lam = lambda_spectrum(DensityMatrix(np.eye(4) / 4))
        assert lam == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-14)

    def test_sorted_descending(self):
        for seed in range(20):
            lam = lambda_spectrum(DensityMatrix(random_mixed(seed, 4)))
            assert all(a >= b for a, b in zip(lam, lam[1:]))

    def test_matches_characteristic_polynomial_bruteforce(self):
        for seed in range(150):
            rho = DensityMatrix(random_mixed(seed, 4))
            lam = lambda_spectrum(rho)
            assert np.max(np.abs(lam - charpoly_lambdas(rho.matrix))) <= 1e-7

    def test_eigenbasis_route_spectrum_matches(self):
        # the flip product expressed through composite eigenvectors must
        # reproduce the squared spin-flip spectrum, confirming that the
        # eigenvectors (not just eigenvalues) enter the concurrence
        for seed in (0, 3, 7, 21):
            rho = DensityMatrix(random_mixed(seed, 4))
            gamma = gamma_route_matrix(rho.eigenvalues, rho.eigenvectors)
            spec = np.sort(np.clip(np.real(np.linalg.eigvals(gamma)), 0, None))[::-1]
            lam_sq = lambda_spectrum(rho) ** 2
            assert np.max(np.abs(spec - lam_sq)) <= 1e-9


class TestConcurrence:
    @pytest.mark.parametrize(
        "name,expected",
        [("E1", 2 / 3), ("E2", 1 / 3), ("E3", 2 / 3), ("E4", 1.0), ("E5", 0.0), ("E6", 0.0)],
    )
    def test_reference_states(self, name, expected):
        assert _concurrence(example_state(name).matrix)[0] == pytest.approx(expected, abs=1e-10)

    def test_werner_closed_form(self):
        ps = np.arange(0.0, 1.0 + 1e-12, 0.05)
        expected = np.maximum((3 * ps - 1) / 2, 0.0)
        assert np.max(np.abs(_concurrence(*(werner(float(p)).matrix for p in ps)) - expected)) <= 1e-12

    def test_werner_two_thirds(self):
        assert _concurrence(werner(2 / 3).matrix)[0] == pytest.approx(0.5, abs=1e-12)

    def test_isospectral_pair_distinguished(self):
        rho_e, rho_s = isospectral_pair()
        assert _concurrence(rho_e.matrix, rho_s.matrix) == pytest.approx([2 / 3, 0.0], abs=1e-10)

    def test_range_and_flip_invariance(self):
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(50)])
        c = _concurrence(*stack)
        assert c.min() >= -1e-12 and c.max() <= 1 + 1e-10
        assert np.max(np.abs(c - _concurrence(*spin_flip_stack(stack)))) <= 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(99)
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(40)])
        rotated = []
        for m in stack:
            u = np.kron(haar_unitary(rng), haar_unitary(rng))
            rotated.append(u @ m @ u.conj().T)
        assert np.max(np.abs(_concurrence(*stack) - _concurrence(*rotated))) <= 1e-8

    def test_ppt_equivalence(self):
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(200)])
        entangled = _concurrence(*stack) > 1e-8
        ppt_min = eigh_stack(transpose_stack(stack, "B"))[0][:, -1]
        assert np.array_equal(entangled, ppt_min < -1e-8)


class TestPureConcurrence:
    def test_singlet(self):
        assert pure_concurrence(SINGLET) == pytest.approx(1.0)

    def test_product(self):
        assert pure_concurrence([1, 0, 0, 0]) == 0.0

    def test_matches_mixed_route_and_bloch_identity(self):
        for seed in range(100):
            amps = random_pure(seed)
            closed = pure_concurrence(amps)
            assert abs(closed - _concurrence(pure_density(amps).matrix)[0]) <= 1e-8
            s_a = bloch_vectors(amps)[0]
            assert abs(closed - math.sqrt(max(1 - s_a @ s_a, 0.0))) <= 1e-8
