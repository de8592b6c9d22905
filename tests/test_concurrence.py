import math

import numpy as np
import pytest

from qdeficit import concurrence
from qdeficit.concurrence import (
    dilation_concurrence,
    pure_concurrence,
    spin_flip_dilation_stack,
    spin_flip_stack,
)
from qdeficit.linalg import CheckError, DensityMatrix, density_stack, eigh_stack, eigvalsh_stack, transpose_stack
from qdeficit.states import (
    bloch_vectors,
    from_registry,
    pure_density,
    werner,
)

from qdeficit.structure import classify

from helpers import (
    YY,
    charpoly_lambdas,
    gamma_route_matrix,
    haar_unitary,
    mpmath_concurrence,
    random_hermitian,
    random_mixed,
    random_pure,
)

SINGLET = np.array([0, 1, -1, 0]) / math.sqrt(2)


def _concurrence(*matrices) -> np.ndarray:
    """Concurrences of the matrices, validated as one stack: the spin-flip dilations' spectra, one values-only call."""
    return dilation_concurrence(eigvalsh_stack(spin_flip_dilation_stack(*density_stack(np.array(matrices)))))


class TestSpinFlip:
    def test_maximally_mixed_invariant(self):
        m = np.eye(4) / 4
        assert np.max(np.abs(spin_flip_stack(m) - m)) < 1e-15

    def test_singlet_invariant(self):
        m = from_registry("E4").matrix
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

    def test_takes_nested_lists(self):
        m = random_mixed(5, 3)
        assert np.array_equal(spin_flip_stack(m.tolist()), spin_flip_stack(m))

    def test_rejects_single_subsystem(self):
        with pytest.raises(CheckError) as err:
            spin_flip_stack(np.eye(2) / 2)
        assert err.value.check == "dims"


def _lambdas(*matrices) -> np.ndarray:
    """Spin-flip singular values ``(N, 4)``, descending: the four largest eigenvalues of each
    state's real dilation, floored at 0."""
    return np.maximum(eigvalsh_stack(spin_flip_dilation_stack(*density_stack(np.array(matrices))))[:, :4], 0.0)


class TestLambdaSpectrum:
    def test_singlet(self):
        assert _lambdas(from_registry("E4").matrix)[0] == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_maximally_mixed(self):
        assert _lambdas(np.eye(4) / 4)[0] == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-14)

    def test_sorted_descending(self):
        lam = _lambdas(*(random_mixed(seed, 4) for seed in range(20)))
        assert (lam[:, :-1] >= lam[:, 1:]).all()

    def test_matches_characteristic_polynomial_bruteforce(self):
        stack = np.array([random_mixed(seed, 4) for seed in range(150)])
        lam = np.maximum(eigvalsh_stack(spin_flip_dilation_stack(*density_stack(stack)))[:, :4], 0.0)
        brute = np.array([charpoly_lambdas(m) for m in stack])
        assert np.max(np.abs(lam - brute)) <= 1e-7

    def test_eigenbasis_route_spectrum_matches(self):
        # the flip product expressed through composite eigenvectors must
        # reproduce the squared spin-flip spectrum, confirming that the
        # eigenvectors (not just eigenvalues) enter the concurrence
        for seed in (0, 3, 7, 21):
            rho = DensityMatrix(random_mixed(seed, 4))
            gamma = gamma_route_matrix(rho.eigenvalues, rho.eigenvectors)
            spec = np.sort(np.clip(np.real(np.linalg.eigvals(gamma)), 0, None))[::-1]
            lam_sq = _lambdas(rho.matrix)[0] ** 2
            assert np.max(np.abs(spec - lam_sq)) <= 1e-9


class TestConcurrence:
    @pytest.mark.parametrize(
        "name,expected",
        [("E1", 2 / 3), ("E2", 1 / 3), ("E3", 2 / 3), ("E4", 1.0), ("E5", 0.0), ("E6", 0.0)],
    )
    def test_reference_states(self, name, expected):
        assert _concurrence(from_registry(name).matrix)[0] == pytest.approx(expected, abs=1e-10)

    def test_werner_closed_form(self):
        ps = np.arange(0.0, 1.0 + 1e-12, 0.05)
        expected = np.maximum((3 * ps - 1) / 2, 0.0)
        assert np.max(np.abs(_concurrence(*(werner(float(p)).matrix for p in ps)) - expected)) <= 1e-12

    def test_werner_two_thirds(self):
        assert _concurrence(werner(2 / 3).matrix)[0] == pytest.approx(0.5, abs=1e-12)

    def test_isospectral_pair_distinguished(self):
        rho_e, rho_s = from_registry("iso:E"), from_registry("iso:S")
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


def _near_pure_rank_two(count: int) -> np.ndarray:
    """(1 - eps) |psi><psi| + eps |phi><phi| for Haar psi, phi and eps log-uniform in [1e-9, 1e-5]."""
    rng = np.random.default_rng(2024)
    eps = 10.0 ** rng.uniform(-9.0, -5.0, count)
    psi, phi = (np.array([random_pure(rng) for _ in range(count)]) for _ in range(2))
    pure, other = (np.einsum("ni,nj->nij", a, a.conj()) for a in (psi, phi))
    return (1.0 - eps)[:, None, None] * pure + eps[:, None, None] * other


class TestCoreAccuracy:
    """The dilation gives the lambdas to absolute round-off, so the concurrence is exact to round-off
    also where the small lambdas are tiny."""

    @pytest.mark.parametrize("delta", [4e-7, 1e-7, 1e-10])
    def test_werner_near_pure_matches_closed_form(self, delta):
        # lambda_2..4 = (1 - p) / 4 = delta / 4, as small as the square root of round-off in lambda_1^2.
        p = 1.0 - delta
        assert abs(classify(werner(p)).concurrence - (3 * p - 1) / 2) <= 1e-12

    def test_random_mixed_match_multiprecision(self):
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(120)])
        want = np.array([mpmath_concurrence(m) for m in stack])
        assert np.max(np.abs(_concurrence(*stack) - want)) <= 1e-14

    def test_near_pure_match_multiprecision(self):
        """40 rank-2 states a small eps from pure, and ``random_mixed(2703, 4)``, whose smallest
        eigenvalue is 1.9e-7."""
        stack = np.concatenate((_near_pure_rank_two(40), random_mixed(2703, 4)[None]))
        want = np.array([mpmath_concurrence(m) for m in stack])
        assert np.max(np.abs(_concurrence(*stack) - want)) <= 1e-14

    def test_core_rejects_eigenvectors_of_one_qubit(self):
        with pytest.raises(CheckError) as err:
            spin_flip_dilation_stack(np.full((1, 2), 0.5), np.eye(2)[None])
        assert err.value.check == "dims"

    def test_dilation_spectrum_is_plus_minus_lambda(self):
        """The eight eigenvalues of each dilation are four values and their negatives."""
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(40)])
        values = eigvalsh_stack(spin_flip_dilation_stack(*density_stack(stack)))
        assert np.max(np.abs(values[:, :4] + values[:, :3:-1])) <= 1e-15

    def test_a_sign_that_breaks_tau_symmetry_fails_hermiticity(self, monkeypatch):
        """The hermiticity check on the dilation is the check that tau = tau^T: with one sign of
        sigma_y x sigma_y flipped, tau is not symmetric and the solve refuses its dilation."""
        monkeypatch.setattr(concurrence, "_SIGNS", np.array((1.0, 1.0, 1.0, -1.0)))
        with pytest.raises(CheckError) as err:
            eigvalsh_stack(spin_flip_dilation_stack(*density_stack(random_mixed(3, 4)[None])))
        assert err.value.check == "hermiticity"


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
