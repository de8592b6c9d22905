import math

import numpy as np
import pytest

import qdeficit.concurrence as kernels
from qdeficit.concurrence import (
    concurrence,
    pure_concurrence,
    spin_flip_stack,
    wootters_concurrence,
)
from qdeficit.linalg import CheckError, DensityMatrix, density_stack, eigh_stack, transpose_stack
from qdeficit.states import (
    bloch_vectors,
    from_registry,
    werner_matrices,
)

from qdeficit.structure import classify

from helpers import (
    YY,
    charpoly_lambdas,
    gamma_route_matrix,
    haar_unitary,
    mpmath_concurrence,
    pure_density,
    random_hermitian,
    random_mixed,
    random_pure,
    werner,
)

SINGLET = np.array([0, 1, -1, 0]) / math.sqrt(2)


def _concurrence(*matrices) -> np.ndarray:
    """Concurrences of the matrices, validated as one stack: the spin-flip lambdas, one values-only call."""
    return wootters_concurrence(_lambdas(*matrices))


class TestSpinFlip:
    def test_maximally_mixed_invariant(self):
        m = np.eye(4) / 4
        assert np.max(np.abs(spin_flip_stack(m) - m)) < 1e-15

    def test_singlet_invariant(self):
        m = from_registry("E4")
        assert np.max(np.abs(spin_flip_stack(m) - m)) < 1e-15

    def test_basis_projector_flips(self):
        rho = pure_density([1, 0, 0, 0])  # |11><11|
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0  # |00><00|
        assert np.max(np.abs(spin_flip_stack(rho.matrix) - expected)) < 1e-15

    def test_output_is_valid_state(self):
        stack = np.array([random_mixed(seed, seed % 4 + 1) for seed in range(20)])
        _, values, _ = density_stack(spin_flip_stack(stack))
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
    """Spin-flip singular values ``(N, 4)``, descending, of the matrices validated as one stack."""
    return concurrence(*density_stack(np.array(matrices))[1:])


class TestLambdaSpectrum:
    def test_singlet(self):
        assert _lambdas(from_registry("E4"))[0] == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_maximally_mixed(self):
        assert _lambdas(np.eye(4) / 4)[0] == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-14)

    def test_sorted_descending(self):
        lam = _lambdas(*(random_mixed(seed, 4) for seed in range(20)))
        assert (lam[:, :-1] >= lam[:, 1:]).all()

    def test_matches_characteristic_polynomial_bruteforce(self):
        stack = np.array([random_mixed(seed, 4) for seed in range(150)])
        lam = concurrence(*density_stack(stack)[1:])
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
        assert _concurrence(from_registry(name))[0] == pytest.approx(expected, abs=1e-10)

    def test_werner_closed_form(self):
        ps = np.arange(0.0, 1.0 + 1e-12, 0.05)
        expected = np.maximum((3 * ps - 1) / 2, 0.0)
        assert np.max(np.abs(_concurrence(*(werner(float(p)).matrix for p in ps)) - expected)) <= 1e-12

    def test_werner_two_thirds(self):
        assert _concurrence(werner(2 / 3).matrix)[0] == pytest.approx(0.5, abs=1e-12)

    def test_isospectral_pair_distinguished(self):
        assert _concurrence(from_registry("iso:E"), from_registry("iso:S")) == pytest.approx([2 / 3, 0.0], abs=1e-10)

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
        ppt_min = eigh_stack(transpose_stack(stack))[0][:, -1]
        assert np.array_equal(entangled, ppt_min < -1e-8)


def _near_pure_rank_two(count: int) -> np.ndarray:
    """(1 - eps) |psi><psi| + eps |phi><phi| for Haar psi, phi and eps log-uniform in [1e-9, 1e-5]."""
    rng = np.random.default_rng(2024)
    eps = 10.0 ** rng.uniform(-9.0, -5.0, count)
    psi, phi = (np.array([random_pure(rng) for _ in range(count)]) for _ in range(2))
    pure, other = (np.einsum("ni,nj->nij", a, a.conj()) for a in (psi, phi))
    return (1.0 - eps)[:, None, None] * pure + eps[:, None, None] * other


def _random_real_mixed(seed: int, rank: int) -> np.ndarray:
    """A real state of rank ``rank``: a flat-simplex mix of projectors on normalized real Gaussian vectors."""
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=rank)
    kets = rng.standard_normal((rank, 4))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return np.einsum("r,ri,rj->ij", weights / weights.sum(), kets, kets)


def _real_states() -> np.ndarray:
    """The paper's states, the isospectral pair, a Werner grid and 200 random real states of rank 1-4."""
    names = ["E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S"]
    mats = [from_registry(name).real for name in names]
    mats += list(werner_matrices(np.linspace(0.0, 1.0, 101)).real)
    mats += [_random_real_mixed(seed, 1 + seed % 4) for seed in range(200)]
    return np.array(mats)


class TestRealTau:
    """A real stack has real eigenvectors, so tau is real symmetric and its lambdas are |eig tau|."""

    def test_real_tau_matches_the_complex_route(self):
        """The same eigendecompositions, each eigenvector times a seeded unit phase, take the ``svd``:
        the phases D turn tau into D tau D, whose singular values are tau's."""
        _, w, v = density_stack(_real_states())
        assert v.dtype == np.float64
        phases = np.exp(2j * np.pi * np.random.default_rng(31).random(w.shape))
        assert np.max(np.abs(concurrence(w, v) - concurrence(w, v * phases[:, None, :]))) <= 1e-15

    def test_real_tau_is_one_four_by_four_real_solve(self, monkeypatch):
        received = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: received.append((m.dtype, m.shape)) or solve(m))
        concurrence(*density_stack(_real_states()[:5])[1:])
        assert received == [(np.float64, (5, 4, 4))]

    def test_near_pure_real_match_multiprecision(self):
        """60 real rank-2 states a small eps from pure, at ``test_near_pure_match_multiprecision``'s bound."""
        rng = np.random.default_rng(2025)
        eps = 10.0 ** rng.uniform(-9.0, -5.0, 60)
        kets = rng.standard_normal((2, 60, 4))
        kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
        pure, other = np.einsum("kni,knj->knij", kets, kets)
        stack = (1.0 - eps)[:, None, None] * pure + eps[:, None, None] * other
        _, w, v = density_stack(stack)
        assert v.dtype == np.float64
        want = np.array([mpmath_concurrence(m) for m in stack])
        assert np.max(np.abs(wootters_concurrence(concurrence(w, v)) - want)) <= 1e-14


class TestCoreAccuracy:
    """The real tau's eigenvalues and the complex tau's singular values give the lambdas to absolute
    round-off, so the concurrence is exact to round-off also where the small lambdas are tiny."""

    @pytest.mark.parametrize("delta", [4e-7, 1e-7, 1e-10])
    def test_werner_near_pure_matches_closed_form(self, delta):
        """The real Werner state, and 50 complex twins under seeded local unitaries U_A x U_B."""
        # lambda_2..4 = (1 - p) / 4 = delta / 4, as small as the square root of round-off in lambda_1^2.
        p = 1.0 - delta
        assert abs(classify(werner(p)).concurrence - (3 * p - 1) / 2) <= 1e-12
        rng = np.random.default_rng(33)
        units = np.array([np.kron(haar_unitary(rng), haar_unitary(rng)) for _ in range(50)])
        rotated = units @ werner(p).matrix @ units.conj().swapaxes(-1, -2)
        _, w, v = density_stack(rotated)
        assert v.dtype == np.complex128
        assert np.max(np.abs(wootters_concurrence(concurrence(w, v)) - (3 * p - 1) / 2)) <= 1e-12

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
            concurrence(np.full((1, 2), 0.5), np.eye(2)[None])
        assert err.value.check == "dims"

    def test_a_sign_that_breaks_tau_symmetry_fails_hermiticity(self, monkeypatch):
        """The hermiticity check on a complex tau is the check that tau = tau^T: with one sign of
        sigma_y x sigma_y flipped, tau is not symmetric and the solve refuses it."""
        monkeypatch.setattr(kernels, "_SIGNS", np.array((1.0, 1.0, 1.0, -1.0)))
        with pytest.raises(CheckError) as err:
            concurrence(*density_stack(random_mixed(3, 4)[None])[1:])
        assert err.value.check == "hermiticity"

    def test_a_sign_that_breaks_real_tau_symmetry_fails_hermiticity(self, monkeypatch):
        """A real tau is solved as it is, and its hermiticity check is the same tau = tau^T check."""
        monkeypatch.setattr(kernels, "_SIGNS", np.array((1.0, 1.0, 1.0, -1.0)))
        _, w, v = density_stack(_random_real_mixed(3, 4)[None])
        assert v.dtype == np.float64
        with pytest.raises(CheckError) as err:
            concurrence(w, v)
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
