import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from qdeficit.entropy import (
    conditional_tsallis,
    relative_entropy_stack,
    tsallis_infinity_criterion,
    tsallis_stack,
    von_neumann,
)
from qdeficit.linalg import CheckError, DensityMatrix, Tolerances, tensor_product
from qdeficit.states import (
    from_registry,
    pure_density,
    werner,
)
from qdeficit.structure import classify, decohere_stack

from helpers import haar_unitary, random_mixed, random_pure

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def werner_power_sum(p, q):
    """Tr werner(p)^q = ((1+3p)/4)^q + 3((1-p)/4)^q in mpmath arithmetic."""
    p = mpmath.mpf(p)
    return ((1 + 3 * p) / 4) ** q + 3 * ((1 - p) / 4) ** q


def werner_conditional(p, q):
    """(Tr rho^q / Tr rho_A^q - 1) / (1 - q) for werner(p), with Tr rho_A^q = 2^(1-q), to 50 digits."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        return float((werner_power_sum(p, q) / mpmath.mpf(2) ** (1 - q) - 1) / (1 - q))


def binary_entropy(p):
    total = 0.0
    for x in (p, 1 - p):
        if x > 0:
            total -= x * math.log(x)
    return total


class TestEntropyInputPsd:
    """Every entropy reads its spectrum through one psd check, at the caller's own scale."""

    # Lowest eigenvalue -5e-11: a state at the default scale, beyond the psd bound at scale 0.1.
    RHO = DensityMatrix(np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]))

    @pytest.mark.parametrize(
        "entropy",
        [
            lambda rho, tols: von_neumann(rho, tols=tols),
            lambda rho, tols: tsallis_stack(rho.eigenvalues[None], 2.0, tols=tols),
            lambda rho, tols: conditional_tsallis(rho, "A", 2.0, tols=tols),
        ],
        ids=["von_neumann", "tsallis_stack", "conditional_tsallis"],
    )
    def test_negative_eigenvalue_beyond_the_bound_fails(self, entropy):
        assert np.isfinite(entropy(self.RHO, Tolerances())).all()
        with pytest.raises(CheckError, match="negative eigenvalue in entropy input") as err:
            entropy(self.RHO, Tolerances(0.1))
        assert err.value.check == "psd"
        assert err.value.magnitude == pytest.approx(-5e-11)


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert von_neumann(from_registry("E4")) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann(DensityMatrix(np.eye(2) / 2)) == pytest.approx(LN2)

    def test_werner_half(self):
        expected = -0.625 * math.log(0.625) - 3 * 0.125 * math.log(0.125)
        assert von_neumann(werner(0.5)) == pytest.approx(expected, abs=1e-12)


class TestTsallis:
    def test_pure_state_zero_for_any_q(self):
        values = from_registry("E4").eigenvalues[None]
        for q in (0.5, 1.0, 2.0, 5.0, 50.0):
            assert tsallis_stack(values, q)[0] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_q2(self):
        values = DensityMatrix(np.eye(4) / 4).eigenvalues[None]
        assert tsallis_stack(values, 2.0)[0] == pytest.approx(0.75, abs=1e-14)

    def test_werner_half_q2(self):
        expected = (0.625**2 + 3 * 0.125**2 - 1) / (1 - 2)
        assert tsallis_stack(werner(0.5).eigenvalues[None], 2.0)[0] == pytest.approx(expected, abs=1e-14)

    def test_rejects_nonpositive_q(self):
        for q in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                tsallis_stack(werner(0.5).eigenvalues[None], q)
            with pytest.raises(ValueError):
                conditional_tsallis(werner(0.5), "A", q)

    def test_continuity_at_q_one(self):
        for rho in (werner(0.5), from_registry("E1"), DensityMatrix(random_mixed(4, 3))):
            s1 = von_neumann(rho)
            above = tsallis_stack(rho.eigenvalues[None], 1.0 + 1e-4)[0]
            below = tsallis_stack(rho.eigenvalues[None], 1.0 - 1e-4)[0]
            assert abs(above - s1) <= 1e-3
            assert abs(below - s1) <= 1e-3
            # the symmetric mean cancels the linear term in (q - 1)
            assert abs((above + below) / 2 - s1) <= 1e-6


class TestEntropyDifference:
    """S_q(AB) - S_q(side) through ``conditional_tsallis``; at q = 1 it is the plain difference."""

    def test_e1_negative_on_a_zero_on_b(self):
        rho = from_registry("E1")
        assert conditional_tsallis(rho, "A", 1.0) == pytest.approx((5 / 6) * math.log(4 / 5), abs=1e-10)
        assert conditional_tsallis(rho, "B", 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_e2_positive_both_sides(self):
        rho = from_registry("E2")
        expected = (5 / 6) * math.log(5 / 4)
        assert conditional_tsallis(rho, "A", 1.0) == pytest.approx(expected, abs=1e-10)
        assert conditional_tsallis(rho, "B", 1.0) == pytest.approx(expected, abs=1e-10)

    def test_e3_zero_for_all_q(self):
        rho = from_registry("E3")
        for q in (0.5, 1.0, 2.0, 5.0):
            for side in ("A", "B"):
                assert abs(conditional_tsallis(rho, side, q)) <= 1e-12

    def test_product_state_gives_other_factor_entropy(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = z @ z.conj().T
        rho_a = m / np.trace(m).real
        sigma_b = np.array([[0.85, 0.1], [0.1, 0.15]], dtype=complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        s_b = von_neumann(DensityMatrix(sigma_b))
        s_a = von_neumann(DensityMatrix(rho_a))
        assert conditional_tsallis(composite, "A", 1.0) == pytest.approx(s_b, abs=1e-10)
        assert conditional_tsallis(composite, "B", 1.0) == pytest.approx(s_a, abs=1e-10)


class TestConditionalTsallis:
    def test_reduces_to_difference_at_q_one(self):
        for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
            rho = from_registry(name)
            for side in ("A", "B"):
                diff = von_neumann(rho) - von_neumann(rho.marginal(side))
                assert conditional_tsallis(rho, side, 1.0) == pytest.approx(diff, abs=1e-14)
                # the q != 1 branch joins the q = 1 value continuously
                for q in (1.0 - 1e-6, 1.0 + 1e-6):
                    assert conditional_tsallis(rho, side, q) == pytest.approx(diff, abs=1e-5)

    def test_bell_state_minus_ln2(self):
        rho = from_registry("E4")
        for side in ("A", "B"):
            assert conditional_tsallis(rho, side, 1.0) == pytest.approx(-LN2, abs=1e-12)

    def test_werner_zero_crossing_near_0747(self):
        from scipy.optimize import brentq

        root = brentq(lambda p: conditional_tsallis(werner(p), "A", 1.0), 0.5, 0.9, xtol=1e-12)
        # p*(1) solves S(werner(p)) = ln 2
        assert root == pytest.approx(0.747613833446, abs=1e-9)

    def test_werner_q2_threshold_below_conditional_one(self):
        # at q=2 the Werner conditional crosses zero at p = 1/sqrt(3)
        from scipy.optimize import brentq

        root = brentq(lambda p: conditional_tsallis(werner(p), "A", 2.0), 0.3, 0.9, xtol=1e-12)
        assert root == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        # p*(q) falls strictly with q towards the concurrence threshold 1/3
        roots = [
            brentq(lambda p: conditional_tsallis(werner(p), "A", q), 0.2, 0.9, xtol=1e-12)
            for q in (1.0, 2.0, 5.0, 20.0, 100.0)
        ]
        assert all(hi > lo for hi, lo in zip(roots, roots[1:])), roots
        assert roots[-1] > 1 / 3

    @pytest.mark.parametrize("q", [2.0, 5.0, 20.0, 50.0, 100.0, 2000.0])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.34, 0.36, 0.5])
    def test_werner_closed_form(self, p, q):
        assert conditional_tsallis(werner(p), "A", q) == pytest.approx(werner_conditional(p, q), rel=1e-11, abs=0)

    def test_overflow_keeps_the_sign(self):
        # Tr rho^q / Tr rho_A^q = exp(1230) at q = 2000, beyond the float range
        assert conditional_tsallis(werner(0.9), "A", 2000.0) == -math.inf

    def test_werner_q100_threshold_near_concurrence_threshold(self):
        from scipy.optimize import brentq

        root = brentq(lambda p: conditional_tsallis(werner(p), "A", 100.0), 0.2, 0.9, xtol=1e-12)
        assert abs(root - 1 / 3) <= 0.01
        with mpmath.workdps(50):
            closed = mpmath.findroot(lambda p: werner_power_sum(p, 100) - mpmath.mpf(2) ** -99, 0.34)
        assert root == pytest.approx(float(closed), abs=1e-9)

    def test_product_state_q1_additivity(self):
        rho_a = np.diag([0.9, 0.1]).astype(complex)
        sigma_b = np.diag([0.6, 0.4]).astype(complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        s_other = binary_entropy(0.6)
        assert conditional_tsallis(composite, "A", 1.0) == pytest.approx(s_other, abs=1e-12)
        assert conditional_tsallis(composite, "A", 1.0) >= 0.0


class TestInfinityCriterion:
    def test_werner_boundary(self):
        sat_a, sat_b = tsallis_infinity_criterion(werner(1 / 3))
        assert sat_a and sat_b
        sat_a, sat_b = tsallis_infinity_criterion(werner(1 / 3 + 1e-9))
        assert not sat_a and not sat_b
        sat_a, sat_b = tsallis_infinity_criterion(werner(1 / 3 - 1e-9))
        assert sat_a and sat_b

    def test_pure_entangled_violates(self):
        assert tsallis_infinity_criterion(from_registry("E4")) == (False, False)

    def test_e6_boundary_satisfied(self):
        assert tsallis_infinity_criterion(from_registry("E6")) == (True, True)

    def test_agrees_with_q50_sign_on_reference_states(self):
        states = [from_registry(name) for name in ("E1", "E2", "E3", "E4", "E5", "E6")]
        states += [werner(float(p)) for p in np.arange(0.0, 1.0 + 1e-12, 0.05)]
        for rho in states:
            flags = tsallis_infinity_criterion(rho)
            for side, flag in zip(("A", "B"), flags):
                sign = conditional_tsallis(rho, side, 50.0)
                assert flag == (sign >= -1e-12), (rho, side, sign)

    def test_agrees_with_q100_sign_away_from_boundary(self):
        states = [from_registry(name) for name in ("E1", "E2", "E3", "E4", "E5", "E6")]
        states += [werner(float(p)) for p in np.arange(0.0, 1.0 + 1e-12, 0.05)]
        states += [DensityMatrix(random_mixed(seed, seed % 4 + 1)) for seed in range(40)]
        checked = {True: 0, False: 0}
        for rho in states:
            flags = tsallis_infinity_criterion(rho)
            for side, flag in zip(("A", "B"), flags):
                # multiplicities still decide the sign within ~ln(4)/q of the boundary
                if abs(rho.eigenvalues[0] - rho.marginal(side).eigenvalues[0]) < 0.02:
                    continue
                sign = conditional_tsallis(rho, side, 100.0)
                assert flag == (sign >= 0.0), (rho, side, sign)
                checked[flag] += 1
        assert min(checked.values()) >= 10, checked


class TestMutualEntropy:
    """S(A) + S(B) - S(AB), ``classify``'s ``mutual``."""

    def test_product_example_zero(self):
        assert classify(from_registry("E5")).mutual == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert classify(from_registry("E4")).mutual == pytest.approx(2 * LN2, abs=1e-12)

    def test_isospectral_pair_share_value(self):
        expected = (3 * LN3 - 2 * LN2) / 3
        for rho in (from_registry("iso:E"), from_registry("iso:S")):
            assert classify(rho).mutual == pytest.approx(expected, abs=1e-10)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_nonnegative_property(self, seed):
        rho = DensityMatrix(random_mixed(seed, seed % 4 + 1))
        assert classify(rho).mutual >= -1e-10

    def test_zero_iff_product(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        sigma_b = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        product = DensityMatrix(tensor_product(rho_a, sigma_b))
        assert classify(product).mutual <= 1e-10
        # and a correlated state is bounded away from zero
        assert classify(from_registry("E6")).mutual > 0.5


def _relative_entropy_oracle(m1: np.ndarray, m2: np.ndarray) -> float:
    """Tr m1 (logm m1 - logm m2) by scipy's matrix logarithm; both must be full rank."""
    return float(np.real(np.trace(m1 @ (logm(m1) - logm(m2)))))


def relative_entropy(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """``relative_entropy_stack`` on one pair of validated states."""
    pair = (rho1.matrix[None], rho1.eigenvalues[None], rho2.eigenvalues[None], rho2.eigenvectors[None])
    return float(relative_entropy_stack(*pair)[0])


class TestRelativeEntropy:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_logm_oracle_on_full_rank_pairs(self, seed):
        rho1, rho2 = DensityMatrix(random_mixed(2 * seed, 4)), DensityMatrix(random_mixed(2 * seed + 1, 4))
        want = _relative_entropy_oracle(rho1.matrix, rho2.matrix)
        assert relative_entropy(rho1, rho2) == pytest.approx(want, abs=1e-10)

    def test_matches_logm_oracle_inside_rank_three_support(self):
        rng = np.random.default_rng(29)
        support = haar_unitary(rng, 4)[:, :3]
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sigma = z @ z.conj().T / np.trace(z @ z.conj().T).real
        rho1 = DensityMatrix(support @ sigma @ support.conj().T)
        rho2 = DensityMatrix((support * [0.5, 0.3, 0.2]) @ support.conj().T)
        assert rho2.eigenvalues[-1] == pytest.approx(0.0, abs=1e-15)
        # Both states live on the same 3-dimensional support, where logm is defined.
        want = _relative_entropy_oracle(*(support.conj().T @ m @ support for m in (rho1.matrix, rho2.matrix)))
        assert relative_entropy(rho1, rho2) == pytest.approx(want, abs=1e-10)

    def test_self_distance_zero(self):
        rho = werner(0.4)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        pure = pure_density([1, 0, 0, 0])
        mixed = DensityMatrix(np.eye(4) / 4)
        assert relative_entropy(pure, mixed) == pytest.approx(math.log(4), abs=1e-12)

    def test_klein_mechanism_for_decohered_state(self):
        rho = werner(0.5)
        m = rho.matrix[None]
        rho_d = DensityMatrix(decohere_stack(m, rho.eigenvectors[None]).matrices[0])
        gap = von_neumann(rho_d) - von_neumann(rho)
        assert relative_entropy(rho, rho_d) == pytest.approx(gap, abs=1e-10)
        assert gap >= 0.0

    def test_support_violation_returns_infinity(self):
        full = DensityMatrix(np.eye(4) / 4)
        pure = from_registry("E4")
        assert relative_entropy(full, pure) == math.inf

    def test_positive_for_distinct_states(self):
        assert relative_entropy(werner(0.3), werner(0.6)) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(CheckError) as err:
            relative_entropy(werner(0.5), DensityMatrix(np.eye(2) / 2))
        assert err.value.check == "dims"


class TestPureStateTheoremB:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_marginal_entropies_equal_and_conditional_nonpositive(self, seed):
        amps = random_pure(seed)
        rho = pure_density(amps)
        s_a = von_neumann(rho.marginal("A"))
        s_b = von_neumann(rho.marginal("B"))
        assert abs(s_a - s_b) <= 1e-9
        for side in ("A", "B"):
            assert conditional_tsallis(rho, side, 1.0) <= 1e-10

    def test_separable_pure_state_has_zero_conditional(self):
        rho = pure_density([0, 1, 0, 0])
        for side in ("A", "B"):
            assert abs(conditional_tsallis(rho, side, 1.0)) <= 1e-12
