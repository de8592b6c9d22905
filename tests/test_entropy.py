import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from qdeficit.entropy import (
    conditional_tsallis,
    entropy_stack,
    relative_entropy_stack,
    tsallis_infinity_criterion,
    tsallis_stack,
)
from qdeficit.linalg import CheckError, DensityMatrix, Tolerances, density_stack, tensor_product
from qdeficit.states import (
    from_registry,
    pure_density,
    werner,
    werner_matrices,
)
from qdeficit.structure import classify, classify_stack, decohere_stack

from helpers import haar_unitary, numpy_spectrum, random_mixed, random_pure, spectra

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


def conditional(rho, q=1.0):
    """``conditional_tsallis`` of one state: (S_q(AB) - S_q(A), S_q(AB) - S_q(B))."""
    return conditional_tsallis(*spectra([rho.matrix]), q)[0]


def entropy(rho):
    """S(rho) of one validated state, row 0 of ``entropy_stack``."""
    return entropy_stack(rho.eigenvalues[None])[0]


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
            lambda rho, tols: entropy_stack(rho.eigenvalues[None], tols=tols),
            lambda rho, tols: tsallis_stack(rho.eigenvalues[None], 2.0, tols=tols),
            lambda rho, tols: conditional_tsallis(*spectra([rho.matrix]), 2.0, tols=tols),
        ],
        ids=["entropy_stack", "tsallis_stack", "conditional_tsallis"],
    )
    def test_negative_eigenvalue_beyond_the_bound_fails(self, entropy):
        assert np.isfinite(entropy(self.RHO, Tolerances())).all()
        with pytest.raises(CheckError, match="negative eigenvalue in entropy input") as err:
            entropy(self.RHO, Tolerances(0.1))
        assert err.value.check == "psd"
        assert err.value.magnitude == pytest.approx(-5e-11)


class TestVonNeumann:
    """-Tr rho ln rho through ``entropy_stack``."""

    def test_pure_state_zero(self):
        assert entropy(from_registry("E4")) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert entropy_stack(density_stack(np.eye(2)[None] / 2)[0])[0] == pytest.approx(LN2)

    def test_werner_half(self):
        expected = -0.625 * math.log(0.625) - 3 * 0.125 * math.log(0.125)
        assert entropy(werner(0.5)) == pytest.approx(expected, abs=1e-12)


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
                conditional_tsallis(*spectra([werner(0.5).matrix]), q)

    def test_continuity_at_q_one(self):
        for rho in (werner(0.5), from_registry("E1"), DensityMatrix(random_mixed(4, 3))):
            s1 = entropy(rho)
            above = tsallis_stack(rho.eigenvalues[None], 1.0 + 1e-4)[0]
            below = tsallis_stack(rho.eigenvalues[None], 1.0 - 1e-4)[0]
            assert abs(above - s1) <= 1e-3
            assert abs(below - s1) <= 1e-3
            # the symmetric mean cancels the linear term in (q - 1)
            assert abs((above + below) / 2 - s1) <= 1e-6


class TestEntropyDifference:
    """S_q(AB) - S_q(X) through ``conditional_tsallis``; at q = 1 it is the plain difference."""

    def test_e1_negative_on_a_zero_on_b(self):
        diff_a, diff_b = conditional(from_registry("E1"), 1.0)
        assert diff_a == pytest.approx((5 / 6) * math.log(4 / 5), abs=1e-10)
        assert diff_b == pytest.approx(0.0, abs=1e-10)

    def test_e2_positive_both_sides(self):
        expected = (5 / 6) * math.log(5 / 4)
        assert conditional(from_registry("E2"), 1.0) == pytest.approx([expected, expected], abs=1e-10)

    def test_e3_zero_for_all_q(self):
        rho = from_registry("E3")
        for q in (0.5, 1.0, 2.0, 5.0):
            assert np.max(np.abs(conditional(rho, q))) <= 1e-12

    def test_product_state_gives_other_factor_entropy(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = z @ z.conj().T
        rho_a = m / np.trace(m).real
        sigma_b = np.array([[0.85, 0.1], [0.1, 0.15]], dtype=complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        s_a, s_b = entropy_stack(density_stack(np.array([rho_a, sigma_b]))[0])
        assert conditional(composite, 1.0) == pytest.approx([s_b, s_a], abs=1e-10)


def _werner_conditional_a(p, q):
    """S_q(AB) - S_q(A) of werner(p): the stack kernel evaluated at one p."""
    return conditional_tsallis(*spectra(werner_matrices(p)), q)[0, 0]


class TestConditionalTsallis:
    def test_reduces_to_difference_at_q_one(self):
        for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
            rho = from_registry(name)
            # The marginals by an einsum partial trace and numpy's solver, away from the kernels.
            parts = (np.einsum(pattern, rho.matrix.reshape(2, 2, 2, 2)) for pattern in ("ikjk->ij", "kikj->ij"))
            marginal_entropies = entropy_stack(np.array([numpy_spectrum(part) for part in parts]))
            diff = entropy(rho) - marginal_entropies
            assert conditional(rho, 1.0) == pytest.approx(diff, abs=1e-14)
            # the q != 1 branch joins the q = 1 value continuously
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                assert conditional(rho, q) == pytest.approx(diff, abs=1e-5)

    def test_bell_state_minus_ln2(self):
        assert conditional(from_registry("E4"), 1.0) == pytest.approx([-LN2, -LN2], abs=1e-12)

    def test_werner_zero_crossing_near_0747(self):
        from scipy.optimize import brentq

        root = brentq(lambda p: _werner_conditional_a(p, 1.0), 0.5, 0.9, xtol=1e-12)
        # p*(1) solves S(werner(p)) = ln 2
        assert root == pytest.approx(0.747613833446, abs=1e-9)

    def test_werner_q2_threshold_below_conditional_one(self):
        # at q=2 the Werner conditional crosses zero at p = 1/sqrt(3)
        from scipy.optimize import brentq

        root = brentq(lambda p: conditional_tsallis(*spectra(werner_matrices(p)), 2.0)[0, 0], 0.3, 0.9, xtol=1e-12)
        assert root == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        # p*(q) falls strictly with q towards the concurrence threshold 1/3
        qs = (1.0, 2.0, 5.0, 20.0, 100.0)
        roots = [brentq(lambda p: _werner_conditional_a(p, q), 0.2, 0.9, xtol=1e-12) for q in qs]
        assert all(hi > lo for hi, lo in zip(roots, roots[1:])), roots
        assert roots[-1] > 1 / 3

    @pytest.mark.parametrize("q", [2.0, 5.0, 20.0, 50.0, 100.0, 2000.0])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.34, 0.36, 0.5])
    def test_werner_closed_form(self, p, q):
        assert conditional(werner(p), q)[0] == pytest.approx(werner_conditional(p, q), rel=1e-11, abs=0)

    def test_overflow_keeps_the_sign(self):
        # Tr rho^q / Tr rho_A^q = exp(1230) at q = 2000, beyond the float range
        assert conditional(werner(0.9), 2000.0)[0] == -math.inf

    def test_werner_q100_threshold_near_concurrence_threshold(self):
        from scipy.optimize import brentq

        root = brentq(lambda p: _werner_conditional_a(p, 100.0), 0.2, 0.9, xtol=1e-12)
        assert abs(root - 1 / 3) <= 0.01
        with mpmath.workdps(50):
            closed = mpmath.findroot(lambda p: werner_power_sum(p, 100) - mpmath.mpf(2) ** -99, 0.34)
        assert root == pytest.approx(float(closed), abs=1e-9)

    def test_product_state_q1_additivity(self):
        rho_a = np.diag([0.9, 0.1]).astype(complex)
        sigma_b = np.diag([0.6, 0.4]).astype(complex)
        composite = DensityMatrix(tensor_product(rho_a, sigma_b))
        s_other = binary_entropy(0.6)
        diff_a = conditional(composite, 1.0)[0]
        assert diff_a == pytest.approx(s_other, abs=1e-12)
        assert diff_a >= 0.0


def _reference_matrices():
    """E1-E6 and werner(p) on a 0.05 grid, ``(27, 4, 4)``."""
    examples = [from_registry(name).matrix for name in ("E1", "E2", "E3", "E4", "E5", "E6")]
    return np.concatenate([examples, werner_matrices(np.arange(0.0, 1.0 + 1e-12, 0.05))])


class TestInfinityCriterion:
    def test_werner_boundary(self):
        flags = tsallis_infinity_criterion(*spectra(werner_matrices([1 / 3, 1 / 3 + 1e-9, 1 / 3 - 1e-9])))
        assert flags.tolist() == [[True, True], [False, False], [True, True]]

    def test_pure_entangled_violates(self):
        assert tsallis_infinity_criterion(*spectra([from_registry("E4").matrix])).tolist() == [[False, False]]

    def test_e6_boundary_satisfied(self):
        assert tsallis_infinity_criterion(*spectra([from_registry("E6").matrix])).tolist() == [[True, True]]

    def test_agrees_with_q50_sign_on_reference_states(self):
        w, marg_w = spectra(_reference_matrices())
        signs = conditional_tsallis(w, marg_w, 50.0)
        assert np.array_equal(tsallis_infinity_criterion(w, marg_w), signs >= -1e-12), signs

    def test_agrees_with_q100_sign_away_from_boundary(self):
        mixed = [random_mixed(seed, seed % 4 + 1) for seed in range(40)]
        w, marg_w = spectra(np.concatenate([_reference_matrices(), mixed]))
        flags = tsallis_infinity_criterion(w, marg_w)
        signs = conditional_tsallis(w, marg_w, 100.0)
        # multiplicities still decide the sign within ~ln(4)/q of the boundary
        away = np.abs(w[:, None, 0] - marg_w[..., 0]) >= 0.02
        assert np.array_equal(flags[away], signs[away] >= 0.0), signs
        checked = {flag: int(np.count_nonzero(flags[away] == flag)) for flag in (True, False)}
        assert min(checked.values()) >= 10, checked


def _mixed_stack():
    """200 ``random_mixed`` states of ranks 1-4, then werner(p) on a 0.02 grid: ``(251, 4, 4)``."""
    mixed = [random_mixed(seed, seed % 4 + 1) for seed in range(200)]
    return np.concatenate([mixed, werner_matrices(np.linspace(0.0, 1.0, 51))])


class TestConditionalStacks:
    """Each state's row of a stack is what the kernels give that state alone."""

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 50.0, 2000.0])
    def test_conditional_rows_are_the_one_state_calls(self, q):
        w, marg_w = spectra(_mixed_stack())
        rows = conditional_tsallis(w, marg_w, q)
        alone = np.concatenate([conditional_tsallis(w[k : k + 1], marg_w[k : k + 1], q) for k in range(len(w))])
        assert np.array_equal(rows, alone)

    def test_criterion_rows_are_the_one_state_calls(self):
        w, marg_w = spectra(_mixed_stack())
        alone = [tsallis_infinity_criterion(w[k : k + 1], marg_w[k : k + 1]) for k in range(len(w))]
        assert np.array_equal(tsallis_infinity_criterion(w, marg_w), np.concatenate(alone))

    def test_overflow_stays_in_its_row_and_warns_nothing(self):
        # Werner marginals are both I/2, so werner(0.9) overflows on both sides, and werner(0.2) on neither.
        w, marg_w = spectra(werner_matrices([0.9, 0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = conditional_tsallis(w, marg_w, 2000.0)
        assert rows[0].tolist() == [-math.inf, -math.inf]
        assert np.isfinite(rows[1]).all()

    def test_q_one_matches_the_frame_values_route(self):
        """The marginals' eigenvalues against ``classify_stack``'s S(AB) - S(X), read from the Fano frame values."""
        m = _mixed_stack()
        report = classify_stack(m)
        frame_route = np.stack([report.entropy_diff_a, report.entropy_diff_b], axis=-1)
        assert np.max(np.abs(conditional_tsallis(*spectra(m), 1.0) - frame_route)) <= 1e-14


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
        gap = entropy(rho_d) - entropy(rho)
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
        w, marg_w = spectra([pure_density(amps).matrix])
        s_a, s_b = entropy_stack(marg_w)[0]
        assert abs(s_a - s_b) <= 1e-9
        assert np.max(conditional_tsallis(w, marg_w, 1.0)) <= 1e-10

    def test_separable_pure_state_has_zero_conditional(self):
        assert np.max(np.abs(conditional(pure_density([0, 1, 0, 0]), 1.0))) <= 1e-12
