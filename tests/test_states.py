import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeficit.concurrence import pure_concurrence
from qdeficit.linalg import CheckError, DensityMatrix, Tolerances, fano_stack, marginal_stack
from qdeficit.states import (
    EXAMPLE_NAMES,
    REFERENCE_FIGURES,
    RegistryError,
    bloch_vectors,
    correlation_tensor,
    from_registry,
    werner_matrices,
)
from qdeficit.structure import Classification

import unfused
from helpers import I2, SX, SY, SZ, pure_density, random_mixed, random_pure, werner

SINGLET = np.array([0, 1, -1, 0]) / math.sqrt(2)
PRODUCT_11 = np.array([1, 0, 0, 0], dtype=complex)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        assert np.max(np.abs(werner(0.0).matrix - np.eye(4) / 4)) == 0.0

    def test_p_one_is_pure_bell(self):
        vals = werner(1.0).eigenvalues
        assert np.allclose(vals, [1, 0, 0, 0], atol=1e-15)

    def test_half_spectrum(self):
        assert np.allclose(werner(0.5).eigenvalues, [0.625, 0.125, 0.125, 0.125], atol=1e-15)

    def test_rejects_out_of_range(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                werner(p)

    def test_grid_spectrum_and_marginals(self):
        for p in np.arange(0.0, 1.0 + 1e-12, 0.01):
            rho = werner(float(p))
            expected = sorted([(3 * p + 1) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4], reverse=True)
            assert np.max(np.abs(rho.eigenvalues - expected)) <= 1e-12
            assert np.max(np.abs(marginal_stack(rho.matrix[None])[0][0] - np.eye(2) / 2)) <= 1e-12

    def test_pauli_expansion_on_grid(self):
        correlations = np.kron(SX, SX) - np.kron(SY, SY) + np.kron(SZ, SZ)
        for p in np.arange(0.0, 1.0 + 1e-12, 0.05):
            expected = (np.kron(I2, I2) + p * correlations) / 4
            assert np.max(np.abs(werner(float(p)).matrix - expected)) <= 1e-12


class TestExampleStates:
    SPECTRA = {
        "E1": (Fraction(5, 6), Fraction(1, 6), 0, 0),
        "E2": (Fraction(2, 3), Fraction(1, 3), 0, 0),
        "E3": (Fraction(2, 3), Fraction(1, 3), 0, 0),
        "E4": (1, 0, 0, 0),
        "E5": (Fraction(1, 2), Fraction(1, 2), 0, 0),
        "E6": (Fraction(1, 2), Fraction(1, 2), 0, 0),
    }

    MARGINALS = {
        "E1": ((Fraction(4, 6), Fraction(2, 6)), (Fraction(1, 6), Fraction(5, 6))),
        "E2": ((Fraction(1, 6), Fraction(5, 6)), (Fraction(1, 6), Fraction(5, 6))),
        "E3": ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3))),
        "E4": ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))),
        "E5": ((0, 1), (Fraction(1, 2), Fraction(1, 2))),
        "E6": ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))),
    }

    @pytest.mark.parametrize("name", list(SPECTRA))
    def test_spectrum(self, name):
        expected = [float(v) for v in self.SPECTRA[name]]
        assert np.max(np.abs(DensityMatrix(from_registry(name)).eigenvalues - expected)) <= 1e-12

    @pytest.mark.parametrize("name", list(MARGINALS))
    def test_marginal_diagonals(self, name):
        marg_a, marg_b = marginal_stack(from_registry(name)[None])[0][0]
        diag_a, diag_b = self.MARGINALS[name]
        assert np.max(np.abs(marg_a - np.diag([float(v) for v in diag_a]))) <= 1e-15
        assert np.max(np.abs(marg_b - np.diag([float(v) for v in diag_b]))) <= 1e-15

    def test_singlet_matches_amplitude_construction(self):
        assert np.max(np.abs(from_registry("E4") - pure_density(SINGLET).matrix)) < 1e-15

    def test_unknown_name(self):
        with pytest.raises(RegistryError):
            from_registry("E7")


class TestIsospectralPair:
    def test_identical_global_spectra(self):
        rho_e, rho_s = DensityMatrix(from_registry("iso:E")), DensityMatrix(from_registry("iso:S"))
        assert np.max(np.abs(rho_e.eigenvalues - rho_s.eigenvalues)) <= 1e-12
        assert np.allclose(rho_e.eigenvalues, [2 / 3, 1 / 3, 0, 0], atol=1e-15)

    def test_marginal_spectra_coincide_as_sets(self):
        marg_w = marginal_stack(np.stack([from_registry("iso:E"), from_registry("iso:S")]))[1]
        spectra = [sorted(np.round(values, 12)) for values in marg_w.reshape(4, 2)]
        for s in spectra[1:]:
            assert s == spectra[0]


class TestPureDensity:
    """A ``pure:`` spec's projector, validated as ``DensityMatrix`` validates it."""

    def test_basis_state(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(DensityMatrix(from_registry("pure:1,0,0,0")).matrix, expected)

    def test_rejects_unnormalized(self):
        # |psi|^2 is the projector's trace: no amplitude is renormalized silently.
        with pytest.raises(CheckError) as err:
            DensityMatrix(from_registry("pure:1,0.5,0,0"))
        assert err.value.check == "trace"
        assert err.value.magnitude == pytest.approx(0.25)

    def test_random_states_are_projectors(self):
        for seed in range(30):
            rho = pure_density(random_pure(seed))
            assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-10


class TestBlochVectors:
    def test_singlet_is_unpolarized(self):
        assert bloch_vectors(SINGLET).shape == (2, 3)
        assert np.max(np.abs(bloch_vectors(SINGLET))) < 1e-15

    def test_computational_product(self):
        assert np.array_equal(bloch_vectors(PRODUCT_11), [[0, 0, 1], [0, 0, 1]])

    def test_bell_phi_plus(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.max(np.abs(bloch_vectors(amps))) < 1e-15

    def test_transverse_polarization(self):
        # (|1> + i|0>)/sqrt(2) on A gives s(A) = (0, 1, 0)
        amps = np.array([1, 0, 1j, 0]) / math.sqrt(2)
        assert tuple(bloch_vectors(amps)[0]) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_consistent_with_marginals(self):
        for seed in range(40):
            amps = random_pure(seed)
            rho = pure_density(amps)
            s_a, s_b = bloch_vectors(amps)
            rebuilt_a = (I2 + s_a[0] * SX + s_a[1] * SY + s_a[2] * SZ) / 2
            rebuilt_b = (I2 + s_b[0] * SX + s_b[1] * SY + s_b[2] * SZ) / 2
            mats, values = marginal_stack(rho.matrix[None])
            assert np.max(np.abs(rebuilt_a - mats[0, 0])) <= 1e-10
            assert np.max(np.abs(rebuilt_b - mats[0, 1])) <= 1e-10
            for k, vec in enumerate((s_a, s_b)):
                expected = [(1 + np.linalg.norm(vec)) / 2, (1 - np.linalg.norm(vec)) / 2]
                assert np.max(np.abs(values[0, k] - expected)) <= 1e-10

    def test_equals_pauli_expectations(self):
        # s_i(A) = Tr rho (sigma_i x I) and s_j(B) = Tr rho (I x sigma_j)
        for seed in range(200):
            amps = random_pure(seed)
            rho = pure_density(amps).matrix
            want = [[np.trace(rho @ np.kron(p, I2)).real for p in (SX, SY, SZ)],
                    [np.trace(rho @ np.kron(I2, p)).real for p in (SX, SY, SZ)]]
            assert np.max(np.abs(bloch_vectors(amps) - want)) <= 1e-14


class TestCorrelationTensor:
    def test_computational_product(self):
        c = correlation_tensor(PRODUCT_11)
        assert c.shape == (3, 3)
        assert np.max(np.abs(c - np.diag([0.0, 0.0, 1.0]))) < 1e-15

    def test_singlet_fully_anticorrelated(self):
        c = correlation_tensor(SINGLET)
        assert np.max(np.abs(c - np.diag([-1.0, -1.0, -1.0]))) < 1e-15

    def test_matches_direct_expectation_values(self):
        paulis = (SX, SY, SZ)
        for seed in range(25):
            amps = random_pure(seed)
            rho = pure_density(amps).matrix
            c = correlation_tensor(amps)
            for i in range(3):
                for j in range(3):
                    direct = np.trace(rho @ np.kron(paulis[i], paulis[j])).real
                    assert abs(c[i, j] - direct) < 1e-12

    def test_full_pauli_reconstruction(self):
        paulis = (SX, SY, SZ)
        for seed in range(200):
            amps = random_pure(seed)
            rho = pure_density(amps).matrix
            s_a, s_b = bloch_vectors(amps)
            c = correlation_tensor(amps)
            rebuilt = np.kron(I2, I2).astype(complex)
            for i, pauli in enumerate(paulis):
                rebuilt += s_a[i] * np.kron(pauli, I2)
                rebuilt += s_b[i] * np.kron(I2, pauli)
            for i in range(3):
                for j in range(3):
                    rebuilt += c[i, j] * np.kron(paulis[i], paulis[j])
            assert np.max(np.abs(rebuilt / 4 - rho)) <= 1e-10


class TestPairProductTable:
    """The table of pair products against the closed forms written pair by pair, and against the Fano route."""

    @staticmethod
    def _amplitudes(n):
        a = np.random.default_rng(n).standard_normal((n, 8)).view(complex)
        return a / np.linalg.norm(a, axis=-1, keepdims=True)

    @pytest.mark.parametrize("n", [1, 6, 86, 200])
    def test_bit_identical_to_the_pair_by_pair_forms(self, n):
        """86 is the most pure rows an audit stack holds."""
        amps = self._amplitudes(n)
        assert np.array_equal(bloch_vectors(amps), unfused.bloch_vectors(amps))
        assert np.array_equal(correlation_tensor(amps), unfused.correlation_tensor(amps))

    def test_basis_states_bit_identical(self):
        for amps in (np.eye(4, dtype=complex), *np.eye(4, dtype=complex)):
            assert np.array_equal(bloch_vectors(amps), unfused.bloch_vectors(amps))
            assert np.array_equal(correlation_tensor(amps), unfused.correlation_tensor(amps))

    def test_rows_of_the_fano_coefficients(self):
        """R[i, 0] = s_i(A), R[0, j] = s_j(B) and R[i, j] = C_ij of a a^dagger."""
        amps = self._amplitudes(200)
        r = fano_stack(np.einsum("...i,...j->...ij", amps, amps.conj()))
        vecs = bloch_vectors(amps)
        assert np.max(np.abs(r[:, 1:, 0] - vecs[:, 0])) <= 1e-15
        assert np.max(np.abs(r[:, 0, 1:] - vecs[:, 1])) <= 1e-15
        assert np.max(np.abs(r[:, 1:, 1:] - correlation_tensor(amps))) <= 1e-15


def _purity_and_residual(amps):
    """Marginal purity (1 + |s(A)|^2)/2 and the residual of 1 - |s(A)|^2 = C^2, from the closed forms."""
    mag2 = np.sum(bloch_vectors(amps)[..., 0, :] ** 2, axis=-1)
    return (1.0 + mag2) / 2.0, np.abs((1.0 - mag2) - pure_concurrence(amps) ** 2)


class TestPurityCheck:
    def test_product_state(self):
        purity, residual = _purity_and_residual(PRODUCT_11)
        assert purity == pytest.approx(1.0)
        assert residual < 1e-15

    def test_singlet(self):
        purity, residual = _purity_and_residual(SINGLET)
        assert purity == pytest.approx(0.5)
        assert residual < 1e-15

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_identity_and_symmetry_property(self, seed):
        amps = random_pure(seed)
        purity, residual = _purity_and_residual(amps)
        assert residual <= 1e-10
        marginal = marginal_stack(pure_density(amps).matrix[None])[0][0, 0]
        assert abs(purity - np.trace(marginal @ marginal).real) <= 1e-12
        s_a, s_b = bloch_vectors(amps)
        assert abs(np.linalg.norm(s_a) - np.linalg.norm(s_b)) <= 1e-10


class TestSamplers:
    def test_pure_normalized_and_deterministic(self):
        for seed in (0, 1, 999):
            amps = random_pure(seed)
            assert amps.shape == (4,)
            assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-12
            assert np.array_equal(amps, random_pure(seed))

    def test_mean_concurrence_smoke_bound(self):
        total = sum(pure_concurrence(random_pure(seed)) for seed in range(10_000))
        assert 0.3 < total / 10_000 < 0.6

    def test_mixed_rank_one_is_pure(self):
        m = random_mixed(5, 1)
        assert np.max(np.abs(m @ m - m)) < 1e-10

    def test_mixed_validity_and_determinism(self):
        for rank in (1, 2, 3, 4):
            rho = DensityMatrix(random_mixed(11, rank))
            assert np.array_equal(rho.matrix, random_mixed(11, rank))
        with pytest.raises(ValueError):
            random_mixed(1, 5)

    def test_mixed_draw_is_bit_identical_to_one_random_pure_per_vector(self):
        """random_mixed draws its vectors in one call; the loop of random_pure draws it replaces is the oracle."""
        for seed in range(500):
            for rank in (1, 2, 3, 4):
                rng = np.random.default_rng(seed)
                weights = rng.exponential(size=rank)
                weights /= weights.sum()
                want = np.zeros((4, 4), dtype=complex)
                for w in weights:
                    v = random_pure(rng)
                    want += w * np.outer(v, v.conj())
                want = 0.5 * (want + want.conj().T)
                got = random_mixed(seed, rank)
                assert np.array_equal(got, want), (seed, rank)
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float))), (seed, rank)

    def test_mixed_full_rank_spectrum(self):
        vals = DensityMatrix(random_mixed(3, 4)).eigenvalues
        assert vals[-1] > 1e-6


class TestReferenceFigures:
    """The paper's figures are checked whole: a record's every figure is one a reference command compares."""

    COLUMNS = set(Classification._fields) | {"deficit_over_ln2", "mutual_over_ln2"}

    def test_the_records_are_table1_and_the_isospectral_pair(self):
        assert set(REFERENCE_FIGURES) == {*EXAMPLE_NAMES, "iso:E", "iso:S"}

    @pytest.mark.parametrize("name", sorted(REFERENCE_FIGURES))
    def test_record_is_whole(self, name):
        record = REFERENCE_FIGURES[name]
        assert from_registry(name).shape == (4, 4)
        assert set(record) == {"closed", "printed"}
        assert record["closed"] and set(record["closed"]) <= self.COLUMNS
        # A printed decimal is compared only beside its closed form.
        assert set(record["printed"]) <= set(record["closed"])


class TestRegistry:
    # Entry by entry in the basis |11>, |10>, |01>, |00>, times 3.
    NAMED = {
        "E3": [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
        "iso:E": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]],
        "iso:S": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2]],
    }

    def test_named_states(self):
        for name, thirds in self.NAMED.items():
            assert np.max(np.abs(from_registry(name) - np.array(thirds) / 3)) <= 1e-16, name

    def test_werner_spec(self):
        assert np.array_equal(from_registry("werner:0.25"), werner_matrices([0.25])[0])

    def test_pure_spec(self):
        m = from_registry("pure:0.70710678118654752,0,0,0.70710678118654752")
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.max(np.abs(m - np.outer(amps, amps))) < 1e-12

    def test_pure_spec_complex_components(self):
        m = from_registry("pure:0.5+0.5j,0.5,0,0.5j")
        assert np.linalg.eigvalsh(m)[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        ("spec", "dtype"),
        [(name, np.float64) for name in ("E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S", "werner:0.3")]
        + [("pure:0.6,0.8j,0,0", np.complex128), ("pure:1,0,0,0", np.complex128)],
    )
    def test_returns_an_unvalidated_matrix_of_its_dtype(self, spec, dtype):
        m = from_registry(spec)
        assert type(m) is np.ndarray
        assert (m.shape, m.dtype) == ((4, 4), dtype)

    @pytest.mark.parametrize("spec", ["E1", "iso:S", "werner:0.3", "pure:0.6,0.8j,0,0"])
    def test_a_write_through_the_result_leaves_the_next_call_unchanged(self, spec):
        first = from_registry(spec)
        want = first.copy()
        first[0, 0] = 7.0
        assert np.array_equal(from_registry(spec), want)

    @pytest.mark.parametrize(
        "bad",
        ["E9", "werner:1.5", "werner:x", "pure:1,0,0", "pure:a,b,c,d", "nonsense"],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(RegistryError):
            from_registry(bad)


class TestNaNFailsTheBounds:
    """Each bound is written so that a NaN fails it."""

    def test_pure_amplitudes(self):
        with pytest.raises(CheckError) as err:
            DensityMatrix(from_registry("pure:nan,0,0,0"))
        assert err.value.check == "finite"

    # Nothing checks amplitudes before the closed forms: their own bounds must catch the NaN row.
    NAN_AMPS = np.array([PRODUCT_11, SINGLET, [math.nan, 0, 0, 0], [math.nan, 0, 0, 0]])

    def test_bloch_vector(self):
        with pytest.raises(CheckError, match="state 2") as err:
            bloch_vectors(self.NAN_AMPS)
        assert err.value.check == "bloch norm"

    def test_correlation_tensor(self):
        with pytest.raises(CheckError, match="state 2") as err:
            correlation_tensor(self.NAN_AMPS)
        assert err.value.check == "correlation bound"


class TestPolarizationBounds:
    """|s| <= 1 and |C_ij| <= 1 hold to ``tols.hermiticity``, so the tolerance scale reaches them."""

    # |a11|^2 = 1 + 5e-9: the closed forms check no normalization, only their own bounds.
    LONG = np.array([math.sqrt(1 + 5e-9), 0, 0, 0])

    @pytest.mark.parametrize(
        ("func", "check"), [(bloch_vectors, "bloch norm"), (correlation_tensor, "correlation bound")]
    )
    def test_overshoot_fails_at_default_scale_only(self, func, check):
        with pytest.raises(CheckError) as err:
            func(self.LONG)
        assert err.value.check == check
        assert err.value.magnitude > 4e-9
        assert np.max(np.abs(func(self.LONG, tols=Tolerances(1000.0)))) > 1.0


class TestClosedFormStacks:
    """The closed forms on an amplitude stack ``(50, 4)``: one value per row, whatever the stack."""

    AMPS = np.array([random_pure(seed) for seed in range(50)])
    SHAPES = [(bloch_vectors, (2, 3)), (correlation_tensor, (3, 3)), (pure_concurrence, ())]

    @pytest.mark.parametrize(("func", "shape"), SHAPES, ids=[func.__name__ for func, _ in SHAPES])
    def test_stack_matches_row_by_row_calls(self, func, shape):
        stacked = func(self.AMPS)
        assert stacked.shape == (50, *shape)
        # Not bit-identical: numpy's abs of an array and of a single amplitude may round differently.
        assert np.max(np.abs(stacked - np.array([func(a) for a in self.AMPS]))) <= 1e-15

    def test_stack_matches_reduced_state_formulas(self):
        # psi[a, b] over (|1>, |0>) per qubit: rho_A = psi psi^+, rho_B = psi^T psi^*, and
        # a qubit state (I + s.sigma)/2 has s = (2 Re r01, -2 Im r01, r00 - r11).
        psi = self.AMPS.reshape(50, 2, 2)
        rho_a = psi @ psi.conj().swapaxes(-1, -2)
        rho_b = psi.swapaxes(-1, -2) @ psi.conj()

        def polarization(r):
            return np.stack((2 * r[:, 0, 1].real, -2 * r[:, 0, 1].imag, (r[:, 0, 0] - r[:, 1, 1]).real), axis=-1)

        want_s = np.stack((polarization(rho_a), polarization(rho_b)), axis=1)
        paulis = np.array((SX, SY, SZ))
        want_c = np.einsum("nab,iac,jbd,ncd->nij", psi.conj(), paulis, paulis, psi).real
        assert np.max(np.abs(bloch_vectors(self.AMPS) - want_s)) <= 1e-15
        assert np.max(np.abs(correlation_tensor(self.AMPS) - want_c)) <= 1e-15
        assert np.max(np.abs(pure_concurrence(self.AMPS) - 2 * np.abs(np.linalg.det(psi)))) <= 1e-15

    def test_leading_axes_broadcast(self):
        grid = self.AMPS.reshape(5, 10, 4)
        assert np.array_equal(bloch_vectors(grid).reshape(50, 2, 3), bloch_vectors(self.AMPS))
        assert np.array_equal(correlation_tensor(grid).reshape(50, 3, 3), correlation_tensor(self.AMPS))
        assert np.array_equal(pure_concurrence(grid).reshape(50), pure_concurrence(self.AMPS))


class TestWernerMatrices:
    def test_stack_matches_single_states(self):
        ps = [0.0, 0.3, 1 / 3, 1.0]
        stack = werner_matrices(ps)
        assert stack.shape == (4, 4, 4)
        for p, m in zip(ps, stack):
            assert np.array_equal(m, werner(p).matrix)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_rejects_parameter_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="werner parameter must lie in"):
            werner_matrices([0.2, bad, 0.5])
