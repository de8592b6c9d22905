from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeficit import structure
from qdeficit.entropy import entropy_stack
from qdeficit.linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    density_stack,
    fano_stack,
    marginal_stack,
    tensor_product,
)
from qdeficit.states import from_registry, werner_matrices
from qdeficit.structure import (
    Classification,
    Figures,
    classify,
    classify_stack,
    decohere_stack,
    figures_stack,
    verdicts,
)

from helpers import I2, SZ, numpy_spectrum, random_mixed, werner
from unfused import classify_columns

SEEDED_STATES = st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))

# The two entries over a stack: the figures alone, and the figures with the diagnostics built on them.
ENTRIES = (classify_stack, figures_stack)


def decohere(rho: DensityMatrix, *, tols: Tolerances = TOLS) -> SimpleNamespace:
    """``decohere_stack`` on one state: rho_d validated, with the joint and overlap weights, and the
    frame values of the frame pass on the state's own Fano coefficients."""
    m = rho.matrix[None]
    dec = decohere_stack(m, rho.eigenvectors[None], tols=tols)
    state = DensityMatrix(dec.matrices[0], tols=tols)
    frame_values = structure._frame_pass(fano_stack(m)[:, None], tols).frame_values[0]
    return SimpleNamespace(state=state, joint=dec.joint[0], frame_values=frame_values, weights=dec.weights[0])


def _entropy_oracle(m: np.ndarray) -> float:
    vals = numpy_spectrum(m)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log(vals)))


class TestDecohere:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_preserves_both_marginals(self, seed_rank):
        rho = DensityMatrix(random_mixed(*seed_rank))
        marg_d, marg = marginal_stack(np.stack([decohere(rho).state.matrix, rho.matrix]))[0]
        assert np.max(np.abs(marg_d - marg)) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_idempotent(self, seed_rank):
        rho_d = decohere(DensityMatrix(random_mixed(*seed_rank))).state
        rho_dd = decohere(rho_d).state
        assert np.max(np.abs(rho_dd.matrix - rho_d.matrix)) <= 1e-12

    def test_idempotent_on_degenerate_marginals(self):
        for rho in (werner(0.3), DensityMatrix(from_registry("E5")), DensityMatrix(from_registry("E6"))):
            rho_d = decohere(rho).state
            rho_dd = decohere(rho_d).state
            assert np.max(np.abs(rho_dd.matrix - rho_d.matrix)) <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_joint_sums_are_marginal_spectra(self, seed_rank):
        dec = decohere(DensityMatrix(random_mixed(*seed_rank)))
        assert np.max(np.abs(dec.joint.sum(axis=1) - dec.frame_values[0])) <= 1e-10
        assert np.max(np.abs(dec.joint.sum(axis=0) - dec.frame_values[1])) <= 1e-10

    def test_rejects_non_qubit_dims(self):
        """A stack of qubit states fails ``dims`` at the entry, which names the shape it was given."""
        with pytest.raises(CheckError) as err:
            decohere_stack((np.eye(2) / 2)[None].astype(complex), np.eye(2)[None])
        assert err.value.check == "dims"
        assert str(err.value).endswith("a stack of two-qubit states (N, 4, 4) required, got shape (1, 2, 2)")


class TestQuantumDeficit:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_bounded_by_mutual_entropy(self, seed_rank):
        report = classify(DensityMatrix(random_mixed(*seed_rank)))
        assert -1e-10 <= report.deficit <= report.mutual + 1e-10

    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_gap_to_mutual_entropy_identity(self, seed_rank):
        rho = DensityMatrix(random_mixed(*seed_rank))
        rho_d = decohere(rho).state
        s_d = _entropy_oracle(rho_d.matrix)
        s_a, s_b = (_entropy_oracle(marg) for marg in marginal_stack(rho.matrix[None])[0][0])
        report = classify(rho)
        assert abs(report.deficit - report.mutual - (s_d - s_a - s_b)) <= 1e-9
        assert abs(s_d - entropy_stack(rho_d.eigenvalues[None])[0]) <= 1e-10


def _ratio_loop(marg_vals, connection, big):
    """Entrywise reference for one side of ``structure._ratio_stack``."""
    best = 0.0
    for i, p in enumerate(marg_vals):
        if p <= TOLS.support_cutoff:
            continue
        for g, big_val in enumerate(big):
            if connection[i, g] > 1e-12:
                best = max(best, float(big_val) / float(p))
    return best


def _assert_ratios_match_loop(rho):
    dec = decohere(rho)
    side_max, defined = structure._ratio_stack(dec.weights[None], rho.eigenvalues[None], dec.frame_values[None], TOLS)
    max_a, max_b = side_max[0]
    assert max_a == _ratio_loop(dec.frame_values[0], dec.weights.sum(axis=1), rho.eigenvalues)
    assert max_b == _ratio_loop(dec.frame_values[1], dec.weights.sum(axis=0), rho.eigenvalues)
    report = classify(rho)
    assert bool(defined[0]) is report.conditional_prob_defined
    assert report.worst_eigen_ratio == max(max_a, max_b)
    assert report.conditional_prob_defined is (report.worst_eigen_ratio <= 1.0 + TOLS.hermiticity)


class TestConditionalRatio:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_matches_loop_reference(self, seed_rank):
        _assert_ratios_match_loop(DensityMatrix(random_mixed(*seed_rank)))

    @pytest.mark.parametrize("name", ["E1", "E4", "E5", "E6", "iso:S", "werner:0.5"])
    def test_matches_loop_reference_on_registry(self, name):
        _assert_ratios_match_loop(DensityMatrix(from_registry(name)))


SEPARABLE = "separable (concurrence = 0)"
ZERO_DIFFERENCE = "entangled despite zero entropy difference"
PRODUCT = "classically uncorrelated product state"
FIXED_POINT = "commutes with both marginal eigenframes: decoherence fixed point"
CONDITIONAL = "conditional probabilities defined: eigenvalue ratios bounded by one"


def _degenerate(which: str) -> str:
    return f"degenerate marginal spectrum ({which}): computational-basis frame applied"


class TestClassifyVerdicts:
    @pytest.mark.parametrize(
        "name, verdicts, commutes, defined",
        [
            ("E1", ("entangled (concurrence = 0.666667)",), False, False),
            ("E2", ("entangled (concurrence = 0.333333)",), False, False),
            ("E3", ("entangled (concurrence = 0.666667)", ZERO_DIFFERENCE), False, False),
            ("E4", ("entangled (concurrence = 1)", _degenerate("AB")), False, False),
            ("E5", (SEPARABLE, PRODUCT, FIXED_POINT, CONDITIONAL, _degenerate("B")), True, True),
            ("E6", (SEPARABLE, FIXED_POINT, CONDITIONAL, _degenerate("AB")), True, True),
            ("iso:E", ("entangled (concurrence = 0.666667)", ZERO_DIFFERENCE), False, False),
            ("iso:S", (SEPARABLE, FIXED_POINT, CONDITIONAL), True, True),
            ("werner:0.2", (SEPARABLE, CONDITIONAL, _degenerate("AB")), False, True),
            ("werner:0.5", ("entangled (concurrence = 0.25)", _degenerate("AB")), False, False),
        ],
    )
    def test_pinned(self, name, verdicts, commutes, defined):
        report = classify(DensityMatrix(from_registry(name)))
        assert structure.verdicts(report) == verdicts
        assert report.commutes_with_marginals is commutes
        assert report.conditional_prob_defined is defined


def _random_qubit_state(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = z @ z.conj().T
    return m / np.trace(m).real


class TestCommutesWithMarginals:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_decohered_state_is_a_fixed_point(self, seed_rank):
        rho_d = decohere(DensityMatrix(random_mixed(*seed_rank))).state
        assert classify(rho_d).commutes_with_marginals

    @pytest.mark.parametrize("seed", range(10))
    def test_product_state_is_a_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(tensor_product(_random_qubit_state(rng), _random_qubit_state(rng)))
        assert classify(rho).commutes_with_marginals

    @pytest.mark.parametrize("seed", range(20))
    def test_generic_state_is_not(self, seed):
        assert not classify(DensityMatrix(random_mixed(seed, 1 + seed % 4))).commutes_with_marginals


class TestScaledChecks:
    """The frame's and the classifier's bounds read ``tols``, so ``Tolerances(scale)`` reaches them."""

    def test_marginal_normalization_scales(self):
        loose = Tolerances(10.0)
        noisy = werner(0.5).matrix.copy()
        noisy[0, 0] += 5e-10  # both marginals' traces are off by 5e-10
        rho = DensityMatrix(noisy, tols=loose)
        checks = []
        for func in (decohere, classify):
            with pytest.raises(CheckError) as err:
                func(rho)
            checks.append(err.value.check)
        assert checks == ["trace", "trace"]
        assert decohere(rho, tols=loose).frame_values.sum(axis=-1) == pytest.approx([1 + 5e-10] * 2, abs=1e-15)
        assert classify(rho, tols=loose).deficit == pytest.approx(classify(werner(0.5)).deficit, abs=1e-8)

    def test_frame_psd_scales(self):
        """A state validated under looser bounds whose rho_A has the eigenvalue -5e-10: the frame's
        psd check on its frame values fails at the default bound and passes at ten times it."""
        rho = DensityMatrix(np.diag([0.5, 0.5 + 5e-10, 0.0, -5e-10]), tols=Tolerances(10.0))
        with pytest.raises(CheckError) as err:
            decohere(rho)
        assert str(err.value) == "psd check failed (magnitude -5e-10): negative eigenvalue"
        assert decohere(rho, tols=Tolerances(10.0)).frame_values[0] == pytest.approx([1 + 5e-10, -5e-10], abs=1e-16)

    def test_classify_checks_the_spectrum_of_rho_before_its_marginals(self):
        """A state validated under looser bounds, whose rho and rho_A both have a negative eigenvalue
        beyond classify's bound: the entropy input check on rho fails first."""
        rho = DensityMatrix(np.diag([0.5, 0.5 + 5e-10, 0.0, -5e-10]), tols=Tolerances(10.0))
        with pytest.raises(CheckError) as err:
            classify(rho)
        assert str(err.value) == "psd check failed (magnitude -5e-10): negative eigenvalue in entropy input"

    @pytest.mark.parametrize("shift", [1.0, -1.0], ids=["above-mutual", "negative"])
    def test_classify_rejects_deficit_outside_bounds(self, monkeypatch, shift):
        rho = werner(0.3)
        _shift_decohered_entropy(monkeypatch, rho.matrix[None], [shift])
        with pytest.raises(CheckError) as err:
            classify(rho)
        assert err.value.check == "deficit bounds"
        assert "state" not in str(err.value)


def _shift_decohered_entropy(monkeypatch, werner_stack: np.ndarray, shifts) -> None:
    """Make ``structure.entropy_stack`` add ``shifts[k]`` to S(rho_d) of Werner state k, however
    the spectra it is given are stacked.

    A Werner state's frame is the computational basis, so rho_d's spectrum is
    its sorted diagonal, which no other spectrum of the stack equals.
    """
    joint = np.sort(np.real(np.diagonal(werner_stack, axis1=-2, axis2=-1)), axis=-1)[:, ::-1]
    real = structure.entropy_stack

    def shifted(values, *, tols):
        out = real(values, tols=tols)
        if values.shape[-1] != 4:
            return out
        rows = values.reshape(-1, 1, 4)
        hit = np.all(np.abs(rows - joint) <= 1e-15, axis=-1)  # (spectrum, state)
        return out + (hit @ np.asarray(shifts, dtype=float)).reshape(out.shape)

    monkeypatch.setattr(structure, "entropy_stack", shifted)


def _unnormalized_overlaps(monkeypatch, k: int) -> None:
    """Scale the Fano rows of state k's eigenprojectors by 1.01, leaving the state's own row:
    its overlap weights then sum to 1.01."""
    real = structure.fano_stack

    def scaled(m):
        r = real(m)
        if r.shape[1:] == (5, 4, 4):  # each state's rows, then its eigenprojectors'
            r[k, 1:] *= 1.01
        return r

    monkeypatch.setattr(structure, "fano_stack", scaled)


def _mixed_stack() -> np.ndarray:
    """Degenerate and generic marginals side by side: the paper's states, Werner
    states, 200 seeded mixed states of rank 1-4, products, decohered states and
    a Werner state whose marginals are degenerate only within the tolerance."""
    names = ["E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S"]
    mats = [from_registry(name) for name in names]
    mats += list(werner_matrices([0.0, 0.3, 1 / 3, 1.0]))
    mats += [random_mixed(seed, 1 + seed % 4) for seed in range(200)]
    rng = np.random.default_rng(11)
    mats += [tensor_product(_random_qubit_state(rng), _random_qubit_state(rng)) for _ in range(10)]
    mats += [decohere(DensityMatrix(random_mixed(1000 + seed, 1 + seed % 4))).state.matrix for seed in range(10)]
    mats += [decohere(werner(0.6)).state.matrix, decohere(DensityMatrix(from_registry("E1"))).state.matrix]
    # Each marginal's diagonal rises by 2e-11, inside tols.degeneracy: the frame keeps index order.
    mats.append(werner_matrices([0.3])[0] - 2e-11 * (tensor_product(SZ, I2) + tensor_product(I2, SZ)) / 4)
    return np.array(mats)


def _solver_calls(monkeypatch, dtypes: list[str] | None = None) -> list[str]:
    """The list that records, in order, each ``np.linalg.eigh``, ``eigvalsh`` and ``svd`` call made from
    now on; ``dtypes``, if given, records the dtype of the stack each call hands LAPACK."""
    calls = []

    def counted(solver):
        def call(m, *args, **kwargs):
            calls.append(solver.__name__)
            if dtypes is not None:
                dtypes.append(m.dtype.name)
            return solver(m, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


class TestRealStacks:
    """A stack whose imaginary parts are all exactly zero is solved as real, whatever its dtype."""

    @staticmethod
    def _real_states() -> np.ndarray:
        """The real states of ``_mixed_stack``, as float64: the paper's, Werner and decohered states,
        degenerate marginals among them."""
        return np.array([m.real for m in _mixed_stack() if not np.count_nonzero(m.imag)])

    def test_a_real_stack_and_its_complex_twin_agree_bit_for_bit(self, monkeypatch):
        """Through every entry that validates a state: both stack entries, and ``classify`` on a
        ``DensityMatrix`` row by row, whose Python floats agree in ``repr``, sign of zero included."""
        real = self._real_states()
        assert len(real) >= 15
        dtypes = []
        _solver_calls(monkeypatch, dtypes)
        for entry in ENTRIES:
            dtypes.clear()
            cols, twin = entry(real), entry(real.astype(complex))
            assert dtypes == ["float64"] * 6, entry.__name__
            for name, col in cols._asdict().items():
                other = getattr(twin, name)
                assert col.dtype == other.dtype, name
                assert col.tobytes() == other.tobytes(), name
        for k, m in enumerate(real):
            dtypes.clear()
            report, twin = classify(DensityMatrix(m)), classify(DensityMatrix(m.astype(complex)))
            assert dtypes == ["float64"] * 6, k
            for name, value in report._asdict().items():
                assert repr(value) == repr(getattr(twin, name)), (k, name)

    def test_a_real_stack_decoheres_to_float64(self):
        """rho_d of a float64 stack is float64: the real part, to round-off, of its complex twin's rho_d,
        whose imaginary parts are exactly zero."""
        m, _, v = density_stack(self._real_states())
        assert m.dtype == v.dtype == np.float64
        real = decohere_stack(m, v).matrices
        twin = decohere_stack(m.astype(complex), v.astype(complex)).matrices
        assert (real.dtype, twin.dtype) == (np.float64, complex)
        assert not np.count_nonzero(twin.imag)
        assert np.max(np.abs(real - twin.real)) < 1e-15

    def test_one_imaginary_entry_keeps_the_whole_stack_complex(self, monkeypatch):
        stack = self._real_states().astype(complex)
        stack[-1, 0, 3] += 1e-13j
        stack[-1, 3, 0] -= 1e-13j
        dtypes = []
        _solver_calls(monkeypatch, dtypes)
        classify_stack(stack)
        assert dtypes == ["complex128"] * 3


class TestClassifyStack:
    def test_stack_matches_single_state_calls(self):
        stack = _mixed_stack()
        cols = classify_stack(stack)
        assert all(len(col) == len(stack) for col in cols)
        assert cols.frame_fallback.shape == (len(stack), 2)
        for k, m in enumerate(stack):
            want = classify(DensityMatrix(m))
            for name, col in cols._asdict().items():
                if name == "frame_fallback":
                    assert tuple(col[k].tolist()) == want.frame_fallback, name
                    fell_back = any("degenerate marginal" in v for v in verdicts(want))
                    assert fell_back == any(want.frame_fallback), name
                elif col.dtype == bool:
                    assert col[k] == getattr(want, name), name
                else:
                    assert abs(col[k] - getattr(want, name)) <= 1e-12, name
        degenerate = np.count_nonzero(cols.frame_fallback.any(axis=-1))
        assert 0 < degenerate < len(stack)

    def test_decohere_shares_the_classify_frame(self):
        for m in _mixed_stack():
            rho = DensityMatrix(m)
            report, dec = classify(rho), decohere(rho)
            s_d, s = entropy_stack(np.array([dec.state.eigenvalues, rho.eigenvalues]))
            assert abs(s_d - s - report.deficit) <= 1e-12
            assert report.commutes_with_marginals == (np.max(np.abs(m - dec.state.matrix)) <= TOLS.identity)
            assert np.max(np.abs(dec.joint.sum(axis=1) - dec.frame_values[0])) <= 1e-10
            assert np.max(np.abs(dec.joint.sum(axis=0) - dec.frame_values[1])) <= 1e-10

    def test_deficit_matches_the_decohered_spectrum(self):
        """H(P) against the eigenvalues of rho_d, on degenerate, generic and already decohered states."""
        stack = _mixed_stack()
        _, w, v = density_stack(stack)
        dec = decohere_stack(stack, v)
        want = entropy_stack(density_stack(dec.matrices)[1]) - entropy_stack(w)
        assert np.max(np.abs(classify_stack(stack).deficit - want)) <= 1e-12

    def test_joint_is_the_eigenvalue_weighted_overlap_sum(self):
        """The paper's joint P(alpha, beta) = sum_Gamma lambda_Gamma |<alpha, beta|Gamma>|^2, from the
        overlaps that ``decohere_stack`` returns with P."""
        stack = _mixed_stack()
        _, w, v = density_stack(stack)
        dec = decohere_stack(stack, v)
        built = np.einsum("nabg,ng->nab", dec.weights, w)
        assert np.max(np.abs(built - dec.joint)) <= TOLS.hermiticity

    @pytest.mark.parametrize("n", [1, 200])
    def test_one_eigh_and_two_eigvalsh_whatever_the_stack_size(self, monkeypatch, n):
        """``eigh`` on the states, one values-only call on the spin-flip tau and one ``eigvalsh`` on the
        partial transposes, through either entry: the marginals, the frame and rho_d take none.
        E1 alone is real, so all three solves are real and tau's is an ``eigvalsh``; among the 200 states
        some are complex, so all three stacks are complex and tau's singular values take an ``svd``."""
        stack = _mixed_stack()[:n]
        assert len(stack) == n
        want = {1: (["eigh", "eigvalsh", "eigvalsh"], ["float64"] * 3),
                200: (["eigh", "svd", "eigvalsh"], ["complex128"] * 3)}[n]
        dtypes = []
        calls = _solver_calls(monkeypatch, dtypes)
        for entry in ENTRIES:
            calls.clear()
            dtypes.clear()
            entry(stack)
            assert (calls, dtypes) == want, entry.__name__

    def test_classify_solves_only_the_spectra_its_state_lacks(self, monkeypatch):
        """``classify`` reads the ``DensityMatrix``'s own eigen-data, so one state costs the two
        values-only calls and no ``eigh``: this state is complex, so its tau takes the ``svd``."""
        rho = DensityMatrix(_mixed_stack()[40])
        calls = _solver_calls(monkeypatch)
        classify(rho)
        assert calls == ["svd", "eigvalsh"]

    @pytest.mark.parametrize("n", [1, 200])
    def test_figures_are_the_first_six_columns_bit_for_bit(self, n):
        """``figures_stack`` and ``classify_stack`` read P from the same product of the same Fano
        rows, so their shared columns agree in every bit, sign bits included."""
        stack = _mixed_stack()[:n]
        figures, cols = figures_stack(stack), classify_stack(stack)
        assert Classification._fields[: len(Figures._fields)] == Figures._fields
        for name, col in figures._asdict().items():
            assert col.dtype == np.float64, name
            assert np.array_equal(col.view(np.uint64), getattr(cols, name).view(np.uint64)), name

    def test_report_fields_are_python_scalars(self):
        report = classify(werner(0.5))
        assert type(report.concurrence) is float
        assert type(report.worst_eigen_ratio) is float
        assert type(report.commutes_with_marginals) is bool
        assert type(report.conditional_prob_defined) is bool
        assert [type(side) for side in report.frame_fallback] == [bool, bool]

    @pytest.mark.parametrize(
        "name", ["E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S", "werner:0.3", "werner:1", "pure:0.6,0.8j,0,0"]
    )
    def test_classify_is_row_zero_of_the_stack(self, name):
        rho = DensityMatrix(from_registry(name))
        report, cols = classify(rho), classify_stack(rho.matrix[None])
        for field, value in report._asdict().items():
            row = cols._asdict()[field][0]
            if field == "frame_fallback":
                assert value == tuple(row.tolist()), field
                assert [type(side) for side in value] == [bool, bool], field
            else:
                assert value == row.item(), field
                assert type(value) is (bool if row.dtype == bool else float), field

    def test_columns_agree_with_the_matrix_route(self):
        stack = _mixed_stack()
        _assert_agree(classify_stack(stack), classify_columns(*density_stack(stack)))

    @pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S", "werner:0.3", "werner:1"])
    def test_classify_agrees_with_the_matrix_route(self, name):
        rho = DensityMatrix(from_registry(name))
        want = classify_columns(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])
        _assert_agree(Classification._make(np.array([value]) for value in classify(rho)), want)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (1, 2, 2)])
    def test_rejects_stack_that_is_not_two_qubit(self, shape):
        with pytest.raises(CheckError) as err:
            classify_stack(np.ones(shape) / 4)
        assert err.value.check == "dims"
        assert str(err.value).endswith(f"a stack of two-qubit states (N, 4, 4) required, got shape {shape}")


def _assert_agree(cols: Classification, want: Classification) -> None:
    """The Fano-form columns against the matrix route's: the concurrence and the partial transpose
    share their solve, so they agree bit for bit, and so do the flags; the entropic columns read
    the marginal spectra and P by the two routes, so they agree to round-off."""
    for name in ("concurrence", "ppt_min_eig", "conditional_prob_defined", "commutes_with_marginals", "frame_fallback"):
        assert np.array_equal(getattr(cols, name), getattr(want, name)), name
    for name in ("entropy_diff_a", "entropy_diff_b", "mutual", "deficit"):
        assert np.max(np.abs(getattr(cols, name) - getattr(want, name))) <= 1e-14, name
    ratio = cols.worst_eigen_ratio
    assert np.max(np.abs(ratio - want.worst_eigen_ratio) / ratio) <= 1e-12


def _raises(func, arg) -> CheckError:
    with pytest.raises(CheckError) as err:
        func(arg)
    return err.value


def _raised_by_both_entries(stack: np.ndarray) -> CheckError:
    """The ``CheckError`` that both entries raise on ``stack``: the same check, with the same message."""
    classified, figures = (_raises(entry, stack) for entry in ENTRIES)
    assert (figures.check, str(figures)) == (classified.check, str(classified))
    return classified


def _corrupt(kind: str, m: np.ndarray) -> np.ndarray:
    m = m.astype(complex)
    if kind == "finite":
        m[1, 2] = np.nan
    elif kind == "hermiticity":
        m[0, 1] += 0.1
    elif kind == "trace":
        m = 1.1 * m
    else:  # psd
        m = np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex)
    return m


class TestClassifyStackErrors:
    """A bad state inside a stack raises its named check and names its index."""

    @pytest.mark.parametrize(("check", "entries"), [
        ("dims", {(1, 1): np.nan}),  # a qubit matrix, also not finite
        ("finite", {(0, 1): 0.1, (2, 2): np.nan}),  # also not Hermitian
        ("hermiticity", {(0, 1): 0.1, (1, 1): 1.25}),  # also of trace 2
        ("trace", {(3, 3): -0.25, (0, 0): 1.0}),  # also not psd
    ])
    def test_both_state_entries_check_in_one_order(self, check, entries):
        """dims, finite, square, hermiticity, trace, psd: the first check ``m`` fails is the one
        raised, by ``DensityMatrix`` and by both stack entries on the stack of one."""
        m = np.eye(2 if check == "dims" else 4) / 4
        for index, value in entries.items():
            m[index] = value
        assert _raises(DensityMatrix, m).check == check
        assert _raised_by_both_entries(m[None]).check == check

    @pytest.mark.parametrize("check", ["finite", "hermiticity", "trace", "psd"])
    def test_names_the_bad_state(self, check):
        stack = werner_matrices(np.linspace(0.0, 1.0, 6)).astype(complex)
        stack[3] = _corrupt(check, stack[3])
        err = _raised_by_both_entries(stack)
        assert err.check == check
        assert "state 3" in str(err)

    @pytest.mark.parametrize("check", ["finite", "hermiticity", "trace", "psd"])
    def test_lowest_failing_state_is_named(self, check):
        stack = werner_matrices(np.linspace(0.0, 1.0, 6)).astype(complex)
        stack[4] = _corrupt(check, stack[4])
        stack[2] = _corrupt(check, stack[2])
        assert "state 2" in str(_raised_by_both_entries(stack))

    @pytest.mark.parametrize("check", ["finite", "hermiticity", "trace", "psd"])
    def test_single_state_message_is_unchanged(self, check):
        bad = _corrupt(check, werner(0.4).matrix)
        with pytest.raises(CheckError) as single:
            DensityMatrix(bad)
        stacked = _raised_by_both_entries(bad[None])
        assert str(stacked) == str(single.value)
        assert "state" not in str(stacked)

    def test_deficit_bounds_names_the_bad_state(self, monkeypatch):
        stack = werner_matrices([0.1, 0.3, 0.5, 0.7])
        _shift_decohered_entropy(monkeypatch, stack, [0.0, 0.0, 1.0, 0.0])
        err = _raised_by_both_entries(stack)
        assert err.check == "deficit bounds"
        assert "state 2" in str(err)

    @pytest.mark.parametrize("excess", [1e-6, np.nan], ids=["heavy", "nan"])
    def test_decohered_trace_names_the_bad_state(self, monkeypatch, excess):
        """rho_d's trace is read from the joint P: a P that does not sum to one fails ``trace``."""
        real = structure._frame_pass

        def heavy_joint(r, tols):
            frame = real(r, tols)
            joint = frame.joint.copy()
            joint[2, 0] += excess
            return frame._replace(joint=joint)

        monkeypatch.setattr(structure, "_frame_pass", heavy_joint)
        err = _raised_by_both_entries(werner_matrices([0.1, 0.3, 0.5, 0.7]))
        assert err.check == "trace"
        assert "state 2" in str(err)
        assert "decohered trace" in str(err)

    def test_figure_checks_run_ahead_of_overlap_normalization(self, monkeypatch):
        """The diagnostics are built on the figures: overlap weights of state 2 that do not sum to
        one fail ``overlap normalization`` in ``classify_stack`` only, and a deficit out of bounds
        on the same state fails ``deficit bounds`` first, through either entry."""
        stack = werner_matrices([0.1, 0.3, 0.5, 0.7])
        _unnormalized_overlaps(monkeypatch, 2)
        figures_stack(stack)
        err = _raises(classify_stack, stack)
        assert err.check == "overlap normalization"
        assert "state 2" in str(err)
        _shift_decohered_entropy(monkeypatch, stack, [0.0, 0.0, 1.0, 0.0])
        err = _raised_by_both_entries(stack)
        assert err.check == "deficit bounds"
        assert "state 2" in str(err)

    def test_classify_meets_deficit_bounds_before_overlap_normalization(self, monkeypatch):
        rho = werner(0.3)
        _unnormalized_overlaps(monkeypatch, 0)
        assert _raises(classify, rho).check == "overlap normalization"
        _shift_decohered_entropy(monkeypatch, rho.matrix[None], [1.0])
        assert _raises(classify, rho).check == "deficit bounds"

    def test_nan_joint_fails_nonnegativity(self, monkeypatch):
        """A NaN correlation coefficient of state 2 leaves its trace and frame values finite: P fails."""
        real = structure.fano_stack

        def nan_correlation(m):
            r = real(m)
            r[2, 0, 1, 1] = np.nan
            return r

        monkeypatch.setattr(structure, "fano_stack", nan_correlation)
        stack = werner_matrices([0.1, 0.3, 0.5, 0.7])
        with pytest.raises(CheckError) as err:
            decohere_stack(stack, density_stack(stack)[2])
        assert err.value.check == "joint nonnegativity"
        assert "state 2" in str(err.value)
