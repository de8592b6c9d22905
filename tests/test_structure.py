import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeficit.entropy import mutual_entropy, von_neumann
from qdeficit.linalg import CheckError, DensityMatrix
from qdeficit.states import example_state, random_mixed, werner
from qdeficit.structure import alpha_beta_frame, decohere, decohere_in_frame, quantum_deficit

from helpers import numpy_spectrum

SEEDED_STATES = st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))


def _entropy_oracle(m: np.ndarray) -> float:
    vals = numpy_spectrum(m)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log(vals)))


class TestDecohere:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_preserves_both_marginals(self, seed_rank):
        rho = random_mixed(*seed_rank)
        rho_d, _ = decohere(rho)
        for side in ("A", "B"):
            assert np.max(np.abs(rho_d.marginal(side).matrix - rho.marginal(side).matrix)) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_idempotent(self, seed_rank):
        rho_d, _ = decohere(random_mixed(*seed_rank))
        rho_dd, _ = decohere(rho_d)
        assert np.max(np.abs(rho_dd.matrix - rho_d.matrix)) <= 1e-12

    def test_idempotent_on_degenerate_marginals(self):
        for rho in (werner(0.3), example_state("E5"), example_state("E6")):
            rho_d, _ = decohere(rho)
            rho_dd, _ = decohere(rho_d)
            assert np.max(np.abs(rho_dd.matrix - rho_d.matrix)) <= 1e-12

    def test_frame_of_other_dims_rejected(self):
        frame = alpha_beta_frame(werner(0.3))
        with pytest.raises(CheckError) as err:
            decohere_in_frame(DensityMatrix(np.eye(4) / 4, (4, 1)), frame)
        assert err.value.check == "dims"


class TestQuantumDeficit:
    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_bounded_by_mutual_entropy(self, seed_rank):
        rho = random_mixed(*seed_rank)
        deficit = quantum_deficit(rho)
        assert -1e-10 <= deficit <= mutual_entropy(rho) + 1e-10

    @settings(deadline=None, max_examples=40)
    @given(SEEDED_STATES)
    def test_gap_to_mutual_entropy_identity(self, seed_rank):
        rho = random_mixed(*seed_rank)
        rho_d, _ = decohere(rho)
        s_d = _entropy_oracle(rho_d.matrix)
        s_a = _entropy_oracle(rho.marginal("A").matrix)
        s_b = _entropy_oracle(rho.marginal("B").matrix)
        assert abs(quantum_deficit(rho) - mutual_entropy(rho) - (s_d - s_a - s_b)) <= 1e-9
        assert abs(s_d - von_neumann(rho_d)) <= 1e-10
