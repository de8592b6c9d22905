"""Entropy-based separability and correlation toolkit for two-qubit states.

Core objects: density matrices with validated invariants, the marginal
eigenbasis product frame, decohered states, and the quantum deficit,
alongside Wootters concurrence and the von Neumann / Tsallis entropy
family.
"""

from .concurrence import LambdaSpectrum, concurrence, lambda_spectrum, pure_concurrence, spin_flip
from .entropy import (
    conditional_tsallis,
    entropy_difference,
    mutual_entropy,
    relative_entropy,
    tsallis,
    tsallis_infinity_criterion,
    von_neumann,
)
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    EigenSystem,
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
from .states import (
    BlochVector,
    CorrelationTensor,
    MarginalEigenData,
    PureStateAmplitudes,
    RegistryError,
    bloch_vectors,
    correlation_tensor,
    example_state,
    from_registry,
    isospectral_pair,
    marginal_eigendata,
    pure_density,
    purity_check,
    random_mixed,
    random_pure,
    werner,
    werner_local_decomposition,
)
from .structure import (
    AlphaBetaFrame,
    ClassificationReport,
    JointDistribution,
    LocalDecomposition,
    OverlapTensor,
    alpha_beta_frame,
    classify,
    commutes_with_marginals,
    conditional_ratio_check,
    decohere,
    decohere_in_frame,
    decomposition_commutes,
    deficit_mutual_gap,
    overlap_tensor,
    quantum_deficit,
    reconstruct,
)

__version__ = "0.1.0"
