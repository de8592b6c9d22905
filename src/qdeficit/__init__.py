"""Entropy-based separability and correlation toolkit for two-qubit states.

Core objects: density matrices with validated invariants; decoherence in
the marginal-eigenbasis product frame, whose one pass gives the decohered
state, the joint distribution, the frame's eigenvalues and the overlap
weights; the quantum deficit and the classification report; alongside
Wootters concurrence and the von Neumann / Tsallis entropy family.
"""

from .concurrence import concurrence, lambda_spectrum, pure_concurrence, spin_flip
from .entropy import (
    conditional_tsallis,
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
    partial_transpose,
    psd_function,
    tensor_product,
)
from .states import (
    BlochVector,
    CorrelationTensor,
    PureStateAmplitudes,
    RegistryError,
    bloch_vectors,
    correlation_tensor,
    example_state,
    from_registry,
    isospectral_pair,
    pure_density,
    purity_check,
    random_mixed,
    random_pure,
    werner,
    werner_matrices,
)
from .structure import (
    ClassificationReport,
    Decoherence,
    classify,
    classify_stack,
    decohere,
    quantum_deficit,
)

__version__ = "0.1.0"
