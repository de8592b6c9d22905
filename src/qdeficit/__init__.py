"""Entropy-based separability and correlation toolkit for two-qubit states.

Core objects: the validated two-qubit density matrix, which holds its
own eigen-data; decoherence in the marginal-eigenbasis product frame,
whose one pass gives the decohered state, the joint distribution, the
frame's eigenvalues and the overlap weights; the ``Classification`` of
a state or of a stack of states, which carries the quantum deficit and
the mutual entropy, with its verdict strings, and its ``Figures`` alone
for a stack that needs no diagnostics; alongside Wootters concurrence
and the von Neumann / Tsallis entropy family, read from stacks of
spectra.  Every single-state figure, the conditional entropies among
them, is row 0 of a stack kernel.  A pure state is its amplitude vector
``(4,)``, and a stack of them ``(..., 4)`` is what the closed forms
``bloch_vectors``, ``correlation_tensor`` and ``pure_concurrence`` take.
``werner_matrices``, ``from_registry`` and ``matrix_from_json``, the
reader of a state file, build unvalidated matrices; ``DensityMatrix`` or
a stack entry validates them.
"""

from .concurrence import pure_concurrence, spin_flip_stack
from .entropy import conditional_tsallis, relative_entropy_stack, tsallis_infinity_criterion, tsallis_stack
from .linalg import (
    TOLS,
    CheckError,
    DensityMatrix,
    Tolerances,
    matrix_from_json,
    tensor_product,
    transpose_stack,
)
from .states import (
    RegistryError,
    bloch_vectors,
    correlation_tensor,
    from_registry,
    werner_matrices,
)
from .structure import (
    Classification,
    Decoherence,
    Figures,
    classify,
    classify_stack,
    decohere_stack,
    figures_stack,
    verdicts,
)

__version__ = "0.1.0"
