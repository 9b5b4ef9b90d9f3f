"""Separability criteria and entanglement witnesses for pure-dephasing
system-environment evolutions."""

from .criteria import (
    CriterionReport,
    SeparableDecomposition,
    build_decomposition,
    cross_commutation_norms,
    decide,
    decide_from_props,
    qubit_like_norms,
)
from .evolution import (
    ConditionalPropagators,
    JointState,
    conditional_block,
    decoherence_factors,
    joint_state,
    pair_operator,
    propagators,
)
from .linalg import (
    commutator_norm,
    hermitian_eig,
    partial_transpose,
    simultaneous_diagonalize,
    unitary_exp_hermitian,
)
from .model import (
    DephasingModel,
    EnsembleSpec,
    Family,
    ValidationError,
    load_model,
    mixed_qutrit_example,
    random_instance,
    save_model,
    validate,
)
from .witnesses import (
    MinorEvaluation,
    WitnessScan,
    minor_D,
    minor_X,
    minor_Y,
    minor_Ytilde,
    negativity,
    pt_spectrum,
    witness_scan,
)

__version__ = "0.1.0"
