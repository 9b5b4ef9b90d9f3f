"""Separability criteria and entanglement witnesses for pure-dephasing
system-environment evolutions."""

from .criteria import (
    CriterionReport,
    SeparableDecomposition,
    build_decomposition,
    decide,
    decide_from_props,
)
from .evolution import (
    ConditionalPropagators,
    JointState,
    conditional_block,
    joint_state,
    pair_operator,
    propagators,
)
from .linalg import (
    commutator_norm,
    hermitian_eig,
    partial_transpose,
    simultaneous_diagonalize,
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
    pt_spectrum,
    witness_scan,
)

__version__ = "0.1.0"
