"""uniesn: constructive universal approximation with echo state networks.

Given a causal, time-invariant, fading-memory target filter and a tolerance
eps, this package builds an echo state network whose associated functional is
within eps of the target on bounded inputs, and numerically certifies every
inequality used along the way.  The constructed reservoir is nilpotent, so the
echo state and fading memory properties hold by structure rather than by
spectral heuristics.
"""

from .windows import (
    InputWindow,
    make_window,
    sample_product_ball,
    sample_window_array,
)
from .linalg import operator_norm
from .shallow import (
    Activation,
    ShallowNet,
    WidthPolicy,
    FitToleranceError,
    get_activation,
    fit_random_feature,
    fit_to_tolerance,
)
from .filters import (
    TargetFilter,
    FIRFilter,
    ExpFadingFilter,
    Volterra2Filter,
    HorizonCapError,
    filter_from_json,
)
from .esn import (
    BlockStructure,
    ESNParams,
    check_nilpotent,
    check_esp_empirical,
    check_finite_memory,
)
from .construct import (
    ConstructionConfig,
    ConstructionError,
    BudgetError,
    ChainBoundError,
    LagBlockNet,
    ErrorBudget,
    ConstructionResult,
    split_lag_blocks,
    build_identity_chain,
    verify_chain_bound,
    assemble_esn,
    closed_form_state,
    direct_functional,
    chained_functional,
    construct_universal_esn,
)

__version__ = "0.1.0"
