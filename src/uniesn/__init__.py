"""uniesn: constructive universal approximation with echo state networks.

Given a causal, time-invariant, fading-memory target filter and a tolerance
eps, this package builds an echo state network whose associated functional is
meant to lie within eps of the target on bounded inputs, and checks every
inequality used along the way.  Only the truncation bound is proven; the
other terms are sampled sups, lower bounds on the true ones, and are labelled
so.  The constructed reservoir is nilpotent, so the echo state and fading
memory properties hold by structure rather than by spectral heuristics.
"""

from .windows import sample_product_ball, sample_window_array
from .linalg import operator_norm
from .shallow import (
    ShallowNet,
    WidthPolicy,
    FitToleranceError,
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
    construct_universal_esn,
)

__version__ = "0.1.0"
