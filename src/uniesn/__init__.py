"""uniesn: constructive universal approximation with echo state networks.

Given a causal, time-invariant, fading-memory target filter and a tolerance
eps, this package builds an echo state network whose associated functional is
meant to lie within eps of the target on bounded inputs, and checks every
inequality used along the way.  The truncation and chain bounds are proven;
the other terms are sampled sups, lower bounds on the true ones, and are
labelled so.  The constructed reservoir is nilpotent, so the echo state and fading
memory properties hold by structure rather than by spectral heuristics.
"""

from .windows import sample_window_array
from .shallow import ShallowNet
from .filters import (
    TargetFilter,
    FIRFilter,
    ExpFadingFilter,
    Volterra2Filter,
    HorizonCapError,
    filter_from_json,
)
from .esn import BlockStructure, ESNParams
from .construct import (
    ConstructionConfig,
    ConstructionError,
    BudgetError,
    ErrorBudget,
    ConstructionResult,
    construct_universal_esn,
)

__version__ = "0.1.0"
