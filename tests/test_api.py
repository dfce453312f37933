import types

import uniesn

PUBLIC_API = [
    "Activation", "BlockStructure", "BudgetError", "ChainBoundError", "ConstructionConfig",
    "ConstructionError", "ConstructionResult", "ESNParams", "ErrorBudget", "ExpFadingFilter",
    "FIRFilter", "FitToleranceError", "HorizonCapError", "InputWindow", "LagBlockNet", "ShallowNet",
    "TargetFilter", "Volterra2Filter", "WidthPolicy", "assemble_esn", "build_identity_chain",
    "chained_functional", "check_esp_empirical", "check_finite_memory", "check_nilpotent",
    "closed_form_state", "construct_universal_esn", "direct_functional", "filter_from_json",
    "fit_random_feature", "fit_to_tolerance", "get_activation", "make_window", "operator_norm",
    "sample_product_ball", "sample_window_array", "split_lag_blocks", "verify_chain_bound",
]


def test_public_names_are_pinned():
    # Adding or removing an export must show up as an edit of this list.
    exported = {
        name for name, value in vars(uniesn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_API) == 38
    assert exported == set(PUBLIC_API)
