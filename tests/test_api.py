import types
from pathlib import Path

import uniesn

PUBLIC_API = [
    "BlockStructure", "BudgetError", "ChainBoundError", "ConstructionConfig", "ConstructionError",
    "ConstructionResult", "ESNParams", "ErrorBudget", "ExpFadingFilter", "FIRFilter",
    "FitToleranceError", "HorizonCapError", "ShallowNet", "TargetFilter", "Volterra2Filter",
    "WidthPolicy", "assemble_esn", "build_identity_chain", "check_esp_empirical", "check_finite_memory",
    "check_nilpotent", "closed_form_state", "construct_universal_esn", "direct_functional",
    "filter_from_json", "fit_random_feature", "fit_to_tolerance", "operator_norm",
    "sample_product_ball", "sample_window_array", "verify_chain_bound",
]


def test_public_names_are_pinned():
    # Adding or removing an export must show up as an edit of this list.
    exported = {
        name for name, value in vars(uniesn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_API) == 31
    assert exported == set(PUBLIC_API)


def test_readme_library_sketch_runs_within_its_eps(capsys):
    # The sketch uses the public API as the README shows it, so it cannot drift from the signatures.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    horizon_line, gap_line = capsys.readouterr().out.splitlines()
    assert horizon_line.startswith("4 ")
    assert float(gap_line) < 0.3
