import importlib
import types
from pathlib import Path

import pytest

import uniesn

PUBLIC_API = [
    "BlockStructure", "BudgetError", "ConstructionConfig", "ConstructionError",
    "ConstructionResult", "ESNParams", "ErrorBudget", "ExpFadingFilter", "FIRFilter",
    "HorizonCapError", "ShallowNet", "TargetFilter", "Volterra2Filter", "construct_universal_esn",
    "filter_from_json", "sample_window_array",
]

# Internals the package no longer re-exports, each with the module it lives in.
MODULE_ONLY = {
    "windows": ["sample_product_ball"],
    "linalg": ["operator_norm"],
    "shallow": ["WidthPolicy", "FitToleranceError", "fit_random_feature", "fit_to_tolerance"],
    "construct": ["carry", "assemble_esn", "closed_form_state", "direct_functional"],
}


def test_public_names_are_pinned():
    # Adding or removing an export must show up as an edit of this list.
    exported = {
        name for name, value in vars(uniesn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_API) == 16
    assert exported == set(PUBLIC_API)
    # ESNParams holds only strictly block-lower-triangular blocks, so nothing re-checks A^(K+1) == 0,
    # and run_batch's data flow gives echo state and finite memory, so nothing re-tests them.
    esn = importlib.import_module("uniesn.esn")
    for gone in ("check_nilpotent", "check_esp_empirical", "check_finite_memory"):
        assert not hasattr(esn, gone)
    # The chain's drift is a tested property, so no build samples it and nothing reports a violation;
    # the chain is its scale, so no list of identity nets is built or composed.
    construct = importlib.import_module("uniesn.construct")
    for gone in ("verify_chain_bound", "ChainBoundError", "build_identity_chain", "compose_chain"):
        assert not hasattr(construct, gone)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names])
def test_internals_import_from_their_module(module, name):
    assert name not in vars(uniesn)
    assert callable(getattr(importlib.import_module(f"uniesn.{module}"), name))


def test_readme_library_sketch_runs_within_its_eps(capsys):
    # The sketch uses the public API as the README shows it, so it cannot drift from the signatures.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    horizon_line, gap_line = capsys.readouterr().out.splitlines()
    assert horizon_line.startswith("4 ")
    assert float(gap_line) < 0.3
