"""The benchmark's tracer still binds to the package it measures.

perfbench/tracer.py wraps the public functions and methods of every layer
and reads named parameters of some of them (HOOKS).  A renamed function or
parameter would silently drop or break a per-layer metric, so this runs a
tiny traced construct and verify through the tracer itself.  It only reads
perfbench/.
"""

import importlib.util
import json
import sys
from pathlib import Path

from uniesn import cli

ROOT = Path(__file__).resolve().parents[1]

REQUIRED_SPANS = {
    "shallow.ShallowNet.forward",
    "esn.ESNParams.run_batch",
    "esn.check_nilpotent",
    "shallow.fit_random_feature",
    "cli._write_json",
    "construct.construct_universal_esn",
}


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_config(path: Path) -> Path:
    cfg = json.loads((ROOT / "configs" / "demo_expfading.json").read_text())
    c = cfg["construction"]
    c.update(eps=0.5, chain_samples=500, budget_windows=300, closed_form_check_windows=50)
    c["static_policy"].update(train_samples=300, val_samples=300, max_width=128)
    c["identity_policy"].update(train_samples=300, val_samples=300)
    cfg["verification"].update(fmp_trials=50)
    out = path / "config.json"
    out.write_text(json.dumps(cfg))
    return out


def test_tracer_wraps_and_hooks_every_binding(tmp_path, monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    cfg = tiny_config(tmp_path)
    out = tmp_path / "b"
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        codes = (
            cli.main(["construct", str(cfg), "--out", str(out)]),
            cli.main(["verify", str(out / "esn.json"), str(cfg)]),
        )
        missed = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()

    assert codes == (0, 0)
    assert missed == []
    names = {s.name for s in tracer.spans}
    assert REQUIRED_SPANS <= names, REQUIRED_SPANS - names
    assert any(name.startswith("windows.sample_") for name in names)
    for span in tracer.spans:
        if span.name in tracer_mod.HOOKS:
            assert span.error is None and span.counts, span.name
