#!/usr/bin/env python3
"""Self-check of the benchmark harness on a tiny config; takes seconds.

    python3 perfbench/selfcheck.py

It is not part of the test suite.  It runs the harness on a tiny workload
(construct, verify, and a sweep with one point that cannot be built) and
checks that:

- an untraced run is correct, reports every end-to-end metric of
  BENCHMARK.json and counts the failed sweep point as a failed build;
- a traced run is correct, reports every per-layer metric, sees the failed
  fit, and leaves no binding of a wrapped function unwrapped;
- the correctness gate fails a run whose reservoir was corrupted, and one
  whose same-seed builds differ;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def _tiny(cfg, seed):
    c = cfg["construction"]
    c.update(eps=0.5, chain_samples=500, budget_windows=300, closed_form_check_windows=50)
    c["static_policy"].update(train_samples=300, val_samples=300, max_width=128)
    c["identity_policy"].update(train_samples=300, val_samples=300)
    cfg["verification"].update(fmp_trials=50, seed=seed)


TINY = run.Workload(
    "selfcheck-tiny",
    _tiny,
    lambda cfg, seed, i: [
        run.construct_cmd(cfg, "b", seed, 0.5),
        run.verify_cmd(cfg, "b"),
        run.sweep_cmd(cfg, "s", seed, [0.5, 0.01]),  # eps=0.01 cannot be met at width 128
    ],
)


def expect(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    bench = run.load_benchmark()

    result, detail = run.run_workload(TINY, seed=3, seconds=1, trace=False)
    expect(result["correct"], f"untraced run is correct {detail['problems']}")
    expect(set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]},
           "untraced run reports every end-to-end metric")
    expect(detail["builds"]["failing"] == {"stage:fit_static_net": 1}
           and 0 < result["metrics"]["builds_ok_ratio"]["value"] < 1,
           "the unbuildable sweep point counts as a failed build")

    result, detail = run.run_workload(TINY, seed=3, seconds=1, trace=True)
    expect(result["correct"], f"traced run is correct {detail['problems']}")
    expect(set(result["metrics"]) == {m["name"] for m in bench["per_layer"]},
           "traced run reports every per-layer metric")
    layers = detail["layer_metrics"]
    expect(layers["shallow.fit_tolerance_errors"] >= 1, "the trace sees the failed fit")
    expect(set(detail["coverage"]) == {"construct", "verify", "sweep"},
           "coverage is reported for every command kind")
    expect(all(layers[f"{layer}.self_s"] > 0 for layer in ("windows", "linalg", "shallow",
                                                           "filters", "esn", "construct", "cli")),
           "every layer has spans")

    workdir = run.OUT / TINY.name
    bad = workdir / "corrupt"
    bad.mkdir(exist_ok=True)
    esn = json.loads((workdir / "b" / "esn.json").read_text(encoding="utf-8"))
    esn["A"][0][0] = 1e-3  # first block row must be zero in a nilpotent reservoir
    (bad / "esn.json").write_text(json.dumps(esn), encoding="utf-8")
    cmd = run.verify_cmd(str(workdir / "config.json"), "corrupt")
    rec = run.spawn([sys.executable, "-m", "uniesn", *cmd["args"]], workdir, run.child_env())
    checks = run.Checks()
    run.inspect_command(cmd, rec, workdir, checks)
    expect(rec["exit"] == 5 and checks.problems, "a corrupted reservoir fails the gate")

    checks = run.Checks()
    checks.same_seed(("construct", 1, 0.5), ("a", "b"))
    checks.same_seed(("construct", 1, 0.5), ("a", "c"))
    expect(bool(checks.problems), "differing same-seed outputs fail the gate")

    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expfade-k5", "--seed", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a directory without the program exits non-zero with no result")
    print("selfcheck PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
