#!/usr/bin/env python3
"""Benchmark of the uniesn command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload expfade-k5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

``--trace 0`` spawns ``python3 -m uniesn`` processes and reports the
end-to-end metrics; ``--trace 1`` runs perfbench/tracer.py, which drives
``uniesn.cli.main`` in process with every layer wrapped, and reports the
per-layer metrics.  Every run checks the program's outputs.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the detail (timing
percentiles, every build with its hashes, the environment).  The program
runs from ``src/`` of the checkout, with BLAS pinned to one thread.
"""

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DEMO_CONFIG = ROOT / "configs" / "demo_expfading.json"
# One BLAS thread for every child: never above nproc, and the plain
# single-threaded baseline.  Default OpenBLAS threading made the static fit
# of identical builds vary fourfold on a 2-core machine.
BLAS_THREADS = 1
# The demo config's own seed.  expfade-k5 and volterra2-sweep build with it:
# it gives the structure these workloads are meant to time (K=5, N=1190; a
# sweep with N=1220, N=2244 and one fit that fails).  Other seeds do not keep
# that structure: at eps=0.1, 4 of 20 seeds fail the net_fit budget and one
# gives N=678, and one volterra2 seed fails all three sweep points.
DEMO_SEED = 20240811
# K=4 holds for eps in (0.1875, 0.375].  At eps=0.3 the seeds split 62/33
# between N=261 and N=389 builds, so the per-build median of a run flipped
# between the two sizes from seed to seed; at 0.35, 77 of 100 seeds give N=261.
K4_EPS = 0.35
ARTIFACTS = ("esn.json", "nets.json", "report.json", "budget.csv", "timings.json")
CLOSED_FORM_TOL = 1e-10
SETUP_REPEATS = 11
VOLTERRA2 = {
    "kind": "volterra2",
    "coeffs": [[[0.6, 0.3]], [[-0.3, 0.2]], [[0.15, -0.1]], [[0.1, 0.05]]],
    "quad": [{"j": 0, "k": 1, "b": [0.3]}, {"j": 1, "k": 3, "b": [-0.2]}],
    "d": 2, "m": 1, "M": 1.0,
}


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest[:8], 16)


def construct_cmd(config: str, out: str, seed: int, eps: float) -> dict:
    args = ["construct", config, "--out", out, "--seed", str(seed)]
    return {"kind": "construct", "args": args, "out": out, "seed": seed, "eps": eps}


def verify_cmd(config: str, out: str) -> dict:
    return {"kind": "verify", "args": ["verify", f"{out}/esn.json", config], "out": out}


def sweep_cmd(config: str, out: str, seed: int, eps: list) -> dict:
    args = ["sweep", config, "--eps", ",".join(map(str, eps)), "--out", out, "--seed", str(seed)]
    return {"kind": "sweep", "args": args, "out": out, "seed": seed, "eps": eps}


@dataclass(frozen=True)
class Workload:
    """A config derived from the demo config, and the commands of one cycle.

    Why each workload was chosen is recorded in BENCHMARK.json and README.md.
    """

    name: str
    configure: Callable[[dict, int], None]  # (demo config copy, workload seed), edits in place
    cycle: Callable[[str, int, int], list]  # (config path, workload seed, cycle index) -> commands
    trace_cycles: int = 1  # cycles in each pass of the traced run


def _set_eps(eps):
    def configure(cfg, seed):
        cfg["construction"]["eps"] = eps
        cfg["verification"]["seed"] = derive_seed("verification", seed)
    return configure


def _volterra2(cfg, seed):
    cfg["filter"] = copy.deepcopy(VOLTERRA2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expfade-k5",
            _set_eps(0.1),
            lambda cfg, seed, i: [construct_cmd(cfg, "k5", DEMO_SEED, 0.1), verify_cmd(cfg, "k5")],
        ),
        Workload(
            "volterra2-sweep",
            _volterra2,
            lambda cfg, seed, i: [sweep_cmd(cfg, "sweep", DEMO_SEED, [0.3, 0.25, 0.2])],
        ),
        Workload(
            "expfade-k4-seeds",
            _set_eps(K4_EPS),
            lambda cfg, seed, i: [
                construct_cmd(cfg, "k4", derive_seed("expfade-k4-seeds", seed, i), K4_EPS)
            ],
            trace_cycles=8,
        ),
    )
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UNIESN_SEED", None)  # the seed comes from --seed only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, cwd: Path, env: dict) -> dict:
    """Run one child to completion: exit code, wall time, peak RSS, output."""
    with open(cwd / "child.out", "w+b") as out, open(cwd / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace")[-2000:],
        }


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Correctness problems found in one run; any problem makes it incorrect."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed_commands = 0
        self._seen: dict = {}

    def fail(self, msg: str):
        self.problems.append(msg)

    def same_seed(self, key, digest):
        """Same-seed builds must give byte-identical outputs."""
        first = self._seen.setdefault(key, digest)
        if first != digest:
            self.fail(f"same-seed outputs differ for {key}: {first} vs {digest}")


def _stage_of(stderr: str, code: int) -> str:
    if code == 4:
        m = re.search(r"budget term '(\w+)'", stderr)
        return f"budget:{m.group(1) if m else '?'}"
    m = re.search(r"stage (\w+) failed", stderr)
    return f"stage:{m.group(1) if m else '?'}"


def inspect_command(cmd: dict, rec: dict, cwd: Path, checks: Checks) -> None:
    """Check one command's exit code and outputs; add its build records to rec."""
    code, out = rec["exit"], cwd / cmd["out"]
    rec["builds"] = []
    problems = len(checks.problems)
    if cmd["kind"] == "construct":
        if code == 0:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            budget, gap = report["budget"], report["closed_form_check"]["max_gap"]
            rec["bytes"] = sum((out / name).stat().st_size for name in ARTIFACTS)
            build = {
                "seed": cmd["seed"], "eps": cmd["eps"], "status": "ok",
                "horizon": report["horizon"], "widths": report["widths"],
                "state_dim": report["state_dim"], "budget": budget, "max_gap": gap,
                "esn_sha256": sha256_of(out / "esn.json"),
                "report_sha256": sha256_of(out / "report.json"),
            }
            if not budget["total"] < report["eps"]:
                checks.fail(f"construct seed {cmd['seed']}: budget total {budget['total']} >= eps")
            if not gap <= CLOSED_FORM_TOL:
                checks.fail(f"construct seed {cmd['seed']}: closed-form max_gap {gap} > 1e-10")
            checks.same_seed(("construct", cmd["seed"], cmd["eps"]),
                             (build["esn_sha256"], build["report_sha256"]))
            rec["builds"].append(build)
        elif code in (3, 4):
            rec["builds"].append({"seed": cmd["seed"], "eps": cmd["eps"],
                                  "status": _stage_of(rec["stderr"], code)})
        else:
            checks.fail(f"construct seed {cmd['seed']} exited {code}: {rec['stderr'][-300:]}")
    elif cmd["kind"] == "verify":
        if code != 0:
            checks.fail(f"verify exited {code}: {rec['stderr'][-300:]}")
        elif not json.loads((out / "verify.json").read_text(encoding="utf-8"))["passed"]:
            checks.fail("verify.json reports a failed check")
    elif cmd["kind"] == "sweep":
        path = out / "sweep.csv"
        if code not in (0, 3, 4) or not path.exists():
            checks.fail(f"sweep exited {code}: {rec['stderr'][-300:]}")
        else:
            rows = list(csv.DictReader(line for line in path.read_text().splitlines()
                                       if not line.startswith("#")))
            rec["bytes"] = path.stat().st_size
            for row in rows:
                eps = float(row["eps"])
                build = {"seed": cmd["seed"], "eps": eps, "status": row["status"]}
                if row["status"] == "ok":
                    build.update(horizon=int(row["horizon"]), state_dim=int(row["state_dim"]),
                                 widths=[int(w) for w in row["widths"].split("|")],
                                 budget={k: float(row[k]) for k in ("truncation", "net_fit", "chain", "total")})
                    if not build["budget"]["total"] < eps:
                        checks.fail(f"sweep eps={eps}: budget total {build['budget']['total']} >= eps")
                rec["builds"].append(build)
            if (code == 0) != all(b["status"] == "ok" for b in rec["builds"]):
                checks.fail(f"sweep exit code {code} disagrees with its status column")
            # wall_time_s is the only column allowed to change between same-seed sweeps
            digest = hashlib.sha256(json.dumps(
                [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]).encode()).hexdigest()
            rec["rows_sha256"] = digest
            checks.same_seed(("sweep", cmd["seed"], tuple(cmd["eps"])), digest)
    if len(checks.problems) > problems:
        checks.failed_commands += 1


def summary(samples: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it.

    The percentile is given only when it lies above the median (n >= 20).
    """
    if not samples:
        return {"n": 0}
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = xs[math.ceil(p * n / 100) - 1]
    return out


def probe_environment(cwd: Path, env: dict) -> dict:
    code = ("import json, platform, numpy; b = numpy.show_config(mode='dicts')"
            "['Build Dependencies']['blas']; print(json.dumps({'python': platform.python_version(),"
            " 'numpy': numpy.__version__, 'blas': {k: b.get(k) for k in ('name', 'version',"
            " 'openblas configuration')}}))")
    rec = spawn([sys.executable, "-c", code], cwd, env)
    info = json.loads(rec["stdout"]) if rec["exit"] == 0 else {"probe_error": rec["stderr"]}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uniesn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    info.update(
        blas_threads=BLAS_THREADS, nproc=os.cpu_count(), usable_cpus=len(os.sched_getaffinity(0)),
        git_sha=git_sha, src_sha256=src.hexdigest(),
    )
    return info


class Setup:
    """Fresh-interpreter import of uniesn plus writing the workload's config.

    A run sets up SETUP_REPEATS times and reports the median.  The machine's
    speed drifts by a fifth over tens of seconds, so an untraced run spreads
    the repeats over its cycles, as it does the samples of every other
    metric.  One untimed import first compiles the bytecode cache, which
    users do not pay on every run.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, env: dict):
        self.workload, self.seed, self.workdir, self.env = workload, seed, workdir, env
        self.totals: list[float] = []
        self.imports: list[float] = []
        self.spent = 0.0
        spawn([sys.executable, "-c", "import uniesn.cli"], workdir, env)

    def once(self):
        t0 = time.perf_counter()
        rec = spawn([sys.executable, "-c", "import uniesn.cli"], self.workdir, self.env)
        if rec["exit"] != 0:
            raise RuntimeError(f"cannot import uniesn: {rec['stderr'][-500:]}")
        cfg = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
        self.workload.configure(cfg, self.seed)
        (self.workdir / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        self.totals.append(time.perf_counter() - t0)
        self.imports.append(rec["wall_s"])
        self.spent += self.totals[-1]

    def keep_pace(self, fraction: float):
        """Set up again until the repeats done match the fraction of the run done."""
        while len(self.totals) < min(SETUP_REPEATS, 1 + int(fraction * SETUP_REPEATS)):
            self.once()


def run_untraced(workload, seed, seconds, workdir, env, checks, setup) -> tuple[dict, dict]:
    config = str(workdir / "config.json")
    cycles = []
    t_start, spent_before = time.perf_counter(), setup.spent
    estimate = 0.0

    def elapsed():  # time spent in cycles, not in the set-up repeats between them
        return time.perf_counter() - t_start - (setup.spent - spent_before)

    while not cycles or elapsed() + estimate <= seconds:
        t_cycle = time.perf_counter()
        cycle = []
        for cmd in workload.cycle(config, seed, len(cycles)):
            rec = spawn([sys.executable, "-m", "uniesn", *cmd["args"]], workdir, env)
            rec["kind"] = cmd["kind"]
            inspect_command(cmd, rec, workdir, checks)
            cycle.append(rec)
            if rec["exit"] != 0:
                break  # nothing to verify after a failed build
        cycles.append(cycle)
        estimate = time.perf_counter() - t_cycle
        if checks.problems:
            break
        setup.keep_pace(elapsed() / seconds)
    setup.keep_pace(1.0)
    commands = sum(len(c) for c in cycles)
    if not checks.problems and not _repeats_a_seed(cycles):
        # Determinism check: build cycle 0 again; its timings are not samples.
        for cmd in workload.cycle(config, seed, 0):
            rec = spawn([sys.executable, "-m", "uniesn", *cmd["args"]], workdir, env)
            inspect_command(cmd, rec, workdir, checks)
            commands += 1

    recs = [r for c in cycles for r in c]
    walls = {k: [r["wall_s"] for r in recs if r["kind"] == k] for k in ("construct", "verify", "sweep")}
    build_walls = walls["construct"] + walls["sweep"]
    builds = [b for r in recs for b in r["builds"]]
    ok = sum(1 for b in builds if b["status"] == "ok")
    failing = {}
    for b in builds:
        if b["status"] != "ok":
            failing[b["status"]] = failing.get(b["status"], 0) + 1
    artifact_bytes = [r["bytes"] for r in recs if "bytes" in r]
    timings = {f"{k}_s": summary(v) for k, v in walls.items() if v}
    timings["build_s"] = summary(build_walls)
    timings["cycle_s"] = summary([sum(r["wall_s"] for r in c) for c in cycles])
    metrics = {
        "build_s": timings["build_s"].get("median"),
        "cycle_s": timings["cycle_s"].get("median"),
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
        "artifact_bytes": statistics.median(artifact_bytes) if artifact_bytes else None,
        "builds_ok_ratio": ok / len(builds) if builds else None,
    }
    detail = {
        "commands": commands,
        "cycles": len(cycles),
        "timings": timings,
        "builds": {
            "attempted": len(builds), "failed": len(builds) - ok,
            "failed_ratio": (len(builds) - ok) / len(builds) if builds else None,
            "failing": failing, "records": builds,
        },
    }
    return metrics, detail


def _repeats_a_seed(cycles) -> bool:
    keys = [(r["kind"], b["seed"], b["eps"]) for c in cycles for r in c for b in r["builds"]]
    return len(keys) != len(set(keys))


def run_traced(workload, seed, seconds, workdir, env, checks) -> tuple[dict, dict]:
    config = str(workdir / "config.json")
    base = workdir / "trace"
    plan = {
        "cycles": [workload.cycle(config, seed, i) for i in range(workload.trace_cycles)],
        "seconds": seconds,
        "dir": str(base),
    }
    base.mkdir(parents=True, exist_ok=True)
    (base / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    rec = spawn([sys.executable, str(Path(__file__).with_name("tracer.py")), str(base / "plan.json")],
                workdir, env)
    if rec["exit"] != 0:
        checks.fail(f"tracer exited {rec['exit']}: {rec['stderr'][-500:]}")
        return {}, {}
    result = json.loads(rec["stdout"].strip().splitlines()[-1])
    commands = 0
    for p in result["passes"]:
        if p["unwrapped"]:
            checks.fail(f"bindings left unwrapped: {p['unwrapped']}")
        for cmd in p["commands"]:
            inspect_command(cmd, cmd, Path(p["dir"]), checks)
            commands += 1
    for b in result["builds"]:
        if not (b["total"] < b["eps"] and b["max_gap"] <= CLOSED_FORM_TOL):
            checks.fail(f"traced build fails its budget or closed-form check: {b}")
    detail = {k: result[k] for k in ("coverage", "cycles", "wall_s", "spans", "wrapped_functions")}
    detail["commands"] = commands
    detail["layer_metrics"] = result["metrics"]
    return result["metrics"], detail


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: set up, measure, check.  Returns the result object and its detail."""
    workdir = OUT / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    checks = Checks()
    setup = Setup(workload, seed, workdir, env)
    setup.once()
    if trace:
        setup.keep_pace(1.0)
        measured, detail = run_traced(workload, seed, seconds, workdir, env, checks)
        measured["cli.process_start_s"] = statistics.median(setup.imports)
    else:
        measured, detail = run_untraced(workload, seed, seconds, workdir, env, checks, setup)
        measured["setup_s"] = statistics.median(setup.totals)
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer" if trace else "end_to_end"]}
    missing = [name for name in units if measured.get(name) is None]
    if missing and not checks.problems:
        checks.fail(f"metrics not measured: {missing}")
    detail.update(
        workload=workload.name, seed=seed, seconds=seconds, trace=int(trace),
        setup={"setup_s": summary(setup.totals), "import_s": summary(setup.imports)},
        env=probe_environment(workdir, env), problems=checks.problems,
    )
    result = {
        "correct": not checks.problems,
        "attempted": detail.get("commands", 0) or 1,
        "failed": max(checks.failed_commands, int(bool(checks.problems))),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items() if measured.get(name) is not None},
    }
    return result, detail


REPORT_ROWS = (  # the end-to-end metrics as a person reads them, one row each
    ("setup_s", "s"), ("construct_s", "s"), ("verify_s", "s"), ("sweep_s", "s"),
    ("build_s", "s"), ("cycle_s", "s"), ("peak_rss_mb", "MB"), ("artifact_bytes", "bytes"),
    ("builds_failed_ratio", "ratio"),
)


def report(details: list) -> None:
    """Print every workload's end-to-end metrics, by name and unit."""
    print(f"{'workload':18} {'metric':20} {'value':>14} unit   spread")
    for d in details:
        b, t = d.get("builds", {}), d.get("timings", {})
        for name, unit in REPORT_ROWS:
            s = d["setup"]["setup_s"] if name == "setup_s" else t.get(name)
            if s and s.get("n"):
                tail = next((f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p")),
                            "no percentile above the median with 10 samples beyond")
                value, spread = s["median"], f"median of n={s['n']}; {tail}"
            elif name == "builds_failed_ratio" and b:
                value, spread = b["failed_ratio"], f"{b['failed']} of {b['attempted']} builds; {b['failing']}"
            elif name in ("peak_rss_mb", "artifact_bytes") and d.get("metrics", {}).get(name):
                value, spread = d["metrics"][name], ""
            else:
                continue
            print(f"{d['workload']:18} {name:20} {value:14.4f} {unit:6} {spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "uniesn" / "cli.py", DEMO_CONFIG, ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, details = [], []
    for name in names:
        result, detail = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        detail["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        results.append(result)
        details.append(detail)
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "detail": detail}, indent=1), encoding="utf-8")
        for problem in detail["problems"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
    if args.workload == "all":
        if args.trace:
            for d in details:
                for k, v in d["layer_metrics"].items():
                    print(f"{d['workload']:18} {k:34} {v:.6g}")
        else:
            report(details)
        print(json.dumps({"correct": all(r["correct"] for r in results)}))
    else:
        print(json.dumps(details[0], separators=(",", ":")))
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
