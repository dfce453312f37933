"""In-process traced run of uniesn CLI commands, for per-layer metrics.

run.py spawns this script with the same pinned environment as its CLI
children and reads one JSON object from its stdout:

    python3 perfbench/tracer.py PLAN.json

PLAN.json holds ``cycles`` (lists of commands, each with the ``args`` that
``uniesn.cli.main`` takes), ``seconds`` and ``dir``.  The script runs the
cycles in pairs of passes, one untraced and one traced (alternating which
goes first), each pass in its own directory under ``dir``, until the time is
used (at least one pair).

Tracing wraps, at their module attributes, the public functions and the
public methods of public classes of every layer (windows, linalg, shallow,
filters, esn, construct, cli), plus the CLI's private JSON reader and
writer.  Every other module-level name that is bound to a wrapped function
(``from .shallow import fit_to_tolerance`` and the like) is rebound to the
wrapper, so no call goes unseen.  Each call records a span (name, start,
end, parent span, command index) in memory; computed counts (rows, FLOPs,
bytes) are taken from the argument and result shapes at the wrapped call.
The spans are written to ``dir/spans.json`` when the run ends.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

LAYERS = ("windows", "linalg", "shallow", "filters", "esn", "construct", "cli")
# Private, but they are the CLI's whole JSON input and output.
CLI_IO = ("_load_json", "_write_json")
STAGES = (
    "choose_horizon", "fit_static_net", "fit_identity_chain", "verify_chain",
    "assemble", "verify_closed_form", "budget",
)
ENTRY_SPANS = ("cli.main", "cli.cmd_construct", "cli.cmd_verify", "cli.cmd_sweep")


def _fit_flops(a, result):
    # Random-feature fit of n samples on W units (+1 constant unit), m outputs:
    # gram = phi^T phi costs 2 n (W+1)^2; the dense solve (W+1)^3 * 2/3 for
    # the factorisation plus 2 m (W+1)^2 for the substitutions.
    n, w1 = len(a["inputs"]), a["width"] + 1
    m = result.readout.shape[0]
    return {"gram_flops": 2 * n * w1 * w1, "solve_flops": 2 * w1**3 / 3 + 2 * m * w1 * w1}


def _run_batch_counts(a, result):
    B, T = a["arr"].shape[:2]
    N = a["self"].state_dim
    return {"state_steps": B * T, "flops": 2 * B * T * N * N}


def _nilpotent_flops(a, result):
    # A^(K+1) by K+1 dense N x N products.
    p = a["p"]
    return {"flops": 2 * (p.structure.horizon + 1) * p.state_dim**3}


def _forward_rows(a, result):
    u = a["u"]
    return {"rows": len(u) if getattr(u, "ndim", 1) == 2 else 1}


def _rows(a, result):
    return {"rows": len(result)}


def _bytes_written(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _build_record(a, result):
    # Stage times as counts, plus what the correctness gate checks.
    record = {f"stage.{k}": v for k, v in result.wall_times.items()}
    record.update(eps=result.budget.eps, total=result.budget.total_sampled,
                  max_gap=result.closed_form_check_max, state_dim=result.esn.state_dim)
    return record


HOOKS = {
    "shallow.fit_random_feature": _fit_flops,
    "shallow.ShallowNet.forward": _forward_rows,
    "esn.ESNParams.run_batch": _run_batch_counts,
    "esn.check_nilpotent": _nilpotent_flops,
    "windows.sample_ball": _rows,
    "windows.sample_product_ball": _rows,
    "windows.sample_window_array": _rows,
    "windows.sample_windows": _rows,
    "cli._write_json": _bytes_written,
    "construct.construct_universal_esn": _build_record,
}


class Span:
    __slots__ = ("name", "layer", "parent", "request", "start", "end", "counts", "error")

    def __init__(self, name, layer, parent, request):
        self.name, self.layer, self.parent, self.request = name, layer, parent, request
        self.start = self.end = 0.0
        self.counts = None
        self.error = None

    def to_json(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.kinds: list[str] = []  # command kind of each request id
        self._patches: list[tuple] = []
        self._wrappers: dict = {}  # original module-level function -> its wrapper
        self.wrapped: set[str] = set()  # names of every wrapped function and method

    def _wrap(self, layer, qualname, fn):
        name = f"{layer}.{qualname}"
        self.wrapped.add(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook(bound.arguments, result)
            return result

        return traced

    def _set(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self):
        self._wrappers = {}
        modules = {layer: importlib.import_module(f"uniesn.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_IO):
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._wrappers[obj] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in [importlib.import_module("uniesn"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._set(mod, attr, self._wrappers[obj])

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if kind else member
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                wrapped = self._wrap(layer, f"{cls.__name__}.{attr}", fn)
                self._set(cls, attr, kind(wrapped) if kind else wrapped)

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names still bound to a function that has a wrapper."""
        missed = []
        for name in ["uniesn", *(f"uniesn.{layer}" for layer in LAYERS)]:
            for attr, obj in vars(importlib.import_module(name)).items():
                if inspect.isfunction(obj) and obj in self._wrappers:
                    missed.append(f"{name}.{attr}")
        return missed

    def uninstall(self):
        while self._patches:
            target, attr, old = self._patches.pop()
            setattr(target, attr, old)


def run_command(tracer: Tracer, cmd: dict) -> dict:
    from uniesn import cli

    tracer.request = len(tracer.kinds)
    tracer.kinds.append(cmd["kind"])
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd["args"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = "crash"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return {**cmd, "exit": code, "wall_s": wall, "stderr": err.getvalue()[-2000:]}


def run_cycles(tracer: Tracer, cycles: list) -> list[dict]:
    records = []
    for cycle in cycles:
        for cmd in cycle:
            records.append(run_command(tracer, cmd))
            if records[-1]["exit"] != 0:
                break  # nothing to verify after a failed build
    return records


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _outermost(spans: list[Span], match) -> list[Span]:
    """Spans that match and have no matching ancestor (so nesting is not counted twice)."""
    out = []
    for s in spans:
        if not match(s):
            continue
        p = s.parent
        while p >= 0 and not match(spans[p]):
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], kinds: list[str], cycles: int) -> tuple[dict, dict]:
    """Per-cycle per-layer metrics, and the coverage of each CLI command kind."""

    def spans_of(*names):
        return _outermost(spans, lambda s: s.name in names)

    def secs(selected):
        return sum(s.end - s.start for s in selected)

    def total(selected, key):
        return sum((s.counts or {}).get(key, 0) for s in selected)

    samples = _outermost(spans, lambda s: s.name.startswith("windows.sample_"))
    fits = spans_of("shallow.fit_random_feature")
    tolerance_fits = spans_of("shallow.fit_to_tolerance")
    forwards = spans_of("shallow.ShallowNet.forward")
    batches = spans_of("esn.ESNParams.run_batch")
    nilpotent = spans_of("esn.check_nilpotent")
    norms = spans_of("linalg.operator_norm")
    writes = spans_of("cli._write_json")
    builds = spans_of("construct.construct_universal_esn")
    evaluations = _outermost(
        spans, lambda s: s.layer == "filters" and s.name.endswith(".evaluate_batch")
    )
    m = {
        "windows.sample_s": secs(samples),
        "windows.rows_sampled": total(samples, "rows"),
        "linalg.operator_norm_s": secs(norms),
        "linalg.operator_norm_calls": len(norms),
        "shallow.fit_random_feature_s": secs(fits),
        "shallow.fit_attempts": len(fits),
        "shallow.gram_flops": total(fits, "gram_flops"),
        "shallow.solve_flops": total(fits, "solve_flops"),
        "shallow.forward_s": secs(forwards),
        "shallow.forward_rows": total(forwards, "rows"),
        "shallow.fit_tolerance_errors": sum(
            1 for s in tolerance_fits if s.error == "FitToleranceError"
        ),
        "filters.evaluate_batch_s": secs(evaluations),
        "filters.choose_horizon_s": secs(spans_of("filters.TargetFilter.choose_horizon")),
        "esn.run_batch_s": secs(batches),
        "esn.state_steps": total(batches, "state_steps"),
        "esn.run_batch_flops": total(batches, "flops"),
        "esn.check_nilpotent_s": secs(nilpotent),
        "esn.nilpotent_flops": total(nilpotent, "flops"),
        "esn.check_esp_empirical_s": secs(spans_of("esn.check_esp_empirical")),
        "esn.to_json_s": secs(spans_of("esn.ESNParams.to_json")),
        "esn.from_json_s": secs(spans_of("esn.ESNParams.from_json")),
        "construct.closed_form_state_s": secs(spans_of("construct.closed_form_state")),
        "cli.json_write_s": secs(writes),
        "cli.json_read_s": secs(spans_of("cli._load_json")),
        "cli.json_bytes_written": total(writes, "bytes"),
    }
    for stage in STAGES:
        m[f"construct.{stage}_s"] = total(builds, f"stage.{stage}")
    self_times = _self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_times) if s.layer == layer)
    metrics = {k: v / cycles for k, v in m.items()}
    accepted = sum(1 for s in tolerance_fits if s.error is None)
    metrics["shallow.fit_useful_ratio"] = accepted / len(fits) if fits else 0.0

    # Coverage: the share of each command's wall time spent inside a wrapped
    # call below the CLI entry points (main and cmd_*), i.e. not in their glue.
    covered: dict[str, list[float]] = {}
    glue: dict[int, float] = {}
    for s, t in zip(spans, self_times):
        if s.name in ENTRY_SPANS:
            glue[s.request] = glue.get(s.request, 0.0) + t
    for s in spans:
        if s.name != "cli.main":
            continue
        wall = s.end - s.start
        acc = covered.setdefault(kinds[s.request], [0.0, 0.0])
        acc[0] += wall - glue[s.request]
        acc[1] += wall
    coverage = {k: c / w for k, (c, w) in covered.items() if w > 0}
    all_w = sum(w for _, w in covered.values())
    metrics["trace.coverage_ratio"] = sum(c for c, _ in covered.values()) / all_w if all_w else 0.0
    return metrics, coverage


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    base = Path(plan["dir"])
    tracer = Tracer()
    passes = []
    t_start = time.perf_counter()
    pair_estimate = 0.0
    crashed = False
    while not crashed and (
        not passes or time.perf_counter() - t_start + pair_estimate <= plan["seconds"]
    ):
        t_pair = time.perf_counter()
        # Alternate which pass goes first, so drift in machine speed does not
        # bias the overhead estimate one way.
        order = ("untraced", "traced") if len(passes) % 4 == 0 else ("traced", "untraced")
        for mode in order:
            cwd = base / f"{mode}{len(passes) // 2}"
            cwd.mkdir(parents=True, exist_ok=True)
            os.chdir(cwd)
            if mode == "traced":
                tracer.install()
            try:
                records = run_cycles(tracer, plan["cycles"])
                missed = tracer.unwrapped_bindings() if mode == "traced" else []
            finally:
                tracer.uninstall()
            passes.append({"mode": mode, "dir": str(cwd), "commands": records, "unwrapped": missed})
            crashed = any(r["exit"] == "crash" for r in records)
            if crashed:
                break
        pair_estimate = time.perf_counter() - t_pair

    traced = [p for p in passes if p["mode"] == "traced"]
    cycles = max(1, len(traced) * len(plan["cycles"]))
    metrics, coverage = layer_metrics(tracer.spans, tracer.kinds, cycles)
    wall = {mode: sum(r["wall_s"] for p in passes if p["mode"] == mode for r in p["commands"])
            for mode in ("untraced", "traced")}
    metrics["trace.overhead_s"] = (wall["traced"] - wall["untraced"]) / cycles
    (base / "spans.json").write_text(json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8")
    json.dump({
        "metrics": metrics,
        "coverage": coverage,
        "cycles": cycles,
        "wall_s": wall,
        "spans": len(tracer.spans),
        "wrapped_functions": len(tracer.wrapped),
        "builds": [
            {k: s.counts[k] for k in ("eps", "total", "max_gap", "state_dim")}
            for s in tracer.spans if s.name == "construct.construct_universal_esn" and s.counts
        ],
        "passes": passes,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
