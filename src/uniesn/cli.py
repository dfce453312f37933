"""Command-line driver: construct, verify, sweep.

stdout carries nothing but result paths; stderr carries human-readable stage
logs.  Exit codes: 0 success, 2 config or load error or an output path that
cannot be written, 3 pipeline stage failure, 4 budget violation, 5
verification property failure, 143 a construct ended by SIGTERM.

Wall-clock timings are written to a separate timings.json: report.json and
esn.json are bitwise-deterministic functions of the config and seed, and
timings are not.
"""

import argparse
import csv
import dataclasses
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from .construct import (
    CLOSED_FORM_TOL,
    SAMPLE_COUNTS,
    BudgetError,
    ConstructionConfig,
    ConstructionError,
    ConstructionResult,
    LagBlockNet,
    closed_form_gap,
    construct_universal_esn,
    split_lag_blocks,
)
from .esn import (
    ESNParams,
    PatternError,
    check_esp_empirical,
    check_finite_memory,
    check_nilpotent,
)
from .filters import TargetFilter, filter_from_json
from .shallow import ShallowNet
from .windows import as_int, as_real, sample_window_array

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

SCHEMA_VERSION = 1

#: The sections a run config may hold; each is a JSON object.
CONFIG_SECTIONS = ("filter", "construction", "verification", "sweep", "output")


class ConfigError(ValueError):
    pass


def _log(msg: str):
    print(msg, file=sys.stderr)


class _FloatTexts(dict):
    """json's parse_float: each text held here maps to one shared float, and
    any other text misses and goes to float, so -0.0 keeps its sign."""

    __missing__ = staticmethod(float)


# Every "0.0", the bulk of a dense esn.json, is one +0.0 instead of a float
# object each; a dict hit is also faster than a call of float.
_parse_float = _FloatTexts({"0.0": 0.0}).__getitem__


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_parse_float)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config(path) -> dict:
    """Read a run config: a JSON object of known sections, each an object."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a run config must be a JSON object")
    unknown = set(raw) - set(CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
    for key, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: config section {key!r} must be a JSON object")
    return raw


def _construction_from(obj: dict, seed_override: int | None) -> ConstructionConfig:
    """The construction section as a config; the seed is the flag's, else
    UNIESN_SEED's, else the section's."""
    section = dict(obj)
    if os.environ.get("UNIESN_SEED"):
        section["seed"] = int(os.environ["UNIESN_SEED"])
    if seed_override is not None:
        section["seed"] = seed_override
    return ConstructionConfig(**section)


def _float_text(values: np.ndarray, indent: str) -> str:
    """A 1-D float array as json.dump writes its list at ``indent``.

    +0.0, the bulk of a dense esn.json, is the literal 0.0; only the other
    entries go through float.__repr__.  A finite float's repr has no "n", so
    an "n" means nan or inf, which must read NaN and Infinity.
    """
    if not values.size:
        return "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    texts = ["0.0"] * len(values)
    other = (values != 0) | np.signbit(values)
    for i, text in zip(np.flatnonzero(other).tolist(), map(float.__repr__, values[other].tolist())):
        texts[i] = text
    text = sep.join(texts)
    if "n" in text:
        text = sep.join(map(json.dumps, values.tolist()))
    return "[\n" + inner + text + "\n" + indent + "]"


def _json_chunks(obj, indent: str):
    """Stream ``json.dump(obj, indent=2, sort_keys=True)`` as text chunks.

    ``indent`` is the indentation of the line ``obj`` starts on.  Dict keys
    must be strings.  A float ndarray is written as its ``tolist()`` would be,
    row by row, and a 1-D one or a list of floats is one chunk: that is the
    bulk of a dense esn.json, and the pure-Python encoder behind json.dump's
    indent yields every float on its own.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            raise TypeError(f"only float arrays are written, got {obj.dtype}")
        if obj.ndim == 1:
            yield _float_text(obj, indent)
            return
        obj = list(obj)
    if isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        opener, closer = "{", "}"
        items = [(json.dumps(key) + ": ", value) for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)) and obj:
        if all(isinstance(value, float) for value in obj):
            yield _float_text(np.array(obj, dtype=np.float64), indent)
            return
        opener, closer = "[", "]"
        items = [("", value) for value in obj]
    else:  # a scalar, {} or []
        yield json.dumps(obj)
        return
    for i, (head, value) in enumerate(items):
        yield (sep if i else opener + "\n" + inner) + head
        yield from _json_chunks(value, inner)
    yield "\n" + indent + closer


def _write_json(path: Path, obj: dict):
    """Write ``json.dump(obj, indent=2, sort_keys=True)`` and a newline, streamed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(obj, ""))
        fh.write("\n")


def _write_budget_csv(path: Path, result: ConstructionResult):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(["term", "value", "status", "limit"])
        for term, value, status, limit in result.budget.rows():
            writer.writerow([term, repr(float(value)), status, repr(float(limit))])


def _report_dict(result: ConstructionResult, cfg: ConstructionConfig, filter_spec: dict) -> dict:
    esn = result.esn
    rows = result.budget.rows()
    return {
        "schema_version": SCHEMA_VERSION,
        "target": filter_spec,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "margin": cfg.margin,
        "horizon": result.horizon,
        "widths": list(esn.structure.widths),
        "state_dim": esn.state_dim,
        "gain": result.gain,
        "budget": {"eps": result.budget.eps, **{term: value for term, value, _, _ in rows}},
        "budget_status": {term: status for term, _, status, _ in rows},
        "verdict_status": result.budget.verdict_status(),
        "per_lag_chain": result.chain_records,
        "net_fit_achieved_validation": result.net_fit_achieved,
        "closed_form_check": {
            "windows": result.closed_form_check_windows,
            "max_gap": result.closed_form_check_max,
            "tolerance": CLOSED_FORM_TOL,
        },
        "functional_evaluator": "closed_form",
        "sample_counts": {key: getattr(cfg, key) for key in SAMPLE_COUNTS},
        "width_table": {
            "static_net": {"width": result.split.net.width, "achieved": result.net_fit_achieved},
            "identity_chain": [net.width for net in result.chain],
        },
    }


def _nets_json(split: LagBlockNet, chain: list) -> dict:
    return {
        "lag_dim": split.lag_dim,
        "static_net": split.net.to_json(),
        "identity_chain": [net.to_json() for net in chain],
    }


class _SystemWriter:
    """Writes esn.json and nets.json in a forked process while the build ends.

    Every byte of both files is fixed once the system is assembled, so
    ``start`` (construct_universal_esn's on_assembled hook) forks
    a writer that writes them under temporary names in ``out`` and ends with
    os._exit, while this process runs the closed-form check and the budget.
    ``commit`` reaps the writer and renames both files into place.  Leaving
    the ``with`` block kills and reaps a writer not committed and removes
    the temporary files, so a failed build adds nothing to ``out``.  Within
    the block a SIGTERM raises SystemExit(143), so it leaves the same way.
    """

    def __init__(self, out: Path):
        self.out = out
        self.temps = {name: out / f".{name}.{os.getpid()}.tmp" for name in ("esn.json", "nets.json")}
        self.pid = None

    def start(self, esn: ESNParams, split: LagBlockNet, chain: list):
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                _write_json(self.temps["esn.json"], esn.to_json())
                _write_json(self.temps["nets.json"], _nets_json(split, chain))
                code = 0
            except Exception as exc:
                _log(f"cannot write esn.json and nets.json: {exc}")
            finally:
                os._exit(code)

    def commit(self):
        """Move the writer's files into place; OSError if it failed."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise OSError(f"the writer of esn.json and nets.json exited with status {code}")
        for name, temp in self.temps.items():
            os.replace(temp, self.out / name)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGTERM, _terminated)
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for temp in self.temps.values():
            temp.unlink(missing_ok=True)
        signal.signal(signal.SIGTERM, self.previous)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # the shell's status for a process killed by signum


def _run_one(f: TargetFilter, cfg: ConstructionConfig, log=_log, on_assembled=None) -> ConstructionResult:
    result = construct_universal_esn(f, cfg, on_assembled=on_assembled)
    for stage, secs in result.wall_times.items():
        log(f"stage {stage}: {secs:.3f}s")
    terms = " ".join(f"{term}={value:.4g}" for term, value, _, _ in result.budget.rows())
    log(
        f"horizon={result.horizon} state_dim={result.esn.state_dim} gain={result.gain:.4g} "
        f"budget: {terms} (< eps={result.budget.eps:g})"
    )
    return result


def cmd_construct(config_path: str, out_dir: str | None, seed: int | None) -> int:
    try:
        raw = _load_config(config_path)
        f = filter_from_json(raw["filter"])
        cfg = _construction_from(raw.get("construction", {}), seed)
        out = Path(out_dir or raw.get("output", {}).get("dir", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, KeyError, TypeError, ValueError, OSError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG

    with _SystemWriter(out) as writer:
        try:
            result = _run_one(f, cfg, on_assembled=writer.start)
        except BudgetError as exc:
            _log(f"budget violation: {exc}")
            return EXIT_BUDGET
        except ConstructionError as exc:
            _log(f"stage {exc.stage} failed: {exc}")
            return EXIT_STAGE
        except ValueError as exc:
            _log(f"config error: {exc}")
            return EXIT_CONFIG

        try:
            writer.commit()
            _write_json(out / "report.json", _report_dict(result, cfg, raw["filter"]))
            _write_budget_csv(out / "budget.csv", result)
            _write_json(
                out / "timings.json",
                {"stages": result.wall_times, "total": sum(result.wall_times.values())},
            )
        except OSError as exc:
            _log(f"cannot write the artifacts: {exc}")
            return EXIT_CONFIG
    print(str(out / "report.json"))
    return EXIT_OK


def _boundary_directions(rng: np.random.Generator, n: int, d: int, M: float) -> np.ndarray:
    dirs = rng.standard_normal((n, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return dirs / norms * M


#: Integer options of the verification section, with their defaults.
VERIFY_INTS = {"seed": 2024, "esp_trials": 10, "fmp_trials": 1000, "window_len": 30, "closed_form_windows": 200}


def _verify_options(raw: dict, esn: ESNParams | None, esn_path: str) -> dict:
    """Parse and validate the config's verification section, and load
    nets.json unless no system was loaded (esn is None)."""
    vcfg = raw.get("verification", {})
    unknown = set(vcfg) - {*VERIFY_INTS, "input_bound", "out", "nets"}
    if unknown:
        raise ConfigError(f"unknown verification keys {sorted(unknown)}")
    M = vcfg["input_bound"] if "input_bound" in vcfg else raw.get("filter", {}).get("M", 1.0)
    opts = {
        key: as_int(vcfg.get(key, default), f"verification {key}") for key, default in VERIFY_INTS.items()
    }
    out = Path(vcfg.get("out", Path(esn_path).parent / "verify.json"))
    if not out.parent.is_dir():
        raise ConfigError(f"verification out {out}: {out.parent} is not a directory")
    opts.update(M=as_real(M, "verification input_bound"), out=out, nets=None)
    if not 0 < opts["M"] < np.inf:
        raise ConfigError(f"verification input_bound (default: filter M) must be finite and > 0, got {M}")
    if opts["seed"] < 0:
        raise ConfigError(f"verification seed must be >= 0, got {opts['seed']}")
    for key in ("esp_trials", "fmp_trials", "window_len", "closed_form_windows"):
        if opts[key] < 1:
            raise ConfigError(f"verification {key} must be >= 1, got {opts[key]}")
    # The sibling nets.json may be absent; a configured path must be read.
    nets_path = Path(vcfg["nets"]) if vcfg.get("nets") else Path(esn_path).parent / "nets.json"
    if esn is not None and (vcfg.get("nets") or nets_path.exists()):
        K = esn.structure.horizon
        nets = _load_json(nets_path)
        lag_dim = as_int(nets["lag_dim"], "nets.json lag_dim")
        split = split_lag_blocks(ShallowNet.from_json(nets["static_net"]), lag_dim)
        chain = [ShallowNet.from_json(o) for o in nets["identity_chain"]]
        # The nets fit the system as assemble_esn wires them: lag_dim-to-lag_dim
        # identity nets ahead of the static net, one state block each.
        fits = (
            len(chain) == split.horizon == K
            and split.lag_dim == esn.in_dim
            and all((net.in_dim, net.out_dim) == (lag_dim, lag_dim) for net in chain)
            and (*(net.width for net in chain), split.net.width) == esn.structure.widths
            and split.net.out_dim == esn.out_dim
        )
        if not fits:
            raise ConfigError(f"{nets_path} does not fit the system in {esn_path}")
        opts["nets"] = (split, chain)
    return opts


def _verify_checks(esn: ESNParams, opts: dict) -> dict:
    K = esn.structure.horizon
    d = esn.in_dim
    M, seed, fmp_trials = opts["M"], opts["seed"], opts["fmp_trials"]
    T = max(opts["window_len"], K + 2)  # so at least one far-past entry is rewritten

    checks: dict[str, dict] = {}

    ok, degree = check_nilpotent(esn)
    checks["nilpotency"] = {"passed": bool(ok and degree == K + 1), "degree": degree}

    probe = sample_window_array(d, M, K + 1, 3, seed)[-1]
    esp = check_esp_empirical(esn, probe, opts["esp_trials"], seed + 1)
    checks["echo_state"] = {"passed": bool(esp), "trials": opts["esp_trials"]}

    arr = sample_window_array(d, M, T, fmp_trials, seed + 2)
    rng = np.random.default_rng(seed + 3)
    modified = arr.copy()
    past = T - (K + 1)
    modified[:, :past, :] = _boundary_directions(rng, fmp_trials * past, d, M).reshape(fmp_trials, past, d)
    same = check_finite_memory(esn, arr, modified)
    checks["finite_memory"] = {"passed": same, "trials": fmp_trials}

    if opts["nets"] is not None:
        split, chain = opts["nets"]
        n_check = min(opts["closed_form_windows"], arr.shape[0])
        gap = closed_form_gap(esn, split, chain, arr[:n_check])
        # The state gap leaves out W, which assemble_esn pads from the static readout.
        readout = np.array_equal(esn.W, np.pad(split.readout, ((0, 0), (esn.state_dim - split.net.width, 0))))
        passed = bool(gap <= CLOSED_FORM_TOL and readout)
        checks["closed_form"] = {"passed": passed, "max_gap": gap, "readout_exact": readout, "windows": n_check}
    else:
        checks["closed_form"] = {"skipped": True, "reason": "no nets.json available"}

    return checks


def _pattern_checks(exc: PatternError) -> dict:
    """The checks of a file whose A breaks its block pattern: it holds no
    system, so only nilpotency has a verdict."""
    skipped = {"skipped": True, "reason": "A breaks its block pattern, so no system was loaded"}
    nilpotency = {"passed": False, "degree": 0, "reason": str(exc)}
    return {"nilpotency": nilpotency, "echo_state": skipped, "finite_memory": skipped, "closed_form": skipped}


def cmd_verify(esn_path: str, config_path: str) -> int:
    try:
        try:
            esn, broken = ESNParams.from_json(_load_json(esn_path)), None
        except PatternError as exc:
            esn, broken = None, exc
        opts = _verify_options(_load_config(config_path), esn, esn_path)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        _log(f"load error: {exc}")
        return EXIT_CONFIG

    checks = _pattern_checks(broken) if esn is None else _verify_checks(esn, opts)
    out_path = opts["out"]
    all_passed = all(c.get("passed", True) for c in checks.values())
    try:
        _write_json(out_path, {"schema_version": SCHEMA_VERSION, "checks": checks, "passed": all_passed})
    except OSError as exc:
        _log(f"cannot write {out_path}: {exc}")
        return EXIT_CONFIG
    for name, c in checks.items():
        status = "skipped" if c.get("skipped") else ("pass" if c.get("passed") else "FAIL")
        _log(f"check {name}: {status}")
    print(str(out_path))
    return EXIT_OK if all_passed else EXIT_VERIFY


SWEEP_COLUMNS = [
    "eps", "horizon", "state_dim", "widths",
    "truncation", "net_fit", "chain", "total", "wall_time_s", "status",
]


def _sweep_point(f: TargetFilter, base: ConstructionConfig, eps: float) -> tuple[list, list[str], int]:
    """Build one sweep point: its row, its stderr lines, its exit code."""
    lines = []
    t0 = time.perf_counter()
    cells, status, code = [""] * 7, "ok", EXIT_OK
    try:
        result = _run_one(f, dataclasses.replace(base, eps=eps), lines.append)
        budget = [repr(value) for _, value, _, _ in result.budget.rows()]
        cells = [result.horizon, result.esn.state_dim, "|".join(map(str, result.esn.structure.widths)), *budget]
    except BudgetError as exc:
        lines.append(f"eps={eps:g}: budget violation: {exc}")
        status, code = f"budget:{exc.term}", EXIT_BUDGET
    except ConstructionError as exc:
        lines.append(f"eps={eps:g}: stage {exc.stage} failed: {exc}")
        status, code = f"stage:{exc.stage}", EXIT_STAGE
    except ValueError as exc:
        lines.append(f"eps={eps:g}: config error: {exc}")
        status, code = "config", EXIT_CONFIG
    return [repr(eps), *cells, f"{time.perf_counter() - t0:.3f}", status], lines, code


def cmd_sweep(config_path: str, eps_arg: str | None, out_dir: str | None, seed: int | None) -> int:
    # Imported here: `import uniesn.cli` stays as cheap as construct and verify need.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        raw = _load_config(config_path)
        f = filter_from_json(raw["filter"])
        # Every point replaces eps; any valid one checks the rest of the section.
        base = _construction_from({**raw.get("construction", {}), "eps": 1.0}, seed)
        if eps_arg:
            eps_list = [float(x) for x in eps_arg.split(",") if x.strip()]
        else:
            eps_list = [as_real(x, "sweep eps") for x in raw.get("sweep", {}).get("eps", [])]
        if not eps_list:
            raise ConfigError("sweep needs a non-empty eps list (config sweep.eps or --eps)")
        out = Path(out_dir or raw.get("output", {}).get("dir", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, KeyError, TypeError, ValueError, OSError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG

    rows, died, worst = [], [], EXIT_OK
    # This process builds the smallest eps, which needs the widest fits.  Forked
    # workers inherit the modules and build the others, smallest eps first;
    # with one usable CPU this process builds all.
    order = sorted(range(len(eps_list)), key=eps_list.__getitem__)
    workers = min(len(eps_list), len(os.sched_getaffinity(0))) - 1
    mine = order[:1] if workers else order
    with ProcessPoolExecutor(max(workers, 1), multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(_sweep_point, f, base, eps_list[i]) for i in order if i not in mine}
        done = {i: _sweep_point(f, base, eps_list[i]) for i in mine}
        for i, eps in enumerate(eps_list):
            try:
                row, lines, code = done[i] if i in done else futures[i].result()
            except BrokenProcessPool:
                died.append(f"{eps:g}")
                row, lines, code = [repr(eps)] + [""] * 8 + ["worker_died"], [], EXIT_STAGE
            for line in lines:
                _log(line)
            rows.append(row)
            worst = worst or code
    if died:
        _log(f"a sweep worker died; eps points not finished: {', '.join(died)}")

    sweep_path = out / "sweep.csv"
    try:
        with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# schema_version={SCHEMA_VERSION}\n")
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            writer.writerows(rows)
    except OSError as exc:
        _log(f"cannot write {sweep_path}: {exc}")
        return EXIT_CONFIG
    print(str(sweep_path))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uniesn",
        description="Construct echo state networks within eps of a target filter and check their error budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="run the construction pipeline")
    p_construct.add_argument("config", help="JSON run config")
    p_construct.add_argument("--out", default=None, help="output directory")
    p_construct.add_argument("--seed", type=int, default=None, help="override config seed")

    p_verify = sub.add_parser("verify", help="re-check a serialized system's properties")
    p_verify.add_argument("esn", help="esn.json written by construct")
    p_verify.add_argument("config", help="JSON run config")

    p_sweep = sub.add_parser("sweep", help="construct across a list of tolerances")
    p_sweep.add_argument("config", help="JSON run config")
    p_sweep.add_argument("--eps", default=None, help="comma-separated tolerance list")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")

    args = parser.parse_args(argv)
    if args.command == "construct":
        return cmd_construct(args.config, args.out, args.seed)
    if args.command == "verify":
        return cmd_verify(args.esn, args.config)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.eps, args.out, args.seed)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
