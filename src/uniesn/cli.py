"""Command-line driver: construct, verify, sweep.

stdout carries nothing but result paths; stderr carries human-readable stage
logs.  Exit codes: 0 success, 2 config or load error or an output path that
cannot be written, 3 pipeline stage failure, 4 budget violation, 5
verification property failure, 143 a construct or sweep ended by SIGTERM.

verify never parses esn.json: its system check passes only if the file holds,
byte for byte, what construct writes for the system that nets.json's static
net and chain scale wire.  It then records nilpotency, the echo state
property and finite memory from that system's block structure, which proves
them (see esn); the one check it runs is the recursion against the closed
form of the nets.

Wall-clock timings are written to a separate timings.json: report.json and
esn.json are bitwise-deterministic functions of the config and seed, and
timings are not.
"""

import argparse
import csv
import json
import math
import os
import pickle
import select
import signal
import sys
import time
from pathlib import Path

import numpy as np

from .construct import (
    CHAIN_ROUNDING,
    CLOSED_FORM_TOL,
    SAMPLE_COUNTS,
    WINDOW_LEN,
    BudgetError,
    ConstructionConfig,
    ConstructionError,
    ConstructionResult,
    assemble_esn,
    closed_form_gap,
    construct_universal_esn,
)
from .filters import TargetFilter, filter_from_json
from .shallow import FIT_MARGIN, ShallowNet, WidthLadder
from .windows import as_int, as_real, required, sample_window_array

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


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
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
    if "filter" not in raw:
        raise ConfigError(f"{path}: the config has no 'filter' section")
    return raw


def _construction_from(obj: dict, seed_override: int | None) -> ConstructionConfig:
    """The construction section as a config; the seed is the flag's, else the section's."""
    if seed_override is not None:
        obj = {**obj, "seed": seed_override}
    return ConstructionConfig(**obj)


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
    row by row, and a 1-D one is one chunk: that is the bulk of a dense
    esn.json, and the pure-Python encoder behind json.dump's indent yields
    every float on its own.
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
        for _, chunk in _keyed_chunks(obj, indent):
            yield chunk
    elif isinstance(obj, (list, tuple)) and obj:
        for i, value in enumerate(obj):
            yield sep if i else "[\n" + inner
            yield from _json_chunks(value, inner)
        yield "\n" + indent + "]"
    else:  # a scalar, {} or []
        yield json.dumps(obj)


def _keyed_chunks(obj: dict, indent: str):
    """The chunks of a non-empty dict at ``indent``, each with the key whose
    item it is part of, the item's head or its value; None with the closing
    brace."""
    if not all(isinstance(key, str) for key in obj):
        raise TypeError("JSON object keys must be str")
    inner = indent + "  "
    for i, (key, value) in enumerate(sorted(obj.items())):
        yield key, ("," if i else "{") + "\n" + inner + json.dumps(key) + ": "
        for chunk in _json_chunks(value, inner):
            yield key, chunk
    yield None, "\n" + indent + "}"


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


def _report_dict(result: ConstructionResult, cfg: ConstructionConfig, filter_spec: dict, M: float) -> dict:
    esn = result.esn
    rows = result.budget.rows()
    return {
        "schema_version": SCHEMA_VERSION,
        "target": filter_spec,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "margin": FIT_MARGIN,
        "horizon": result.horizon,
        "widths": list(esn.structure.widths),
        "state_dim": esn.state_dim,
        "gain": result.gain,
        # The chain row is gain * (chain_scale**2 * M**3 / 3 + chain_rounding).
        "chain_scale": result.chain_scale,
        "chain_rounding": CHAIN_ROUNDING * M,
        "budget": {"eps": result.budget.eps, **{term: value for term, value, _, _ in rows}},
        "budget_status": {term: status for term, _, status, _ in rows},
        "verdict_status": result.budget.verdict_status(),
        "net_fit_achieved_validation": result.net_fit_achieved,
        "closed_form_check": {
            "windows": result.closed_form_check_windows,
            "max_gap": result.closed_form_check_max,
            "tolerance": CLOSED_FORM_TOL,
        },
        "sample_counts": {"budget_window_len": WINDOW_LEN, **{key: getattr(cfg, key) for key in SAMPLE_COUNTS}},
    }


def _nets_json(result: ConstructionResult) -> dict:
    return {
        "lag_dim": result.esn.in_dim,
        "static_net": result.static_net.to_json(),
        "chain_scale": result.chain_scale,
    }


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # the shell's status for a process killed by signum


def _remove_held(temps, previous, held: dict):
    """Remove the temporary files with a SIGTERM held in ``held``, then give
    SIGTERM back its ``previous`` handler, and hand that a held SIGTERM."""
    signal.signal(signal.SIGTERM, held.__setitem__)
    for temp in temps:
        temp.unlink(missing_ok=True)
    signal.signal(signal.SIGTERM, previous)
    if held:
        signal.raise_signal(signal.SIGTERM)


def _run_one(f: TargetFilter, cfg: ConstructionConfig, log=_log, ladder=WidthLadder) -> ConstructionResult:
    result = construct_universal_esn(f, cfg, ladder=ladder)
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

    # The artifacts go to temporary names and are renamed into place once all
    # five exist, so a failed build or write, or a SIGTERM (SystemExit(143)),
    # leaves the earlier ones in ``out``.  A SIGTERM during the renames or the
    # removal of the temporary files is held, then goes to the previous handler.
    names = ("esn.json", "nets.json", "report.json", "budget.csv", "timings.json")
    temps = {name: out / f".{name}.{os.getpid()}.tmp" for name in names}
    held = {}  # its __setitem__(signum, frame) is the handler that holds a SIGTERM
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        try:
            result = _run_one(f, cfg)
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
            _write_json(temps["esn.json"], result.esn.to_json())
            _write_json(temps["nets.json"], _nets_json(result))
            _write_json(temps["report.json"], _report_dict(result, cfg, raw["filter"], f.input_bound))
            _write_budget_csv(temps["budget.csv"], result)
            _write_json(
                temps["timings.json"],
                {"stages": result.wall_times, "total": sum(result.wall_times.values())},
            )
            # Only a target that is absent or a file can be replaced; checking
            # them all first keeps a failed rename from stopping the set partway.
            blocked = [str(out / name) for name in names if (out / name).exists() and not (out / name).is_file()]
            if blocked:
                _log(f"cannot write the artifacts: not a regular file: {', '.join(blocked)}")
                return EXIT_CONFIG
            signal.signal(signal.SIGTERM, held.__setitem__)
            for name, temp in temps.items():
                os.replace(temp, out / name)
        except OSError as exc:
            _log(f"cannot write the artifacts: {exc}")
            return EXIT_CONFIG
    finally:
        _remove_held(temps.values(), previous, held)
    print(str(out / "report.json"))
    return EXIT_OK


#: Integer options of the verification section, with their defaults.
VERIFY_INTS = {"seed": 2024, "fmp_trials": 1000}  # fmp_trials is read by nothing; ROADMAP item 6 removes it

#: Every key the verification section accepts.
VERIFY_KEYS = {*VERIFY_INTS, "out"}

#: Windows of the closed-form check of every verify.
CLOSED_FORM_WINDOWS = 200


def _verify_options(raw: dict, esn_path: str) -> dict:
    """Parse and validate the config's filter and verification sections, and
    find the nets.json beside esn.json (``nets``; None if it is absent)."""
    f = filter_from_json(raw["filter"])
    vcfg = raw.get("verification", {})
    unknown = set(vcfg) - VERIFY_KEYS
    if unknown:
        raise ConfigError(f"unknown verification keys {sorted(unknown)}")
    opts = {
        key: as_int(vcfg.get(key, default), f"verification {key}") for key, default in VERIFY_INTS.items()
    }
    out = Path(vcfg.get("out", Path(esn_path).parent / "verify.json"))
    if not out.parent.is_dir():
        raise ConfigError(f"verification out {out}: {out.parent} is not a directory")
    for key, least in (("seed", 0), ("fmp_trials", 1)):
        if opts[key] < least:
            raise ConfigError(f"verification {key} must be >= {least}, got {opts[key]}")
    # An absent nets.json fails the system check.
    nets_path = Path(esn_path).parent / "nets.json"
    opts.update(filter=f, out=out, nets=nets_path if nets_path.exists() else None)
    return opts


def _load_nets(nets_path: Path) -> tuple:
    """The static net and chain scale of a nets.json, and the system they
    wire into as construct wires them.

    The horizon K is the static net's lag count less one.  The chain scale
    is null exactly when K is 0, and otherwise a power of two: the chain the
    construction's bound is proven for.
    """
    nets = _load_json(nets_path)
    lag_dim = as_int(required(nets, "lag_dim", str(nets_path)), "nets.json lag_dim")
    static = ShallowNet.from_json(required(nets, "static_net", str(nets_path)), f"{nets_path} static_net")
    s = required(nets, "chain_scale", str(nets_path))
    if lag_dim < 1 or static.in_dim % lag_dim:
        raise ConfigError(f"{nets_path}: a static net of {static.in_dim} inputs does not split into lag_dim={lag_dim}")
    K = static.in_dim // lag_dim - 1
    if not (s is None if K == 0 else type(s) is float and math.frexp(s)[0] == 0.5):
        need = "null" if K == 0 else "a positive finite power of two"
        raise ConfigError(f"{nets_path}: chain_scale {s!r} at horizon {K}, which needs {need}")
    return static, s, assemble_esn(static, K, s)


def holds_json(fh, obj: dict) -> tuple[bool, str | None]:
    """Does the binary file ``fh`` hold, byte for byte, what ``_write_json(path, obj)`` writes?

    If not, also the top-level key of ``obj`` whose text, its line or its
    value, differs first; None if they all match and the rest does not: the
    closing brace, the final newline or what follows it.  The file is read
    one chunk of the writer at a time, up to the first chunk that differs,
    so neither text is held whole.
    """
    for key, chunk in _keyed_chunks(obj, ""):
        data = chunk.encode("utf-8")
        if fh.read(len(data)) != data:
            return False, key
    return fh.read(2) == b"\n", None


def _system_check(esn_file, esn_path: str, opts: dict, nets: tuple | None) -> dict:
    """Is esn.json the system the nets wire?  It is never parsed, so any other
    file, or one with no nets.json, is not shown to be a constructed system.
    A filter that does not fit the wired system is a ConfigError."""
    if nets is None:
        _log(f"{esn_path}: no nets.json beside it; not shown to be a constructed system")
        return {"passed": False, "reason": "no nets.json beside it, so it is not shown to be a constructed system"}
    wired, f = nets[-1], opts["filter"]
    if (f.in_dim, f.out_dim) != (wired.in_dim, wired.out_dim):
        raise ConfigError(
            f"the filter maps d={f.in_dim} to m={f.out_dim}, {opts['nets']} d={wired.in_dim} to m={wired.out_dim}"
        )
    same, key = holds_json(esn_file, wired.to_json())
    if same:
        _log(f"{esn_path}: the system {opts['nets']} wires, byte for byte")
        return {"passed": True}
    _log(f"{esn_path}: differs from the system {opts['nets']} wires; first_difference: {json.dumps(key)}")
    return {"passed": False, "first_difference": key}


def _verify_checks(nets: tuple, opts: dict) -> dict:
    """The checks of the system the nets wire, which esn.json holds."""
    static, s, esn = nets
    K = esn.structure.horizon
    # Every ESNParams is strictly block-lower-triangular, so A^(K+1) == 0 by
    # its type, and run_batch's final state on K+1 or more entries reads only
    # the last K+1: neither the initial state nor the far past (see esn).
    memory = {"forgetting_depth": K + 1, "from": "block_structure", "passed": True}
    T = max(WINDOW_LEN, K + 1)
    arr = sample_window_array(esn.in_dim, opts["filter"].input_bound, T, CLOSED_FORM_WINDOWS, opts["seed"] + 2)
    gap = closed_form_gap(esn, static, s, arr)
    return {
        "nilpotency": {"passed": True, "degree": K + 1},
        "echo_state": memory,
        "finite_memory": memory,
        "closed_form": {"passed": bool(gap <= CLOSED_FORM_TOL), "max_gap": gap, "windows": CLOSED_FORM_WINDOWS},
    }


#: What each check of the system records when esn.json is not the wired one.
NOT_WIRED = {"skipped": True, "reason": "esn.json is not shown to be the system nets.json wires"}


def cmd_verify(esn_path: str, config_path: str) -> int:
    try:
        opts = _verify_options(_load_config(config_path), esn_path)
        # An esn.json that cannot be opened is a load error, with or without nets.json.
        with open(esn_path, "rb") as esn_file:
            nets = _load_nets(opts["nets"]) if opts["nets"] else None
            checks = {"system": _system_check(esn_file, esn_path, opts, nets)}
        if checks["system"]["passed"]:
            checks.update(_verify_checks(nets, opts))
        else:
            checks.update(dict.fromkeys(("nilpotency", "echo_state", "finite_memory", "closed_form"), NOT_WIRED))
    except (ConfigError, KeyError, TypeError, ValueError, OSError) as exc:
        _log(f"load error: {exc}")
        return EXIT_CONFIG
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


def _sweep_point(f: TargetFilter, cfg: ConstructionConfig, ladder) -> tuple[list, list[str], int]:
    """Build one sweep point, its static fit's attempts from ``ladder``: its
    row, its stderr lines, its exit code."""
    lines, eps = [], cfg.eps
    t0 = time.perf_counter()
    cells, status, code = [""] * 7, "ok", EXIT_OK
    try:
        result = _run_one(f, cfg, lines.append, ladder)
        budget = [repr(value) for term, value, _, _ in result.budget.rows() if term != "chain_witness"]
        cells = [result.horizon, result.esn.state_dim, "|".join(map(str, result.esn.structure.widths)), *budget]
    except _AttemptDied:
        status, code = "worker_died", EXIT_STAGE
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
    try:
        raw = _load_config(config_path)
        f = filter_from_json(raw["filter"])
        if eps_arg:
            eps_list = [float(x) for x in eps_arg.split(",") if x.strip()]
        else:
            eps_list = [as_real(x, "sweep eps") for x in raw.get("sweep", {}).get("eps", [])]
        if not eps_list:
            raise ConfigError("sweep needs a non-empty eps list (config sweep.eps or --eps)")
        configs = [_construction_from({**raw.get("construction", {}), "eps": eps}, seed) for eps in eps_list]
        out = Path(out_dir or raw.get("output", {}).get("dir", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, KeyError, TypeError, ValueError, OSError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG

    # A SIGTERM ends the sweep with SystemExit(143), as it ends construct: the
    # running fit attempts are killed, and sweep.csv goes to a temporary name
    # first, so no new one appears.  A SIGTERM during the rename or the
    # removal of the temporary file is held, then goes to the previous handler.
    previous = signal.signal(signal.SIGTERM, _terminated)
    sweep_path = out / "sweep.csv"
    temp = out / f".sweep.csv.{os.getpid()}.tmp"
    held = {}  # its __setitem__(signum, frame) is the handler that holds a SIGTERM
    try:
        rows, worst = _sweep_rows(f, configs)
        try:
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"# schema_version={SCHEMA_VERSION}\n")
                writer = csv.writer(fh)
                writer.writerow(SWEEP_COLUMNS)
                writer.writerows(rows)
            signal.signal(signal.SIGTERM, held.__setitem__)
            os.replace(temp, sweep_path)
        except OSError as exc:
            _log(f"cannot write {sweep_path}: {exc}")
            return EXIT_CONFIG
    finally:
        _remove_held([temp], previous, held)
    print(str(sweep_path))
    return worst


class _AttemptDied(Exception):
    """A fit attempt's process ended without sending its result."""


class _SharedLadder:
    """One horizon's width ladder, shared by every sweep point of that horizon.

    ``ladder`` is the WidthLadder that computes the attempts; each is computed
    once and kept, so a point takes what an earlier one computed.  With
    ``slots`` > 1, up to ``slots`` attempts run at once, each in a forked
    process, narrowest first; with one slot each is computed in this process
    when a point first asks for it.  An attempt that meets ``stop`` (the
    horizon's tightest tol * FIT_MARGIN), cannot allocate, raises or dies ends
    every point's fit at or before it: no wider attempt starts, and the wider
    ones running are killed and reaped.
    """

    def __init__(self, ladder: WidthLadder, stop: float, slots: int):
        self.ladder, self.stop = ladder, stop
        self.forks = slots if slots > 1 else 0
        self.widths = ladder.widths
        self.end = len(self.widths)  # no attempt from this index on is needed
        self.results = {}  # attempt -> (net, error) or the exception it raises
        self.running = {}  # read end of an attempt's pipe -> (attempt, pid, bytes read)
        self.started = 0

    def attempt(self, i: int) -> tuple[ShallowNet, float]:
        if i >= self.end:  # only a ``stop`` above the point's tol * FIT_MARGIN gets here; waiting would hang
            raise RuntimeError(f"attempt {i} lies past the ladder's end, attempt {self.end - 1}")
        if not self.forks and i not in self.results:
            try:
                self.results[i] = self.ladder.attempt(i)
            except MemoryError:
                self.results[i] = MemoryError()
        self._start()
        while i not in self.results:
            self._collect()
            self._start()  # keep the slots busy, also while the point goes on
        result = self.results[i]
        if isinstance(result, BaseException):
            raise result.with_traceback(None)
        return result

    def _start(self):
        while len(self.running) < self.forks and self.started < self.end:
            i = self.started
            self.started += 1
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                self._send_attempt(i, read, write)
            os.close(write)
            self.running[read] = (i, pid, bytearray())

    def _send_attempt(self, i: int, read: int, write: int):
        """In an attempt's process: compute attempt i, write it to ``write`` and exit."""
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read)
            try:
                net, err = self.ladder.attempt(i)
                result = (net.hidden_matrix, net.hidden_bias, net.readout, err)
            except MemoryError:
                result = MemoryError()
            except Exception as exc:
                result = exc
            with open(write, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)

    def _collect(self):
        """Read what the running attempts have sent, and keep the result of each that has ended."""
        ready, _, _ = select.select(list(self.running), [], [])
        for fd in ready:
            if fd not in self.running:
                continue  # killed once an attempt read before it ended the ladder
            i, pid, data = self.running[fd]
            chunk = os.read(fd, 1 << 16)
            if chunk:
                data += chunk
                continue
            _, status = os.waitpid(pid, 0)
            del self.running[fd]
            os.close(fd)
            result = pickle.loads(data) if status == 0 else _AttemptDied()
            if isinstance(result, tuple):
                *arrays, err = result
                result = ShallowNet(*arrays), err  # frozen and finite-checked here
            self.results[i] = result
            if isinstance(result, BaseException) or result[1] <= self.stop:
                self.end = min(self.end, i + 1)
                for other, (j, _, _) in list(self.running.items()):
                    if j >= self.end:
                        self._kill(other)

    def _kill(self, fd: int):
        pid = self.running[fd][1]
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        del self.running[fd]
        os.close(fd)

    def close(self):
        """Kill and reap every attempt still running."""
        for fd in list(self.running):
            self._kill(fd)


def _sweep_rows(f: TargetFilter, configs: list) -> tuple[list, int]:
    """Build every point: the rows in eps-list order, and the exit code of the first failed point.

    This process builds the points, loosest eps first, and the points of one
    horizon share one _SharedLadder: they differ only in their tolerance, so
    their attempts are the same.  A point that finishes its fit goes on
    while wider attempts run for the tighter points.
    """
    stops = {}  # copies (horizon + 1) -> the horizon's tightest tol * FIT_MARGIN
    for cfg in configs:
        try:
            copies = f.choose_horizon(cfg.eps / 3.0) + 1
        except Exception:
            continue  # the point fails at its choose_horizon stage and fits nothing
        stops[copies] = min(stops.get(copies, np.inf), cfg.eps / 3.0 * FIT_MARGIN)
    slots = len(os.sched_getaffinity(0))
    shared = {}

    def ladder(target, d, radius, policy, seed, *, copies):
        # The points share the filter, policy and seed, so the horizon fixes the ladder.
        if copies not in shared:
            shared[copies] = _SharedLadder(WidthLadder(target, d, radius, policy, seed, copies=copies),
                                           stops[copies], slots)
        return shared[copies]

    order = sorted(range(len(configs)), key=lambda i: -configs[i].eps)
    points, rows, died, worst = {}, [], [], EXIT_OK
    try:
        for i in order:
            points[i] = _sweep_point(f, configs[i], ladder)
            while len(rows) in points:  # log each point's block in eps-list order
                row, lines, code = points[len(rows)]
                for line in lines:
                    _log(line)
                if row[-1] == "worker_died":
                    died.append(f"{configs[len(rows)].eps:g}")
                rows.append(row)
                worst = worst or code
    except BaseException:
        # A SIGTERM (SystemExit(143)) or an error: a second SIGTERM must not
        # cut short the killing of the running attempts.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise
    finally:
        for horizon_ladder in shared.values():
            horizon_ladder.close()
    if died:
        _log(f"a fit attempt's process died; eps points not finished: {', '.join(died)}")
    return rows, worst


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
