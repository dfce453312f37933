import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniesn import cli, construct, shallow
from uniesn.construct import BudgetError
from uniesn.esn import BlockStructure, ESNParams
from uniesn.filters import ExpFadingFilter, HorizonCapError


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "filter": {"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0},
        "construction": {
            "eps": 0.3,
            "seed": 424242,
            "static_policy": {"max_width": 4096, "train_samples": 1500, "val_samples": 1500},
            "identity_policy": {"max_width": 1024, "train_samples": 800, "val_samples": 1600},
            "chain_samples": 1000,
            "budget_windows": 1000,
            "closed_form_check_windows": 30,
        },
        "verification": {"fmp_trials": 100, "seed": 99},
        "sweep": {"eps": [0.5, 0.3]},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    p = path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def read_csv_skipping_schema(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    return list(csv.DictReader(lines[1:]))


def edited(name, edit):
    """A file_text for the verification tests: the built ``name`` with its
    parsed object edited in place."""

    def text(obj):
        edit(obj)
        return json.dumps(obj)

    return name, text


def grow_net(net, inputs=0, outputs=0, units=0):
    """Give a net object of nets.json extra zero inputs, outputs or hidden
    units, with its stated sizes to match: a valid net of another shape."""
    d, m, w = net["in_dim"], net["out_dim"], net["width"]
    net.update(
        hidden_matrix=[row + [0.0] * inputs for row in net["hidden_matrix"]] + [[0.0] * (d + inputs)] * units,
        hidden_bias=net["hidden_bias"] + [0.0] * units,
        readout=[row + [0.0] * units for row in net["readout"]] + [[0.0] * (w + units)] * outputs,
        in_dim=d + inputs, out_dim=m + outputs, width=w + units,
    )


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One construct run, shared by tests that only read its artifacts."""
    tmp = tmp_path_factory.mktemp("built")
    assert cli.main(["construct", str(write_config(tmp)), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


# The benchmark's second-order filter: d=2.
VOLTERRA2 = {
    "kind": "volterra2",
    "coeffs": [[[0.6, 0.3]], [[-0.3, 0.2]], [[0.15, -0.1]], [[0.1, 0.05]]],
    "quad": [{"j": 0, "k": 1, "b": [0.3]}, {"j": 1, "k": 3, "b": [-0.2]}],
    "d": 2, "m": 1, "M": 1.0,
}


@pytest.fixture(scope="module")
def built_d2(tmp_path_factory):
    """One construct run of the d=2 volterra2 filter."""
    tmp = tmp_path_factory.mktemp("built_d2")
    cfg = write_config(tmp, filter=VOLTERRA2, construction={"eps": 0.5})
    assert cli.main(["construct", str(cfg), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


def fit_out_of_memory(fails):
    """A fit_random_feature that raises MemoryError where fails(in_dim, width)."""
    real = shallow.fit_random_feature

    def fit(X, Y, width, **kw):
        if fails(X.shape[1], width):
            raise MemoryError
        return real(X, Y, width, **kw)

    return fit


def static_from_64(in_dim, width):
    return width >= 64  # the static net is the only fit


#: The sample count that sampler_out_of_memory cannot allocate; no count of
#: write_config equals it.
UNALLOCATABLE = 1234


def sampler_out_of_memory(real):
    """``real``, a sampler called as (..., n, seed), raising MemoryError for
    n == UNALLOCATABLE as numpy does for a count it cannot allocate."""

    def sample(*args):
        if args[-2] == UNALLOCATABLE:
            raise MemoryError(f"cannot allocate {UNALLOCATABLE} samples")
        return real(*args)

    return sample


def construct_samplers_out_of_memory(monkeypatch):
    for module, name in ((shallow, "sample_product_ball"), (construct, "sample_window_array")):
        monkeypatch.setattr(module, name, sampler_out_of_memory(getattr(module, name)))


def test_readme_config_layout_is_the_demo_config():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config layout", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads((root / "configs" / "demo_expfading.json").read_text(encoding="utf-8"))


class TestConstruct:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == str(tmp_path / "out" / "report.json")
        for name in ("esn.json", "nets.json", "report.json", "budget.csv", "timings.json"):
            assert (tmp_path / "out" / name).exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["budget"]["total"] < 0.3
        assert report["horizon"] == 4

    def test_report_states_each_width_once(self, built):
        report = json.loads((built / "report.json").read_text())
        nets = json.loads((built / "nets.json").read_text())
        assert "width_table" not in report and "functional_evaluator" not in report
        assert report["widths"][-1] == nets["static_net"]["width"]
        # Each carrier is d wide, which nets.json states once, as lag_dim; the chain is its scale.
        assert report["widths"][:-1] == [nets["lag_dim"]] * report["horizon"]
        assert set(nets) == {"chain_scale", "lag_dim", "static_net"}
        assert nets["chain_scale"] == report["chain_scale"]

    def test_report_labels_the_verdict_by_its_weakest_term(self, built):
        report = json.loads((built / "report.json").read_text())
        assert "target_certified" not in report
        assert report["budget_status"]["total"] == "sampled_sup"
        assert report["verdict_status"] == "sampled_sup"
        assert report["verdict_status"] == min(report["budget_status"].values(), key=construct.STATUS_STRENGTH.index)

    def test_budget_csv_layout(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = read_csv_skipping_schema(tmp_path / "out" / "budget.csv")
        terms = {r["term"]: r for r in rows}
        assert list(terms) == ["truncation", "net_fit", "chain", "chain_witness", "total"]
        assert terms["truncation"]["status"] == terms["chain"]["status"] == "analytic_upper_bound"
        assert terms["net_fit"]["status"] == terms["chain_witness"]["status"] == "sampled_sup"
        assert terms["chain_witness"]["limit"] == terms["chain"]["value"]
        assert float(terms["chain_witness"]["value"]) < float(terms["chain"]["value"])
        assert float(terms["total"]["value"]) < float(terms["total"]["limit"])

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["construct", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_missing_eps_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["construction"]["eps"]
        cfg.write_text(json.dumps(raw))
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["construction"].update(budget_windws=5),
            lambda c: c["construction"]["static_policy"].update(start_widht=32),
            lambda c: c["construction"]["identity_policy"].update(max_width=16),
            lambda c: c["construction"]["static_policy"].update(start_width=0),
            lambda c: c["construction"]["identity_policy"].update(train_samples=0),
            lambda c: c["construction"].update(budget_windows=0),
            lambda c: c["construction"].update(eps=float("inf")),
            lambda c: c["construction"].update(closed_form_check_windows=0),
            lambda c: c["filter"].update(M=float("nan")),
            lambda c: c["filter"].update(M=float("inf")),
            lambda c: c.update(filter=[1]),
            lambda c: c.update(output="out"),
            lambda c: c.update(sweep=[0.5]),
            lambda c: c.update(verfication=c.pop("verification")),
            lambda c: c["construction"].update(seed=-5),
            lambda c: c["filter"].update(B=[[float("nan")]]),
            lambda c: c["filter"].update(B=[[-float("inf")]]),
            lambda c: c.update(filter={"kind": "fir", "coeffs": [[[0.5]], [[float("inf")]]], "d": 1, "m": 1, "M": 1.0}),
            lambda c: c.update(filter={"kind": "volterra2", "coeffs": [[[float("nan")]]], "d": 1, "m": 1, "M": 1.0}),
            lambda c: c.update(filter={
                "kind": "volterra2", "coeffs": [[[0.5]]], "quad": [{"j": 0, "k": 1, "b": [float("nan")]}],
                "d": 1, "m": 1, "M": 1.0,
            }),
            lambda c: c["construction"].update(budget_windows=True),
            lambda c: c["construction"].update(seed=1.9),
            lambda c: c["construction"].update(margin=True),
            lambda c: c["construction"].update(eps=True),
            lambda c: c["construction"].update(budget_window_len=float("inf")),
            lambda c: c["construction"]["static_policy"].update(train_samples=1500.5),
            lambda c: c["construction"]["identity_policy"].update(train_samples=True),
            lambda c: c["construction"]["static_policy"].update(ridge=True),
            lambda c: c["construction"]["identity_policy"].update(scale=True),
            lambda c: c["filter"].update(d=1.5),
            lambda c: c["filter"].update(M=True),
            # Settings that are constants now, each at its former default.
            lambda c: c["construction"].update(margin=0.8),
            lambda c: c["construction"]["static_policy"].update(ridge=1e-10),
            lambda c: c["construction"]["identity_policy"].update(ridge=1e-10),
            lambda c: c["construction"]["static_policy"].update(scale=None),
            lambda c: c["construction"]["identity_policy"].update(scale=None),
            lambda c: c["construction"]["static_policy"].update(start_width=32),
            lambda c: c["construction"]["identity_policy"].update(start_width=32),
            lambda c: c["construction"].update(budget_window_len=30),
        ],
        ids=[
            "unknown_key", "unknown_policy_key", "max_below_start_width", "start_width_zero",
            "train_samples_zero", "budget_windows_zero", "eps_infinite", "closed_form_check_windows_zero",
            "filter_M_nan", "filter_M_infinite", "filter_not_object", "output_not_object",
            "sweep_not_object", "misspelled_section", "seed_negative",
            "filter_B_nan", "filter_B_infinite", "fir_tap_infinite", "volterra2_coeff_nan", "quad_b_nan",
            "budget_windows_bool", "seed_fraction", "margin_bool", "eps_bool", "budget_window_len_infinite",
            "train_samples_fraction", "identity_train_samples_bool", "ridge_bool", "scale_bool", "filter_d_fraction",
            "filter_M_bool", "margin_at_default", "static_ridge_at_default", "identity_ridge_at_default",
            "static_scale_at_default", "identity_scale_at_default",
            "static_start_width_at_default", "identity_start_width_at_default", "budget_window_len_at_default",
        ],
    )
    def test_bad_config_exits_before_any_stage(self, tmp_path, monkeypatch, capsys, edit):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        edit(raw)
        cfg.write_text(json.dumps(raw))
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a stage ran"))
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["construct", "sweep"], ids=["flag", "sweep_flag"])
    def test_negative_seed_exits_before_any_stage(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a stage ran"))
        cfg = write_config(tmp_path)
        assert cli.main([command, str(cfg), "--out", str(tmp_path / "out"), "--seed", "-5"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_impossible_fit_is_stage_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            construction={
                "eps": 1e-9,
                "static_policy": {"max_width": 32, "train_samples": 64, "val_samples": 64},
            },
        )
        code = cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "fit_static_net" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fails, stage, width",
        [(static_from_64, "fit_static_net", 64)],
        ids=["static"],
    )
    def test_fit_that_cannot_allocate_is_stage_failure(self, tmp_path, monkeypatch, capsys, fails, stage, width):
        monkeypatch.setattr(shallow, "fit_random_feature", fit_out_of_memory(fails))
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"stage {stage} failed" in err and f"width {width} could not allocate" in err
        assert not (tmp_path / "out" / "esn.json").exists()

    @pytest.mark.parametrize(
        "edit, stage",
        [
            (lambda c: c["static_policy"].update(train_samples=UNALLOCATABLE), "fit_static_net"),
            (lambda c: c.update(budget_windows=UNALLOCATABLE), "verify_closed_form"),
        ],
        ids=["static_train_samples", "budget_windows"],
    )
    def test_sample_count_that_cannot_allocate_is_stage_failure(self, tmp_path, monkeypatch, capsys, edit, stage):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        edit(raw["construction"])
        cfg.write_text(json.dumps(raw))
        construct_samplers_out_of_memory(monkeypatch)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert f"stage {stage} failed: could not allocate" in capsys.readouterr().err
        assert not (tmp_path / "out" / "esn.json").exists()

    def test_chain_samples_is_read_by_nothing(self, tmp_path):
        # The chain's drift is a tested property, so no build draws chain_samples.
        for n in (1, 10**6):
            cfg = write_config(tmp_path, construction={"chain_samples": n})
            assert cli.main(["construct", str(cfg), "--out", str(tmp_path / str(n))]) == 0
        for name in ("esn.json", "nets.json", "report.json", "budget.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / str(10**6) / name).read_bytes()

    def test_budget_violation_exit_code(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def explode(*args, **kwargs):
            raise BudgetError("total", value=0.9, limit=0.3)

        monkeypatch.setattr(cli, "construct_universal_esn", explode)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 4

    def test_determinism_bitwise(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "b")]) == 0
        for name in ("esn.json", "report.json", "budget.csv", "nets.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["budget"] != b["budget"]

    def test_seed_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("UNIESN_SEED", "777")
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "env")]) == 0
        report = json.loads((tmp_path / "env" / "report.json").read_text())
        assert report["seed"] == 424242


ARTIFACTS = ("esn.json", "nets.json", "report.json", "budget.csv", "timings.json")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_budget(f, static, s, arr):
    """budget_errors with every per-window error above any eps of these tests."""
    return np.full((3, arr.shape[0]), 10.0)


def seeded(built, tmp_path) -> Path:
    """An output directory that holds the artifacts of an earlier build."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ARTIFACTS:
        (out / name).write_bytes((built / name).read_bytes())
    return out


def assert_earlier_artifacts(out, built):
    """``out`` holds the earlier build's five artifacts byte for byte, and nothing else."""
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (built / name).read_bytes()


def terminated_construct(argv):
    """Run construct with SIG_IGN as the previous SIGTERM handler, so only
    construct's own handler can end it; the code of its SystemExit."""
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
    finally:
        restored = signal.signal(signal.SIGTERM, previous)
    assert restored == signal.SIG_IGN
    return exc_info.value.code


def with_recording_handler(argv, out):
    """Run the command with a previous SIGTERM handler that records what
    ``out`` holds when it runs; the exit code and those records."""
    received = []

    def handler(signum, frame):
        received.append(sorted(p.name for p in out.iterdir()))

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        code = cli.main(argv)
    finally:
        restored = signal.signal(signal.SIGTERM, previous)
    assert restored == handler
    return code, received


class TestArtifactWrite:
    def test_bytes_equal_an_in_process_write(self, built, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        result = construct.construct_universal_esn(
            cli.filter_from_json(raw["filter"]), cli._construction_from(raw["construction"], None)
        )
        cli._write_json(tmp_path / "esn.json", result.esn.to_json())
        cli._write_json(tmp_path / "nets.json", cli._nets_json(result))
        for name in ("esn.json", "nets.json"):
            assert (built / name).read_bytes() == (tmp_path / name).read_bytes()
        assert not list(built.glob(".*.tmp"))

    def test_construct_forks_no_process(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("construct forked")

        monkeypatch.setattr(os, "fork", fork)
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(ARTIFACTS)
        assert_no_child()

    def test_budget_failure_adds_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(construct, "budget_errors", failing_budget)
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "budget violation" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_rebuild_keeps_the_earlier_artifacts(self, built, tmp_path, monkeypatch):
        out = seeded(built, tmp_path)
        monkeypatch.setattr(construct, "budget_errors", failing_budget)
        assert cli.main(["construct", str(write_config(tmp_path)), "--out", str(out)]) == 4
        assert_earlier_artifacts(out, built)

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_failed_write_keeps_the_earlier_artifacts(self, name, built, tmp_path, monkeypatch, capsys):
        # The rebuild has another seed, so every artifact it would write differs.
        out = seeded(built, tmp_path)
        writers = {"_write_json": cli._write_json, "_write_budget_csv": cli._write_budget_csv}

        def failing(real):
            def write(path, obj):
                if Path(path).name.lstrip(".").startswith(name):
                    Path(path).write_text("partial")
                    raise OSError("disk full")
                real(path, obj)

            return write

        for attr, real in writers.items():
            monkeypatch.setattr(cli, attr, failing(real))
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(out), "--seed", "7"]) == 2
        assert "cannot write the artifacts" in capsys.readouterr().err
        assert_earlier_artifacts(out, built)

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_target_that_is_no_file_keeps_the_earlier_artifacts(self, name, built, tmp_path, capsys):
        # A rename onto a directory fails, so the targets are checked before
        # the first rename: none of the rebuild's files may land.
        out = seeded(built, tmp_path)
        (out / name).unlink()
        (out / name).mkdir()
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(out), "--seed", "7"]) == 2
        assert f"not a regular file: {out / name}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        assert (out / name).is_dir()
        for other in set(ARTIFACTS) - {name}:
            assert (out / other).read_bytes() == (built / other).read_bytes()

    def test_sigterm_in_a_stage_is_exit_143(self, built, tmp_path, monkeypatch):
        out = seeded(built, tmp_path)
        real_budget = construct.budget_errors

        def budget_errors(*args):
            signal.raise_signal(signal.SIGTERM)
            return real_budget(*args)

        monkeypatch.setattr(construct, "budget_errors", budget_errors)
        cfg = write_config(tmp_path)
        assert terminated_construct(["construct", str(cfg), "--out", str(out), "--seed", "7"]) == 143
        assert_earlier_artifacts(out, built)

    def test_sigterm_during_the_write_is_exit_143(self, built, tmp_path, monkeypatch):
        out = seeded(built, tmp_path)
        real_write = cli._write_json
        written = []

        def write(path, obj):
            real_write(path, obj)
            written.append(Path(path).name)
            signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr(cli, "_write_json", write)
        cfg = write_config(tmp_path)
        assert terminated_construct(["construct", str(cfg), "--out", str(out), "--seed", "7"]) == 143
        assert written == [f".esn.json.{os.getpid()}.tmp"]
        assert_earlier_artifacts(out, built)

    def test_sigterm_during_the_renames_waits_for_the_last_one(self, built, tmp_path, monkeypatch):
        out = tmp_path / "out"
        real_replace = os.replace
        renamed = []

        def replace(src, dst):
            if not renamed:
                signal.raise_signal(signal.SIGTERM)
            real_replace(src, dst)
            renamed.append(Path(dst).name)

        monkeypatch.setattr(os, "replace", replace)
        argv = ["construct", str(write_config(tmp_path)), "--out", str(out)]
        code, received = with_recording_handler(argv, out)
        assert code == 0
        assert renamed == list(ARTIFACTS)
        assert received == [sorted(ARTIFACTS)]
        for name in ("esn.json", "nets.json", "report.json", "budget.csv"):
            assert (out / name).read_bytes() == (built / name).read_bytes()

    def test_sigterm_during_the_cleanup_waits_for_it(self, built, tmp_path, monkeypatch):
        out = seeded(built, tmp_path)

        def write_budget_csv(path, result):
            raise OSError("disk full")

        real_unlink = Path.unlink
        removed = []

        def unlink(self, missing_ok=False):
            if not removed:
                signal.raise_signal(signal.SIGTERM)
            real_unlink(self, missing_ok=missing_ok)
            removed.append(self.name)

        monkeypatch.setattr(cli, "_write_budget_csv", write_budget_csv)
        monkeypatch.setattr(Path, "unlink", unlink)
        argv = ["construct", str(write_config(tmp_path)), "--out", str(out), "--seed", "7"]
        code, received = with_recording_handler(argv, out)
        assert code == 2
        assert len(removed) == len(ARTIFACTS)
        assert received == [sorted(ARTIFACTS)]
        assert_earlier_artifacts(out, built)


@pytest.mark.parametrize("command", ["construct", "sweep", "verify"])
def test_output_path_that_cannot_be_written_is_exit_2(command, built, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a stage ran"))
    monkeypatch.setattr(cli, "_verify_checks", lambda *a, **k: pytest.fail("a check ran"))
    if command == "verify":
        cfg = write_config(tmp_path, verification={"out": "nodir/sub/verify.json"})
        argv, message = ["verify", str(built / "esn.json"), str(cfg)], "load error"
    else:
        argv, message = [command, str(write_config(tmp_path)), "--out", "afile/x"], "config error"
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir()) == ["afile", "config.json"]


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_output_file_that_cannot_be_written_after_the_work_is_exit_2(command, built, tmp_path, monkeypatch, capsys):
    # The output's directory exists, so the checks or the points run, and
    # only the final write fails: the output's name is taken by a directory.
    monkeypatch.chdir(tmp_path)
    ran = []
    for name in ("_verify_checks", "_sweep_point"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: ran.append(name) or real(*a))
    if command == "verify":
        Path("verify.json").mkdir()
        cfg = write_config(tmp_path, verification={"out": "verify.json"})
        argv, work = ["verify", str(built / "esn.json"), str(cfg)], "_verify_checks"
    else:
        Path("out", "sweep.csv").mkdir(parents=True)
        argv, work = ["sweep", str(write_config(tmp_path)), "--eps", "0.5", "--out", "out"], "_sweep_point"
    assert cli.main(argv) == 2
    assert ran == [work]
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert captured.out == ""


NO_FILTER = "{dir}/config.json: the config has no 'filter' section"

#: Each inner key esn.json and nets.json must hold: (file, path to the object
#: that holds it, how the message names that object, key).  No esn.json is
#: parsed, so one without a key is no load error: it fails the system check,
#: which names the key, or the object that misses it.
INNER_KEYS = [
    *(("esn.json", (), "", key) for key in ("activation", "A", "C", "zeta", "W", "N", "d", "m")),
    *(("esn.json", ("structure",), " structure", key) for key in ("widths", "K")),
    *(
        ("nets.json", ("static_net",), " static_net", key)
        for key in ("activation", "hidden_matrix", "hidden_bias", "readout", "in_dim", "out_dim", "width")
    ),
]


def _pop_inner(path, key):
    def edit(obj):
        for step in path:
            obj = obj[step]
        obj.pop(key)

    return edit


@pytest.mark.parametrize(
    "command, name, edit, message",
    [
        ("construct", "config.json", lambda c: c.pop("filter"), "config error: " + NO_FILTER),
        ("sweep", "config.json", lambda c: c.pop("filter"), "config error: " + NO_FILTER),
        ("verify", "config.json", lambda c: c.pop("filter"), "load error: " + NO_FILTER),
        ("construct", "config.json", lambda c: c["filter"].pop("M"), "config error: filter has no 'M'"),
        ("sweep", "config.json", lambda c: c["filter"].pop("M"), "config error: filter has no 'M'"),
        ("verify", "config.json", lambda c: c["filter"].pop("M"), "load error: filter has no 'M'"),
        ("construct", "config.json", lambda c: c["filter"].pop("lambda"), "config error: filter has no 'lambda'"),
        ("sweep", "config.json", lambda c: c.update(filter={**VOLTERRA2, "quad": [{"j": 0, "b": [0.3]}]}),
         "config error: quad term has no 'k'"),
        ("verify", "nets.json", lambda nets: nets.pop("lag_dim"), "load error: {dir}/nets.json has no 'lag_dim'"),
        ("verify", "nets.json", lambda nets: nets.pop("chain_scale"),
         "load error: {dir}/nets.json has no 'chain_scale'"),
        *(
            ("verify", name, _pop_inner(path, key),
             (*path, key)[0] if name == "esn.json" else f"load error: {{dir}}/{name}{place} has no {key!r}")
            for name, path, place, key in INNER_KEYS
        ),
    ],
    ids=[
        "construct_filter", "sweep_filter", "verify_filter", "construct_M", "sweep_M", "verify_M",
        "construct_lambda", "sweep_quad_k", "verify_lag_dim", "verify_chain_scale",
        *("_".join(map(str, ("verify", name[:-5], *path, key))) for name, path, _, key in INNER_KEYS),
    ],
)
def test_missing_key_is_named_with_where_it_is_missing(
    command, name, edit, message, built, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a stage ran"))
    monkeypatch.setattr(cli, "_verify_checks", lambda *a, **k: pytest.fail("a check ran"))
    cfg = write_config(tmp_path)
    for artifact in ("esn.json", "nets.json"):
        (tmp_path / artifact).write_bytes((built / artifact).read_bytes())
    obj = json.loads((tmp_path / name).read_text())
    edit(obj)
    if command == "verify":
        argv = ["verify", str(tmp_path / "esn.json"), str(cfg)]
    else:
        argv = [command, str(cfg), "--out", str(tmp_path / "out")]
    if name == "esn.json":
        # Written as construct writes it, the file differs first where the key is missing.
        cli._write_json(tmp_path / name, obj)
        assert cli.main(argv) == 5
        system = json.loads((tmp_path / "verify.json").read_text())["checks"]["system"]
        assert system == {"passed": False, "first_difference": message}
        return
    (tmp_path / name).write_text(json.dumps(obj))
    assert cli.main(argv) == 2
    assert message.format(dir=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "verify.json").exists()


def present_lag_only(static):
    """Cut a static net object of nets.json to its present-lag input, as a d=1
    net of horizon 0."""
    static.update(hidden_matrix=[row[-1:] for row in static["hidden_matrix"]], in_dim=1)


def old_layout(nets):
    """Rewrite a d=1 nets.json object in the layout that listed the identity
    nets, one per delay step, in place of their scale."""
    s = nets.pop("chain_scale")
    net = {"activation": "tanh", "in_dim": 1, "out_dim": 1, "width": 1,
           "hidden_matrix": [[s]], "hidden_bias": [0.0], "readout": [[1 / s]]}
    nets["identity_chain"] = [net] * (nets["static_net"]["in_dim"] - 1)


def copy_build(built, out: Path, names=("esn.json", "nets.json")):
    for name in names:
        (out / name).write_bytes((built / name).read_bytes())


def verdict_of(out: Path) -> dict:
    return json.loads((out / "verify.json").read_text())


#: What verify.json records for each check of the system when esn.json is not shown to be it.
NOT_WIRED = {name: cli.NOT_WIRED for name in ("nilpotency", "echo_state", "finite_memory", "closed_form")}


class TestVerify:
    def test_constructed_system_passes(self, built, built_d2, tmp_path):
        # esn.json is the system nets.json wires, byte for byte.  The records of
        # nilpotency, echo state and finite memory come from its block
        # structure; only the closed form is checked by running.
        for out, K, overrides in ((built, 4, {}), (built_d2, 3, {"filter": VOLTERRA2})):
            run = tmp_path / f"K{K}"
            run.mkdir()
            cfg = write_config(run, **overrides)
            for name in ("esn.json", "nets.json"):
                (run / name).write_bytes((out / name).read_bytes())
            assert cli.main(["verify", str(run / "esn.json"), str(cfg)]) == 0
            verdict = json.loads((run / "verify.json").read_text())
            assert verdict["passed"]
            checks = verdict["checks"]
            assert checks["system"] == {"passed": True}
            assert checks["nilpotency"] == {"degree": K + 1, "passed": True}
            memory = {"forgetting_depth": K + 1, "from": "block_structure", "passed": True}
            assert checks["echo_state"] == checks["finite_memory"] == memory
            # W is part of the byte match, so the closed form compares states only.
            assert set(checks["closed_form"]) == {"passed", "max_gap", "windows"}
            assert checks["closed_form"]["passed"]
            assert checks["closed_form"]["windows"] == cli.CLOSED_FORM_WINDOWS

    def test_fmp_trials_is_read_by_nothing(self, built, tmp_path):
        written = []
        for trials in (1, 1000):
            run = tmp_path / str(trials)
            run.mkdir()
            cfg = write_config(run, verification={"fmp_trials": trials})
            for name in ("esn.json", "nets.json"):
                (run / name).write_bytes((built / name).read_bytes())
            assert cli.main(["verify", str(run / "esn.json"), str(cfg)]) == 0
            written.append((run / "verify.json").read_bytes())
        assert written[0] == written[1]

    def test_corrupted_reservoir_flagged(self, built, tmp_path, capsys):
        # The benchmark self-check's corruption, with nets.json beside the file:
        # json.dumps spells the whole file otherwise, from A's line on.
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path, ["nets.json"])
        esn = json.loads((built / "esn.json").read_text())
        esn["A"][0][0] = 1e-3  # first block row must be zero
        (tmp_path / "esn.json").write_text(json.dumps(esn))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        verdict = verdict_of(tmp_path)
        assert not verdict["passed"]
        assert verdict["checks"] == {"system": {"passed": False, "first_difference": "A"}, **NOT_WIRED}
        err = capsys.readouterr().err
        assert f'{tmp_path}/esn.json: differs from the system {tmp_path}/nets.json wires; first_difference: "A"' in err
        assert "check system: FAIL\ncheck nilpotency: skipped\n" in err

    @pytest.mark.parametrize("edit", [lambda c: c.pop("filter"), lambda c: c["filter"].pop("M")], ids=["filter", "M"])
    def test_config_without_filter_or_M_is_load_error(self, built, tmp_path, capsys, edit):
        # verify reads the filter as construct does, and M has no default.
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        edit(raw)
        cfg.write_text(json.dumps(raw))
        for name in ("esn.json", "nets.json"):
            (tmp_path / name).write_bytes((built / name).read_bytes())
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 2
        assert "load error" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_static_net_that_does_not_split_into_lags_names_the_sizes(self, built_d2, tmp_path, capsys):
        # One more input of a d=2 static net: an odd count, no whole number of lags.
        cfg = write_config(tmp_path, filter=VOLTERRA2)
        (tmp_path / "esn.json").write_bytes((built_d2 / "esn.json").read_bytes())
        nets = json.loads((built_d2 / "nets.json").read_text())
        grow_net(nets["static_net"], inputs=1)
        (tmp_path / "nets.json").write_text(json.dumps(nets))
        inputs = nets["static_net"]["in_dim"]
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"load error: {tmp_path}/nets.json: a static net of {inputs} inputs does not split into lag_dim=2" in err
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda nets: nets.update(chain_scale=0.3), "chain_scale 0.3 at horizon 4"),
            (lambda nets: nets.update(chain_scale=-0.5), "chain_scale -0.5 at horizon 4"),
            (lambda nets: nets.update(chain_scale=float("inf")), "chain_scale inf at horizon 4"),
            (lambda nets: nets.update(chain_scale=True), "chain_scale True at horizon 4"),
            (lambda nets: nets.update(chain_scale="0.25"), "chain_scale '0.25' at horizon 4"),
            (lambda nets: nets.update(chain_scale=None), "chain_scale None at horizon 4"),
            (lambda nets: present_lag_only(nets["static_net"]), "at horizon 0, which needs null"),
            (old_layout, "has no 'chain_scale'"),
        ],
        ids=["not_power_of_two", "negative", "infinite", "bool", "string", "null_at_horizon_4",
             "set_at_horizon_0", "identity_chain_layout"],
    )
    def test_chain_scale_other_than_the_proven_chain_is_load_error(self, built, tmp_path, capsys, edit, message):
        # verify wires only the chain the bound is proven for: tanh(s x) / s, s a power of two.
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path, ["esn.json"])
        nets = json.loads((built / "nets.json").read_text())
        edit(nets)
        (tmp_path / "nets.json").write_text(json.dumps(nets))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"load error: {tmp_path}/nets.json" in err and message in err and "chain_scale" in err
        assert not (tmp_path / "verify.json").exists()

    def test_perturbed_collector_entry_flagged(self, built, tmp_path):
        # inside the pattern the system would stay nilpotent, but it is no
        # longer the one its nets wire
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path, ["nets.json"])
        esn = json.loads((built / "esn.json").read_text())
        widths = esn["structure"]["widths"]
        esn["A"][sum(widths[:-1])][sum(widths[:-2])] += 0.5  # collector row, last carrier block
        cli._write_json(tmp_path / "esn.json", esn)
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        assert verdict_of(tmp_path)["checks"] == {"system": {"passed": False, "first_difference": "A"}, **NOT_WIRED}

    def test_perturbed_readout_entry_flagged(self, built, tmp_path):
        # the closed form compares states, which never read W; the match reads it
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path, ["nets.json"])
        esn = json.loads((built / "esn.json").read_text())
        esn["W"][0][-1] += 1e-9
        cli._write_json(tmp_path / "esn.json", esn)
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        assert verdict_of(tmp_path)["checks"]["system"] == {"passed": False, "first_difference": "W"}

    @pytest.mark.parametrize(
        "name, edit, key",
        [
            ("esn.json", lambda e: e.__delitem__("structure"), "structure"),
            ("esn.json", lambda e: e.__setitem__("structure", None), "structure"),
            ("esn.json", lambda e: e.__setitem__("activation", "logistic"), "activation"),
            ("esn.json", lambda e: [1], "A"),
            ("esn.json", lambda e: e.__setitem__("A", None), "A"),
            ("esn.json", lambda e: e.__setitem__("A", 2.0), "A"),
            ("esn.json", lambda e: e["structure"].update(widths=[w + 0.5 for w in e["structure"]["widths"]]),
             "structure"),
            # All-ones widths that sum to N: cast with int(), they would describe a valid structure.
            ("esn.json", lambda e: e["structure"].update(widths=[True] * e["N"], K=e["N"] - 1), "structure"),
            ("esn.json", lambda e: e["structure"].update(K=99), "structure"),
            ("esn.json", lambda e: e.__setitem__("N", 7), "N"),
            ("esn.json", lambda e: e.__setitem__("d", 9), "d"),
            ("esn.json", lambda e: e.__setitem__("m", 0), "m"),
            ("esn.json", lambda e: e["zeta"].__setitem__(0, float("nan")), "zeta"),
            ("esn.json", lambda e: e["A"][-1].__setitem__(0, float("inf")), "A"),
            ("esn.json", lambda e: e["C"][0].__setitem__(0, float("nan")), "C"),
            ("esn.json", lambda e: e["W"][0].__setitem__(0, float("-inf")), "W"),
            ("esn.json", lambda e: e["A"][0].__setitem__(0, float("nan")), "A"),
            # Valid nets of a wider static net wire a wider system than esn.json holds.
            ("nets.json", lambda nets: grow_net(nets["static_net"], units=1), "A"),
            # A d=1 static net with one more input is a valid one of horizon K+1.
            ("nets.json", lambda nets: grow_net(nets["static_net"], inputs=1), "A"),
        ],
        ids=[
            "esn_without_structure", "esn_null_structure", "esn_logistic", "esn_not_object",
            "esn_null_A", "esn_number_A", "esn_widths_fraction", "esn_widths_bool", "esn_K_mismatch",
            "esn_N_mismatch", "esn_d_mismatch", "esn_m_mismatch",
            "nan_zeta", "inf_A", "nan_C", "neg_inf_W", "nan_A_off_pattern",
            "nets_static_wider_than_state", "nets_static_extra_input",
        ],
    )
    def test_other_esn_json_fails_the_system_check(self, built, tmp_path, name, edit, key):
        # esn.json is never parsed: each edited file, written as construct
        # writes it, is not the system nets.json wires, and differs from it
        # first at the named key.
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path)
        obj = json.loads((built / name).read_text())
        replaced = edit(obj)  # None: obj was edited in place
        cli._write_json(tmp_path / name, obj if replaced is None else replaced)
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        verdict = verdict_of(tmp_path)
        assert not verdict["passed"]
        assert verdict["checks"] == {"system": {"passed": False, "first_difference": key}, **NOT_WIRED}

    def test_config_not_an_object_is_load_error(self, built, tmp_path, capsys):
        (tmp_path / "config.json").write_text("[1]")
        assert cli.main(["verify", str(built / "esn.json"), str(tmp_path / "config.json")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unreadable_esn_is_load_error(self, built, tmp_path, capsys):
        # A missing file and a directory, first without nets.json beside them, then with it.
        cfg = write_config(tmp_path)
        (tmp_path / "dir.json").mkdir()
        for nets in (False, True):
            if nets:
                copy_build(built, tmp_path, ["nets.json"])
            for name in ("missing.json", "dir.json"):
                assert cli.main(["verify", str(tmp_path / name), str(cfg)]) == 2
                assert "load error: [Errno" in capsys.readouterr().err
                assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize(
        "overrides, file_text",
        [
            ({"verification": {"esp_trials": 0}}, None),
            ({"verification": {"fmp_trials": 0}}, None),
            ({"verification": {"fmp_trials": "many"}}, None),
            ({"verification": {"closed_form_windows": 0}}, None),
            ({"verification": {"window_len": 0}}, None),
            ({"verification": {"window_len": -3}}, None),
            ({}, ("nets.json", lambda nets: "{not json")),
            ({}, ("nets.json", lambda nets: json.dumps({"lag_dim": nets["lag_dim"]}))),
            # A chain of no steps under a static net of horizon 4.
            ({}, ("nets.json", lambda nets: json.dumps({**nets, "chain_scale": None}))),
            ({}, ("nets.json", lambda nets: json.dumps({**nets, "lag_dim": 0}))),
            ({"verification": {"fmp_trial": 50}}, None),
            ({"verification": []}, None),
            ({"filter": [1]}, None),
            ({"output": "out"}, None),
            ({"verfication": {"fmp_trials": 5}}, None),
            ({"verification": {"input_bound": -1}}, None),
            ({"verification": {"input_bound": float("nan")}}, None),
            ({"filter": {"M": float("nan")}}, None),
            ({"verification": {"seed": -5}}, None),
            ({}, edited("nets.json", lambda nets: nets["static_net"]["readout"][0].__setitem__(0, float("nan")))),
            ({}, edited("nets.json", lambda nets: nets["static_net"]["hidden_bias"].__setitem__(0, float("inf")))),
            ({"verification": {"fmp_trials": 50.5}}, None),
            ({"verification": {"esp_trials": True}}, None),
            ({"verification": {"seed": 1.9}}, None),
            ({"verification": {"window_len": True}}, None),
            ({"verification": {"closed_form_windows": float("inf")}}, None),
            ({"verification": {"input_bound": True}}, None),
            # Settings that are constants now, each at its former default.
            ({"verification": {"esp_trials": 10}}, None),
            ({"verification": {"closed_form_windows": 200}}, None),
            ({"verification": {"input_bound": 1.0}}, None),
            ({"verification": {"window_len": 30}}, None),
            # Filters that do not fit the d=1, m=1 system.
            ({"filter": VOLTERRA2}, None),
            ({"filter": {"m": 2, "B": [[1.0], [1.0]]}}, None),
            # verify reads only the nets.json beside esn.json: a nets key is unknown, whatever esn.json holds.
            ({"verification": {"nets": "/nonexistent/nets.json"}}, None),
            ({"verification": {"nets": "/nonexistent/nets.json"}},
             edited("esn.json", lambda esn: esn["A"][0].__setitem__(0, 1e-3))),
            ({}, edited("nets.json", lambda nets: nets.__setitem__("lag_dim", True))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("activation", "logistic"))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("width", 3))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("in_dim", 42))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("out_dim", 2))),
            # A net that loads but does not fit the d=1, m=1 filter.
            ({}, edited("nets.json", lambda nets: grow_net(nets["static_net"], outputs=1))),
        ],
        ids=[
            "esp_trials_zero", "fmp_trials_zero", "fmp_trials_not_int", "closed_form_windows_zero",
            "window_len_zero", "window_len_negative",
            "nets_not_json", "nets_missing_keys", "nets_chain_too_short", "nets_lag_dim_zero",
            "unknown_key", "section_not_object", "filter_not_object", "output_not_object",
            "misspelled_section", "input_bound_negative", "input_bound_nan", "filter_M_nan",
            "seed_negative", "nets_nan_readout", "nets_inf_bias",
            "fmp_trials_fraction", "esp_trials_bool", "seed_fraction", "window_len_bool",
            "closed_form_windows_infinite", "input_bound_bool",
            "esp_trials_at_default", "closed_form_windows_at_default", "input_bound_at_default",
            "window_len_at_default", "filter_d_2", "filter_m_2",
            "nets_missing_explicit_path", "nets_missing_explicit_path_esn_off_pattern",
            "nets_lag_dim_bool", "nets_logistic",
            "nets_width_mismatch", "nets_in_dim_mismatch", "nets_static_out_dim_mismatch",
            "nets_static_out_dim_2",
        ],
    )
    def test_bad_verification_input_is_config_error(self, built, tmp_path, capsys, overrides, file_text):
        cfg = write_config(tmp_path, **overrides)
        for name in ("esn.json", "nets.json"):
            (tmp_path / name).write_bytes((built / name).read_bytes())
        if file_text is not None:
            name, text = file_text
            (tmp_path / name).write_text(text(json.loads((built / name).read_text())))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 2
        assert "load error" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()


#: Entries whose spelling the writer and the reader must carry exactly.
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, 1.7976931348623157e308, -1e300, 1e-300, 0.1]


@st.composite
def block_systems(draw):
    """A small system of the block type, every entry a finite float."""
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    structure = BlockStructure(widths)
    off, K, N = structure.offsets(), structure.horizon, structure.total
    entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)

    def arr(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=entries))

    carriers = [arr(widths[r], widths[r - 1]) for r in range(1, K)]
    return ESNParams(carriers, arr(widths[K], int(off[K])), arr(N, d), arr(N), arr(m, N), structure)


def holds(path, esn: ESNParams) -> tuple:
    """cli.holds_json of the file at ``path`` and esn's esn.json object."""
    with open(path, "rb") as fh:
        return cli.holds_json(fh, esn.to_json())


def loads_to(path, esn: ESNParams) -> bool:
    """Does json.load give esn's dense A, C, zeta and W, of equal shapes and
    bits, and its structure?  The dense A holds the blocks and +0.0 elsewhere."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    arrays = [(np.array(obj[name], dtype=np.float64), getattr(esn, name)) for name in ("A", "C", "zeta", "W")]
    return obj["structure"] == {"widths": list(esn.structure.widths), "K": esn.structure.horizon} and all(
        (x.shape, x.tobytes()) == (y.shape, y.tobytes()) for x, y in arrays
    )


def verify_copy(built, out, cfg, redump=False):
    """Verify a copy of ``built``'s esn.json and nets.json in ``out``: its exit
    code and verify.json bytes.  With ``redump`` esn.json is the same JSON
    value in other bytes."""
    out.mkdir()
    (out / "nets.json").write_bytes((built / "nets.json").read_bytes())
    if redump:
        (out / "esn.json").write_text(json.dumps(json.loads((built / "esn.json").read_text()), indent=1))
    else:
        (out / "esn.json").write_bytes((built / "esn.json").read_bytes())
    code = cli.main(["verify", str(out / "esn.json"), str(cfg)])
    return code, (out / "verify.json").read_bytes()


class TestVerifyMatch:
    """verify never parses esn.json: it passes the system check only if the
    file holds construct's bytes for the system nets.json wires."""

    @settings(max_examples=150, deadline=None)
    @given(esn=block_systems())
    @example(esn=ESNParams([np.array([[-5e-324]])], np.array([[-0.0, 5e-324]]), np.array([[1e308], [-1e-320], [0.0]]),
                           np.array([-0.0, 0.0, 1e-300]), np.array([[0.1, -0.0, 5e-324]]), BlockStructure((1, 1, 1))))
    def test_written_system_reads_back_bitwise(self, tmp_path_factory, esn):
        path = tmp_path_factory.mktemp("system") / "esn.json"
        cli._write_json(path, esn.to_json())
        assert holds(path, esn) == (True, None)
        assert loads_to(path, esn)

    @pytest.mark.parametrize("build", ["built", "built_d2"])
    def test_build_is_the_system_its_nets_wire(self, build, request):
        out = request.getfixturevalue(build)
        wired = cli._load_nets(out / "nets.json")[-1]
        assert holds(out / "esn.json", wired) == (True, None)
        assert loads_to(out / "esn.json", wired)

    @pytest.mark.parametrize(
        "edit, key",
        [(lambda b: b[:-1], None), (lambda b: b + b"\n", None), (lambda b: b + b" ", None), (lambda b: b[:-3], None),
         (lambda b: b"[" + b[1:], "A")],
        ids=["no_newline", "extra_newline", "trailing_space", "cut_short", "first_byte"],
    )
    def test_any_other_bytes_differ(self, built, tmp_path, edit, key):
        # Past the last key's value only the closing brace and the newline are left: no key differs.
        wired = cli._load_nets(built / "nets.json")[-1]
        (tmp_path / "esn.json").write_bytes(edit((built / "esn.json").read_bytes()))
        assert holds(tmp_path / "esn.json", wired) == (False, key)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_ulp_move_is_named(self, built, built_d2, tmp_path_factory, data):
        # One entry of A, C, zeta or W one ulp away, written as construct writes
        # it: the file is not the wired system, and its first difference is that key.
        out, overrides = data.draw(st.sampled_from([(built, {}), (built_d2, {"filter": VOLTERRA2})]), label="build")
        run = tmp_path_factory.mktemp("ulp")
        cfg = write_config(run, **overrides)
        (run / "nets.json").write_bytes((out / "nets.json").read_bytes())
        obj = cli._load_nets(out / "nets.json")[-1].to_json()
        key = data.draw(st.sampled_from(["A", "C", "zeta", "W"]), label="key")
        arr = np.array(obj[key])
        i = data.draw(st.integers(0, arr.size - 1), label="entry")
        arr.flat[i] = np.nextafter(arr.flat[i], data.draw(st.sampled_from([-np.inf, np.inf]), label="towards"))
        cli._write_json(run / "esn.json", {**obj, key: arr})
        assert cli.main(["verify", str(run / "esn.json"), str(cfg)]) == 5
        assert verdict_of(run)["checks"]["system"] == {"passed": False, "first_difference": key}

    @pytest.mark.parametrize("build, overrides", [("built", {}), ("built_d2", {"filter": VOLTERRA2})],
                             ids=["built", "built_d2"])
    def test_fresh_build_passes_and_a_redumped_one_fails(
        self, build, overrides, request, tmp_path, monkeypatch, capsys
    ):
        built, cfg = request.getfixturevalue(build), write_config(tmp_path, **overrides)
        loaded = []
        real_load = json.load
        monkeypatch.setattr(json, "load", lambda fh, **kw: loaded.append(Path(fh.name).name) or real_load(fh, **kw))
        assert verify_copy(built, tmp_path / "matched", cfg)[0] == 0
        assert verify_copy(built, tmp_path / "redumped", cfg, redump=True)[0] == 5
        assert loaded == ["config.json", "nets.json"] * 2  # never esn.json
        assert verdict_of(tmp_path / "redumped")["checks"]["system"] == {"passed": False, "first_difference": "A"}
        err = capsys.readouterr().err
        matched, redumped = tmp_path / "matched", tmp_path / "redumped"
        assert f"{matched}/esn.json: the system {matched}/nets.json wires, byte for byte" in err
        assert f'{redumped}/esn.json: differs from the system {redumped}/nets.json wires; first_difference: "A"' in err

    def test_without_nets_the_system_check_fails(self, built, tmp_path, capsys):
        # Nothing shows that a bare esn.json is a constructed system.
        cfg = write_config(tmp_path)
        copy_build(built, tmp_path, ["esn.json"])
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        captured = capsys.readouterr()
        assert captured.out == f"{tmp_path / 'verify.json'}\n"
        assert f"{tmp_path}/esn.json: no nets.json beside it; not shown to be a constructed system" in captured.err
        checks = verdict_of(tmp_path)["checks"]
        reason = "no nets.json beside it, so it is not shown to be a constructed system"
        assert checks.pop("system") == {"passed": False, "reason": reason}
        assert checks == NOT_WIRED

    def test_nets_of_another_seed_fail_the_system_check(self, built, tmp_path):
        # Two valid builds of one config: esn.json of one beside nets.json of the other.
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "other"), "--seed", "7"]) == 0
        copy_build(built, tmp_path, ["esn.json"])
        copy_build(tmp_path / "other", tmp_path, ["nets.json"])
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        system = verdict_of(tmp_path)["checks"]["system"]
        assert system["passed"] is False and system["first_difference"] in {"A", "C", "zeta", "W", "N", "structure"}


class TestSweep:
    def test_rows_and_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"eps": [0.5, 0.3, 0.1]})
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")])
        assert code == 0
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [float(r["eps"]) for r in rows] == [0.5, 0.3, 0.1]
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["total"]) < float(row["eps"])
        horizons = [int(r["horizon"]) for r in rows]
        assert horizons == sorted(horizons)

    def test_eps_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["sweep", str(cfg), "--eps", "0.6,0.4", "--out", str(tmp_path / "sweep")])
        assert code == 0
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [float(r["eps"]) for r in rows] == [0.6, 0.4]

    def test_empty_eps_list_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"eps": []})
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2

    def test_invalid_section_exits_before_any_build(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, construction={"budget_windws": 5})
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a build ran"))
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "construction",
        [{"static_policy": {"start_width": 32}}, {"identity_policy": {"start_width": 32}}, {"budget_window_len": 30}],
        ids=["static_start_width", "identity_start_width", "budget_window_len"],
    )
    def test_removed_setting_exits_before_any_build(self, tmp_path, monkeypatch, capsys, construction):
        cfg = write_config(tmp_path, construction=construction)
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a build ran"))
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_boolean_eps_exits_before_any_build(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, sweep={"eps": [0.5, True]})
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a build ran"))
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
        assert "sweep eps must be a number" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_unknown_section_exits_before_any_build(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, swep={"eps": [0.5]})
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a build ran"))
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
        assert "unknown config sections ['swep']" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "eps_flag, sweep_eps",
        [("inf,0.5", [0.5]), ("0.5,-1", [0.5]), ("0.5,nan", [0.5]), ("0.5,inf", [0.5]), (None, [0.5, -1])],
        ids=["flag_inf_first", "flag_negative", "flag_nan", "flag_inf", "config_negative"],
    )
    def test_bad_eps_exits_before_any_build(self, tmp_path, monkeypatch, capsys, eps_flag, sweep_eps):
        cfg = write_config(tmp_path, sweep={"eps": sweep_eps})
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a build ran"))
        flag = ["--eps", eps_flag] if eps_flag else []
        assert cli.main(["sweep", str(cfg), *flag, "--out", str(tmp_path / "sweep")]) == 2
        assert "config error: eps must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_failed_row_recorded_and_sweep_continues(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sweep={"eps": [0.5, 1e-9]},
            construction={
                "static_policy": {"max_width": 256, "train_samples": 1000, "val_samples": 1000},
            },
        )
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")])
        assert code == 3
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("stage:")

    def test_budget_windows_that_cannot_allocate_are_stage_rows_and_sweep_continues(self, tmp_path, monkeypatch):
        construct_samplers_out_of_memory(monkeypatch)
        cfg = write_config(tmp_path, construction={"budget_windows": UNALLOCATABLE})
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 3
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [(r["eps"], r["status"]) for r in rows] == [
            ("0.5", "stage:verify_closed_form"), ("0.3", "stage:verify_closed_form"),
        ]

    def test_fit_that_cannot_allocate_is_a_stage_row_and_sweep_continues(self, tmp_path, monkeypatch):
        # eps=0.5 accepts a width-33 static net; eps=0.3 needs a wider one,
        # whose fit cannot allocate.  The finished point keeps its row.
        monkeypatch.setattr(shallow, "fit_random_feature", fit_out_of_memory(static_from_64))
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 3
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [(r["eps"], r["widths"].split("|")[-1], r["status"]) for r in rows] == [
            ("0.5", "33", "ok"), ("0.3", "", "stage:fit_static_net"),
        ]

    def test_sigterm_during_the_rename_waits_for_it(self, tmp_path, monkeypatch):
        # A SIGTERM right after the rename is held: the previous handler gets
        # it once sweep.csv is in place, and the sweep returns its code.
        out = tmp_path / "sweep"
        real_replace = os.replace
        renamed = []

        def replace(src, dst):
            real_replace(src, dst)
            renamed.append(Path(dst).name)
            signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr(os, "replace", replace)
        argv = ["sweep", str(write_config(tmp_path)), "--eps", "0.5", "--out", str(out)]
        code, received = with_recording_handler(argv, out)
        assert code == 0
        assert renamed == ["sweep.csv"]
        assert received == [["sweep.csv"]]
        assert [r["status"] for r in read_csv_skipping_schema(out / "sweep.csv")] == ["ok"]

    def test_sigterm_during_the_cleanup_waits_for_it(self, tmp_path, monkeypatch):
        # The rename fails, and a SIGTERM comes as the temporary file is
        # removed: the previous handler gets it once the file is gone.
        out = tmp_path / "sweep"

        def replace(src, dst):
            raise OSError("disk full")

        real_unlink = Path.unlink
        removed = []

        def unlink(self, missing_ok=False):
            if not removed:
                signal.raise_signal(signal.SIGTERM)
            real_unlink(self, missing_ok=missing_ok)
            removed.append(self.name)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        argv = ["sweep", str(write_config(tmp_path)), "--eps", "0.5", "--out", str(out)]
        code, received = with_recording_handler(argv, out)
        assert code == 2
        assert removed == [f".sweep.csv.{os.getpid()}.tmp"]
        assert received == [[]]


@pytest.fixture(scope="module")
def sweep_and_builds(tmp_path_factory):
    """Sweeps over two eps of one horizon, then a construct at each eps, all
    from one process: each run's out dir, its stderr, the width and weight seed
    of each fit it started and, for each of its builds, the eps and the pid of
    the building process.  sweep1 and sweep2 see one usable CPU, so nothing
    forks; sweep_2cpu sees two, so the fit attempts run in forked processes.
    An attempt process's memory never reaches this process, so the patched
    fit and build append to log files."""
    tmp = tmp_path_factory.mktemp("sweep_and_builds")
    eps_list = [0.3, 0.25]  # both give K=4
    sweep_cfg = str(write_config(tmp, sweep={"eps": eps_list}))
    commands = {
        name: (["sweep", sweep_cfg, "--out", str(tmp / name)], cpus)
        for name, cpus in (("sweep1", {0}), ("sweep2", {0}), ("sweep_2cpu", {0, 1}))
    }
    for eps in eps_list:
        (tmp / repr(eps)).mkdir()
        cfg = write_config(tmp / repr(eps), construction={"eps": eps})
        commands[repr(eps)] = (["construct", str(cfg), "--out", str(tmp / repr(eps) / "out")], None)
    fit_log, build_log = tmp / "fits.log", tmp / "builds.log"
    fit_log.touch()
    build_log.touch()
    real_fit, real_build = shallow.fit_random_feature, cli.construct_universal_esn

    def counting_fit(*a, **k):
        with open(fit_log, "a") as fh:
            fh.write(f"{k['width']} {k['seed']}\n")
        return real_fit(*a, **k)

    def recording_build(*a, **k):
        with open(build_log, "a") as fh:
            fh.write(f"{a[1].eps!r} {os.getpid()}\n")
        return real_build(*a, **k)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shallow, "fit_random_feature", counting_fit)
        mp.setattr(cli, "construct_universal_esn", recording_build)
        for name, (argv, cpus) in commands.items():
            if cpus is not None:
                mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(cpus))
            n_fits, n_builds = len(fit_log.read_text().splitlines()), len(build_log.read_text().splitlines())
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(argv) == 0
            runs[name] = {
                "out": Path(argv[-1]),
                "stderr": err.getvalue(),
                "fits": fit_log.read_text().splitlines()[n_fits:],
                "builds": [line.split() for line in build_log.read_text().splitlines()[n_builds:]],
            }
            assert_no_child()
    return runs


def without_wall_time(path: Path) -> list:
    """The lines of a sweep.csv, each split at its commas, with the wall_time_s column cut."""
    wall = cli.SWEEP_COLUMNS.index("wall_time_s")
    return [cells[:wall] + cells[wall + 1:] for cells in (line.split(",") for line in path.read_text().splitlines())]


def masked_stage_times(text: str) -> str:
    return re.sub(r"^stage (\w+): [0-9.]+s$", r"stage \1: #s", text, flags=re.M)


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestSweepReuse:
    def test_rows_equal_separate_builds(self, sweep_and_builds):
        for sweep in ("sweep1", "sweep_2cpu"):
            rows = read_csv_skipping_schema(sweep_and_builds[sweep]["out"] / "sweep.csv")
            assert [r["status"] for r in rows] == ["ok", "ok"]
            for row in rows:
                report = json.loads((sweep_and_builds[row["eps"]]["out"] / "report.json").read_text())
                assert row["widths"] == "|".join(map(str, report["widths"]))
                assert row["state_dim"] == repr(report["state_dim"])
                for term in ("truncation", "net_fit", "chain", "total"):
                    assert row[term] == repr(report["budget"][term])

    def test_repeated_sweeps_make_the_same_fits(self, sweep_and_builds):
        first, second = sweep_and_builds["sweep1"], sweep_and_builds["sweep2"]
        assert first["fits"] == second["fits"]
        assert {pid for _, pid in first["builds"]} == {str(os.getpid())}

    def test_one_cpu_sweep_fits_each_attempt_once(self, sweep_and_builds):
        # eps=0.3 takes the first attempts of the shared ladder and eps=0.25
        # takes them again without a refit, then fits on if it needs to, as a
        # construct at 0.25 alone does: 3 fits, where separate builds make 6
        loose, tight = sweep_and_builds["0.3"]["fits"], sweep_and_builds["0.25"]["fits"]
        assert tight[:len(loose)] == loose and len(set(tight)) == len(tight)
        assert sweep_and_builds["sweep1"]["fits"] == tight

    def test_two_cpus_give_the_same_rows(self, sweep_and_builds):
        one, two = (sweep_and_builds[name]["out"] / "sweep.csv" for name in ("sweep1", "sweep_2cpu"))
        assert without_wall_time(two) == without_wall_time(one)
        # every attempt is fitted once; a wider one may start beside the
        # tightest point's, and is killed once that point's attempt meets it
        fits, tight = sweep_and_builds["sweep_2cpu"]["fits"], sweep_and_builds["0.25"]["fits"]
        assert len(set(fits)) == len(fits) and set(tight) <= set(fits)
        widest = max(int(fit.split()[0]) for fit in tight)
        assert all(int(fit.split()[0]) > widest for fit in set(fits) - set(tight))

    @pytest.mark.parametrize("sweep", ["sweep1", "sweep_2cpu"])
    def test_every_point_builds_in_this_process_loosest_first(self, sweep_and_builds, sweep):
        pid = str(os.getpid())
        assert sweep_and_builds[sweep]["builds"] == [["0.3", pid], ["0.25", pid]]

    @pytest.mark.parametrize("sweep", ["sweep1", "sweep_2cpu"])
    def test_stderr_holds_each_point_block_in_eps_order(self, sweep_and_builds, sweep):
        # each point logs what a construct at its eps logs, in eps-list order
        blocks = sweep_and_builds["0.3"]["stderr"] + sweep_and_builds["0.25"]["stderr"]
        assert blocks.count("(< eps=") == 2
        assert masked_stage_times(sweep_and_builds[sweep]["stderr"]) == masked_stage_times(blocks)

    def test_duplicate_eps_gives_equal_rows(self, tmp_path, monkeypatch):
        two_cpus(monkeypatch)
        cfg = write_config(tmp_path, sweep={"eps": [0.3, 0.5, 0.3]})
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        header, first, loose, second = without_wall_time(tmp_path / "sweep" / "sweep.csv")[1:]
        assert first == second and first[0] == "0.3" and first[-1] == loose[-1] == "ok"
        assert_no_child()

    def test_point_whose_horizon_fails_keeps_its_row(self, tmp_path, monkeypatch, capsys):
        real = ExpFadingFilter.choose_horizon

        def choose_horizon(self, budget):
            if budget < 0.01:
                raise HorizonCapError(f"no horizon for budget {budget:g}")
            return real(self, budget)

        monkeypatch.setattr(ExpFadingFilter, "choose_horizon", choose_horizon)
        two_cpus(monkeypatch)
        cfg = write_config(tmp_path, sweep={"eps": [0.5, 0.001, 0.3]})
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 3
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [r["status"] for r in rows] == ["ok", "stage:choose_horizon", "ok"]
        assert "eps=0.001: stage choose_horizon failed: no horizon for budget 0.000333333" in capsys.readouterr().err
        assert_no_child()


class FakeLadder:
    """A WidthLadder stand-in: attempt i has width i + 1 and sampled error
    errors[i], and cannot allocate from attempt ``no_memory`` on."""

    def __init__(self, errors, no_memory):
        self.errors, self.no_memory = errors, no_memory
        self.widths = tuple(range(1, len(errors) + 1))

    def attempt(self, i):
        if i >= self.no_memory:
            raise MemoryError
        w = self.widths[i]
        return shallow.ShallowNet(np.zeros((w, 1)), np.zeros(w), np.zeros((1, w))), self.errors[i]


def fit_outcome(ladder, tol):
    """fit_to_tolerance's result with the attempts of ``ladder``: (width, error), or the error it raises."""
    try:
        net, err = shallow.fit_to_tolerance(
            None, 1, 1.0, tol, shallow.WidthPolicy(), 0, copies=1, ladder=lambda *a, **k: ladder
        )
        return net.width, err
    except shallow.FitToleranceError as exc:
        return str(exc), exc.achieved, exc.width


class TestSharedLadder:
    @settings(max_examples=100, deadline=None)
    @given(
        errors=st.lists(st.sampled_from([0.01, 0.05, 0.08, 0.2, 0.5, 1.0]) | st.floats(0, 2), min_size=1, max_size=7),
        no_memory=st.integers(0, 8),
        tols=st.lists(st.sampled_from([0.1, 0.25, 1.0]) | st.floats(1e-3, 3), min_size=1, max_size=4),
        slots=st.sampled_from([1, 2, 3]),
    )
    def test_each_point_gets_the_serial_result(self, errors, no_memory, tols, slots):
        # the points take the shared attempts in any order of their
        # tolerances; each gets what the serial loop gives it alone
        fake = FakeLadder(errors, no_memory)
        shared = cli._SharedLadder(fake, min(tols) * shallow.FIT_MARGIN, slots)
        try:
            for tol in tols:
                assert fit_outcome(shared, tol) == fit_outcome(fake, tol)
        finally:
            shared.close()
        assert not shared.running
        assert_no_child()


#: Runs ``uniesn sweep`` (argv[3:]) with two usable CPUs, so every fit
#: attempt runs in its own process; the attempt of in_dim argv[1] and width
#: argv[2] kills its process.
DYING_SWEEP = """
import os, signal, sys
from uniesn import cli, shallow

real_fit = shallow.fit_random_feature

def fit(X, Y, width, **kw):
    if (X.shape[1], width) == (int(sys.argv[1]), int(sys.argv[2])):
        os.kill(os.getpid(), signal.SIGKILL)
    return real_fit(X, Y, width, **kw)

shallow.fit_random_feature = fit
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[3:]))
"""


#: Runs ``uniesn sweep`` (argv[1:]) with two usable CPUs; each fit attempt
#: writes the pid of its process, then waits a minute.  The line goes out in
#: one write: with PYTHONUNBUFFERED set, print writes the newline on its own,
#: and two attempts could interleave their lines.
STALLED_SWEEP = """
import os, sys, time
from uniesn import cli, shallow

def fit(X, Y, width, **kw):
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)

shallow.fit_random_feature = fit
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[1:]))
"""

SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def run_src(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run ``python args`` with the package source on the path."""
    return subprocess.run([sys.executable, *args], env=SRC_ENV, capture_output=True, text=True, timeout=timeout)


class TestSweepWorkers:
    @pytest.mark.parametrize(
        "dies, statuses, unfinished",
        [
            (("4", "64"), ["ok", "worker_died", "ok"], "0.4"),
            (("4", "32"), ["worker_died", "worker_died", "ok"], "0.5, 0.4"),
        ],
        ids=["after_a_finished_point", "first"],
    )
    def test_dead_worker_ends_the_sweep(self, tmp_path, dies, statuses, unfinished):
        # 0.5 and 0.4 share the K=3 ladder (4 inputs) and accept widths 32 and
        # 64; 0.3 is K=4 (5 inputs).  A point that needs the killed attempt
        # does not finish; the others keep their rows.
        cfg = write_config(tmp_path, sweep={"eps": [0.5, 0.4, 0.3]})
        proc = run_src(["-c", DYING_SWEEP, *dies, "sweep", str(cfg), "--out", str(tmp_path / "sweep")], timeout=120)
        assert proc.returncode == 3
        died = [line for line in proc.stderr.splitlines() if "died" in line]
        assert died == [f"a fit attempt's process died; eps points not finished: {unfinished}"]
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [r["eps"] for r in rows] == ["0.5", "0.4", "0.3"]
        assert [r["status"] for r in rows] == statuses

    def test_sigterm_ends_the_sweep_and_its_worker(self, tmp_path):
        # the two attempts of the first point's ladder are mid-fit at the SIGTERM
        out = tmp_path / "sweep"
        argv = [sys.executable, "-c", STALLED_SWEEP, "sweep", str(write_config(tmp_path)), "--out", str(out)]
        proc = subprocess.Popen(argv, env=SRC_ENV, stdout=subprocess.PIPE, text=True)
        attempts = []
        try:
            attempts = [int(proc.stdout.readline()) for _ in range(2)]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 143
            assert proc.pid not in attempts
            for pid in attempts:  # reaped by the sweep, so gone
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            proc.kill()
            proc.wait()
            for pid in attempts:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
        assert list(out.iterdir()) == []  # no sweep.csv, and no temporary file

    def test_import_leaves_out_the_pool(self):
        code = "import sys, uniesn.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        proc = run_src(["-c", code], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestStdoutDiscipline:
    def test_stdout_carries_only_the_report_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == [str(tmp_path / "out" / "report.json")]
        assert "stage" in captured.err


json_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, float("nan"), float("inf"), -float("inf")]
)
json_numbers = json_floats | json_floats.map(np.float64)
json_leaves = st.none() | st.booleans() | st.integers() | st.text() | json_numbers
array_entries = json_floats | st.sampled_from([0.0, 1.0, -3.0, 2.0**53, 1e308, -1e308])
array_shapes = st.integers(0, 6).map(lambda n: (n,)) | st.tuples(st.integers(0, 4), st.integers(0, 4))
float_arrays = array_shapes.flatmap(
    lambda shape: st.lists(array_entries, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda entries: np.array(entries, dtype=np.float64).reshape(shape)
    )
)
json_docs = st.recursive(
    json_leaves | st.lists(json_numbers, min_size=1) | float_arrays,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=25,
)


def as_lists(obj):
    """obj with every ndarray replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_lists(value) for value in obj]
    return obj


class TestWriteJson:
    """The streamed writer gives json.dump's exact bytes."""

    @staticmethod
    def reference(obj) -> bytes:
        buf = io.StringIO()
        json.dump(as_lists(obj), buf, indent=2, sort_keys=True)
        return (buf.getvalue() + "\n").encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(obj=json_docs)
    def test_bytes_match_json_dump(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("write") / "doc.json"
        cli._write_json(path, obj)
        assert path.read_bytes() == self.reference(obj)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1, 4), (4, 1), (2, 3)])
    def test_array_edge_shapes(self, tmp_path, shape):
        entries = [float("nan"), 0.0, -0.0, float("inf"), 5e-324, -float("inf"), 1e308, -1e308, 7.0]
        arr = np.resize(np.array(entries), shape)
        cli._write_json(tmp_path / "doc.json", {"a": arr, "rows": list(arr)})
        assert (tmp_path / "doc.json").read_bytes() == self.reference({"a": arr, "rows": list(arr)})

    def test_non_float_array_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="float"):
            cli._write_json(tmp_path / "doc.json", {"a": np.arange(3)})

    def test_non_finite_floats_use_json_spelling(self, tmp_path):
        cli._write_json(tmp_path / "doc.json", {"x": [1.5, float("nan"), np.float64("inf"), -float("inf")]})
        text = (tmp_path / "doc.json").read_text()
        assert text == '{\n  "x": [\n    1.5,\n    NaN,\n    Infinity,\n    -Infinity\n  ]\n}\n'


class TestLoadJson:
    """The reader is json.load: it gives back every float the writer spells."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e22, 0.1])
    def test_floats_match_json_load_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("load") / "doc.json"
        arr = np.array(values, dtype=np.float64)
        cli._write_json(path, {"a": arr, "rows": [arr, arr[::-1]]})
        got = cli._load_json(path)
        for key, want in (("a", arr), ("rows", np.array([arr, arr[::-1]]))):
            back = np.array(got[key], dtype=np.float64)
            nan = np.isnan(want)  # NaN is spelled NaN, whatever its payload
            assert np.isnan(back[nan]).all()
            assert back[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("build", ["built", "built_d2"])
    def test_blocks_rebuild_the_dense_file_bitwise(self, build, request, tmp_path):
        # the system in memory is its blocks, wired from nets.json's static net and chain scale;
        # the dense A it writes is rebuilt from them
        out = request.getfixturevalue(build)
        cli._write_json(tmp_path / "esn.json", cli._load_nets(out / "nets.json")[-1].to_json())
        assert (tmp_path / "esn.json").read_bytes() == (out / "esn.json").read_bytes()
