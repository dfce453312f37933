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

from uniesn import cli, construct, shallow
from uniesn.construct import BudgetError
from uniesn.esn import ESNParams


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "filter": {"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0},
        "construction": {
            "eps": 0.3,
            "seed": 424242,
            "static_policy": {"start_width": 32, "max_width": 4096, "train_samples": 1500, "val_samples": 1500},
            "identity_policy": {"start_width": 32, "max_width": 1024, "train_samples": 800, "val_samples": 1600},
            "chain_samples": 1000,
            "budget_windows": 1000,
            "budget_window_len": 20,
            "closed_form_check_windows": 30,
        },
        "verification": {"esp_trials": 10, "fmp_trials": 100, "window_len": 20, "seed": 99},
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
    return in_dim > 1 and width >= 64  # with d=1, only the static net stacks several lags


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
        assert set(terms) == {"truncation", "net_fit", "chain", "total"}
        assert terms["truncation"]["status"] == "analytic_upper_bound"
        assert terms["net_fit"]["status"] == "sampled_sup"
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
        ],
        ids=[
            "unknown_key", "unknown_policy_key", "max_below_start_width", "start_width_zero",
            "train_samples_zero", "budget_windows_zero", "eps_infinite", "closed_form_check_windows_zero",
            "filter_M_nan", "filter_M_infinite", "filter_not_object", "output_not_object",
            "sweep_not_object", "misspelled_section", "seed_negative",
            "filter_B_nan", "filter_B_infinite", "fir_tap_infinite", "volterra2_coeff_nan", "quad_b_nan",
            "budget_windows_bool", "seed_fraction", "margin_bool", "eps_bool", "budget_window_len_infinite",
            "train_samples_fraction", "identity_train_samples_bool", "ridge_bool", "scale_bool", "filter_d_fraction",
            "filter_M_bool",
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

    @pytest.mark.parametrize("argv, env", [(["--seed", "-5"], None), ([], "-5")], ids=["flag", "env"])
    def test_negative_seed_exits_before_any_stage(self, tmp_path, monkeypatch, capsys, argv, env):
        if env is not None:
            monkeypatch.setenv("UNIESN_SEED", env)
        monkeypatch.setattr(cli, "construct_universal_esn", lambda *a, **k: pytest.fail("a stage ran"))
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out"), *argv]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_impossible_fit_is_stage_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            construction={
                "eps": 1e-9,
                "static_policy": {"start_width": 4, "max_width": 4, "train_samples": 64, "val_samples": 64},
            },
        )
        code = cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "fit_static_net" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fails, stage, width",
        [(static_from_64, "fit_static_net", 64), (lambda in_dim, width: in_dim == 1, "fit_identity_chain", 32)],
        ids=["static", "identity"],
    )
    def test_fit_that_cannot_allocate_is_stage_failure(self, tmp_path, monkeypatch, capsys, fails, stage, width):
        monkeypatch.setattr(shallow, "fit_random_feature", fit_out_of_memory(fails))
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"stage {stage} failed" in err and f"width {width} could not allocate" in err
        assert not (tmp_path / "out" / "esn.json").exists()

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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("UNIESN_SEED", "777")
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "env")]) == 0
        report = json.loads((tmp_path / "env" / "report.json").read_text())
        assert report["seed"] == 777

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("UNIESN_SEED", "777")
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "f"), "--seed", "5"]) == 0
        report = json.loads((tmp_path / "f" / "report.json").read_text())
        assert report["seed"] == 5


ARTIFACTS = ("esn.json", "nets.json", "report.json", "budget.csv", "timings.json")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_budget(f, split, chain, arr):
    """budget_errors with every per-window error above any eps of these tests."""
    return np.full((3, arr.shape[0]), 10.0)


class TestSystemWriter:
    def test_bytes_equal_an_in_process_write(self, built, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        result = construct.construct_universal_esn(
            cli.filter_from_json(raw["filter"]), cli._construction_from(raw["construction"], None)
        )
        cli._write_json(tmp_path / "esn.json", result.esn.to_json())
        cli._write_json(tmp_path / "nets.json", cli._nets_json(result.split, result.chain))
        for name in ("esn.json", "nets.json"):
            assert (built / name).read_bytes() == (tmp_path / name).read_bytes()
        assert not list(built.glob(".*.tmp"))

    def test_budget_failure_after_the_writer_started(self, tmp_path, monkeypatch, capsys):
        started = []
        real_start = cli._SystemWriter.start

        def start(self, *args):
            real_start(self, *args)
            started.append(self.pid)

        monkeypatch.setattr(cli._SystemWriter, "start", start)
        monkeypatch.setattr(construct, "budget_errors", failing_budget)
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert len(started) == 1 and started[0] > 0
        assert "budget violation" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        assert_no_child()

    def test_failed_rebuild_keeps_the_earlier_artifacts(self, built, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        for name in ARTIFACTS:
            (out / name).write_bytes((built / name).read_bytes())
        monkeypatch.setattr(construct, "budget_errors", failing_budget)
        assert cli.main(["construct", str(write_config(tmp_path)), "--out", str(out)]) == 4
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == (built / name).read_bytes()
        assert_no_child()

    def test_failed_writer_is_exit_2_with_no_partial_artifact(self, tmp_path, monkeypatch, capsys):
        real_write = cli._write_json

        def write(path, obj):
            if Path(path).name.startswith(".esn.json"):
                real_write(path, {"partial": 1.0})
                raise OSError("disk full")
            real_write(path, obj)

        monkeypatch.setattr(cli, "_write_json", write)
        cfg = write_config(tmp_path)
        assert cli.main(["construct", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "exited with status 1" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        assert_no_child()

    def test_sigterm_while_the_writer_runs_is_exit_143(self, built, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        for name in ARTIFACTS:
            (out / name).write_bytes((built / name).read_bytes())
        real_start = cli._SystemWriter.start

        def start(self, *args):
            real_start(self, *args)
            for _ in range(1000):  # until the writer has made both temporary files
                if self.temps["nets.json"].exists():
                    break
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(cli._SystemWriter, "start", start)
        # SIG_IGN as the old handler: without construct's own, the build would finish
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            with pytest.raises(SystemExit) as exc_info:
                cli.main(["construct", str(write_config(tmp_path)), "--out", str(out)])
        finally:
            restored = signal.signal(signal.SIGTERM, previous)
        assert exc_info.value.code == 143
        assert restored == signal.SIG_IGN
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == (built / name).read_bytes()
        assert_no_child()


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


class TestVerify:
    @pytest.fixture()
    def constructed(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["construct", str(cfg), "--out", str(out)]) == 0
        return cfg, out

    def test_constructed_system_passes(self, constructed, capsys):
        cfg, out = constructed
        code = cli.main(["verify", str(out / "esn.json"), str(cfg)])
        assert code == 0
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["passed"]
        assert verdict["checks"]["nilpotency"]["passed"]
        assert verdict["checks"]["echo_state"]["passed"]
        assert verdict["checks"]["finite_memory"]["passed"]
        assert verdict["checks"]["closed_form"]["passed"]
        assert verdict["checks"]["closed_form"]["readout_exact"] is True

    def test_corrupted_reservoir_flagged(self, constructed):
        cfg, out = constructed
        esn = json.loads((out / "esn.json").read_text())
        esn["A"][0][-1] = 1.0  # first block row must be zero
        corrupted = out / "esn_corrupt.json"
        corrupted.write_text(json.dumps(esn))
        code = cli.main(["verify", str(corrupted), str(cfg)])
        assert code == 5
        verdict = json.loads((out / "verify.json").read_text())
        assert not verdict["passed"]
        nilpotency = verdict["checks"].pop("nilpotency")
        assert nilpotency["passed"] is False and nilpotency["degree"] == 0
        assert nilpotency["reason"].startswith(f"A[0][{len(esn['A']) - 1}] = 1.0 lies outside the blocks")
        assert set(verdict["checks"]) == {"echo_state", "finite_memory", "closed_form"}
        assert all(c["skipped"] is True and c["reason"] for c in verdict["checks"].values())

    def test_short_window_len_still_rewrites_the_far_past(self, built, tmp_path, monkeypatch):
        # window_len 1 runs as K+2: one entry ahead of the shared K+1
        cfg = write_config(tmp_path, verification={"window_len": 1})
        for name in ("esn.json", "nets.json"):
            (tmp_path / name).write_bytes((built / name).read_bytes())
        batches = []

        def recording(p, arr1, arr2):
            batches.append((arr1, arr2))
            return real(p, arr1, arr2)

        real = cli.check_finite_memory
        monkeypatch.setattr(cli, "check_finite_memory", recording)
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 0
        [(arr1, arr2)] = batches
        K = json.loads((built / "esn.json").read_text())["structure"]["K"]
        assert arr1.shape[1] == K + 2
        assert not np.array_equal(arr1, arr2)
        assert np.array_equal(arr1[:, 1:], arr2[:, 1:])

    def test_perturbed_collector_entry_flagged(self, built, tmp_path):
        # inside the pattern the system stays nilpotent and runs the block
        # recursion, but it no longer matches the nets it was assembled from
        cfg = write_config(tmp_path)
        (tmp_path / "nets.json").write_bytes((built / "nets.json").read_bytes())
        esn = json.loads((built / "esn.json").read_text())
        widths = esn["structure"]["widths"]
        esn["A"][sum(widths[:-1])][sum(widths[:-2])] += 0.5  # collector row, last carrier block
        (tmp_path / "esn.json").write_text(json.dumps(esn))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert checks["nilpotency"]["passed"]
        assert not checks["closed_form"]["passed"]

    def test_perturbed_readout_entry_flagged(self, built, tmp_path):
        # the state gap never reads W, so verify compares it with the static readout
        cfg = write_config(tmp_path)
        (tmp_path / "nets.json").write_bytes((built / "nets.json").read_bytes())
        esn = json.loads((built / "esn.json").read_text())
        esn["W"][0][-1] += 1e-9
        (tmp_path / "esn.json").write_text(json.dumps(esn))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 5
        closed_form = json.loads((tmp_path / "verify.json").read_text())["checks"]["closed_form"]
        assert closed_form["max_gap"] <= 1e-10
        assert closed_form["readout_exact"] is False
        assert not closed_form["passed"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda e: e["zeta"].__setitem__(0, float("nan")),
            lambda e: e["A"][-1].__setitem__(0, float("inf")),
            lambda e: e["C"][0].__setitem__(0, float("nan")),
            lambda e: e["W"][0].__setitem__(0, float("-inf")),
            # A[0][0] lies outside the blocks: the non-finite entry is what is reported.
            lambda e: e["A"][0].__setitem__(0, float("nan")),
        ],
        ids=["nan_zeta", "inf_A", "nan_C", "neg_inf_W", "nan_A_off_pattern"],
    )
    def test_non_finite_esn_is_load_error(self, built, tmp_path, capsys, edit):
        cfg = write_config(tmp_path)
        (tmp_path / "nets.json").write_bytes((built / "nets.json").read_bytes())
        esn = json.loads((built / "esn.json").read_text())
        edit(esn)
        (tmp_path / "esn.json").write_text(json.dumps(esn))
        assert cli.main(["verify", str(tmp_path / "esn.json"), str(cfg)]) == 2
        assert "load error" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_config_not_an_object_is_load_error(self, built, tmp_path, capsys):
        (tmp_path / "config.json").write_text("[1]")
        assert cli.main(["verify", str(built / "esn.json"), str(tmp_path / "config.json")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unreadable_esn_is_load_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["verify", str(tmp_path / "missing.json"), str(cfg)]) == 2

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
            ({}, ("nets.json", lambda nets: json.dumps({**nets, "identity_chain": nets["identity_chain"][:-1]}))),
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
            ({}, edited("nets.json", lambda nets: nets["identity_chain"][0]["hidden_bias"].__setitem__(0, float("inf")))),
            ({"verification": {"fmp_trials": 50.5}}, None),
            ({"verification": {"esp_trials": True}}, None),
            ({"verification": {"seed": 1.9}}, None),
            ({"verification": {"window_len": True}}, None),
            ({"verification": {"closed_form_windows": float("inf")}}, None),
            ({"verification": {"input_bound": True}}, None),
            ({}, edited("esn.json", lambda esn: esn.pop("structure"))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("structure", None))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("activation", "logistic"))),
            ({}, ("esn.json", lambda esn: "[1]")),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("A", None))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("A", 2.0))),
            ({"verification": {"nets": "/nonexistent/nets.json"}}, None),
            ({}, edited("esn.json", lambda esn: esn["structure"].update(
                widths=[w + 0.5 for w in esn["structure"]["widths"]]))),
            # All-ones widths that sum to N: cast with int(), they would describe a valid structure.
            ({}, edited("esn.json", lambda esn: esn["structure"].update(widths=[True] * esn["N"], K=esn["N"] - 1))),
            ({}, edited("esn.json", lambda esn: esn["structure"].update(K=99))),
            ({}, edited("nets.json", lambda nets: nets.__setitem__("lag_dim", True))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("activation", "logistic"))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("N", 7))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("d", 9))),
            ({}, edited("esn.json", lambda esn: esn.__setitem__("m", 0))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("width", 3))),
            ({}, edited("nets.json", lambda nets: nets["static_net"].__setitem__("in_dim", 42))),
            ({}, edited("nets.json", lambda nets: nets["identity_chain"][-1].__setitem__("out_dim", 2))),
            # Nets that load but do not fit the d=1 system.
            ({}, edited("nets.json", lambda nets: grow_net(nets["identity_chain"][0], inputs=1))),
            ({}, edited("nets.json", lambda nets: grow_net(nets["identity_chain"][0], outputs=1))),
            ({}, edited("nets.json", lambda nets: grow_net(nets["static_net"], units=1))),
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
            "esn_without_structure", "esn_null_structure", "esn_logistic", "esn_not_object",
            "esn_null_A", "esn_number_A",
            "nets_missing_explicit_path",
            "esn_widths_fraction", "esn_widths_bool", "esn_K_mismatch", "nets_lag_dim_bool", "nets_logistic",
            "esn_N_mismatch", "esn_d_mismatch", "esn_m_mismatch",
            "nets_width_mismatch", "nets_in_dim_mismatch", "nets_chain_out_dim_mismatch",
            "nets_chain_in_dim_2", "nets_chain_out_dim_2", "nets_static_wider_than_state", "nets_static_out_dim_2",
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

    def test_bad_eps_is_a_config_row_and_sweep_continues(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["sweep", str(cfg), "--eps", "inf,0.5", "--out", str(tmp_path / "sweep")])
        assert code == 2
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [r["status"] for r in rows] == ["config", "ok"]

    def test_failed_row_recorded_and_sweep_continues(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sweep={"eps": [0.5, 1e-9]},
            construction={
                "static_policy": {"start_width": 32, "max_width": 256, "train_samples": 1000, "val_samples": 1000},
            },
        )
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")])
        assert code == 3
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("stage:")

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


@pytest.fixture(scope="module")
def sweep_and_builds(tmp_path_factory):
    """Sweeps over two eps of one horizon, then a construct at each eps, all
    from one process: each run's out dir, its stderr, the width and weight seed
    of each fit it ran and, for each of its builds, the eps and the pid of the
    building process.  sweep1 and sweep2 see one usable CPU, so this process
    builds both points; sweep_2cpu sees two, so a forked worker builds one.
    A worker's memory never reaches this process, so the patched fit and
    build append to log files."""
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
    return runs


def without_wall_time(path: Path) -> list:
    """The lines of a sweep.csv, each split at its commas, with the wall_time_s column cut."""
    wall = cli.SWEEP_COLUMNS.index("wall_time_s")
    return [cells[:wall] + cells[wall + 1:] for cells in (line.split(",") for line in path.read_text().splitlines())]


def masked_stage_times(text: str) -> str:
    return re.sub(r"^stage (\w+): [0-9.]+s$", r"stage \1: #s", text, flags=re.M)


class TestSweepReuse:
    def test_rows_equal_separate_builds(self, sweep_and_builds):
        rows = read_csv_skipping_schema(sweep_and_builds["sweep1"]["out"] / "sweep.csv")
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

    def test_one_cpu_sweep_makes_the_fits_of_separate_constructs(self, sweep_and_builds):
        # with one usable CPU this process builds 0.25, then 0.3, each afresh
        assert [eps for eps, _ in sweep_and_builds["sweep1"]["builds"]] == ["0.25", "0.3"]
        separate = sweep_and_builds["0.25"]["fits"] + sweep_and_builds["0.3"]["fits"]
        assert sweep_and_builds["sweep1"]["fits"] == separate

    def test_two_cpus_give_the_same_rows(self, sweep_and_builds):
        one, two = (sweep_and_builds[name]["out"] / "sweep.csv" for name in ("sweep1", "sweep_2cpu"))
        assert without_wall_time(two) == without_wall_time(one)
        # the worker's fits interleave with this process's in the log
        assert sorted(sweep_and_builds["sweep_2cpu"]["fits"]) == sorted(sweep_and_builds["sweep1"]["fits"])

    def test_smallest_eps_builds_in_this_process(self, sweep_and_builds):
        # the costliest point stays in the calling process; a forked worker builds the other
        pids = {eps: pid for eps, pid in sweep_and_builds["sweep_2cpu"]["builds"]}
        assert pids["0.25"] == str(os.getpid()) != pids["0.3"]

    @pytest.mark.parametrize("sweep", ["sweep1", "sweep_2cpu"])
    def test_stderr_holds_each_point_block_in_eps_order(self, sweep_and_builds, sweep):
        # each point logs what a construct at its eps logs, in eps-list order
        blocks = sweep_and_builds["0.3"]["stderr"] + sweep_and_builds["0.25"]["stderr"]
        assert blocks.count("(< eps=") == 2
        assert masked_stage_times(sweep_and_builds[sweep]["stderr"]) == masked_stage_times(blocks)


#: Runs ``uniesn sweep`` (argv[2:]) with two usable CPUs, so this process
#: builds the smallest eps and one worker builds the others; the worker dies
#: at once when it builds eps == argv[1].
DYING_SWEEP = """
import os, sys
from uniesn import cli

real_build = cli.construct_universal_esn

def build(f, cfg, **kw):
    if cfg.eps == float(sys.argv[1]):
        os._exit(9)
    return real_build(f, cfg, **kw)

cli.construct_universal_esn = build
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[2:]))
"""


def run_src(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run ``python args`` with the package source on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


class TestSweepWorkers:
    @pytest.mark.parametrize(
        "dies, statuses, unfinished",
        [
            ("0.5", ["worker_died", "ok", "ok"], "0.5"),
            ("0.4", ["worker_died", "worker_died", "ok"], "0.5, 0.4"),
        ],
        ids=["after_a_finished_point", "first"],
    )
    def test_dead_worker_ends_the_sweep(self, tmp_path, dies, statuses, unfinished):
        # this process builds 0.3; the worker takes 0.4 first (the smaller eps), then 0.5
        cfg = write_config(tmp_path, sweep={"eps": [0.5, 0.4, 0.3]})
        proc = run_src(["-c", DYING_SWEEP, dies, "sweep", str(cfg), "--out", str(tmp_path / "sweep")], timeout=120)
        assert proc.returncode == 3
        died = [line for line in proc.stderr.splitlines() if "worker died" in line]
        assert died == [f"a sweep worker died; eps points not finished: {unfinished}"]
        rows = read_csv_skipping_schema(tmp_path / "sweep" / "sweep.csv")
        assert [r["eps"] for r in rows] == ["0.5", "0.4", "0.3"]
        assert [r["status"] for r in rows] == statuses

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
    """The reader gives json.load's exact floats, with one shared +0.0."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e22, 0.1])
    def test_floats_match_json_load_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("load") / "doc.json"
        arr = np.array(values, dtype=np.float64)
        cli._write_json(path, {"a": arr, "rows": [arr, arr[::-1]]})
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
        got = cli._load_json(path)
        for key in ("a", "rows"):
            assert np.array(got[key], dtype=np.float64).tobytes() == np.array(ref[key], dtype=np.float64).tobytes()

    @pytest.mark.parametrize("build", ["built", "built_d2"])
    def test_blocks_rebuild_the_dense_file_bitwise(self, build, request, tmp_path):
        # the system in memory is its blocks; the dense A it writes is rebuilt from them
        path = request.getfixturevalue(build) / "esn.json"
        cli._write_json(tmp_path / "esn.json", ESNParams.from_json(cli._load_json(path)).to_json())
        assert (tmp_path / "esn.json").read_bytes() == path.read_bytes()

    def test_dense_A_shares_one_zero(self, built):
        A = cli._load_json(built / "esn.json")["A"]
        entries = [x for row in A for x in row]
        arr = np.array(entries)
        not_plus_zero = np.count_nonzero((arr != 0) | np.signbit(arr))
        assert not_plus_zero < len(entries)
        assert len({id(x) for x in entries}) == not_plus_zero + 1
