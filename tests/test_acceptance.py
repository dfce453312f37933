"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py`.  The terminal summary prints one
pass/fail line per criterion (see conftest), with measured numbers attached.
"""

import json
import time

import numpy as np
import pytest

from uniesn import cli
from uniesn.construct import (
    ConstructionConfig,
    assemble_esn,
    closed_form_state,
    compose_chain,
    construct_universal_esn,
    direct_functional,
    split_lag_blocks,
    verify_chain_bound,
)
from uniesn.esn import check_esp_empirical, check_nilpotent
from uniesn.filters import filter_from_json
from uniesn.linalg import operator_norm
from uniesn.shallow import ShallowNet, WidthPolicy
from uniesn.windows import sample_window_array

DEMO_EPS = 0.3
DEMO_SEED = 20240811
DEMO_FILTER = {"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0}


def demo_filter():
    return filter_from_json(DEMO_FILTER)


def demo_config(eps=DEMO_EPS, seed=DEMO_SEED):
    return ConstructionConfig(
        eps=eps,
        seed=seed,
        margin=0.8,
        static_policy=WidthPolicy(start_width=32, max_width=4096, train_samples=3000, val_samples=3000),
        identity_policy=WidthPolicy(start_width=32, max_width=2048, train_samples=1500, val_samples=3000),
        chain_samples=10_000,
        budget_windows=10_000,
        budget_window_len=30,
        closed_form_check_windows=200,
    )


@pytest.fixture(scope="module")
def demo():
    t0 = time.perf_counter()
    result = construct_universal_esn(demo_filter(), demo_config())
    elapsed = time.perf_counter() - t0
    return result, elapsed


def random_net(width, in_dim, out_dim, seed):
    rng = np.random.default_rng(seed)
    return ShallowNet(
        hidden_matrix=rng.standard_normal((width, in_dim)),
        hidden_bias=rng.standard_normal(width),
        readout=rng.standard_normal((out_dim, width)),
    )


def random_instance(seed):
    """A randomly parameterized assembled system (not fitted), for structural checks."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(0, 6))
    d = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    net = random_net(int(rng.integers(2, 9)), (K + 1) * d, m, seed + 1)
    split = split_lag_blocks(net, d)
    chain = [random_net(int(rng.integers(2, 9)), d, d, seed + 2 + j) for j in range(K)]
    return split, chain, assemble_esn(split, chain)


def test_01_end_to_end_universality(demo, acceptance_detail):
    result, elapsed = demo
    assert result.horizon == 4
    budget = result.budget
    assert budget.truncation_analytic == 0.0625
    third = DEMO_EPS / 3.0
    assert budget.truncation_analytic < third
    assert budget.net_fit_sampled < third
    assert budget.chain_sampled < third
    assert budget.total_sampled < DEMO_EPS
    assert elapsed < 120.0
    acceptance_detail(
        f"horizon 4, terms {budget.truncation_analytic:.4f}/{budget.net_fit_sampled:.4f}/"
        f"{budget.chain_sampled:.2e} each < 0.1, total {budget.total_sampled:.4f} < 0.3, "
        f"{elapsed:.1f}s on 10^4 windows of length 30"
    )


def test_02_nilpotency_exact(demo, acceptance_detail):
    result, _ = demo
    ok, degree = check_nilpotent(result.esn)
    assert ok and degree == result.horizon + 1
    power = np.linalg.matrix_power(result.esn.A, result.horizon + 1)
    assert np.all(power == 0.0)
    checked = 1
    for seed in range(40, 60):
        _, _, esn = random_instance(seed * 13)
        K = esn.structure.horizon
        ok, degree = check_nilpotent(esn)
        assert ok and degree == K + 1
        assert np.all(np.linalg.matrix_power(esn.A, K + 1) == 0.0)
        checked += 1
    acceptance_detail(f"reservoir power vanishes exactly on {checked} assembled systems")


def test_03_echo_state_bitwise(demo, acceptance_detail):
    result, _ = demo
    instances = [result.esn] + [random_instance(seed * 7)[2] for seed in range(30, 35)]
    worst = 0.0
    for esn in instances:
        K = esn.structure.horizon
        window = sample_window_array(esn.in_dim, 1.0, K + 1, 3, seed=1001)[2]
        t0 = time.perf_counter()
        assert check_esp_empirical(esn, window, trials=10, seed=77)
        worst = max(worst, time.perf_counter() - t0)
        assert worst < 1.0
    acceptance_detail(
        f"10 random initial states, bitwise-identical final states on {len(instances)} systems, "
        f"worst {worst * 1000:.0f}ms per instance"
    )


def test_04_finite_memory_bitwise(demo, acceptance_detail):
    result, _ = demo
    esn = result.esn
    K = result.horizon
    T = 30
    trials = 1000
    arr = sample_window_array(esn.in_dim, 1.0, T, trials, seed=2002)
    rng = np.random.default_rng(2003)
    modified = arr.copy()
    past = T - (K + 1)
    dirs = rng.standard_normal((trials, past, esn.in_dim))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    modified[:, :past, :] = dirs  # boundary-norm rewrites of the forgettable past
    out1, out2 = esn.functional_batch(arr), esn.functional_batch(modified)
    agree = sum(1 for i in range(trials) if np.array_equal(out1[i], out2[i]))
    assert agree == trials
    acceptance_detail(f"outputs bitwise unchanged on {agree}/{trials} far-past rewrites")


def test_05_closed_form_oracle(acceptance_detail):
    worst = 0.0
    for trial in range(20):
        split, chain, esn = random_instance(5000 + trial * 11)
        K = esn.structure.horizon
        arr = sample_window_array(esn.in_dim, 1.0, K + 3, 1000, seed=6000 + trial)
        states = esn.run_batch(arr)
        collector = states[:, esn.state_dim - split.net.width :]
        direct = closed_form_state(split, chain, arr)
        gap = float(np.max(np.linalg.norm(collector - direct, axis=1)))
        worst = max(worst, gap)
        assert gap <= 1e-10
    acceptance_detail(
        f"recursion vs closed form <= 1e-10 on 20 systems x 10^3 windows, worst {worst:.2e}"
    )


def test_06_chain_bound(demo, acceptance_detail):
    result, _ = demo
    records = verify_chain_bound(
        result.chain, 1.0, DEMO_EPS, result.gain, n_samples=10_000, seed=424241
    )
    step = DEMO_EPS / (3.0 * result.gain)
    assert len(records) == result.horizon
    for j, rec in enumerate(records, start=1):
        assert rec["sup_error"] < j * step
        assert rec["sup_norm"] <= 1.0 + j * step
    acceptance_detail(
        f"per-depth drift {['%.1e' % r['sup_error'] for r in records]} < j*{step:.2e} "
        f"and containment, 10^4 fresh ball samples"
    )


def test_07_lipschitz_estimate(demo, acceptance_detail):
    result, _ = demo
    split, chain, K = result.split, result.chain, result.horizon
    T = 30
    arr = sample_window_array(split.lag_dim, 1.0, T, 10_000, seed=31337)
    w_norm = operator_norm(split.readout)
    block_norms = [operator_norm(split.lag_block(j)) for j in range(K + 1)]
    lhs = np.linalg.norm(
        direct_functional(split, arr) - closed_form_state(split, chain, arr) @ split.readout.T, axis=1
    )
    rhs = np.zeros(arr.shape[0])
    for j in range(K + 1):
        z_j = arr[:, T - 1 - j, :]
        drift = np.linalg.norm(compose_chain(chain, j, z_j) - z_j, axis=1)
        rhs += block_norms[j] * drift
    rhs *= w_norm  # tanh is 1-Lipschitz
    assert np.all(lhs <= rhs)
    acceptance_detail(
        f"inequality holds on all 10^4 samples; max lhs {np.max(lhs):.2e}, min slack "
        f"{np.min(rhs - lhs):.2e}"
    )


def test_08_truncation_oracle(acceptance_detail):
    f = demo_filter()
    K = 4
    bound = f.truncation_bound(K)
    assert bound == 0.0625
    T = 30
    arr = sample_window_array(1, 1.0, T, 10_000, seed=90210)
    truncated = arr.copy()
    truncated[:, : T - (K + 1), :] = 0.0
    gaps = np.linalg.norm(f.evaluate_batch(arr) - f.evaluate_batch(truncated), axis=1)
    assert np.max(gaps) <= bound
    assert gaps[1] >= 0.99 * bound  # the constant boundary window attains the tail
    acceptance_detail(
        f"10^4-window brute force max {np.max(gaps):.6f} <= {bound}, boundary window attains "
        f"{gaps[1] / bound:.4f} of the bound"
    )


def test_09_sweep_monotonicity(tmp_path, acceptance_detail):
    config = {
        "filter": DEMO_FILTER,
        "construction": {
            "eps": DEMO_EPS,
            "seed": DEMO_SEED,
            "static_policy": {"start_width": 32, "max_width": 4096, "train_samples": 3000, "val_samples": 3000},
            "identity_policy": {"start_width": 32, "max_width": 2048, "train_samples": 1500, "val_samples": 3000},
            "chain_samples": 10_000,
            "budget_windows": 10_000,
            "budget_window_len": 30,
            "closed_form_check_windows": 200,
        },
        "sweep": {"eps": [0.5, 0.3, 0.1]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    t0 = time.perf_counter()
    code = cli.main(["sweep", str(cfg_path), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 600.0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [float(r["eps"]) for r in rows] == [0.5, 0.3, 0.1]
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["total"]) < float(row["eps"])
    horizons = [int(r["horizon"]) for r in rows]
    assert horizons == sorted(horizons)
    acceptance_detail(
        f"eps 0.5/0.3/0.1 -> horizons {horizons}, all totals < eps, {elapsed:.1f}s"
    )


def test_10_determinism(tmp_path, acceptance_detail):
    config = {
        "filter": DEMO_FILTER,
        "construction": {
            "eps": DEMO_EPS,
            "seed": DEMO_SEED,
            "static_policy": {"start_width": 32, "max_width": 4096, "train_samples": 3000, "val_samples": 3000},
            "identity_policy": {"start_width": 32, "max_width": 2048, "train_samples": 1500, "val_samples": 3000},
            "chain_samples": 10_000,
            "budget_windows": 10_000,
            "budget_window_len": 30,
            "closed_form_check_windows": 200,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["construct", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["construct", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    esn_same = (tmp_path / "a" / "esn.json").read_bytes() == (tmp_path / "b" / "esn.json").read_bytes()
    report_same = (
        (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    )
    assert esn_same and report_same
    acceptance_detail("esn.json and report.json bitwise identical across two runs")
