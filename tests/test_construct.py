import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniesn import construct, shallow
from uniesn.construct import (
    BUDGET_BLOCK,
    CHAIN_ROUNDING,
    _derived_seed,
    _window_blocks,
    BudgetError,
    ConstructionConfig,
    ConstructionError,
    ErrorBudget,
    STATUS_STRENGTH,
    assemble_esn,
    budget_errors,
    carry,
    chain_scale,
    closed_form_state,
    construct_universal_esn,
    direct_functional,
    identity_error_gain,
    identity_step,
    lag_blocks,
)
from uniesn.esn import BlockStructure, ESNParams
from uniesn.filters import ExpFadingFilter, FIRFilter, filter_from_json
from uniesn.linalg import operator_norm
from uniesn.shallow import ShallowNet, WidthPolicy
from uniesn.windows import sample_product_ball, sample_window_array


def random_net(width, in_dim, out_dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return ShallowNet(
        hidden_matrix=rng.standard_normal((width, in_dim)) * scale,
        hidden_bias=rng.standard_normal(width) * scale,
        readout=rng.standard_normal((out_dim, width)) * scale,
    )


def random_static(K, d, collector_width, seed, scale=1.0):
    """A static net over K+1 stacked lags of dimension d."""
    return random_net(collector_width, (K + 1) * d, 1, seed, scale)


def identity_net(d, s):
    """phi(x) = tanh(s x) / s as a net: hidden matrix s I_d, bias 0, readout I_d / s."""
    return ShallowNet(hidden_matrix=s * np.eye(d), hidden_bias=np.zeros(d), readout=np.eye(d) / s)


def forwards(net, j, z):
    """net.forward applied j times; j=0 is z."""
    for _ in range(j):
        z = net.forward(z)
    return z


def small_cfg(eps, seed=0, **overrides):
    kwargs = dict(
        eps=eps,
        seed=seed,
        static_policy=WidthPolicy(max_width=4096, train_samples=2000, val_samples=2000),
        identity_policy=WidthPolicy(max_width=1024, train_samples=1000, val_samples=2000),
        chain_samples=1500,
        budget_windows=1500,
        closed_form_check_windows=40,
    )
    kwargs.update(overrides)
    return ConstructionConfig(**kwargs)


class TestSplitAndGain:
    def test_blocks_reassemble_bitwise(self):
        net = random_static(K=3, d=2, collector_width=7, seed=1)
        blocks = lag_blocks(net, 3)
        assert [b.shape for b in blocks] == [(7, 2)] * 4
        assert np.array_equal(np.hstack(blocks[::-1]), net.hidden_matrix)

    def test_lag_block_indexing(self):
        net = random_static(K=2, d=1, collector_width=4, seed=2)
        # stacked input layout is (z_{-K}; ...; z_0): lag 0 is the last block
        blocks = lag_blocks(net, 2)
        assert np.array_equal(blocks[0], net.hidden_matrix[:, -1:])
        assert np.array_equal(blocks[2], net.hidden_matrix[:, :1])

    def test_gain_two_term_example(self):
        w_bar = np.array([[2.0]])
        blocks = [np.array([[1.0]]), np.array([[1.0]])]  # lags 0 and 1, both norm 1
        assert identity_error_gain(w_bar, blocks) == pytest.approx(2.0)

    def test_gain_zero_blocks(self):
        blocks = [np.zeros((3, 2)) for _ in range(3)]
        assert identity_error_gain(np.ones((1, 3)), blocks) == 0.0

    def test_gain_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(3)
        w_bar = rng.standard_normal((2, 5))
        blocks = [rng.standard_normal((5, 2)) for _ in range(3)]
        got = identity_error_gain(w_bar, blocks)
        svd = lambda a: float(np.linalg.svd(a, compute_uv=False)[0])
        want = svd(w_bar) * sum(j * svd(b) for j, b in enumerate(blocks))
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_gain_ignores_present_lag_block(self):
        rng = np.random.default_rng(4)
        w_bar = rng.standard_normal((1, 4))
        blocks = [rng.standard_normal((4, 1)) for _ in range(3)]
        altered = [rng.standard_normal((4, 1)) * 100] + blocks[1:]
        assert identity_error_gain(w_bar, blocks) == identity_error_gain(w_bar, altered)

    def test_split_rejects_bad_lag_dim(self):
        net = random_net(4, 5, 1, seed=5)
        with pytest.raises(ValueError, match="5 inputs does not split into 2 lag blocks"):
            lag_blocks(net, 1)


class TestIdentityChain:
    def test_no_horizon_means_no_nets(self):
        esn = assemble_esn(random_static(K=0, d=2, collector_width=3, seed=1), 0, None)
        assert esn.carriers == () and esn.structure.widths == (3,)

    def test_each_net_is_tanh_of_s_x_over_s(self):
        s = 2.0**-5
        for d in (1, 3):
            x = sample_product_ball(d, 1.0, 1, 50, seed=6)
            assert np.array_equal(carry(s, 1, x), np.tanh(s * x) / s)
            for j in range(4):
                assert np.array_equal(carry(s, j, x), forwards(identity_net(d, s), j, x))

    def test_gain_must_be_positive_with_horizon(self, monkeypatch):
        monkeypatch.setattr(construct, "identity_error_gain", lambda readout, blocks: 0.0)
        monkeypatch.setattr(construct, "assemble_esn", lambda *a: pytest.fail("the system was assembled"))
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        with pytest.raises(ConstructionError, match="error gain is zero") as exc_info:
            construct_universal_esn(f, small_cfg(eps=0.5))
        assert exc_info.value.stage == "fit_identity_chain"

    def test_each_net_meets_its_tolerance_on_fresh_samples(self):
        M = 1.0
        s = chain_scale(5.0, M, 0.1)
        fresh = sample_product_ball(1, M, 1, 4000, seed=999)
        assert np.max(np.abs(carry(s, 1, fresh) - fresh)) < identity_step(s, M)

    def test_share_the_rounding_allowance_misses_is_stage_failure(self, monkeypatch):
        monkeypatch.setattr(construct, "identity_error_gain", lambda readout, blocks: 2.0**50)
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        with pytest.raises(ConstructionError, match="rounding allowance") as exc_info:
            construct_universal_esn(f, small_cfg(eps=0.5))
        assert exc_info.value.stage == "fit_identity_chain"


class TestChainScale:
    @given(
        gain=st.floats(1e-3, 1e6),
        M=st.floats(1e-3, 1e3),
        share=st.floats(1e-6, 1.0),
    )
    def test_largest_power_of_two_within_the_share(self, gain, M, share):
        if not gain * CHAIN_ROUNDING * M < share:
            with pytest.raises(ConstructionError, match="rounding allowance"):
                chain_scale(gain, M, share)
            return
        s = chain_scale(gain, M, share)
        assert math.frexp(s)[0] == 0.5
        assert gain * identity_step(s, M) < share <= gain * identity_step(2 * s, M)

    @given(
        d=st.integers(1, 4),
        M=st.floats(1e-3, 1e3),
        log2_s=st.integers(-30, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, M=1.0, log2_s=0, seed=0)
    def test_closed_form_net_meets_its_proven_bound(self, d, M, log2_s, seed):
        # Points inside the M-ball, row 1 the boundary probe M e_1, and the
        # last 16 on its sphere.
        s = 2.0**log2_s
        x = sample_product_ball(d, M, 1, 64, seed)
        sphere = np.random.default_rng(seed).standard_normal((16, d))
        x[-16:] = M * sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
        y = carry(s, 1, x)
        rho = CHAIN_ROUNDING * M
        assert np.all(np.linalg.norm(y - x, axis=1) <= s * s * M**3 / 3 + rho)
        assert np.all(np.linalg.norm(y, axis=1) <= np.linalg.norm(x, axis=1) + rho)

    def test_numpy_tanh_rounds_far_inside_the_allowance(self):
        # Against 50-digit mpmath, numpy's tanh errs by far less than the
        # relative allowance: 2**-50 is 1024 times below CHAIN_ROUNDING.
        rng = np.random.default_rng(17)
        t = np.concatenate([rng.uniform(-20, 20, 2000), 10.0 ** rng.uniform(-12, 1, 2000)])
        got = np.tanh(t)
        with mpmath.workdps(50):
            worst = max(abs(mpmath.mpf(g) / mpmath.tanh(mpmath.mpf(x)) - 1) for g, x in zip(got.tolist(), t.tolist()))
        assert float(worst) < 2.0**-50 <= CHAIN_ROUNDING / 1024


class TestComposeChain:
    def test_depth_zero_is_identity(self):
        z = np.array([[0.3], [0.7]])
        for s in (2.0**-30, 0.5, 16.0):
            assert np.array_equal(carry(s, 0, z), z)

    def test_depth_one_is_first_net(self):
        z = np.array([[0.3], [-1.0]])
        assert np.array_equal(carry(0.25, 1, z), identity_net(1, 0.25).forward(z))

    def test_composition_order(self):
        z = sample_product_ball(2, 1.0, 1, 20, seed=10)
        for i, j in ((0, 2), (1, 1), (2, 3)):
            assert np.array_equal(carry(0.5, i + j, z), carry(0.5, j, carry(0.5, i, z)))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 3),
        j=st.integers(0, 5),
        log2_s=st.integers(-30, 4),
        data=st.data(),
    )
    def test_carry_is_j_forwards_of_the_identity_net(self, d, j, log2_s, data):
        # forward adds a +0.0 bias, so a -0.0 entry may come back +0.0: values, not bits.
        entries = st.sampled_from([0.0, -0.0, 5e-324, -1.5e-323, 1.0, -1.0]) | st.floats(-1.0, 1.0)
        z = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=8)))
        s = 2.0**log2_s
        assert np.array_equal(carry(s, j, z), forwards(identity_net(d, s), j, z))


class TestChainDrift:
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 3),
        j=st.integers(0, 6),
        log2_s=st.integers(-30, 30),
        M=st.just(1.0) | st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_composed_chain_stays_in_the_ball(self, d, j, log2_s, M, data):
        # The lemma the chain row rests on, which no build samples: tanh(s x) / s
        # maps the M-ball into itself, and j nets drift less than
        # j * identity_step(s, M) from the identity, for every (d, j, s, M) a
        # build can produce.  Each net may add its rounding allowance
        # CHAIN_ROUNDING * M, which covers a subnormal s * x rounding up (below).
        entries = st.sampled_from([0.0, 5e-324, -5e-324, 1.5e-323, -1.5e-323, M, -M]) | st.floats(-M, M)
        z = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=8)))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True) / M, 1.0)
        probe = np.zeros((1, d))
        probe[0, 0] = M  # the boundary point M e_1
        z = np.vstack([probe, z[np.linalg.norm(z, axis=1) <= M]])  # a rescaled row may round out of the ball
        s = 2.0**log2_s
        out = carry(s, j, z)
        rho = CHAIN_ROUNDING * M
        assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(z, axis=1) + j * rho)
        assert np.all(np.linalg.norm(out, axis=1) <= M + j * rho)
        if j:
            assert np.all(np.linalg.norm(out - z, axis=1) < j * identity_step(s, M))

    @pytest.mark.parametrize("log2_s", [-1, -2])
    def test_subnormal_round_up_stays_within_the_allowance(self, log2_s):
        # s * 1.5e-323 rounds up to a whole ulp, and 1 / s scales it to 2e-323.
        z = np.array([[1.5e-323], [-1.5e-323]])
        out = carry(2.0**log2_s, 1, z)
        assert np.all(np.abs(out) > np.abs(z))
        assert np.all(np.abs(out) <= np.abs(z) + CHAIN_ROUNDING)


def wired_from_nets(static, chain):
    """The system the per-block products wire from K identity nets: the
    reference for assemble_esn, which writes the same blocks down directly."""
    K = len(chain)
    blocks = lag_blocks(static, K)
    structure = BlockStructure(widths=(*(net.width for net in chain), static.width))
    off, N, d = structure.offsets(), structure.total, blocks[0].shape[1]
    carriers = tuple(chain[r].hidden_matrix @ chain[r - 1].readout for r in range(1, K))
    collector = np.empty((static.width, off[K]))
    for j in range(1, K + 1):
        collector[:, off[j - 1] : off[j]] = blocks[j] @ chain[j - 1].readout
    C = np.zeros((N, d))
    if K:
        C[: off[1]] = chain[0].hidden_matrix
    C[off[K] :] = blocks[0]
    zeta = np.concatenate([*(net.hidden_bias for net in chain), static.hidden_bias])
    W = np.zeros((static.out_dim, N))
    W[:, off[K] :] = static.readout
    return ESNParams(carriers=carriers, collector=collector, C=C, zeta=zeta, W=W, structure=structure)


class TestAssemble:
    def test_degenerate_static_system(self):
        static = random_static(K=0, d=2, collector_width=5, seed=16)
        esn = assemble_esn(static, 0, None)
        assert esn.state_dim == 5
        assert np.all(esn.A == 0.0)
        assert np.array_equal(esn.C, static.hidden_matrix)
        assert np.array_equal(esn.zeta, static.hidden_bias)
        assert np.array_equal(esn.W, static.readout)
        assert esn.structure.widths == (5,)

    def test_block_pattern_by_entry_enumeration(self):
        static = random_static(K=2, d=1, collector_width=5, seed=17)
        lag = lag_blocks(static, 2)
        s = 2.0**-3
        esn = assemble_esn(static, 2, s)
        assert esn.structure.widths == (1, 1, 5)
        assert esn.state_dim == 7
        off = [0, 1, 2, 7]
        expected = {(1, 0): np.eye(1), (2, 0): lag[1] / s, (2, 1): lag[2] / s}
        for r in range(3):
            for c in range(3):
                block = esn.A[off[r] : off[r + 1], off[c] : off[c + 1]]
                if (r, c) in expected:
                    assert np.array_equal(block, expected[(r, c)])
                else:
                    assert np.all(block == 0.0)
        # input matrix feeds first carrier and collector only
        assert np.array_equal(esn.C[0:1], s * np.eye(1))
        assert np.all(esn.C[1:2] == 0.0)
        assert np.array_equal(esn.C[2:7], lag[0])
        # the carriers have no bias
        assert np.all(esn.zeta[0:2] == 0.0)
        assert np.array_equal(esn.zeta[2:7], static.hidden_bias)
        # readout sees only the collector
        assert np.all(esn.W[:, :2] == 0.0)
        assert np.array_equal(esn.W[:, 2:], static.readout)

    def test_assembled_is_nilpotent(self):
        static = random_static(K=3, d=2, collector_width=6, seed=20)
        esn = assemble_esn(static, 3, 2.0**-4)
        assert np.linalg.matrix_power(esn.A, 3).any()
        assert not np.linalg.matrix_power(esn.A, 4).any()

    def test_assembly_allocates_less_than_one_dense_matrix(self):
        # the system is held as its blocks: no N x N array is made
        static = random_static(K=3, d=2, collector_width=2000, seed=22)
        tracemalloc.start()
        try:
            esn = assemble_esn(static, 3, 2.0**-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        N = esn.state_dim
        assert N >= 2000
        assert peak < N * N * 8

    def test_rejects_wrong_chain_dims(self):
        # a horizon of 2 needs a static net of 3 lag blocks; 4 inputs do not split into 3
        static = random_static(K=1, d=2, collector_width=4, seed=21)
        with pytest.raises(ValueError, match="4 inputs does not split into 3 lag blocks"):
            assemble_esn(static, 2, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        K=st.integers(0, 5), d=st.integers(1, 3), width=st.integers(1, 8), m=st.integers(1, 2),
        log2_s=st.integers(-30, 4), seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_wiring_of_k_identity_nets(self, K, d, width, m, log2_s, seed):
        # For a power-of-two s, (s I)(I / s) is exactly I and b @ (I / s) exactly b / s.
        static = random_net(width, (K + 1) * d, m, seed)
        s = 2.0**log2_s if K else None
        got = assemble_esn(static, K, s)
        want = wired_from_nets(static, [identity_net(d, s)] * K if K else [])
        assert got.structure == want.structure and len(got.carriers) == len(want.carriers)
        names = ("collector", "C", "zeta", "W")
        pairs = [*zip(got.carriers, want.carriers), *((getattr(got, n), getattr(want, n)) for n in names)]
        for a, b in pairs:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def per_lag_reference(static, s, arr):
    """tanh(bias + sum_j phi^j(z_{-j}) @ block_j.T), phi the identity net of
    scale s applied by its forward: the collector state at time 0 with one
    product per lag, as the construction argues it."""
    T, d = arr.shape[1], arr.shape[2]
    K = static.in_dim // d - 1
    acc = np.tile(static.hidden_bias, (arr.shape[0], 1))
    for j, block in enumerate(lag_blocks(static, K)):
        acc += forwards(identity_net(d, s) if K else None, j, arr[:, T - 1 - j, :]) @ block.T
    return np.tanh(acc)


class TestClosedForm:
    def test_degenerate_formula(self):
        static = random_static(K=0, d=1, collector_width=4, seed=23)
        arr = np.array([[[0.4]]])
        want = np.tanh(static.hidden_matrix @ np.array([0.4]) + static.hidden_bias)
        np.testing.assert_allclose(closed_form_state(static, None, arr)[0], want, atol=1e-15)

    def test_matches_recursion_within_tolerance(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            K = int(rng.integers(0, 5))
            d = int(rng.integers(1, 3))
            static = random_static(K=K, d=d, collector_width=int(rng.integers(2, 7)), seed=100 + trial)
            s = 2.0 ** int(rng.integers(-10, 3)) if K else None
            esn = assemble_esn(static, K, s)
            T = K + 2
            arr = sample_window_array(d, 1.0, T, 50, seed=300 + trial)
            states = esn.run_batch(arr)
            collector = states[:, esn.state_dim - static.width :]
            direct = closed_form_state(static, s, arr)
            gap = np.max(np.linalg.norm(collector - direct, axis=1))
            assert gap <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(0, 4), d=st.integers(1, 3), width=st.integers(1, 70), log2_s=st.integers(-30, 4),
        B=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
    )
    # A static net as wide as a build's, on more windows than one budget block.
    @example(K=3, d=1, width=1025, log2_s=-4, B=2049, seed=1)
    @example(K=3, d=2, width=1025, log2_s=-4, B=2049, seed=2)
    @example(K=3, d=3, width=1025, log2_s=-4, B=2049, seed=3)
    def test_matches_per_lag_reference_sum(self, K, d, width, log2_s, B, seed):
        static = random_static(K=K, d=d, collector_width=width, seed=seed)
        s = 2.0**log2_s if K else None
        arr = sample_window_array(d, 1.0, K + 2, B, seed=seed)
        np.testing.assert_allclose(closed_form_state(static, s, arr), per_lag_reference(static, s, arr),
                                   rtol=0, atol=1e-12)

    def test_chained_functional_is_readout_of_state(self):
        # the budget's chain and total terms read the system through its
        # closed-form collector state and the static readout
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        static = random_static(K=2, d=1, collector_width=5, seed=25)
        s = 2.0**-2
        arr = sample_window_array(1, 1.0, 4, 10, seed=28)
        chained = closed_form_state(static, s, arr) @ static.readout.T
        errors = budget_errors(f, static, s, arr)
        assert np.array_equal(errors[1], np.linalg.norm(direct_functional(static, arr) - chained, axis=1))
        assert np.array_equal(errors[2], np.linalg.norm(f.evaluate_batch(arr) - chained, axis=1))

    def test_window_too_short(self):
        static = random_static(K=3, d=1, collector_width=4, seed=29)
        with pytest.raises(ValueError, match="too short"):
            closed_form_state(static, 0.5, sample_window_array(1, 1.0, 2, 3, seed=31))


class TestDirectFunctional:
    def test_equals_net_forward_on_stacked_lags(self):
        static = random_static(K=2, d=2, collector_width=5, seed=32)
        arr = sample_window_array(2, 1.0, 6, 10, seed=33)
        stacked = arr[:, 3:, :].reshape(10, 6)
        assert np.array_equal(direct_functional(static, arr), static.forward(stacked))

    def test_zero_ingredients_give_zero(self):
        net = ShallowNet(
            hidden_matrix=np.zeros((3, 2)), hidden_bias=np.zeros(3),
            readout=np.zeros((1, 3)),
        )
        arr = sample_window_array(1, 1.0, 3, 5, seed=36)
        assert np.all(direct_functional(net, arr) == 0.0)

    def test_lipschitz_estimate_per_sample(self):
        # the drift each lag suffers through the chain, weighted by block norms
        # and the readout norm, bounds the output discrepancy pointwise
        static = random_static(K=3, d=1, collector_width=6, seed=37, scale=0.7)
        s = chain_scale(5.0, 1.0, 0.1)
        arr = sample_window_array(1, 1.0, 6, 500, seed=39)
        K, T = 3, 6
        w_norm = operator_norm(static.readout)
        block_norms = [operator_norm(block) for block in lag_blocks(static, K)]
        chained = closed_form_state(static, s, arr) @ static.readout.T
        lhs = np.linalg.norm(direct_functional(static, arr) - chained, axis=1)
        rhs = np.zeros(arr.shape[0])
        for j in range(K + 1):
            z_j = arr[:, T - 1 - j, :]
            drift = np.linalg.norm(carry(s, j, z_j) - z_j, axis=1)
            rhs += block_norms[j] * drift
        rhs *= w_norm  # tanh is 1-Lipschitz
        assert np.all(lhs <= rhs + 1e-12)


class TestPipeline:
    def test_demo_target_end_to_end(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        res = construct_universal_esn(f, small_cfg(eps=0.3, seed=99))
        assert res.horizon == 4
        b = res.budget
        assert b.truncation_analytic == pytest.approx(0.0625)
        assert b.truncation_analytic < 0.1
        assert b.net_fit_sampled < 0.1
        assert b.chain_witness < b.chain_analytic < 0.1
        assert b.total_sampled < 0.3
        assert b.total_sampled <= b.truncation_analytic + b.net_fit_sampled + b.chain_witness
        assert not np.linalg.matrix_power(res.esn.A, 5).any()
        assert res.closed_form_check_max <= 1e-10

    def test_memoryless_fir_degenerates_cleanly(self):
        f = FIRFilter(in_dim=1, out_dim=1, input_bound=1.0, coeffs=(np.array([[0.8]]),))
        res = construct_universal_esn(f, small_cfg(eps=0.2, seed=7))
        assert res.horizon == 0
        assert res.budget.truncation_analytic == 0.0
        assert res.chain_scale is None
        assert res.budget.chain_analytic == res.budget.chain_witness == 0.0
        assert np.all(res.esn.A == 0.0)
        assert res.budget.total_sampled < 0.2

    def test_finite_memory_of_constructed_system(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        res = construct_universal_esn(f, small_cfg(eps=0.4, seed=5))
        K = res.horizon
        T = 12
        arr = sample_window_array(1, 1.0, T, 4, seed=41)[3:]
        modified = arr.copy()
        modified[:, : T - (K + 1)] = 1.0
        assert np.array_equal(res.esn.functional_batch(arr), res.esn.functional_batch(modified))

    def test_impossible_static_tolerance_tags_stage(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        cfg = small_cfg(
            eps=1e-9,
            static_policy=WidthPolicy(max_width=32, train_samples=64, val_samples=64),
        )
        with pytest.raises(ConstructionError) as exc_info:
            construct_universal_esn(f, cfg)
        assert exc_info.value.stage == "fit_static_net"

    def test_horizon_cap_tags_stage(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.999)
        with pytest.raises(ConstructionError) as exc_info:
            construct_universal_esn(f, small_cfg(eps=1e-200))
        assert exc_info.value.stage == "choose_horizon"

    def test_budget_error_carries_term(self):
        err = BudgetError("total", value=0.5, limit=0.3)
        assert err.stage == "budget"
        assert err.term == "total"

    def test_multivariate_target(self):
        f = ExpFadingFilter(
            in_dim=2, out_dim=2, input_bound=1.0,
            matrix=np.array([[0.8, 0.1], [0.0, -0.5]]), decay=0.4,
        )
        res = construct_universal_esn(f, small_cfg(eps=0.5, seed=301))
        assert res.budget.total_sampled < 0.5
        assert res.esn.in_dim == 2
        assert res.esn.out_dim == 2

    def test_second_order_target(self):
        from uniesn.filters import QuadTerm, Volterra2Filter

        f = Volterra2Filter(
            in_dim=1, out_dim=1, input_bound=1.0,
            coeffs=(np.array([[1.0]]), np.array([[-0.4]])),
            quad=(QuadTerm(j=0, k=1, b=np.array([0.5])), QuadTerm(j=2, k=2, b=np.array([-0.3]))),
        )
        res = construct_universal_esn(f, small_cfg(eps=0.5, seed=302))
        assert res.horizon == 2  # lag-2 quadratic term fixes the memory
        assert res.budget.truncation_analytic == 0.0
        assert res.budget.total_sampled < 0.5

    def test_deterministic_given_seed(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        r1 = construct_universal_esn(f, small_cfg(eps=0.4, seed=11))
        r2 = construct_universal_esn(f, small_cfg(eps=0.4, seed=11))
        assert np.array_equal(r1.esn.A, r2.esn.A)
        assert np.array_equal(r1.esn.C, r2.esn.C)
        assert r1.budget == r2.budget


# The benchmark's second-order system: d=2, a static net of width 1025 at eps=0.5.
VOLTERRA2 = {
    "kind": "volterra2",
    "coeffs": [[[0.6, 0.3]], [[-0.3, 0.2]], [[0.15, -0.1]], [[0.1, 0.05]]],
    "quad": [{"j": 0, "k": 1, "b": [0.3]}, {"j": 1, "k": 3, "b": [-0.2]}],
    "d": 2, "m": 1, "M": 1.0,
}
EXP_FADING = {"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0}


class TestBudgetBlocks:
    @given(n=st.integers(1, 100_000))
    def test_blocks_partition_range(self, n):
        blocks = _window_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(0 < s.stop - s.start <= BUDGET_BLOCK for s in blocks)

    @pytest.mark.parametrize("spec, eps, seed", [(EXP_FADING, 0.3, 99), (VOLTERRA2, 0.5, 7)])
    def test_blocked_errors_match_one_batch(self, spec, eps, seed):
        # 4100 and 2049 windows end in a short block, evaluated on its own.
        f = filter_from_json(spec)
        cfg = small_cfg(eps=eps, seed=seed, budget_windows=4100)
        res = construct_universal_esn(f, cfg)
        static, s, K = res.static_net, res.chain_scale, res.horizon
        T = max(construct.WINDOW_LEN, K + 1)
        arr = sample_window_array(f.in_dim, f.input_bound, T, cfg.budget_windows, _derived_seed(seed, 4))
        for n in (4100, 2049):
            net_vals = direct_functional(static, arr[:n])
            chained_vals = closed_form_state(static, s, arr[:n]) @ static.readout.T
            want = np.stack([
                np.linalg.norm(f.evaluate_batch(arr[:n, T - 1 - K :]) - net_vals, axis=1),
                np.linalg.norm(net_vals - chained_vals, axis=1),
                np.linalg.norm(f.evaluate_batch(arr[:n]) - chained_vals, axis=1),
            ])
            np.testing.assert_allclose(budget_errors(f, static, s, arr[:n]), want, rtol=0, atol=1e-12)
            if n == cfg.budget_windows:
                b = res.budget
                np.testing.assert_allclose((b.net_fit_sampled, b.chain_witness, b.total_sampled),
                                           np.max(want, axis=1), rtol=0, atol=1e-12)

    def test_peak_memory_does_not_grow_with_budget_windows(self, monkeypatch):
        # K+1-entry windows, and a static net of width 256 (+1 constant unit).
        monkeypatch.setattr(construct, "WINDOW_LEN", 1)
        monkeypatch.setattr(shallow, "START_WIDTH", 256)
        f = filter_from_json(EXP_FADING)
        peaks, widths = [], set()
        for n in (4096, 16384):
            cfg = small_cfg(
                eps=0.5, seed=3, budget_windows=n, chain_samples=500,
                static_policy=WidthPolicy(max_width=256, train_samples=1000, val_samples=1000),
                identity_policy=WidthPolicy(max_width=1024, train_samples=500, val_samples=1000),
            )
            tracemalloc.start()
            try:
                widths.add(construct_universal_esn(f, cfg).static_net.width)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        (width,) = widths
        # Less than one (block, width) float64 array; one batch held several
        # (budget_windows, width) ones.
        assert peaks[1] - peaks[0] < BUDGET_BLOCK * width * 8, peaks


class TestConfigSchema:
    def test_policy_dicts_and_parsed_values(self):
        policy = {"max_width": 64, "train_samples": 100, "val_samples": 200}
        cfg = ConstructionConfig(eps="0.3", seed="7", static_policy=policy, chain_samples=5.0)
        assert cfg == ConstructionConfig(eps=0.3, seed=7, static_policy=WidthPolicy(**policy), chain_samples=5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"eps": 0.0}, {"eps": float("inf")}, {"eps": float("nan")},
            {"chain_samples": 0}, {"budget_windows": 0}, {"static_policy": {"max_width": 31}},
            {"closed_form_check_windows": 0}, {"identity_policy": {"max_width": 0}}, {"seed": -1},
            # Integer fields take no booleans or fractions, real fields no booleans.
            {"seed": 1.9}, {"seed": True}, {"budget_windows": True}, {"chain_samples": 2.5},
            {"budget_windows": float("inf")}, {"closed_form_check_windows": 30.5},
            {"static_policy": {"max_width": 32.5}}, {"identity_policy": {"val_samples": True}},
            {"eps": True}, {"chain_samples": True},
        ],
    )
    def test_out_of_range_is_value_error(self, bad):
        with pytest.raises(ValueError):
            ConstructionConfig(**{"eps": 0.3, **bad})

    @pytest.mark.parametrize(
        "bad",
        [
            {"budget_windws": 5}, {"static_policy": {"start_widht": 8}},
            # Settings that are constants now, each at its former default.
            {"margin": 0.8}, {"static_policy": {"ridge": 1e-10}}, {"identity_policy": {"ridge": 1e-10}},
            {"static_policy": {"scale": None}}, {"identity_policy": {"scale": None}},
            {"static_policy": {"start_width": 32}}, {"identity_policy": {"start_width": 32}},
            {"budget_window_len": 30},
        ],
    )
    def test_unknown_key_is_type_error(self, bad):
        with pytest.raises(TypeError):
            ConstructionConfig(eps=0.3, **bad)


TERMS = ["truncation", "net_fit", "chain", "chain_witness", "total"]


def straddling(draw, limit):
    """A value at, below or above ``limit``."""
    return draw(st.one_of(st.just(limit), st.floats(min_value=0.0, max_value=2.0).map(lambda r: r * limit)))


@st.composite
def budgets(draw):
    """Budgets whose values straddle their limits, equality and a zero chain included."""
    eps = draw(st.floats(min_value=1e-6, max_value=1e3))
    truncation, net_fit = straddling(draw, eps / 3.0), straddling(draw, eps / 3.0)
    chain = draw(st.one_of(st.just(0.0), st.just(eps / 3.0), st.floats(0.0, 2.0).map(lambda r: r * eps / 3.0)))
    witness = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0).map(lambda r: r * chain)))
    return ErrorBudget(eps, truncation, net_fit, chain, witness, straddling(draw, eps))


class TestBudgetPolicy:
    @given(budget=budgets())
    def test_rows_carry_honest_labels_and_limits(self, budget):
        rows = budget.rows()
        assert [row[0] for row in rows] == TERMS
        assert [row[1] for row in rows] == [
            budget.truncation_analytic, budget.net_fit_sampled, budget.chain_analytic, budget.chain_witness,
            budget.total_sampled,
        ]
        assert [row[3] for row in rows] == [budget.eps / 3.0] * 3 + [budget.chain_analytic, budget.eps]
        status = {term: s for term, _, s, _ in rows}
        for term in TERMS:
            assert status[term] == ("analytic_upper_bound" if term in ("truncation", "chain") else "sampled_sup")

    @given(budget=budgets(), labels=st.lists(st.sampled_from(STATUS_STRENGTH), min_size=5, max_size=5))
    def test_verdict_is_never_stronger_than_its_weakest_term(self, budget, labels):
        strength = STATUS_STRENGTH.index
        statuses = [status for _, _, status, _ in budget.rows()]
        assert budget.verdict_status() == "sampled_sup"
        assert all(strength(budget.verdict_status()) <= strength(s) for s in statuses)

        class Relabelled(ErrorBudget):
            def rows(self):
                return [(term, value, label, limit) for (term, value, _, limit), label in zip(super().rows(), labels)]

        verdict = Relabelled(*dataclasses.astuple(budget)).verdict_status()
        assert verdict in labels
        assert all(strength(verdict) <= strength(label) for label in labels)

    @given(budget=budgets())
    def test_check_names_the_first_term_at_or_above_its_limit(self, budget):
        # A zero limit, a proven chain with no nets, is met by a zero value.
        over = [
            (term, value, limit)
            for term, value, _, limit in budget.rows()
            if value > limit or value == limit and limit != 0.0
        ]
        if not over:
            budget.check()
            return
        with pytest.raises(BudgetError) as exc_info:
            budget.check()
        assert (exc_info.value.term, exc_info.value.value, exc_info.value.limit) == over[0]


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo_expfading.json"


@pytest.mark.parametrize("spec, eps", [(None, 0.1), (VOLTERRA2, 0.3)], ids=["demo_eps_0.1", "volterra2_eps_0.3"])
def test_every_carrier_block_is_exactly_the_identity(spec, eps):
    # The shipped config's construction section; spec None is its own filter.
    raw = json.loads(DEMO_CONFIG.read_text())
    f = filter_from_json(spec or raw["filter"])
    res = construct_universal_esn(f, ConstructionConfig(**{**raw["construction"], "eps": eps}))
    d, K, s = f.in_dim, res.horizon, res.chain_scale
    assert K >= 2 and math.frexp(s)[0] == 0.5
    assert res.esn.structure.widths[:-1] == (d,) * K
    for block in res.esn.carriers:
        assert np.array_equal(block, np.eye(d))
    assert np.array_equal(res.esn.C[:d], s * np.eye(d))
    assert res.budget.chain_analytic == res.gain * identity_step(s, f.input_bound) < eps / 3
    assert res.budget.chain_witness < res.budget.chain_analytic
