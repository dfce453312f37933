import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniesn.construct import (
    BUDGET_BLOCK,
    _derived_seed,
    _window_blocks,
    BudgetError,
    ChainBoundError,
    ConstructionConfig,
    ConstructionError,
    ErrorBudget,
    STATUS_STRENGTH,
    LagBlockNet,
    assemble_esn,
    budget_errors,
    build_identity_chain,
    closed_form_state,
    compose_chain,
    construct_universal_esn,
    direct_functional,
    identity_chain_radii,
    identity_error_gain,
    split_lag_blocks,
    verify_chain_bound,
)
from uniesn.esn import check_finite_memory, check_nilpotent
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


def random_split(K, d, collector_width, seed, scale=1.0):
    net = random_net(collector_width, (K + 1) * d, 1, seed, scale)
    return split_lag_blocks(net, d)


def small_cfg(eps, seed=0, **overrides):
    kwargs = dict(
        eps=eps,
        seed=seed,
        static_policy=WidthPolicy(start_width=32, max_width=4096, train_samples=2000, val_samples=2000),
        identity_policy=WidthPolicy(start_width=32, max_width=1024, train_samples=1000, val_samples=2000),
        chain_samples=1500,
        budget_windows=1500,
        budget_window_len=20,
        closed_form_check_windows=40,
    )
    kwargs.update(overrides)
    return ConstructionConfig(**kwargs)


class TestSplitAndGain:
    def test_blocks_reassemble_bitwise(self):
        split = random_split(K=3, d=2, collector_width=7, seed=1)
        stacked = np.hstack(split.column_blocks)
        assert np.array_equal(stacked, split.net.hidden_matrix)

    def test_lag_block_indexing(self):
        split = random_split(K=2, d=1, collector_width=4, seed=2)
        # stacked input layout is (z_{-K}; ...; z_0): lag 0 is the last block
        assert np.array_equal(split.lag_block(0), split.column_blocks[-1])
        assert np.array_equal(split.lag_block(2), split.column_blocks[0])

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
        with pytest.raises(ValueError):
            split_lag_blocks(net, 2)


class TestIdentityChain:
    def test_no_horizon_means_no_nets(self):
        assert identity_chain_radii(1.0, 0, 0.3, 0.0) == []
        pol = WidthPolicy(start_width=8, max_width=8, train_samples=32, val_samples=32)
        assert build_identity_chain(1, 1.0, 0, 0.3, 0.0, pol, seed=0) == []

    def test_radii_formula(self):
        eps, gain = 0.3, 2.0
        radii = identity_chain_radii(1.0, 2, eps, gain)
        step = eps / (3 * gain)
        assert radii == [1.0, 1.0 + step]

    def test_gain_must_be_positive_with_horizon(self):
        with pytest.raises(ValueError):
            identity_chain_radii(1.0, 2, 0.3, 0.0)

    def test_each_net_meets_its_tolerance_on_fresh_samples(self):
        eps, gain, M, K = 0.3, 5.0, 1.0, 3
        pol = WidthPolicy(start_width=32, max_width=512, train_samples=1000, val_samples=2000)
        chain = build_identity_chain(1, M, K, eps, gain, pol, seed=6)
        tol = eps / (3 * gain)
        radii = identity_chain_radii(M, K, eps, gain)
        for net, radius in zip(chain, radii):
            fresh = sample_product_ball(1, radius, 1, 4000, seed=999)
            err = np.max(np.abs(net.forward(fresh) - fresh))
            assert err <= tol

    def test_fit_failure_annotated_with_position(self):
        pol = WidthPolicy(start_width=2, max_width=2, train_samples=64, val_samples=64)
        with pytest.raises(ConstructionError, match="identity net 1"):
            build_identity_chain(1, 1.0, 2, 1e-9, 1.0, pol, seed=7)


class TestComposeChain:
    def test_depth_zero_is_identity(self):
        chain = [random_net(4, 1, 1, seed=8)]
        z = np.array([[0.3], [0.7]])
        assert np.array_equal(compose_chain(chain, 0, z), z)

    def test_depth_one_is_first_net(self):
        chain = [random_net(4, 1, 1, seed=9)]
        z = np.array([[0.3]])
        assert np.array_equal(compose_chain(chain, 1, z), chain[0].forward(z))

    def test_composition_order(self):
        chain = [random_net(4, 1, 1, seed=10), random_net(4, 1, 1, seed=11)]
        z = np.array([[0.5]])
        want = chain[1].forward(chain[0].forward(z))
        assert np.array_equal(compose_chain(chain, 2, z), want)


class TestVerifyChainBound:
    def _fitted_chain(self, eps, gain, M=1.0, K=3, seed=12):
        pol = WidthPolicy(start_width=32, max_width=512, train_samples=1000, val_samples=2000)
        return build_identity_chain(1, M, K, eps, gain, pol, seed=seed)

    def test_bounds_hold_for_fitted_chain(self):
        eps, gain = 0.3, 5.0
        chain = self._fitted_chain(eps, gain)
        records = verify_chain_bound(chain, 1.0, eps, gain, n_samples=3000, seed=13)
        step = eps / (3 * gain)
        assert len(records) == 3
        for j, rec in enumerate(records, start=1):
            assert rec["sup_error"] < j * step
            assert rec["sup_norm"] <= 1.0 + j * step

    def test_empty_chain(self):
        assert verify_chain_bound([], 1.0, 0.3, 0.0, 100, seed=0) == []

    def test_violation_reports_depth_and_witness(self):
        # a net that shifts everything by a constant violates the drift bound
        bad = ShallowNet(
            hidden_matrix=np.zeros((1, 1)), hidden_bias=np.array([1.0]),
            readout=np.array([[10.0]]),
        )
        with pytest.raises(ChainBoundError) as exc_info:
            verify_chain_bound([bad], 1.0, 0.3, 1.0, n_samples=50, seed=14)
        assert exc_info.value.j == 1
        assert exc_info.value.witness.shape == (1,)


class TestAssemble:
    def _chain_for(self, split, seed=15):
        rng = np.random.default_rng(seed)
        d = split.lag_dim
        nets = []
        for j in range(split.horizon):
            width = int(rng.integers(2, 6))
            nets.append(random_net(width, d, d, seed=seed + j + 1))
        return nets

    def test_degenerate_static_system(self):
        split = random_split(K=0, d=2, collector_width=5, seed=16)
        esn = assemble_esn(split, [])
        assert esn.state_dim == 5
        assert np.all(esn.A == 0.0)
        assert np.array_equal(esn.C, split.lag_block(0))
        assert np.array_equal(esn.zeta, split.bias)
        assert np.array_equal(esn.W, split.readout)
        assert esn.structure.widths == (5,)

    def test_block_pattern_by_entry_enumeration(self):
        split = random_split(K=2, d=1, collector_width=5, seed=17)
        chain = [random_net(3, 1, 1, seed=18), random_net(4, 1, 1, seed=19)]
        esn = assemble_esn(split, chain)
        widths = (3, 4, 5)
        assert esn.structure.widths == widths
        assert esn.state_dim == 12
        off = [0, 3, 7, 12]
        expected = {
            (1, 0): chain[1].hidden_matrix @ chain[0].readout,
            (2, 0): split.lag_block(1) @ chain[0].readout,
            (2, 1): split.lag_block(2) @ chain[1].readout,
        }
        for r in range(3):
            for c in range(3):
                block = esn.A[off[r] : off[r + 1], off[c] : off[c + 1]]
                if (r, c) in expected:
                    assert np.array_equal(block, expected[(r, c)])
                else:
                    assert np.all(block == 0.0)
        # input matrix feeds first carrier and collector only
        assert np.array_equal(esn.C[0:3], chain[0].hidden_matrix)
        assert np.all(esn.C[3:7] == 0.0)
        assert np.array_equal(esn.C[7:12], split.lag_block(0))
        # bias stacking
        assert np.array_equal(esn.zeta[0:3], chain[0].hidden_bias)
        assert np.array_equal(esn.zeta[3:7], chain[1].hidden_bias)
        assert np.array_equal(esn.zeta[7:12], split.bias)
        # readout sees only the collector
        assert np.all(esn.W[:, :7] == 0.0)
        assert np.array_equal(esn.W[:, 7:], split.readout)

    def test_assembled_is_nilpotent(self):
        split = random_split(K=3, d=2, collector_width=6, seed=20)
        chain = self._chain_for(split)
        esn = assemble_esn(split, chain)
        assert check_nilpotent(esn) == (True, 4)

    def test_assembly_allocates_less_than_one_dense_matrix(self):
        # the system is held as its blocks: no N x N array is made
        split = random_split(K=3, d=2, collector_width=1900, seed=22)
        chain = [random_net(50, 2, 2, seed=23 + j) for j in range(3)]
        tracemalloc.start()
        try:
            esn = assemble_esn(split, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        N = esn.state_dim
        assert N >= 2000
        assert peak < N * N * 8

    def test_rejects_wrong_chain_dims(self):
        split = random_split(K=1, d=2, collector_width=4, seed=21)
        with pytest.raises(ValueError):
            assemble_esn(split, [random_net(3, 1, 1, seed=22)])


def per_lag_reference(split, chain, arr):
    """tanh(bias + sum_j chain_j(z_{-j}) @ lag_block(j).T): the collector
    state at time 0 with one product per lag, as the construction argues it."""
    T = arr.shape[1]
    acc = np.tile(split.bias, (arr.shape[0], 1))
    for j in range(split.horizon + 1):
        acc += compose_chain(chain, j, arr[:, T - 1 - j, :]) @ split.lag_block(j).T
    return np.tanh(acc)


class TestClosedForm:
    def test_degenerate_formula(self):
        split = random_split(K=0, d=1, collector_width=4, seed=23)
        arr = np.array([[[0.4]]])
        want = np.tanh(split.lag_block(0) @ np.array([0.4]) + split.bias)
        np.testing.assert_allclose(closed_form_state(split, [], arr)[0], want, atol=1e-15)

    def test_matches_recursion_within_tolerance(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            K = int(rng.integers(0, 5))
            d = int(rng.integers(1, 3))
            split = random_split(K=K, d=d, collector_width=int(rng.integers(2, 7)), seed=100 + trial)
            chain = [
                random_net(int(rng.integers(2, 6)), d, d, seed=200 + 10 * trial + j)
                for j in range(K)
            ]
            esn = assemble_esn(split, chain)
            T = K + 2
            arr = sample_window_array(d, 1.0, T, 50, seed=300 + trial)
            states = esn.run_batch(arr)
            collector = states[:, esn.state_dim - split.net.width :]
            direct = closed_form_state(split, chain, arr)
            gap = np.max(np.linalg.norm(collector - direct, axis=1))
            assert gap <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(0, 4), d=st.integers(1, 3), widths=st.lists(st.integers(1, 70), min_size=5, max_size=5),
        B=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
    )
    # A static net as wide as a build's, on more windows than one budget block.
    @example(K=3, d=1, widths=[65] * 4 + [1025], B=2049, seed=1)
    @example(K=3, d=2, widths=[65] * 4 + [1025], B=2049, seed=2)
    @example(K=3, d=3, widths=[65] * 4 + [1025], B=2049, seed=3)
    def test_matches_per_lag_reference_sum(self, K, d, widths, B, seed):
        split = random_split(K=K, d=d, collector_width=widths[-1], seed=seed)
        chain = [random_net(widths[j], d, d, seed=seed + 1 + j) for j in range(K)]
        arr = sample_window_array(d, 1.0, K + 2, B, seed=seed)
        np.testing.assert_allclose(closed_form_state(split, chain, arr), per_lag_reference(split, chain, arr),
                                   rtol=0, atol=1e-12)

    def test_chained_functional_is_readout_of_state(self):
        # the budget's chain and total terms read the system through its
        # closed-form collector state and the static readout
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        split = random_split(K=2, d=1, collector_width=5, seed=25)
        chain = [random_net(3, 1, 1, seed=26), random_net(3, 1, 1, seed=27)]
        arr = sample_window_array(1, 1.0, 4, 10, seed=28)
        chained = closed_form_state(split, chain, arr) @ split.readout.T
        errors = budget_errors(f, split, chain, arr)
        assert np.array_equal(errors[1], np.linalg.norm(direct_functional(split, arr) - chained, axis=1))
        assert np.array_equal(errors[2], np.linalg.norm(f.evaluate_batch(arr) - chained, axis=1))

    def test_window_too_short(self):
        split = random_split(K=3, d=1, collector_width=4, seed=29)
        chain = [random_net(2, 1, 1, seed=30 + j) for j in range(3)]
        with pytest.raises(ValueError, match="too short"):
            closed_form_state(split, chain, sample_window_array(1, 1.0, 2, 3, seed=31))


class TestDirectFunctional:
    def test_equals_net_forward_on_stacked_lags(self):
        split = random_split(K=2, d=2, collector_width=5, seed=32)
        arr = sample_window_array(2, 1.0, 6, 10, seed=33)
        stacked = arr[:, 3:, :].reshape(10, 6)
        assert np.array_equal(direct_functional(split, arr), split.net.forward(stacked))

    def test_zero_ingredients_give_zero(self):
        net = ShallowNet(
            hidden_matrix=np.zeros((3, 2)), hidden_bias=np.zeros(3),
            readout=np.zeros((1, 3)),
        )
        split = split_lag_blocks(net, 1)
        arr = sample_window_array(1, 1.0, 3, 5, seed=36)
        assert np.all(direct_functional(split, arr) == 0.0)

    def test_lipschitz_estimate_per_sample(self):
        # the drift each lag suffers through the chain, weighted by block norms
        # and the readout norm, bounds the output discrepancy pointwise
        split = random_split(K=3, d=1, collector_width=6, seed=37, scale=0.7)
        pol = WidthPolicy(start_width=32, max_width=512, train_samples=800, val_samples=1600)
        eps, gain = 0.3, 5.0
        chain = build_identity_chain(1, 1.0, 3, eps, gain, pol, seed=38)
        arr = sample_window_array(1, 1.0, 6, 500, seed=39)
        K, T = 3, 6
        w_norm = operator_norm(split.readout)
        block_norms = [operator_norm(split.lag_block(j)) for j in range(K + 1)]
        chained = closed_form_state(split, chain, arr) @ split.readout.T
        lhs = np.linalg.norm(direct_functional(split, arr) - chained, axis=1)
        rhs = np.zeros(arr.shape[0])
        for j in range(K + 1):
            z_j = arr[:, T - 1 - j, :]
            drift = np.linalg.norm(compose_chain(chain, j, z_j) - z_j, axis=1)
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
        assert b.chain_sampled < 0.1
        assert b.total_sampled < 0.3
        assert b.total_sampled <= b.truncation_analytic + b.net_fit_sampled + b.chain_sampled
        assert check_nilpotent(res.esn) == (True, 5)
        assert res.closed_form_check_max <= 1e-10

    def test_memoryless_fir_degenerates_cleanly(self):
        f = FIRFilter(in_dim=1, out_dim=1, input_bound=1.0, coeffs=(np.array([[0.8]]),))
        res = construct_universal_esn(f, small_cfg(eps=0.2, seed=7))
        assert res.horizon == 0
        assert res.chain == []
        assert res.budget.truncation_analytic == 0.0
        assert res.budget.chain_sampled == 0.0
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
        assert check_finite_memory(res.esn, arr, modified)

    def test_impossible_static_tolerance_tags_stage(self):
        f = ExpFadingFilter(in_dim=1, out_dim=1, input_bound=1.0, matrix=np.array([[1.0]]), decay=0.5)
        cfg = small_cfg(
            eps=1e-9,
            static_policy=WidthPolicy(start_width=4, max_width=4, train_samples=64, val_samples=64),
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
        split, chain, K = res.split, res.chain, res.horizon
        T = max(cfg.budget_window_len, K + 1)
        arr = sample_window_array(f.in_dim, f.input_bound, T, cfg.budget_windows, _derived_seed(seed, 4))
        for n in (4100, 2049):
            net_vals = direct_functional(split, arr[:n])
            chained_vals = closed_form_state(split, chain, arr[:n]) @ split.readout.T
            want = np.stack([
                np.linalg.norm(f.evaluate_batch(arr[:n, T - 1 - K :]) - net_vals, axis=1),
                np.linalg.norm(net_vals - chained_vals, axis=1),
                np.linalg.norm(f.evaluate_batch(arr[:n]) - chained_vals, axis=1),
            ])
            np.testing.assert_allclose(budget_errors(f, split, chain, arr[:n]), want, rtol=0, atol=1e-12)
            if n == cfg.budget_windows:
                b = res.budget
                np.testing.assert_allclose((b.net_fit_sampled, b.chain_sampled, b.total_sampled),
                                           np.max(want, axis=1), rtol=0, atol=1e-12)

    def test_peak_memory_does_not_grow_with_budget_windows(self):
        f = filter_from_json(EXP_FADING)
        peaks, widths = [], set()
        for n in (4096, 16384):
            cfg = small_cfg(
                eps=0.5, seed=3, budget_windows=n, budget_window_len=1, chain_samples=500,
                static_policy=WidthPolicy(start_width=256, max_width=256, train_samples=1000, val_samples=1000),
                identity_policy=WidthPolicy(start_width=32, max_width=1024, train_samples=500, val_samples=1000),
            )
            tracemalloc.start()
            try:
                widths.add(construct_universal_esn(f, cfg).split.net.width)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        (width,) = widths
        # Less than one (block, width) float64 array; one batch held several
        # (budget_windows, width) ones.
        assert peaks[1] - peaks[0] < BUDGET_BLOCK * width * 8, peaks


class TestConfigSchema:
    def test_policy_dicts_and_parsed_values(self):
        policy = {"start_width": 8, "max_width": 64, "train_samples": 100, "val_samples": 200}
        cfg = ConstructionConfig(eps="0.3", seed="7", static_policy=policy, chain_samples=5.0)
        assert cfg == ConstructionConfig(eps=0.3, seed=7, static_policy=WidthPolicy(**policy), chain_samples=5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"eps": 0.0}, {"eps": float("inf")}, {"eps": float("nan")}, {"margin": 0.0}, {"margin": 1.5},
            {"chain_samples": 0}, {"budget_windows": 0}, {"budget_window_len": 0},
            {"closed_form_check_windows": 0}, {"identity_policy": {"start_width": 0}}, {"seed": -1},
            # Integer fields take no booleans or fractions, real fields no booleans.
            {"seed": 1.9}, {"seed": True}, {"budget_windows": True}, {"chain_samples": 2.5},
            {"budget_window_len": float("inf")}, {"closed_form_check_windows": 30.5},
            {"static_policy": {"start_width": 32.5}}, {"identity_policy": {"val_samples": True}},
            {"eps": True}, {"margin": True}, {"static_policy": {"ridge": False}},
            {"identity_policy": {"scale": True}},
        ],
    )
    def test_out_of_range_is_value_error(self, bad):
        with pytest.raises(ValueError):
            ConstructionConfig(**{"eps": 0.3, **bad})

    @pytest.mark.parametrize("bad", [{"budget_windws": 5}, {"static_policy": {"start_widht": 8}}])
    def test_unknown_key_is_type_error(self, bad):
        with pytest.raises(TypeError):
            ConstructionConfig(eps=0.3, **bad)


TERMS = ["truncation", "net_fit", "chain", "total"]


@st.composite
def budgets(draw):
    """Budgets whose values straddle their limits, equality included."""
    eps = draw(st.floats(min_value=1e-6, max_value=1e3))
    limits = [eps / 3.0] * 3 + [eps]
    values = [
        draw(st.one_of(st.just(limit), st.floats(min_value=0.0, max_value=2.0).map(lambda r: r * limit)))
        for limit in limits
    ]
    return ErrorBudget(eps, *values)


class TestBudgetPolicy:
    @given(budget=budgets())
    def test_rows_carry_honest_labels_and_limits(self, budget):
        rows = budget.rows()
        assert [row[0] for row in rows] == TERMS
        assert [row[1] for row in rows] == [
            budget.truncation_analytic, budget.net_fit_sampled, budget.chain_sampled, budget.total_sampled,
        ]
        assert [row[3] for row in rows] == [budget.eps / 3.0] * 3 + [budget.eps]
        status = {term: s for term, _, s, _ in rows}
        assert status["truncation"] == "analytic_upper_bound"
        for term in TERMS[1:]:
            assert status[term] == "sampled_sup"

    @given(budget=budgets(), labels=st.lists(st.sampled_from(STATUS_STRENGTH), min_size=4, max_size=4))
    def test_verdict_is_never_stronger_than_its_weakest_term(self, budget, labels):
        strength = STATUS_STRENGTH.index
        statuses = [status for _, _, status, _ in budget.rows()]
        assert budget.verdict_status() == "sampled_sup"
        assert all(strength(budget.verdict_status()) <= strength(s) for s in statuses)

        class Relabelled(ErrorBudget):
            def rows(self):
                return [(term, value, label, limit) for (term, value, _, limit), label in zip(super().rows(), labels)]

        verdict = Relabelled(budget.eps, budget.truncation_analytic, budget.net_fit_sampled,
                             budget.chain_sampled, budget.total_sampled).verdict_status()
        assert verdict in labels
        assert all(strength(verdict) <= strength(label) for label in labels)

    @given(budget=budgets())
    def test_check_names_the_first_term_at_or_above_its_limit(self, budget):
        over = [(term, value, limit) for term, value, _, limit in budget.rows() if value >= limit]
        if not over:
            budget.check()
            return
        with pytest.raises(BudgetError) as exc_info:
            budget.check()
        assert (exc_info.value.term, exc_info.value.value, exc_info.value.limit) == over[0]
