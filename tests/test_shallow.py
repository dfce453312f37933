import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniesn import cli, shallow
from uniesn.filters import filter_from_json
from uniesn.linalg import operator_norm
from uniesn.shallow import (
    FitToleranceError,
    ShallowNet,
    WidthPolicy,
    fit_random_feature,
    fit_to_tolerance,
)
from uniesn.windows import sample_product_ball


def small_net(hidden, bias, readout):
    return ShallowNet(
        hidden_matrix=np.asarray(hidden, dtype=float),
        hidden_bias=np.asarray(bias, dtype=float),
        readout=np.asarray(readout, dtype=float),
    )


class TestForward:
    def test_tanh_of_zero(self):
        net = small_net([[1.0]], [0.0], [[1.0]])
        assert np.array_equal(net.forward([[0.0]]), [[0.0]])

    def test_direct_formula(self):
        net = small_net([[1.0]], [0.0], [[2.0]])
        np.testing.assert_allclose(net.forward([[0.5]]), [[0.92423431452]], atol=1e-10)

    def test_zero_readout_annihilates(self):
        net = small_net([[1.0, 2.0]], [0.3], [[0.0], [0.0]])
        assert np.array_equal(net.forward([[5.0, -7.0]]), [[0.0, 0.0]])

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(0)
        net = small_net(rng.standard_normal((6, 3)), rng.standard_normal(6), rng.standard_normal((2, 6)))
        X = rng.standard_normal((10, 3))
        batch = net.forward(X)
        for i in range(10):
            np.testing.assert_allclose(batch[i], net.forward(X[i : i + 1])[0], atol=1e-14)

    def test_dimension_mismatch(self):
        net = small_net([[1.0]], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            net.forward([[1.0, 2.0]])
        with pytest.raises(ValueError):
            net.forward([1.0])  # a single vector is not a batch

    def test_outputs_globally_bounded(self):
        rng = np.random.default_rng(1)
        net = small_net(rng.standard_normal((8, 2)), rng.standard_normal(8), rng.standard_normal((3, 8)))
        cap = operator_norm(net.readout) * np.sqrt(net.width)  # tanh lies in [-1, 1]
        huge = rng.standard_normal((50, 2)) * 1e12
        norms = np.linalg.norm(net.forward(huge), axis=1)
        assert np.all(norms <= cap + 1e-9)


class TestFitRandomFeature:
    def test_zero_targets_give_exactly_zero_readout(self):
        X = np.linspace(-1, 1, 50).reshape(-1, 1)
        net = fit_random_feature(X, np.zeros((50, 1)), width=16, ridge=1e-8, scale=2.0, seed=1)
        assert np.all(net.readout == 0.0)

    def test_sin_fit_calibration(self):
        X = np.linspace(-1, 1, 400).reshape(-1, 1)
        Y = np.sin(X)
        net = fit_random_feature(X, Y, width=200, ridge=1e-8, scale=2.0, seed=1)
        assert np.max(np.abs(net.forward(X) - Y)) < 1e-2

    def test_duplication_invariance(self):
        X = np.linspace(-1, 1, 50).reshape(-1, 1)
        Y = np.sin(X)
        net1 = fit_random_feature(X, Y, width=64, ridge=1e-6, scale=2.0, seed=9)
        net2 = fit_random_feature(np.vstack([X, X]), np.vstack([Y, Y]), width=64, ridge=1e-6, scale=2.0, seed=9)
        np.testing.assert_allclose(net1.readout, net2.readout, atol=1e-8)

    def test_bitwise_deterministic(self):
        X = np.linspace(-1, 1, 30).reshape(-1, 1)
        Y = X**2
        a = fit_random_feature(X, Y, width=20, ridge=1e-8, scale=2.0, seed=4)
        b = fit_random_feature(X, Y, width=20, ridge=1e-8, scale=2.0, seed=4)
        assert np.array_equal(a.hidden_matrix, b.hidden_matrix)
        assert np.array_equal(a.readout, b.readout)

    def test_constant_unit_appended(self):
        X = np.zeros((5, 2))
        net = fit_random_feature(X, np.ones((5, 1)), width=8, ridge=1e-10, scale=1.0, seed=0)
        assert net.width == 9
        assert np.all(net.hidden_matrix[-1] == 0.0)
        assert net.hidden_bias[-1] == 1.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            fit_random_feature(np.zeros((0, 1)), np.zeros((0, 1)), 4, 1e-8, 1.0, 0)
        with pytest.raises(ValueError):
            fit_random_feature(np.zeros((3, 1)), np.zeros((4, 1)), 4, 1e-8, 1.0, 0)

    @pytest.mark.parametrize(
        "filter_spec, K",
        [
            ({"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0}, 5),
            (
                {
                    "kind": "volterra2", "coeffs": [[[0.6, 0.3]], [[-0.3, 0.2]], [[0.15, -0.1]], [[0.1, 0.05]]],
                    "quad": [{"j": 0, "k": 1, "b": [0.3]}, {"j": 1, "k": 3, "b": [-0.2]}], "d": 2, "m": 1, "M": 1.0,
                },
                3,
            ),
        ],
        ids=["exp_fading_d1", "volterra2_d2"],
    )
    @pytest.mark.parametrize("width", [32, 256, 600])  # 600 is above the 400 samples: the bordered system
    def test_readout_solves_the_c_ordered_gram(self, filter_spec, K, width):
        # The fit hands LAPACK the transpose of the exactly symmetric gram
        # (or bordered system); the readout must be the bits that solving
        # the C-ordered matrix itself gives.
        f = filter_from_json(filter_spec)
        n = 400
        X = sample_product_ball(f.in_dim, f.input_bound, K + 1, n, seed=width)
        Y = f.evaluate_batch(X.reshape(len(X), K + 1, f.in_dim))
        net = fit_random_feature(X, Y, width=width, ridge=1e-10, scale=0.8, seed=7)
        phi = np.tanh(X @ net.hidden_matrix.T + net.hidden_bias)
        if n >= width + 1:
            gram = phi.T @ phi / n
            gram[np.diag_indices(width)] += 1e-10
            assert gram.flags.c_contiguous
            reference = np.linalg.solve(gram, phi.T @ Y / n).T
        else:
            feats, const = phi[:, :width], phi[:, width:]
            system = np.block([[feats @ feats.T + n * 1e-10 * np.eye(n), const], [const.T, np.zeros((1, 1))]])
            assert system.flags.c_contiguous
            sol = np.linalg.solve(system, np.vstack([Y, np.zeros((1, Y.shape[1]))]))
            reference = np.vstack([feats.T @ sol[:n], sol[n:]]).T
        assert np.array_equal(net.readout, reference)

    def test_bordered_readout_matches_the_primal_residual(self):
        # Below width + 1 samples the fit solves in sample space; its training
        # residual is the primal ridge solution's, solved here in float64.
        n, width, ridge = 300, 700, 1e-8
        X = sample_product_ball(2, 1.0, 3, n, seed=11)
        Y = np.column_stack([np.sin(2 * X[:, 0]) * X[:, 3], np.cos(X[:, 5])])
        net = fit_random_feature(X, Y, width=width, ridge=ridge, scale=1.0, seed=2)
        phi = np.tanh(X @ net.hidden_matrix.T + net.hidden_bias)
        gram = phi.T @ phi / n
        gram[np.diag_indices(width)] += ridge
        primal = np.linalg.solve(gram, phi.T @ Y / n)
        np.testing.assert_allclose(net.forward(X) - Y, phi @ primal - Y, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(4, 60), extra=st.integers(-8, 8), d=st.integers(1, 3),
        ridge=st.floats(1e-5, 1e-2), level=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_readout_across_the_two_regimes(self, width, extra, d, ridge, level, seed):
        # n straddles width + 1, so the fit solves the bordered (n < width + 1)
        # or the primal system; duplication may cross from one to the other.
        n = max(1, width + 1 + extra)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        const = fit_random_feature(X, np.full((n, 1), level), width=width, ridge=ridge, scale=1.5, seed=seed)
        # The constant unit is unpenalized, so a constant target is reproduced.
        np.testing.assert_allclose(const.forward(X), level, rtol=0, atol=1e-9)
        Y = np.sin(3 * X[:, :1]) + X[:, -1:] ** 2
        once = fit_random_feature(X, Y, width=width, ridge=ridge, scale=1.5, seed=seed)
        twice = fit_random_feature(np.vstack([X, X]), np.vstack([Y, Y]), width=width, ridge=ridge, scale=1.5, seed=seed)
        np.testing.assert_allclose(twice.readout, once.readout, rtol=1e-6, atol=1e-8)

    def test_singular_bordered_system_raises(self):
        # Five equal samples and no ridge: the bordered system is singular,
        # and the fit says so the way the primal solve does.
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fit_random_feature(np.full((5, 2), 0.3), np.ones((5, 1)), width=8, ridge=0.0, scale=1.0, seed=3)

    def test_no_feature_matrix_is_held_at_the_solve(self, monkeypatch):
        n, width = 600, 511
        X = sample_product_ball(2, 1.0, 4, n, seed=3)
        Y = np.sin(X[:, :1])
        held = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            held.append(tracemalloc.get_traced_memory()[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        tracemalloc.start()
        try:
            fit_random_feature(X, Y, width=width, ridge=1e-8, scale=1.0, seed=5)
        finally:
            tracemalloc.stop()
        gram_bytes = (width + 1) ** 2 * 8
        feature_bytes = n * (width + 1) * 8
        assert len(held) == 1 and held[0] < gram_bytes + feature_bytes / 2, held

    def test_bordered_solve_holds_only_its_system(self, monkeypatch):
        # Below width + 1 samples, the features are dropped once the
        # (n+1)-square bordered system is built: the solve holds the system
        # and no features, and the fit never holds more than the two.
        n, width = 300, 1023
        X = sample_product_ball(2, 1.0, 4, n, seed=3)
        Y = np.sin(X[:, :1])
        held = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            held.append(tracemalloc.get_traced_memory()[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        tracemalloc.start()
        try:
            fit_random_feature(X, Y, width=width, ridge=1e-8, scale=1.0, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        system_bytes = (n + 1) ** 2 * 8
        feature_bytes = n * (width + 1) * 8
        slack = 256 * 1024  # the hidden layer, the samples and the right-hand side; a third of the system
        assert len(held) == 1 and held[0] < system_bytes + slack, held
        assert peak < system_bytes + feature_bytes + slack, peak

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 80), extra=st.integers(0, 100), d=st.integers(1, 4), m=st.sampled_from([1, 2]),
        ridge=st.floats(1e-12, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_bordered_readout_keeps_the_bits_of_holding_the_features(self, n, extra, d, m, ridge, seed):
        # The features are computed twice, once for the system and once for
        # the readout; the readout must be the bits of a solve that holds one
        # copy of them throughout.
        width = n + extra  # n < width + 1: the bordered system
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        Y = rng.uniform(-1.0, 1.0, size=(n, m))
        net = fit_random_feature(X, Y, width=width, ridge=ridge, scale=1.5, seed=seed)
        phi = X @ net.hidden_matrix.T
        phi += net.hidden_bias
        np.tanh(phi, out=phi)
        feats, const = phi[:, :-1], phi[:, -1]
        system = np.empty((n + 1, n + 1))
        np.matmul(feats, feats.T, out=system[:n, :n])
        system[np.diag_indices(n)] += n * ridge
        system[:n, n] = system[n, :n] = const
        system[n, n] = 0.0
        rhs = np.zeros((n + 1, m))
        rhs[:n] = Y
        sol = np.linalg.solve(system.T, rhs)
        reference = np.vstack([feats.T @ sol[:n], sol[n:]])
        assert np.array_equal(net.readout, reference.T)


class TestFitToTolerance:
    def test_constant_target_exact_at_minimal_width(self):
        pol = WidthPolicy(start_width=32, max_width=64, train_samples=256, val_samples=512)
        target = lambda x: np.full((x.shape[0], 1), 0.7)
        net, achieved = fit_to_tolerance(target, 1, 1.0, 1e-8, pol, seed=5)
        assert achieved <= 0.8e-8
        assert net.width == 33  # start width plus the constant unit

    def test_identity_meets_stated_margin(self):
        pol = WidthPolicy(start_width=32, max_width=512, train_samples=800, val_samples=1600)
        net, achieved = fit_to_tolerance(lambda x: x, 1, 1.0, 1e-2, pol, seed=6)
        assert achieved <= 8e-3

    def test_impossible_tolerance_reports_achieved(self):
        pol = WidthPolicy(start_width=4, max_width=4, train_samples=64, val_samples=64)
        with pytest.raises(FitToleranceError, match="not met") as exc_info:
            fit_to_tolerance(lambda x: np.sin(5 * x), 1, 1.0, 1e-12, pol, seed=7)
        assert exc_info.value.achieved > 1e-12

    @pytest.mark.parametrize("where", ["fit", "forward"])
    def test_attempt_that_cannot_allocate_ends_the_fit(self, monkeypatch, where):
        # Width 32 fits; width 64 cannot allocate, in its fit or in its
        # validation forward.  The fit ends there, with the best net so far.
        real_fit, real_forward = shallow.fit_random_feature, ShallowNet.forward

        def fit(X, Y, width, **kw):
            if where == "fit" and width >= 64:
                raise MemoryError
            return real_fit(X, Y, width, **kw)

        def forward(net, u):
            if where == "forward" and net.width > 64:
                raise MemoryError
            return real_forward(net, u)

        monkeypatch.setattr(shallow, "fit_random_feature", fit)
        monkeypatch.setattr(ShallowNet, "forward", forward)
        pol = WidthPolicy(start_width=32, max_width=256, train_samples=200, val_samples=200)
        message = r"width 64 could not allocate: best sampled error \S+ at width 33"
        with pytest.raises(FitToleranceError, match=message) as exc_info:
            fit_to_tolerance(lambda x: np.sin(5 * x), 1, 1.0, 1e-12, pol, seed=7)
        assert exc_info.value.width == 33 and 0 < exc_info.value.achieved < np.inf

    def test_never_returns_above_margin(self):
        pol = WidthPolicy(start_width=8, max_width=256, train_samples=400, val_samples=800)
        tol = 5e-2
        net, achieved = fit_to_tolerance(lambda x: np.tanh(2 * x), 1, 1.0, tol, pol, seed=8)
        assert achieved <= tol * 0.8

    @pytest.mark.parametrize("d, radius, copies", [(1, 1.0, 1), (1, 1.0, 6), (2, 0.5, 4), (3, 2.0, 3)])
    def test_product_domain_and_default_scale(self, d, radius, copies):
        # The domain is copies radius-balls stacked; the default scale is
        # 2 / circumradius, radius * sqrt(copies).
        pol = WidthPolicy(start_width=64, max_width=64, train_samples=200, val_samples=200)
        seen = []

        def target(x):
            seen.append(x)
            return x[:, :1]

        net, _ = fit_to_tolerance(target, d, radius, 1.0, pol, seed=3, copies=copies)
        assert net.in_dim == copies * d
        slots = np.concatenate(seen).reshape(-1, copies, d)
        assert np.all(np.linalg.norm(slots, axis=2) <= radius * (1 + 1e-12))
        bound = 2.0 / (radius * np.sqrt(copies))
        random_units = np.column_stack([net.hidden_matrix[:-1], net.hidden_bias[:-1]])
        assert np.all(np.abs(random_units) <= bound)
        assert np.max(np.abs(random_units)) > 0.9 * bound


class TestWidthPolicy:
    def test_casts_parsed_values(self):
        pol = WidthPolicy(start_width="8", max_width=16.0, train_samples=10, val_samples=20, ridge="0", scale=1)
        assert pol == WidthPolicy(start_width=8, max_width=16, train_samples=10, val_samples=20, ridge=0.0, scale=1.0)
        assert list(pol.widths()) == [8, 16]

    @pytest.mark.parametrize(
        "bad",
        [
            {"start_width": 0}, {"max_width": 0}, {"train_samples": 0}, {"val_samples": -1},
            {"start_width": 64, "max_width": 32}, {"ridge": -1e-9}, {"ridge": float("inf")},
            {"scale": 0.0}, {"scale": float("nan")},
        ],
    )
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            WidthPolicy(**bad)


class TestFitIdentity:
    """Identity nets, as the chain fits them: fit_to_tolerance(lambda x: x, ...)."""

    def test_meets_tolerance_on_ball(self):
        pol = WidthPolicy(start_width=32, max_width=256, train_samples=800, val_samples=1600)
        net, _ = fit_to_tolerance(lambda x: x, 1, 1.0, 0.05, pol, seed=10)
        grid = np.linspace(-1, 1, 2001).reshape(-1, 1)
        err = np.max(np.abs(net.forward(grid) - grid))
        assert err <= 0.04

    def test_small_at_origin(self):
        pol = WidthPolicy(start_width=32, max_width=256, train_samples=800, val_samples=1600)
        tol = 0.05
        net, _ = fit_to_tolerance(lambda x: x, 1, 1.0, tol, pol, seed=10)
        assert float(np.abs(net.forward([[0.0]]))[0, 0]) <= tol

    def test_bound_inherited_on_smaller_ball(self):
        pol = WidthPolicy(start_width=32, max_width=256, train_samples=800, val_samples=1600)
        net, _ = fit_to_tolerance(lambda x: x, 1, 1.0, 0.05, pol, seed=10)
        grid_small = np.linspace(-0.5, 0.5, 1001).reshape(-1, 1)
        grid_full = np.linspace(-1, 1, 2001).reshape(-1, 1)
        err_small = np.max(np.abs(net.forward(grid_small) - grid_small))
        err_full = np.max(np.abs(net.forward(grid_full) - grid_full))
        assert err_small <= err_full


class TestSerialization:
    def test_json_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        net = small_net(rng.standard_normal((5, 2)), rng.standard_normal(5), rng.standard_normal((1, 5)))
        cli._write_json(tmp_path / "net.json", net.to_json())
        back = ShallowNet.from_json(json.loads((tmp_path / "net.json").read_text()))
        assert np.array_equal(back.hidden_matrix, net.hidden_matrix)
        assert np.array_equal(back.hidden_bias, net.hidden_bias)
        assert np.array_equal(back.readout, net.readout)

    @pytest.mark.parametrize("name", ["hidden_matrix", "hidden_bias", "readout"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        obj = small_net([[1.0, 2.0]], [0.3], [[0.5]]).to_json()
        obj[name] = np.array(obj[name])  # a writable copy
        obj[name].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ShallowNet.from_json(obj)

    def test_activation_other_than_tanh_rejected(self):
        obj = small_net([[1.0]], [0.0], [[1.0]]).to_json()
        assert obj["activation"] == "tanh"
        for kind in ("logistic", "relu"):
            with pytest.raises(ValueError, match="unknown activation"):
                ShallowNet.from_json({**obj, "activation": kind})
