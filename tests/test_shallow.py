import json

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
    get_activation,
)
from uniesn.windows import sample_product_ball

TANH = get_activation("tanh")


def small_net(hidden, bias, readout):
    return ShallowNet(
        hidden_matrix=np.asarray(hidden, dtype=float),
        hidden_bias=np.asarray(bias, dtype=float),
        readout=np.asarray(readout, dtype=float),
        activation=TANH,
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
    @pytest.mark.parametrize("width", [32, 256, 600])  # 600 is above the 400 samples
    def test_readout_solves_the_c_ordered_gram(self, filter_spec, K, width):
        # The fit hands LAPACK the transpose of the exactly symmetric gram;
        # the readout must be the bits that solving the gram itself gives.
        f = filter_from_json(filter_spec)
        X = sample_product_ball(f.in_dim, f.input_bound, K + 1, 400, seed=width)
        Y = f.truncated_map(K)(X)
        net = fit_random_feature(X, Y, width=width, ridge=1e-10, scale=0.8, seed=7)
        phi = TANH(X @ net.hidden_matrix.T + net.hidden_bias)
        gram = phi.T @ phi / len(X)
        gram[np.diag_indices(width)] += 1e-10
        assert gram.flags.c_contiguous
        reference = np.linalg.solve(gram, phi.T @ Y / len(X)).T
        assert np.array_equal(net.readout, reference)


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


def fit_outcome(*args, **kwargs):
    """fit_to_tolerance's result as comparable bits, with the number of fits it ran."""
    calls = []
    real = shallow.fit_random_feature

    def counting(*a, **k):
        calls.append(k["width"])
        return real(*a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shallow, "fit_random_feature", counting)
        try:
            net, err = fit_to_tolerance(*args, **kwargs)
        except FitToleranceError as exc:
            return ("failed", exc.achieved, exc.width), len(calls)
    arrays = (net.hidden_matrix, net.hidden_bias, net.readout)
    return (tuple(a.tobytes() for a in arrays), err), len(calls)


def wave(a):
    return lambda x: np.sin(a * x[:, :1]) + 0.5 * x


def perturbed(base, rows):
    """``base``, except that its first output moves on a batch of ``rows`` points."""

    def target(x):
        y = np.array(base(x), dtype=np.float64)
        if x.shape[0] == rows:
            y[0, 0] += 1e-3
        return y

    return target


small_problems = dict(
    a=st.floats(0.5, 6.0), tol=st.floats(1e-3, 0.5), start=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)


def small_policy(start, **overrides):
    return WidthPolicy(**{"start_width": start, "max_width": 8 * start, "train_samples": 60,
                          "val_samples": 80, **overrides})


class TestAttemptReuse:
    """A dict of attempts changes which fits run, never what they return."""

    @settings(max_examples=40, deadline=None)
    @given(**small_problems)
    def test_first_call_and_repeat_are_bitwise_plain(self, a, tol, start, seed):
        args = (wave(a), 2, 1.0, tol, small_policy(start), seed)
        plain, plain_fits = fit_outcome(*args)
        attempts = {}
        first, first_fits = fit_outcome(*args, attempts=attempts)
        repeat, repeat_fits = fit_outcome(*args, attempts=attempts)
        assert first == plain and repeat == plain
        assert first_fits == plain_fits == len(attempts)
        assert repeat_fits == 0

    @settings(max_examples=40, deadline=None)
    @given(**small_problems, change=st.sampled_from(
        ["train_target", "val_target", "sample_seed", "ridge", "scale", "start_width"]
    ))
    def test_changing_one_key_input_fits_afresh(self, a, tol, start, seed, change):
        base = (wave(a), 2, 1.0, tol, small_policy(start), seed)
        target, _, _, _, policy, seed2 = base
        if change in ("train_target", "val_target"):  # the policy draws 60 training, 80 validation points
            target = perturbed(target, 60 if change == "train_target" else 80)
        elif change == "sample_seed":
            seed2 = seed ^ 1
        elif change == "ridge":
            policy = small_policy(start, ridge=2e-10)
        elif change == "scale":
            policy = small_policy(start, scale=1.5)
        else:
            policy = small_policy(2 * start, max_width=8 * start)
        varied = (target, 2, 1.0, tol, policy, seed2)
        attempts = {}
        fit_outcome(*base, attempts=attempts)
        reused, reused_fits = fit_outcome(*varied, attempts=attempts)
        plain, plain_fits = fit_outcome(*varied)
        assert reused == plain
        assert reused_fits == plain_fits


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
        assert back.activation.kind == net.activation.kind

    @pytest.mark.parametrize("name", ["hidden_matrix", "hidden_bias", "readout"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        obj = small_net([[1.0, 2.0]], [0.3], [[0.5]]).to_json()
        obj[name] = np.array(obj[name])  # a writable copy
        obj[name].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ShallowNet.from_json(obj)

    def test_activation_registry(self):
        assert get_activation("tanh").lipschitz_const == 1.0
        for kind in ("logistic", "relu"):
            with pytest.raises(ValueError, match="unknown activation"):
                get_activation(kind)
