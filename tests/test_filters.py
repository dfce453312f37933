import numpy as np
import pytest

from uniesn.filters import (
    ExpFadingFilter,
    FIRFilter,
    HorizonCapError,
    QuadTerm,
    Volterra2Filter,
    filter_from_json,
)
from uniesn.linalg import operator_norm
from uniesn.windows import sample_window_array


def fir(coeffs, d=1, m=1, M=1.0):
    return FIRFilter(in_dim=d, out_dim=m, input_bound=M, coeffs=tuple(np.atleast_2d(c) for c in coeffs))


def expfading(decay=0.5, B=1.0, d=1, m=1, M=1.0):
    return ExpFadingFilter(in_dim=d, out_dim=m, input_bound=M, matrix=np.atleast_2d(B), decay=decay)


def one(entries):
    """A window, given as a list of d-vectors oldest first, as a one-window (1, T, d) batch."""
    return np.array(entries, dtype=np.float64)[None, :, :]


class TestEvaluate:
    def test_fir_two_taps(self):
        f = fir([[1.0], [-0.5]])
        np.testing.assert_allclose(f.evaluate_batch(one([(0.2,), (0.4,)])), [[1.0 * 0.4 - 0.5 * 0.2]])

    def test_expfading_geometric_sum(self):
        f = expfading()
        np.testing.assert_allclose(f.evaluate_batch(one([(1.0,), (1.0,), (1.0,)])), [[1.75]])

    def test_zero_window_maps_to_zero(self):
        arr = one([(0.0,), (0.0,)])
        filters = [
            fir([[1.0], [2.0]]),
            expfading(),
            Volterra2Filter(
                in_dim=1, out_dim=1, input_bound=1.0,
                coeffs=(np.array([[1.0]]),),
                quad=(QuadTerm(j=0, k=1, b=np.array([0.7])),),
            ),
        ]
        for f in filters:
            assert np.array_equal(f.evaluate_batch(arr), [[0.0]])

    def test_volterra_quadratic_term(self):
        f = Volterra2Filter(
            in_dim=1, out_dim=1, input_bound=1.0,
            coeffs=(np.array([[1.0]]),),
            quad=(QuadTerm(j=0, k=1, b=np.array([2.0])),),
        )
        # linear: 1 * 0.4; quadratic: 2 * (0.4 * 0.5)
        np.testing.assert_allclose(f.evaluate_batch(one([(0.5,), (0.4,)])), [[0.4 + 2 * 0.2]])

    def test_dim_mismatch(self):
        f = expfading()
        with pytest.raises(ValueError):
            f.evaluate_batch(one([(0.1, 0.2)]))

    def test_evaluate_batch_matches_scalar_loop(self):
        f = expfading(decay=0.7)
        arr = sample_window_array(1, 1.0, 6, 20, seed=3)
        batch = f.evaluate_batch(arr)
        for i in range(20):
            want = sum(0.7 ** (5 - t) * arr[i, t, 0] for t in range(6))
            np.testing.assert_allclose(batch[i], [want], atol=1e-14)


class TestEvaluateAt:
    """By time invariance, the output at time -k is the functional on arr[:, : T - k]."""

    def test_memoryless_filter_reads_the_shifted_entry(self):
        f = fir([[1.0]])
        arr = one([(0.2,), (0.4,)])
        np.testing.assert_allclose(f.evaluate_batch(arr[:, :1]), [[0.2]])

    def test_expfading_one_entry_left(self):
        f = expfading()
        arr = one([(1.0,), (1.0,)])
        np.testing.assert_allclose(f.evaluate_batch(arr[:, :1]), [[1.0]])

    def test_time_invariance_exact(self):
        # the output at time -k equals the defining sum taken at time -k
        taps = [1.0, -0.5, 0.25, 0.125]
        f = fir([[a] for a in taps])
        T = 8
        arr = sample_window_array(1, 1.0, T, 10, seed=5)
        for k in range(T):
            want = np.zeros((10, 1))
            for j, a in enumerate(taps):
                if k + j < T:
                    want += arr[:, T - 1 - k - j] * a
            assert np.array_equal(f.evaluate_batch(arr[:, : T - k]), want)


class TestTruncationBound:
    def test_fir_memory_exhausted(self):
        f = fir([[1.0], [0.5], [0.25], [0.125]])  # taps at lags 0..3
        assert f.truncation_bound(3) == 0.0

    def test_expfading_closed_form(self):
        f = expfading()
        assert f.truncation_bound(4) == pytest.approx(0.0625, abs=1e-15)

    def test_brute_force_oracle_respects_bound(self):
        # independent oracle: evaluate the filter on the full window and on the
        # window with everything older than lag K zeroed out, take the worst gap
        f = expfading()
        K = 4
        bound = f.truncation_bound(K)
        arr = sample_window_array(1, 1.0, 30, 10_000, seed=8)
        truncated = arr.copy()
        truncated[:, : 30 - (K + 1), :] = 0.0
        gaps = np.linalg.norm(f.evaluate_batch(arr) - f.evaluate_batch(truncated), axis=1)
        assert np.max(gaps) <= bound + 1e-12
        # the constant boundary window (row 1 of the sampler) attains the tail
        assert gaps[1] >= 0.99 * bound

    def test_nonincreasing_in_horizon(self):
        for f in (expfading(decay=0.8), fir([[1.0], [0.5], [2.0]])):
            bounds = [f.truncation_bound(K) for K in range(10)]
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_volterra_counts_cross_terms(self):
        f = Volterra2Filter(
            in_dim=1, out_dim=1, input_bound=2.0,
            coeffs=(np.array([[1.0]]),),
            quad=(QuadTerm(j=0, k=3, b=np.array([0.5])),),
        )
        # lag-3 partner above horizon 2: |b| * M^2 = 0.5 * 4
        assert f.truncation_bound(2) == pytest.approx(2.0)
        assert f.truncation_bound(3) == 0.0


class TestChooseHorizon:
    def test_fir_capped_by_memory(self):
        f = fir([[1.0], [0.5], [0.25], [0.125]])
        assert f.choose_horizon(1e-9) <= 3

    def test_expfading_demo_value(self):
        f = expfading()
        assert f.choose_horizon(0.1) == 4

    def test_minimality(self):
        f = expfading()
        K = f.choose_horizon(0.1)
        assert f.truncation_bound(K) < 0.1
        assert f.truncation_bound(K - 1) >= 0.1

    def test_cap_exceeded(self):
        f = expfading(decay=0.999)
        with pytest.raises(HorizonCapError):
            f.choose_horizon(1e-300)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            expfading().choose_horizon(0.0)


class TestTruncatedMap:
    """The truncated map at horizon K is the functional on the last K+1 entries."""

    def test_agrees_with_functional_on_short_windows(self):
        f = expfading(decay=0.6)
        K = 3
        arr = sample_window_array(1, 1.0, K + 1, 50, seed=9)
        np.testing.assert_allclose(f.evaluate_batch(arr[:, -(K + 1) :]), f.evaluate_batch(arr), atol=1e-15)

    def test_fir_with_enough_horizon_is_exact(self):
        f = fir([[1.0], [-0.5]])
        K = 3
        T = 12
        arr = sample_window_array(1, 1.0, T, 200, seed=10)
        np.testing.assert_allclose(f.evaluate_batch(arr[:, T - (K + 1) :]), f.evaluate_batch(arr), atol=1e-15)

    def test_gap_on_long_windows_within_bound(self):
        f = expfading()
        K = 4
        T = 2 * (K + 1)
        arr = sample_window_array(1, 1.0, T, 2000, seed=11)
        gaps = np.linalg.norm(f.evaluate_batch(arr) - f.evaluate_batch(arr[:, T - (K + 1) :]), axis=1)
        assert np.max(gaps) <= f.truncation_bound(K) + 1e-12


class TestFadingMemoryProperty:
    def test_expfading_modulus_of_continuity(self):
        # |H(z) - H(z')| <= ||B|| * sum_{t<=0} lambda^|t| ||z_t - z'_t||
        f = expfading(decay=0.5, B=-1.3)
        norm_b = operator_norm(f.matrix)
        T = 7
        arr = sample_window_array(1, 1.0, T, 40, seed=12)
        outs = f.evaluate_batch(arr)
        weights = f.decay ** np.arange(T - 1, -1, -1, dtype=np.float64)  # rows run past to present
        for i in range(0, 40, 2):
            lhs = float(np.linalg.norm(outs[i] - outs[i + 1]))
            rhs = norm_b * float(weights @ np.linalg.norm(arr[i] - arr[i + 1], axis=1))
            assert lhs <= rhs + 1e-12


class TestJson:
    def test_parses_fields(self):
        f = filter_from_json({"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0})
        assert type(f) is ExpFadingFilter
        assert (f.in_dim, f.out_dim, f.input_bound, f.decay) == (1, 1, 1.0, 0.5)
        assert np.array_equal(f.matrix, [[1.0]])

        f = filter_from_json({"kind": "fir", "coeffs": [[[1.0, 0.0]], [[-0.5, 0.25]]], "d": 2, "m": 1, "M": 2.0})
        assert type(f) is FIRFilter
        assert (f.in_dim, f.out_dim, f.input_bound) == (2, 1, 2.0)
        assert [a.tolist() for a in f.coeffs] == [[[1.0, 0.0]], [[-0.5, 0.25]]]

        f = filter_from_json({
            "kind": "volterra2", "coeffs": [[[1.0]]], "quad": [{"j": 0, "k": 2, "b": [0.4]}],
            "d": 1, "m": 1, "M": 1.0,
        })
        assert type(f) is Volterra2Filter
        assert (f.in_dim, f.out_dim, f.input_bound) == (1, 1, 1.0)
        assert [a.tolist() for a in f.coeffs] == [[[1.0]]]
        assert [(q.j, q.k, q.b.tolist()) for q in f.quad] == [(0, 2, [0.4])]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            filter_from_json({"kind": "iir", "d": 1, "m": 1, "M": 1.0})

    @pytest.mark.parametrize(
        "bad",
        [{"M": float("nan")}, {"M": float("inf")}, {"M": 0.0}, {"M": -1.0}, {"d": 0}, {"m": 0}],
        ids=["M_nan", "M_inf", "M_zero", "M_negative", "d_zero", "m_zero"],
    )
    def test_rejects_bad_dims_and_bound(self, bad):
        spec = {"kind": "exp_fading", "lambda": 0.5, "B": [[1.0]], "d": 1, "m": 1, "M": 1.0, **bad}
        with pytest.raises(ValueError, match="filter needs"):
            filter_from_json(spec)
