import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniesn.windows import (
    InputWindow,
    make_window,
    sample_product_ball,
    sample_window_array,
)


class TestMakeWindow:
    def test_zero_vector_always_inside(self):
        w = make_window([(0.0, 0.0)], M=1.0)
        assert w.length == 1
        assert w.dim == 2

    def test_boundary_norm_accepted(self):
        # closed ball: norm exactly 1.0 is admissible
        w = make_window([(0.6, 0.8)], M=1.0)
        assert w.length == 1

    def test_norm_above_bound_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_window([(1.1,)], M=1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            InputWindow(entries=np.zeros((0, 1)), bound=1.0)
        with pytest.raises(ValueError):
            InputWindow(entries=np.zeros((1, 1)), bound=0.0)

    def test_entries_are_immutable(self):
        w = make_window([(0.5,)], M=1.0)
        with pytest.raises(ValueError):
            w.entries[0, 0] = 2.0


class TestSampleBall:
    """One ball: the product sampler with copies=1."""

    def test_mandated_probes_present(self):
        pts = sample_product_ball(1, 1.0, 1, 3, seed=7)
        assert any(np.array_equal(p, [0.0]) for p in pts)
        assert any(np.array_equal(p, [1.0]) for p in pts)

    def test_all_norms_within_radius(self):
        pts = sample_product_ball(2, 2.0, 1, 100, seed=1)
        assert pts.shape == (100, 2)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.0)

    def test_boundary_probe_guarantees_coverage(self):
        pts = sample_product_ball(1, 0.5, 1, 1000, seed=3)
        assert np.max(np.abs(pts)) >= 0.49

    def test_bitwise_reproducible(self):
        a = sample_product_ball(3, 1.5, 1, 500, seed=11)
        b = sample_product_ball(3, 1.5, 1, 500, seed=11)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_product_ball(3, 1.5, 1, 500, seed=11)
        b = sample_product_ball(3, 1.5, 1, 500, seed=12)
        assert not np.array_equal(a, b)


class TestSampleProductBall:
    def test_per_slot_norms(self):
        pts = sample_product_ball(2, 1.0, copies=4, n=200, seed=5)
        assert pts.shape == (200, 8)
        slots = pts.reshape(200, 4, 2)
        assert np.all(np.linalg.norm(slots, axis=2) <= 1.0 + 1e-15)

    def test_probe_rows(self):
        pts = sample_product_ball(2, 1.5, copies=3, n=5, seed=0)
        assert np.array_equal(pts[0], np.zeros(6))
        expected = np.array([1.5, 0.0, 1.5, 0.0, 1.5, 0.0])
        assert np.array_equal(pts[1], expected)


class TestSamplerFold:
    """sample_window_array is a view of the one product-ball sampler."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=7),
        n=st.integers(min_value=1, max_value=300),
        T=st.integers(min_value=1, max_value=30),
        R=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_samplers_equal_product_ball_bitwise(self, d, n, T, R, seed):
        want = sample_product_ball(d, R, T, n, seed).reshape(n, T, d)
        assert np.array_equal(sample_window_array(d, R, T, n, seed), want)


class TestSampleWindows:
    def test_contains_zero_window(self):
        arr = sample_window_array(1, 1.0, 5, 2, seed=0)
        assert any(np.all(w == 0.0) for w in arr)

    def test_contains_boundary_window(self):
        arr = sample_window_array(3, 2.0, 4, 2, seed=0)
        norms = np.linalg.norm(arr[1], axis=1)
        np.testing.assert_allclose(norms, 2.0)

    def test_all_entries_within_bound(self):
        arr = sample_window_array(1, 1.0, 5, 50, seed=0)
        assert np.all(np.abs(arr) <= 1.0)

    def test_deterministic(self):
        a = sample_window_array(2, 1.0, 6, 40, seed=9)
        b = sample_window_array(2, 1.0, 6, 40, seed=9)
        assert np.array_equal(a, b)
