import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniesn import windows
from uniesn.windows import sample_product_ball, sample_window_array


def one_shot_sample(d, R, copies, n, seed):
    """The sampler as one whole-batch expression: the bits to keep."""
    out = np.zeros((n, copies * d))
    if n >= 2:
        out[1, 0::d] = R
    if n > 2:
        rng = np.random.default_rng(seed)
        m = n - 2
        dirs = rng.standard_normal((m, copies, d))
        norms = np.linalg.norm(dirs, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        radii = R * rng.random((m, copies)) ** (1.0 / d)
        out[2:] = (dirs / norms * radii[:, :, None]).reshape(m, copies * d)
    return out


samples = {
    "d": st.integers(1, 12),
    "R": st.floats(1e-3, 1e3),
    "copies": st.integers(1, 40),
    "n": st.integers(1, 300),
    "seed": st.integers(0, 2**32 - 1),
}


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


class TestSampleInPlace:
    """The sampler scales its output in place, _CHUNK entries at a time."""

    @settings(max_examples=100, deadline=None)
    @given(chunk=st.integers(1, 40), **samples)
    def test_bits_equal_one_shot_sample(self, chunk, d, R, copies, n, seed):
        # Chunks of a few entries end mid-row, hold less than one row, or
        # less than one slot.
        want = one_shot_sample(d, R, copies, n, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "_CHUNK", chunk)
            assert np.array_equal(sample_product_ball(d, R, copies, n, seed), want)
        assert np.array_equal(sample_product_ball(d, R, copies, n, seed), want)

    @settings(max_examples=100, deadline=None)
    @given(chunk=st.sampled_from([1, 7, 2**16]), **samples)
    def test_stays_in_its_domain(self, chunk, d, R, copies, n, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "_CHUNK", chunk)
            pts = sample_product_ball(d, R, copies, n, seed)
        assert pts.shape == (n, copies * d)
        assert np.all(np.linalg.norm(pts.reshape(n, copies, d), axis=2) <= R * (1 + 1e-12))
        assert not pts[0].any()
        if n >= 2:
            probe = np.zeros((copies, d))
            probe[:, 0] = R
            assert np.array_equal(pts[1], probe.ravel())

    def test_holds_its_output_and_two_chunks(self):
        tracemalloc.start()
        try:
            arr = sample_window_array(1, 1.0, 30, 10_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 128 * 1024  # the zero-norm mask, an eighth of a chunk at d=1
        assert peak < arr.nbytes + 2 * windows._CHUNK * 8 + slack, peak


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
