import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniesn import cli
from uniesn.esn import (
    BlockStructure,
    ESNParams,
    check_esp_empirical,
    check_finite_memory,
    check_nilpotent,
)
from uniesn.shallow import get_activation
from uniesn.windows import InputWindow, make_window, sample_window_array

TANH = get_activation("tanh")


def scalar_esn(a, c, zeta=0.0, w=1.0):
    """A one-block system: a nonzero ``a`` fails its pattern and runs densely."""
    return ESNParams(
        A=np.array([[a]]), C=np.array([[c]]), zeta=np.array([zeta]),
        W=np.array([[w]]), activation=TANH, structure=BlockStructure(widths=(1,)),
    )


def random_esn(N, d, m, seed, spectral=None):
    """A one-block system with a random, hence pattern-failing, dense A."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    if spectral is not None:
        A *= spectral / np.linalg.svd(A, compute_uv=False)[0]
    return ESNParams(
        A=A, C=rng.standard_normal((N, d)), zeta=rng.standard_normal(N),
        W=rng.standard_normal((m, N)), activation=TANH, structure=BlockStructure(widths=(N,)),
    )


def chain_esn(widths, d, m, seed):
    """A random system with the assembled sparsity pattern, built by hand."""
    rng = np.random.default_rng(seed)
    structure = BlockStructure(widths=tuple(widths))
    K = structure.horizon
    off = structure.offsets()
    N = structure.total
    A = np.zeros((N, N))
    for r in range(1, K):
        A[off[r] : off[r + 1], off[r - 1] : off[r]] = rng.standard_normal(
            (widths[r], widths[r - 1])
        )
    for j in range(1, K + 1):
        A[off[K] : off[K + 1], off[j - 1] : off[j]] = rng.standard_normal(
            (widths[K], widths[j - 1])
        )
    C = np.zeros((N, d))
    C[off[0] : off[1]] = rng.standard_normal((widths[0], d))
    C[off[K] : off[K + 1]] = rng.standard_normal((widths[K], d))
    zeta = rng.standard_normal(N)
    W = np.zeros((m, N))
    W[:, off[K] :] = rng.standard_normal((m, widths[K]))
    return ESNParams(A=A, C=C, zeta=zeta, W=W, activation=TANH, structure=structure)


class TestStep:
    """A single update sigma(A x + C z + zeta) is a one-entry batch."""

    def test_all_zero_system(self):
        p = scalar_esn(0.0, 0.0)
        assert np.array_equal(p.run_batch(np.array([[[0.9]]]), x_init=np.array([3.7])), [[0.0]])

    def test_direct_formula(self):
        p = scalar_esn(0.0, 1.0)
        got = p.run_batch(np.array([[[0.5]]]), x_init=np.array([0.0]))
        np.testing.assert_allclose(got, [[0.46211715726]], atol=1e-10)

    def test_matches_hand_rolled_scalar_loop(self):
        rng = np.random.default_rng(20)
        N, d = 2, 2
        p = ESNParams(
            A=rng.standard_normal((N, N)), C=rng.standard_normal((N, d)),
            zeta=rng.standard_normal(N), W=np.ones((1, N)), activation=TANH,
            structure=BlockStructure(widths=(N,)),
        )
        x_prev = rng.standard_normal(N)
        z = rng.standard_normal(d)
        got = p.run_batch(z[None, None, :], x_init=x_prev)[0]
        for i in range(N):
            pre = sum(p.A[i, j] * x_prev[j] for j in range(N))
            pre += sum(p.C[i, j] * z[j] for j in range(d))
            pre += p.zeta[i]
            assert abs(got[i] - math.tanh(pre)) <= 1e-15

    def test_dimension_checks(self):
        p = scalar_esn(0.1, 1.0)
        with pytest.raises(ValueError):
            p.run_batch(np.array([[[0.1]]]), x_init=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            p.run_batch(np.array([[[0.1, 0.2]]]), x_init=np.array([0.0]))


class TestRun:
    def test_single_entry_window_is_one_step(self):
        p = scalar_esn(0.5, 1.0, zeta=0.1)
        final = p.run_batch(np.array([[[0.3]]]), x_init=np.array([0.2]))
        assert final.shape == (1, 1)
        assert abs(final[0, 0] - math.tanh(0.5 * 0.2 + 0.3 + 0.1)) <= 1e-15

    def test_all_zero_system_stays_at_zero(self):
        p = scalar_esn(0.0, 0.0)
        arr = np.full((1, 3, 1), 0.5)
        assert np.all(p.run_batch(arr, x_init=np.array([0.0])) == 0.0)

    def test_unrolling_matches_repeated_steps(self):
        p = random_esn(3, 1, 1, seed=21, spectral=0.8)
        arr = sample_window_array(1, 1.0, 5, 3, seed=22)[2:]
        x = np.zeros(3)
        for t in range(5):
            x = p.run_batch(arr[:, t : t + 1], x_init=x)[0]
            assert np.array_equal(p.run_batch(arr[:, : t + 1], x_init=np.zeros(3))[0], x)

    def test_run_batch_matches_run(self):
        # one window at a time against the whole batch: rows of one matmul
        # associate sums differently, so they agree to rounding, not bitwise
        p = random_esn(4, 2, 1, seed=23, spectral=0.7)
        arr = sample_window_array(2, 1.0, 6, 10, seed=24)
        finals = p.run_batch(arr)
        for i in range(10):
            np.testing.assert_allclose(finals[i], p.run_batch(arr[i : i + 1])[0], atol=1e-12)


class TestFunctional:
    def test_structured_init_independence_bitwise(self):
        p = chain_esn([3, 4, 5], d=2, m=1, seed=25)
        K = p.structure.horizon
        arr = sample_window_array(2, 1.0, K + 1, 4, seed=26)[3:]
        rng = np.random.default_rng(27)
        ref = p.run_batch(arr, x_init=rng.standard_normal(p.state_dim))
        for _ in range(5):
            other = p.run_batch(arr, x_init=rng.standard_normal(p.state_dim))
            assert np.array_equal(ref, other)

    def test_zero_readout_gives_zero(self):
        p = chain_esn([2, 3], d=1, m=2, seed=28)
        p = ESNParams(A=p.A, C=p.C, zeta=p.zeta, W=np.zeros((2, p.state_dim)),
                      activation=TANH, structure=p.structure)
        arr = np.array([[[0.4], [0.2]]])
        assert np.array_equal(p.functional_batch(arr), [[0.0, 0.0]])

    def test_structured_window_too_short(self):
        p = chain_esn([2, 2, 3], d=1, m=1, seed=29)
        with pytest.raises(ValueError, match="too short"):
            p.functional_batch(np.array([[[0.1], [0.2]]]))

    def test_functional_batch_matches_functional(self):
        # one window at a time against the whole batch: rows of one matmul
        # associate sums differently, so they agree to rounding, not bitwise
        p = chain_esn([2, 3, 4], d=1, m=2, seed=32)
        arr = sample_window_array(1, 1.0, 6, 8, seed=33)
        batch = p.functional_batch(arr)
        for i in range(8):
            np.testing.assert_allclose(batch[i], p.functional_batch(arr[i : i + 1])[0], atol=1e-12)


class TestNilpotency:
    def test_assembled_pattern_passes(self):
        p = chain_esn([3, 4, 5, 2], d=1, m=1, seed=34)
        ok, degree = check_nilpotent(p)
        assert ok and degree == 4

    def test_single_block_means_zero_matrix(self):
        p = ESNParams(
            A=np.zeros((3, 3)), C=np.ones((3, 1)), zeta=np.zeros(3),
            W=np.ones((1, 3)), activation=TANH, structure=BlockStructure(widths=(3,)),
        )
        assert check_nilpotent(p) == (True, 1)

    def test_corrupted_upper_entry_fails(self):
        p = chain_esn([2, 2, 2], d=1, m=1, seed=35)
        A = np.array(p.A)
        A[0, 3] = 1.0  # first block row must stay zero
        bad = ESNParams(A=A, C=p.C, zeta=p.zeta, W=p.W, activation=TANH, structure=p.structure)
        ok, _ = check_nilpotent(bad)
        assert not ok

    def test_requires_structure(self):
        with pytest.raises(TypeError, match="structure"):
            ESNParams(A=np.zeros((1, 1)), C=np.ones((1, 1)), zeta=np.zeros(1),
                      W=np.ones((1, 1)), activation=TANH)

    def test_power_is_exactly_zero(self):
        p = chain_esn([3, 3, 3], d=1, m=1, seed=36)
        K = p.structure.horizon
        power = np.linalg.matrix_power(p.A, K + 1)
        assert np.all(power == 0.0)


class TestEchoStateProperty:
    def test_structured_bitwise(self):
        p = chain_esn([3, 4, 5], d=1, m=1, seed=37)
        arr = sample_window_array(1, 1.0, p.structure.horizon + 1, 3, seed=38)[2]
        w = InputWindow(entries=arr, bound=1.0)
        assert check_esp_empirical(p, w, trials=10, seed=39)

    def test_expanding_map_fails(self):
        p = scalar_esn(2.0, 1.0)
        w = make_window([(0.3,)], M=1.0)
        assert not check_esp_empirical(p, w, trials=10, seed=40)

    def test_zero_matrix_converges_in_one_step(self):
        p = scalar_esn(0.0, 1.0)
        w = make_window([(0.3,)], M=1.0)
        assert check_esp_empirical(p, w, trials=10, seed=41)


class TestFiniteMemory:
    def test_far_past_is_invisible(self):
        p = chain_esn([3, 4, 5], d=2, m=1, seed=45)
        K = p.structure.horizon
        T = 12
        arr = sample_window_array(2, 1.0, T, 3, seed=46)
        modified = arr.copy()
        modified[:, : T - (K + 1)] = np.array([1.0, 0.0])  # boundary-norm rewrite
        assert check_finite_memory(p, arr, modified)

    def test_identical_windows(self):
        p = chain_esn([2, 2], d=1, m=1, seed=47)
        arr = sample_window_array(1, 1.0, 5, 3, seed=48)
        assert check_finite_memory(p, arr, arr)

    def test_tail_disagreement_rejected(self):
        p = chain_esn([2, 2], d=1, m=1, seed=49)
        arr1 = np.array([[[0.1], [0.2], [0.3]]])
        arr2 = np.array([[[0.1], [0.2], [0.4]]])
        with pytest.raises(ValueError):
            check_finite_memory(p, arr1, arr2)

    def test_oldest_tail_entry_disagreement_rejected(self):
        # windows that differ only at lag K still differ in their last K+1 entries
        p = chain_esn([2, 2, 2], d=1, m=1, seed=49)
        K = p.structure.horizon
        arr1 = sample_window_array(1, 1.0, 6, 4, seed=50)
        arr2 = arr1.copy()
        arr2[:, -(K + 1)] = 0.5
        with pytest.raises(ValueError, match="last 3 entries"):
            check_finite_memory(p, arr1, arr2)

    def test_contractive_influence_decays_geometrically(self):
        # a dense system whose pattern fails still runs its recursion: with
        # L_sigma * ||A|| = rho < 1 the influence of a rewrite q steps in the
        # past obeys ||W|| * rho^q * (state diameter) exactly
        from uniesn.linalg import operator_norm

        p = random_esn(4, 1, 1, seed=50, spectral=0.6)
        rho = TANH.lipschitz_const * operator_norm(p.A)
        assert rho < 1.0
        w_norm = operator_norm(p.W)
        diam = 2 * np.sqrt(p.state_dim)  # tanh states live in [-1, 1]^N
        T = 24
        arr = sample_window_array(1, 1.0, T, 3, seed=51)[2:]
        prev_envelope = np.inf
        for q in (4, 8, 12, 16):
            modified = arr.copy()
            modified[:, : T - q] = 1.0
            gap = float(np.linalg.norm(p.functional_batch(arr) - p.functional_batch(modified)))
            envelope = w_norm * rho**q * diam
            assert gap <= envelope + 1e-12
            assert envelope < prev_envelope
            prev_envelope = envelope


class TestBoundedOutputs:
    def test_output_cap_under_adversarial_inputs(self):
        from uniesn.linalg import operator_norm

        p = chain_esn([3, 4, 6], d=1, m=2, seed=53)
        cap = operator_norm(p.W) * np.sqrt(p.state_dim)  # tanh states lie in [-1, 1]^N
        arr = sample_window_array(1, 1.0, p.structure.horizon + 1, 200, seed=54)
        outs = p.functional_batch(arr)
        assert np.all(np.linalg.norm(outs, axis=1) <= cap + 1e-9)


class TestSerialization:
    @staticmethod
    def written_and_read(p: ESNParams, tmp_path) -> ESNParams:
        cli._write_json(tmp_path / "esn.json", p.to_json())
        return ESNParams.from_json(json.loads((tmp_path / "esn.json").read_text()))

    def test_round_trip_bitwise(self, tmp_path):
        p = chain_esn([2, 3, 4], d=2, m=1, seed=55)
        back = self.written_and_read(p, tmp_path)
        assert np.array_equal(back.A, p.A)
        assert np.array_equal(back.C, p.C)
        assert np.array_equal(back.zeta, p.zeta)
        assert np.array_equal(back.W, p.W)
        assert back.structure.widths == p.structure.widths

    @pytest.mark.parametrize("name", ["A", "C", "zeta", "W"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        p = chain_esn([2, 3], d=1, m=1, seed=56)
        arrays = {k: np.array(getattr(p, k)) for k in ("A", "C", "zeta", "W")}
        arrays[name].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ESNParams(**arrays, activation=TANH, structure=p.structure)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ESNParams(A=np.zeros((2, 3)), C=np.zeros((2, 1)), zeta=np.zeros(2),
                      W=np.zeros((1, 2)), activation=TANH, structure=BlockStructure(widths=(2,)))
        with pytest.raises(ValueError):
            ESNParams(A=np.zeros((2, 2)), C=np.zeros((2, 1)), zeta=np.zeros(2),
                      W=np.zeros((1, 2)), activation=TANH,
                      structure=BlockStructure(widths=(3,)))


def dense_reference(p, arr, x0):
    """The state recursion with the full dense A, one window at a time."""
    finals = []
    for window in arr:
        x = np.array(x0, dtype=np.float64)
        for z in window:
            x = np.tanh(p.A @ x + p.C @ z + p.zeta)
        finals.append(x)
    return np.array(finals)


def every_step_block_loop(p, arr, x0):
    """The block recursion with every allowed block row, the collector's too,
    run at every step: what run_batch computes without its last-step-only
    collector row."""
    K = p.structure.horizon
    off = p.structure.offsets()
    X = np.tile(x0, (arr.shape[0], 1))
    for t in range(arr.shape[1]):
        pre = arr[:, t, :] @ p.C.T
        for r in range(1, K):
            rows, cols = slice(off[r], off[r + 1]), slice(off[r - 1], off[r])
            pre[:, rows] += X[:, cols] @ p.A[rows, cols].T
        if K:
            pre[:, off[K] :] += X[:, : off[K]] @ p.A[off[K] :, : off[K]].T
        pre += p.zeta
        X = np.tanh(pre)
    return X


systems = st.builds(
    lambda widths, d, m, seed: chain_esn(widths, d, m, seed),
    widths=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    d=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestBlockRecursion:
    """Structured systems run only their allowed blocks of A; nothing else may change."""

    @settings(max_examples=60, deadline=None)
    @given(p=systems, extra=st.integers(min_value=0, max_value=4), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, p, extra, seed):
        T = p.structure.horizon + 1 + extra
        arr = sample_window_array(p.in_dim, 1.0, T, 4, seed)
        x0 = np.random.default_rng(seed).standard_normal(p.state_dim)
        np.testing.assert_allclose(p.run_batch(arr, x_init=x0), dense_reference(p, arr, x0),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(p=systems, extra=st.integers(min_value=0, max_value=4), seed=st.integers(0, 2**32 - 1))
    # A one-entry carrier prefix with three input channels: cutting the input
    # product to that width changes the BLAS kernel and its rounding.
    @example(p=chain_esn([1, 2], 3, 1, 3), extra=0, seed=0)
    def test_matches_every_step_loop_bitwise(self, p, extra, seed):
        T = p.structure.horizon + 1 + extra
        arr = sample_window_array(p.in_dim, 1.0, T, 4, seed)
        x0 = np.random.default_rng(seed).standard_normal(p.state_dim)
        assert np.array_equal(p.run_batch(arr, x_init=x0), every_step_block_loop(p, arr, x0))

    @given(p=systems, seed=st.integers(0, 2**32 - 1))
    def test_empty_window_returns_initial_state(self, p, seed):
        x0 = np.random.default_rng(seed).standard_normal(p.state_dim)
        assert np.array_equal(p.run_batch(np.zeros((3, 0, p.in_dim)), x_init=x0), np.tile(x0, (3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(p=systems, extra=st.integers(min_value=0, max_value=4), seed=st.integers(0, 2**32 - 1))
    def test_init_independence_bitwise(self, p, extra, seed):
        T = p.structure.horizon + 1 + extra
        arr = sample_window_array(p.in_dim, 1.0, T, 3, seed)
        rng = np.random.default_rng(seed)
        ref = p.run_batch(arr)
        for _ in range(3):
            assert np.array_equal(p.run_batch(arr, x_init=rng.standard_normal(p.state_dim)), ref)

    @settings(max_examples=60, deadline=None)
    @given(p=systems, data=st.data())
    def test_entry_outside_pattern_runs_dense(self, p, data):
        K = p.structure.horizon
        off = p.structure.offsets()
        outside = [(r, c) for r in range(K + 1) for c in range(K + 1)
                   if not ((c == r - 1 and r < K) or (r == K and c < K))]
        r, c = data.draw(st.sampled_from(outside))
        i = data.draw(st.integers(off[r], off[r + 1] - 1))
        j = data.draw(st.integers(off[c], off[c + 1] - 1))
        A = np.array(p.A)
        A[i, j] = data.draw(st.floats(0.1, 2.0))
        bad = ESNParams(A=A, C=p.C, zeta=p.zeta, W=p.W, activation=TANH, structure=p.structure)
        assert check_nilpotent(bad) == (False, 0)
        arr = sample_window_array(p.in_dim, 1.0, K + 3, 4, seed=57)
        x0 = np.random.default_rng(58).standard_normal(p.state_dim)
        np.testing.assert_allclose(bad.run_batch(arr, x_init=x0), dense_reference(bad, arr, x0),
                                   rtol=0, atol=1e-12)
