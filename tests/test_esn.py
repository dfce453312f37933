import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniesn import cli
from uniesn.esn import BlockStructure, ESNParams
from uniesn.windows import sample_window_array


def scalar_esn(c, zeta=0.0, w=1.0):
    """A one-block system: with no carriers, its A is the 1 x 1 zero."""
    return ESNParams(
        carriers=(), collector=np.zeros((1, 0)), C=np.array([[c]]), zeta=np.array([zeta]),
        W=np.array([[w]]), structure=BlockStructure(widths=(1,)),
    )


def chain_esn(widths, d, m, seed):
    """A random system of the given block widths, built from its blocks."""
    rng = np.random.default_rng(seed)
    structure = BlockStructure(widths=tuple(widths))
    K = structure.horizon
    off = structure.offsets()
    N = structure.total
    carriers = tuple(rng.standard_normal((widths[r], widths[r - 1])) for r in range(1, K))
    collector = rng.standard_normal((widths[K], off[K]))
    C = np.zeros((N, d))
    C[off[0] : off[1]] = rng.standard_normal((widths[0], d))
    C[off[K] : off[K + 1]] = rng.standard_normal((widths[K], d))
    zeta = rng.standard_normal(N)
    W = np.zeros((m, N))
    W[:, off[K] :] = rng.standard_normal((m, widths[K]))
    return ESNParams(carriers=carriers, collector=collector, C=C, zeta=zeta, W=W, structure=structure)


def dense_io(p: ESNParams, seed) -> ESNParams:
    """p with a dense C and W: every carrier reads the input, and W reads the carriers."""
    rng = np.random.default_rng(seed)
    return dataclasses.replace(p, C=rng.standard_normal(p.C.shape), W=rng.standard_normal(p.W.shape))


def dense_json(p: ESNParams) -> dict:
    """p's esn.json object with writable copies of its arrays, to edit."""
    return {key: np.array(value) if isinstance(value, np.ndarray) else value for key, value in p.to_json().items()}


def written_matches(p: ESNParams, obj: dict, directory) -> tuple:
    """Write ``obj`` as construct writes esn.json, and match the file against
    p as verify does: whether it is p's file, and its first differing key."""
    cli._write_json(directory / "esn.json", obj)
    with open(directory / "esn.json", "rb") as fh:
        return cli.holds_json(fh, p.to_json())


class TestStep:
    """A single update sigma(A x + C z + zeta) is a one-entry batch."""

    def test_all_zero_system(self):
        p = scalar_esn(0.0)
        assert np.array_equal(p.run_batch(np.array([[[0.9]]]), x_init=np.array([3.7])), [[0.0]])

    def test_direct_formula(self):
        p = scalar_esn(1.0)
        got = p.run_batch(np.array([[[0.5]]]), x_init=np.array([0.0]))
        np.testing.assert_allclose(got, [[0.46211715726]], atol=1e-10)

    def test_matches_hand_rolled_scalar_loop(self):
        rng = np.random.default_rng(20)
        d = 2
        p = chain_esn([2, 1, 2], d=d, m=1, seed=20)
        N, A = p.state_dim, p.A
        x_prev = rng.standard_normal(N)
        z = rng.standard_normal(d)
        got = p.run_batch(z[None, None, :], x_init=x_prev)[0]
        for i in range(N):
            pre = sum(A[i, j] * x_prev[j] for j in range(N))
            pre += sum(p.C[i, j] * z[j] for j in range(d))
            pre += p.zeta[i]
            assert abs(got[i] - math.tanh(pre)) <= 1e-15

    def test_dimension_checks(self):
        p = scalar_esn(1.0)
        with pytest.raises(ValueError):
            p.run_batch(np.array([[[0.1]]]), x_init=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            p.run_batch(np.array([[[0.1, 0.2]]]), x_init=np.array([0.0]))


class TestRun:
    def test_single_entry_window_is_one_step(self):
        # the collector reads the carrier's initial state through A's one entry
        p = ESNParams(
            carriers=(), collector=np.array([[0.5]]), C=np.array([[0.0], [1.0]]), zeta=np.array([0.0, 0.1]),
            W=np.array([[0.0, 1.0]]), structure=BlockStructure(widths=(1, 1)),
        )
        final = p.run_batch(np.array([[[0.3]]]), x_init=np.array([0.2, -0.4]))
        assert final.shape == (1, 2)
        assert final[0, 0] == 0.0
        assert abs(final[0, 1] - math.tanh(0.5 * 0.2 + 0.3 + 0.1)) <= 1e-15

    def test_all_zero_system_stays_at_zero(self):
        p = scalar_esn(0.0)
        arr = np.full((1, 3, 1), 0.5)
        assert np.all(p.run_batch(arr, x_init=np.array([0.0])) == 0.0)

    def test_unrolling_matches_repeated_steps(self):
        p = chain_esn([1, 2], d=1, m=1, seed=21)
        arr = sample_window_array(1, 1.0, 5, 3, seed=22)[2:]
        x = np.zeros(3)
        for t in range(5):
            x = p.run_batch(arr[:, t : t + 1], x_init=x)[0]
            assert np.array_equal(p.run_batch(arr[:, : t + 1], x_init=np.zeros(3))[0], x)

    def test_run_batch_matches_run(self):
        # one window at a time against the whole batch: rows of one matmul
        # associate sums differently, so they agree to rounding, not bitwise
        p = chain_esn([1, 1, 2], d=2, m=1, seed=23)
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
        p = dataclasses.replace(p, W=np.zeros((2, p.state_dim)))
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
        assert np.linalg.matrix_power(p.A, 3).any()
        assert not np.linalg.matrix_power(p.A, 4).any()

    def test_single_block_means_zero_matrix(self):
        p = ESNParams(
            carriers=(), collector=np.zeros((3, 0)), C=np.ones((3, 1)), zeta=np.zeros(3),
            W=np.ones((1, 3)), structure=BlockStructure(widths=(3,)),
        )
        assert np.array_equal(p.A, np.zeros((3, 3)))

    def test_corrupted_upper_entry_fails(self, tmp_path):
        # No system holds an entry above its blocks, so no file with one is a system's.
        p = chain_esn([2, 2, 2], d=1, m=1, seed=35)
        obj = dense_json(p)
        obj["A"][0, 3] = 1.0  # first block row must stay zero
        assert written_matches(p, obj, tmp_path) == (False, "A")

    def test_requires_structure(self):
        with pytest.raises(TypeError, match="structure"):
            ESNParams(carriers=(), collector=np.zeros((1, 0)), C=np.ones((1, 1)), zeta=np.zeros(1),
                      W=np.ones((1, 1)))

    def test_power_is_exactly_zero(self):
        p = chain_esn([3, 3, 3], d=1, m=1, seed=36)
        K = p.structure.horizon
        power = np.linalg.matrix_power(p.A, K + 1)
        assert np.all(power == 0.0)


class TestEchoStateProperty:
    """A window of K+1 or more entries drives every initial state to the same bits."""

    def test_structured_bitwise(self):
        p = chain_esn([3, 4, 5], d=1, m=1, seed=37)
        window = sample_window_array(1, 1.0, p.structure.horizon + 1, 3, seed=38)[2:]
        rng = np.random.default_rng(39)
        ref = p.run_batch(window)
        for _ in range(10):
            assert np.array_equal(p.run_batch(window, x_init=rng.standard_normal(p.state_dim)), ref)

    def test_zero_matrix_converges_in_one_step(self):
        p = scalar_esn(1.0)
        window = np.array([[[0.3]]])
        rng = np.random.default_rng(41)
        ref = p.run_batch(window)
        for _ in range(10):
            assert np.array_equal(p.run_batch(window, x_init=rng.standard_normal(1)), ref)


class TestFiniteMemory:
    """Only the last K+1 entries of a window reach the output."""

    def test_far_past_is_invisible(self):
        p = chain_esn([3, 4, 5], d=2, m=1, seed=45)
        K = p.structure.horizon
        T = 12
        arr = sample_window_array(2, 1.0, T, 3, seed=46)
        modified = arr.copy()
        modified[:, : T - (K + 1)] = np.array([1.0, 0.0])  # boundary-norm rewrite
        assert np.array_equal(p.run_batch(modified), p.run_batch(arr))
        assert np.array_equal(p.functional_batch(modified), p.functional_batch(arr))

    def test_identical_windows(self):
        p = chain_esn([2, 2], d=1, m=1, seed=47)
        arr = sample_window_array(1, 1.0, 5, 3, seed=48)
        assert np.array_equal(p.functional_batch(arr.copy()), p.functional_batch(arr))


class TestBoundedOutputs:
    def test_output_cap_under_adversarial_inputs(self):
        from uniesn.linalg import operator_norm

        p = chain_esn([3, 4, 6], d=1, m=2, seed=53)
        cap = operator_norm(p.W) * np.sqrt(p.state_dim)  # tanh states lie in [-1, 1]^N
        arr = sample_window_array(1, 1.0, p.structure.horizon + 1, 200, seed=54)
        outs = p.functional_batch(arr)
        assert np.all(np.linalg.norm(outs, axis=1) <= cap + 1e-9)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        # json.load gives back the dense A, which holds the blocks, and C, zeta and W, bit for bit.
        p = chain_esn([2, 3, 4], d=2, m=1, seed=55)
        cli._write_json(tmp_path / "esn.json", p.to_json())
        with open(tmp_path / "esn.json", encoding="utf-8") as fh:
            back = json.load(fh)
        for name in ("A", "C", "zeta", "W"):
            assert np.array(back[name]).tobytes() == getattr(p, name).tobytes()
        assert back["structure"] == {"widths": [2, 3, 4], "K": 2}
        assert (back["N"], back["d"], back["m"], back["activation"]) == (9, 2, 1, "tanh")

    @pytest.mark.parametrize("name", ["A", "C", "zeta", "W"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        # A's entry is the collector block's first: A[2][0]
        p = chain_esn([2, 3], d=1, m=1, seed=56)
        field = "collector" if name == "A" else name
        arr = np.array(getattr(p, field))
        arr.flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} holds a non-finite entry"):
            dataclasses.replace(p, **{field: arr})

    @pytest.mark.parametrize("block", ["carriers", "collector"])
    def test_non_finite_block_rejected(self, block):
        p = chain_esn([2, 2, 3], d=1, m=1, seed=56)
        arrays = {"carriers": [np.array(b) for b in p.carriers], "collector": np.array(p.collector)}
        (arrays["carriers"][0] if block == "carriers" else arrays["collector"])[0, 0] = np.nan
        with pytest.raises(ValueError, match="A holds a non-finite entry"):
            dataclasses.replace(p, **arrays)

    def test_dimension_validation(self):
        def system(widths=(2, 2), carriers=(), collector=np.zeros((2, 2)), N=4):
            return ESNParams(carriers=carriers, collector=collector, C=np.zeros((N, 1)), zeta=np.zeros(N),
                             W=np.zeros((1, N)), structure=BlockStructure(widths=widths))

        system()
        with pytest.raises(ValueError, match="carrier and collector shapes"):
            system(collector=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="carrier and collector shapes"):
            system(carriers=(np.zeros((2, 2)),))
        with pytest.raises(ValueError, match="carrier and collector shapes"):
            system(widths=(1, 2, 2), collector=np.zeros((2, 3)), N=5)
        with pytest.raises(ValueError, match="N=3"):
            system(widths=(1, 2), collector=np.zeros((2, 1)), N=4)

    @pytest.mark.parametrize(
        "structure", [{"widths": [True, True], "K": 1}, {"widths": [1, 1], "K": True}], ids=["widths_bool", "K_bool"]
    )
    def test_structure_booleans_rejected(self, structure, tmp_path):
        # each would read as widths (1, 1), horizon 1, if cast with int(); its text is not the system's
        p = chain_esn([1, 1], d=1, m=1, seed=59)
        assert written_matches(p, {**p.to_json(), "structure": structure}, tmp_path) == (False, "structure")


def dense_reference(p, arr, x0):
    """The state recursion with the full dense A, one window at a time."""
    A = p.A
    finals = []
    for window in arr:
        x = np.array(x0, dtype=np.float64)
        for z in window:
            x = np.tanh(A @ x + p.C @ z + p.zeta)
        finals.append(x)
    return np.array(finals)


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
    # A one-entry carrier prefix with three input channels: the input product
    # before the last step is one column wide.
    @example(p=chain_esn([1, 2], 3, 1, 3), extra=0, seed=0)
    # No carriers: before the last step the input product has no columns.
    @example(p=chain_esn([3], 2, 1, 5), extra=2, seed=1)
    def test_matches_dense_reference(self, p, extra, seed):
        T = p.structure.horizon + 1 + extra
        arr = sample_window_array(p.in_dim, 1.0, T, 4, seed)
        x0 = np.random.default_rng(seed).standard_normal(p.state_dim)
        np.testing.assert_allclose(p.run_batch(arr, x_init=x0), dense_reference(p, arr, x0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_step_buffers_are_allocated_once(self, d):
        # A collector half as wide as the state: X, one (B, N) step buffer and
        # one (B, collector) product buffer make 2.5 (B, N) arrays, where a
        # step that allocates its input product and activation holds 3.  The
        # slack covers numpy's fixed-size ufunc buffers.
        p = chain_esn([8, 8, 8, 24], d=d, m=1, seed=61)
        B, N = 8192, p.state_dim
        arr = sample_window_array(d, 1.0, p.structure.horizon + 1, B, seed=62)
        tracemalloc.start()
        try:
            p.run_batch(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * N + 24) * B * 8 + 262144

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
    @given(
        p=systems,
        extra=st.integers(min_value=1, max_value=4),
        past=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    # K=0: the final state reads only the last entry.
    @example(p=chain_esn([3], 2, 1, 5), extra=2, past=[0.0], seed=1)
    # Carriers r >= 1 read the input and W reads the carriers, which no
    # constructed system does; a far past that overflows tanh's argument.
    @example(p=dense_io(chain_esn([2, 3, 1, 2], 2, 2, 7), 8), extra=3, past=[1e308, -1e308, 0.0], seed=2)
    def test_far_past_is_invisible_bitwise(self, p, extra, past, seed):
        # Batches equal in their last K+1 entries give the same rows, bit for
        # bit, whatever finite values their far pasts hold.
        K = p.structure.horizon
        arr = sample_window_array(p.in_dim, 1.0, K + 1 + extra, 3, seed)
        other = arr.copy()
        other[:, :extra] = np.resize(past, (3, extra, p.in_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            states = p.run_batch(other)
        assert np.array_equal(states, p.run_batch(arr))
        assert np.array_equal(states @ p.W.T, p.functional_batch(arr))

    @settings(max_examples=60, deadline=None)
    @given(p=systems, data=st.data())
    def test_entry_outside_pattern_fails_the_match(self, p, data, tmp_path_factory):
        K = p.structure.horizon
        off = p.structure.offsets()
        outside = [(r, c) for r in range(K + 1) for c in range(K + 1)
                   if not ((c == r - 1 and r < K) or (r == K and c < K))]
        r, c = data.draw(st.sampled_from(outside))
        i = data.draw(st.integers(off[r], off[r + 1] - 1))
        j = data.draw(st.integers(off[c], off[c + 1] - 1))
        value = data.draw(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1))
        obj = dense_json(p)
        obj["A"][i, j] = value
        directory = tmp_path_factory.mktemp("outside")
        assert written_matches(p, obj, directory) == (False, "A")
        obj["A"][i, j] = 0.0
        assert written_matches(p, obj, directory) == (True, None)
