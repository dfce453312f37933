"""Echo state network state-space systems and their property checks.

The system is x_t = tanh(A x_{t-1} + C z_t + zeta), y_t = W x_t.  Its state
stacks K identity-carrier blocks and a collector block, and A is nonzero only
in the sub-diagonal carrier chain and the collector's row.  ESNParams holds
just those blocks, so every system is strictly block-lower-triangular,
nilpotent of degree K+1 by its type.  Nilpotency gives exact finite memory,
which is how the echo state and fading memory properties are certified here.
A dense A exists only in esn.json: ESNParams.from_json reads it and raises
PatternError for a nonzero entry outside the blocks.
"""

from dataclasses import dataclass

import numpy as np

from .windows import as_int, check_stated_sizes, freeze


@dataclass(frozen=True)
class BlockStructure:
    """State-block widths of an assembled system.

    widths[i] for i < horizon is the width of the i-th identity-carrier block;
    widths[-1] is the collector block driven by the static net.
    """

    widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(as_int(w, "structure widths") for w in self.widths))
        if len(self.widths) < 1 or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be a non-empty tuple of positives, got {self.widths}")

    @property
    def horizon(self) -> int:
        return len(self.widths) - 1

    @property
    def total(self) -> int:
        return sum(self.widths)

    def offsets(self) -> np.ndarray:
        """Start index of each block in the stacked state vector."""
        return np.concatenate([[0], np.cumsum(self.widths)])


def _block_spans(structure: BlockStructure) -> list:
    """(rows, cols) of each block of A that may be nonzero: the carriers
    A[r, r-1] for 1 <= r < K in order, then the collector A[K, :K]."""
    off, K = structure.offsets(), structure.horizon
    span = [slice(off[r], off[r + 1]) for r in range(K + 1)]
    return [(span[r], span[r - 1]) for r in range(1, K)] + [(span[K], slice(0, off[K]))]


class PatternError(ValueError):
    """A dense A with a nonzero entry outside the blocks its structure allows."""


@dataclass(frozen=True)
class ESNParams:
    """Full parameterization of the state-space system, A as its blocks.

    carriers[r-1] is the block A[r, r-1] for 1 <= r < K, the carrier chain.
    collector is the last block row's first K blocks, A[K, :K], one
    (widths[K], N - widths[K]) matrix.  Every other entry of A is zero.
    """

    carriers: tuple
    collector: np.ndarray
    C: np.ndarray
    zeta: np.ndarray
    W: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        object.__setattr__(self, "carriers", tuple(freeze(block) for block in self.carriers))
        for name in ("collector", "C", "zeta", "W"):
            object.__setattr__(self, name, freeze(getattr(self, name)))
        N, widths = self.structure.total, self.structure.widths
        shapes = [block.shape for block in (*self.carriers, self.collector)]
        if shapes != [(r.stop - r.start, c.stop - c.start) for r, c in _block_spans(self.structure)]:
            raise ValueError(f"carrier and collector shapes {shapes} do not fit structure widths {widths}")
        if self.C.ndim != 2 or self.C.shape[0] != N:
            raise ValueError(f"C shape {self.C.shape} incompatible with N={N}")
        if self.zeta.shape != (N,):
            raise ValueError(f"zeta shape {self.zeta.shape} != ({N},)")
        if self.W.ndim != 2 or self.W.shape[1] != N:
            raise ValueError(f"W shape {self.W.shape} incompatible with N={N}")
        named = [("A", block) for block in (*self.carriers, self.collector)]
        for name, arr in named + [(name, getattr(self, name)) for name in ("C", "zeta", "W")]:
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a non-finite entry")

    @property
    def state_dim(self) -> int:
        return self.structure.total

    @property
    def in_dim(self) -> int:
        return self.C.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def _blocks(self) -> list:
        """(rows, cols, block) for each block of A that may be nonzero: the
        carriers in order, then the collector."""
        blocks = (*self.carriers, self.collector)
        return [(rows, cols, block) for (rows, cols), block in zip(_block_spans(self.structure), blocks)]

    @property
    def A(self) -> np.ndarray:
        """The dense, read-only N x N reservoir matrix, built anew on each call."""
        A = np.zeros((self.state_dim, self.state_dim))
        for rows, cols, block in self._blocks():
            A[rows, cols] = block
        A.flags.writeable = False
        return A

    def run_batch(self, arr: np.ndarray, x_init: np.ndarray | None = None) -> np.ndarray:
        """Final states for a (B, T, d) batch of windows, started from x_init.

        The carriers run at every step of the window from x_init, each
        multiplying only its block of A.  The collector row runs only at the
        last step: no block of A reads the collector's state, so before then
        only the carriers, the leading entries, are live.  Each step computes
        only the entries it needs, its input product included, so the result
        agrees with the dense recursion to rounding.  Only the time-0 state is
        returned, shape (B, N).  The step buffers are allocated once per call,
        so the call holds X and about two more (B, N) arrays.
        """
        B, T, d = arr.shape
        if d != self.in_dim:
            raise ValueError(f"window dim {d} != input dim {self.in_dim}")
        N = self.state_dim
        if x_init is not None and np.shape(x_init) != (N,):
            raise ValueError(f"x_init shape {np.shape(x_init)} != ({N},)")
        X = np.empty((B, N))  # float64 whatever x_init is: the steps write into it
        X[:] = 0.0 if x_init is None else x_init
        # A horizon-0 system's collector block has no columns: nothing to run.
        blocks = [(rows, cols, block.T) for rows, cols, block in self._blocks() if block.size]
        carrier_dim = int(self.structure.offsets()[-2])
        Ct = self.C.T
        # Each step's pre-activation and block product are contiguous
        # reshapes of these, as wide as the step needs.
        pre_buf = np.empty(B * N)
        prod_buf = np.empty(B * max((rows.stop - rows.start for rows, _, _ in blocks), default=0))
        for t in range(T):
            last = t == T - 1
            live = N if last else carrier_dim
            pre = np.matmul(arr[:, t, :], Ct[:, :live], out=pre_buf[: B * live].reshape(B, live))
            for rows, cols, block_t in blocks if last else blocks[:-1]:
                width = rows.stop - rows.start
                pre[:, rows] += np.matmul(X[:, cols], block_t, out=prod_buf[: B * width].reshape(B, width))
            pre += self.zeta[:live]
            X[:, :live] = np.tanh(pre, out=pre)
        return X

    def functional_batch(self, arr: np.ndarray) -> np.ndarray:
        """(B, T, d) batch of windows -> (B, m) outputs.

        Each output is W x_0 for the unique zero-extended solution of the
        state equation.  Windows need length >= horizon+1; the result is then
        independent of the initial state, so the zero state is used.
        """
        T, need = arr.shape[1], self.structure.horizon + 1
        if T < need:
            raise ValueError(f"window of length {T} too short: need >= {need}")
        return self.run_batch(arr) @ self.W.T

    def to_json(self) -> dict:
        """The esn.json object, with the matrices as (read-only) float arrays."""
        return {
            "N": self.state_dim,
            "d": self.in_dim,
            "m": self.out_dim,
            "activation": "tanh",
            "A": self.A,
            "C": self.C,
            "zeta": self.zeta,
            "W": self.W,
            "structure": {"widths": list(self.structure.widths), "K": self.structure.horizon},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ESNParams":
        """The system in an esn.json object.

        KeyError, TypeError or ValueError if it is malformed, a non-finite
        entry anywhere included; PatternError, a ValueError, if it is well
        formed but its dense A has a nonzero entry outside the blocks.
        """
        structure = obj.get("structure") if isinstance(obj, dict) else None
        if not isinstance(structure, dict):
            raise ValueError("esn.json has no structure object, which construct always writes")
        if obj["activation"] != "tanh":
            raise ValueError(f"unknown activation {obj['activation']!r}; systems are tanh")
        blocks = BlockStructure(widths=tuple(structure["widths"]))
        N = blocks.total
        if as_int(structure["K"], "structure K") != blocks.horizon:
            raise ValueError(f"structure K={structure['K']} does not match {len(blocks.widths)} widths")
        A = np.array(obj["A"], dtype=np.float64)
        if not np.isfinite(A).all():
            raise ValueError("A holds a non-finite entry")
        if A.shape != (N, N):
            raise ValueError(f"A has shape {A.shape}, but structure widths sum to {N}")
        spans = _block_spans(blocks)
        *carriers, collector = (A[rows, cols] for rows, cols in spans)
        esn = cls(
            carriers=carriers, collector=collector, C=obj["C"], zeta=obj["zeta"], W=obj["W"], structure=blocks
        )
        check_stated_sizes(obj, {"N": esn.state_dim, "d": esn.in_dim, "m": esn.out_dim}, "esn.json")
        # What is left of A once its blocks are cleared must be zero.
        for rows, cols in spans:
            A[rows, cols] = 0.0
        if A.any():
            i, j = divmod(int(np.argmax(A != 0)), N)
            raise PatternError(
                f"A[{i}][{j}] = {float(A[i, j])!r} lies outside the blocks structure widths {blocks.widths} allow"
            )
        return esn


def check_nilpotent(p: ESNParams) -> tuple[bool, int]:
    """Prove A^(horizon+1) == 0 from the blocks ESNParams holds.

    A is nonzero only in the carrier chain (block row r, column r-1) for
    1 <= r < horizon and in the last block row at columns 0..horizon-1, so it
    is strictly block-lower-triangular with horizon+1 block rows, and its
    (horizon+1)-th power vanishes exactly: the blocks are finite, so no
    inf * 0 can spoil the zeros.  Every system is so by its type, and
    ESNParams.from_json turns away a dense A that is not.
    """
    return True, p.structure.horizon + 1


def check_esp_empirical(p: ESNParams, window: np.ndarray, trials: int, seed: int) -> bool:
    """Do `trials` random initial states all lead to the same time-0 state
    on a (T, d) window?

    They must agree bitwise: A is nilpotent of degree horizon+1, so init
    dependence vanishes after horizon+1 steps.  Each trial is its own one-window batch: rows of
    one matmul are not bitwise equal across row positions, so stacking the
    trials would break the bitwise comparison.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"window must be a (T, d) array, got shape {window.shape}")
    if len(window) < p.structure.horizon + 1:
        raise ValueError(f"window of length {len(window)} too short: need >= {p.structure.horizon + 1}")
    rng = np.random.default_rng(seed)
    arr = window[None, :, :]
    finals = [p.run_batch(arr, x_init=rng.standard_normal(p.state_dim))[0] for _ in range(trials)]
    return all(np.array_equal(finals[0], x) for x in finals[1:])


def check_finite_memory(p: ESNParams, arr1: np.ndarray, arr2: np.ndarray) -> bool:
    """Do two (B, T, d) batches that share their last horizon+1 entries give
    bitwise-equal outputs, row i against row i?"""
    K = p.structure.horizon
    if arr1.shape != arr2.shape or arr1.shape[1] < K + 1:
        raise ValueError(f"need equal-shape batches of windows with >= {K + 1} entries")
    if not np.array_equal(arr1[:, -(K + 1) :], arr2[:, -(K + 1) :]):
        raise ValueError(f"windows must agree on their last {K + 1} entries")
    return bool(np.array_equal(p.functional_batch(arr1), p.functional_batch(arr2)))

