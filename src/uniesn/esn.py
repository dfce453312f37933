"""Echo state network state-space systems and their property checks.

The system is x_t = tanh(A x_{t-1} + C z_t + zeta), y_t = W x_t.  Systems
assembled by the constructor carry block-structure metadata: the reservoir
matrix A is strictly lower block-triangular with a single sub-diagonal chain
plus a final collector row, hence nilpotent of degree K+1.  Nilpotency gives
exact finite memory, which is how the echo state and fading memory properties
are certified here.  Every system carries that metadata; a system whose A
breaks its declared pattern still runs, densely, and fails the nilpotency
check.
"""

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class ESNParams:
    """Full parameterization of the state-space system."""

    A: np.ndarray
    C: np.ndarray
    zeta: np.ndarray
    W: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        object.__setattr__(self, "A", freeze(self.A))
        object.__setattr__(self, "C", freeze(self.C))
        object.__setattr__(self, "zeta", freeze(self.zeta))
        object.__setattr__(self, "W", freeze(self.W))
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        N = self.A.shape[0]
        if self.C.ndim != 2 or self.C.shape[0] != N:
            raise ValueError(f"C shape {self.C.shape} incompatible with N={N}")
        if self.zeta.shape != (N,):
            raise ValueError(f"zeta shape {self.zeta.shape} != ({N},)")
        if self.W.ndim != 2 or self.W.shape[1] != N:
            raise ValueError(f"W shape {self.W.shape} incompatible with N={N}")
        if self.structure.total != N:
            raise ValueError(
                f"structure widths sum to {self.structure.total}, but N={N}"
            )
        for name in ("A", "C", "zeta", "W"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} holds a non-finite entry")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def in_dim(self) -> int:
        return self.C.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    @cached_property
    def _structured(self) -> bool:
        """Does A keep the block pattern its structure metadata declares?"""
        return _pattern_holds(self.A, self.structure)

    @cached_property
    def _row_blocks(self) -> tuple:
        """(rows, cols, A[rows, cols].T) for every block row of A that may be nonzero.

        In a structured system each block row's allowed blocks are adjacent, so
        one product per block row covers them.  A system whose pattern fails is
        one dense block.
        """
        N = self.state_dim
        if not self._structured:
            return ((slice(0, N), slice(0, N), self.A.T),)
        off = self.structure.offsets()
        cols: dict[int, list[int]] = {}
        for r, c in _allowed_blocks(self.structure.horizon):
            cols.setdefault(r, []).append(c)
        out = []
        for r, cs in cols.items():
            rows, span = slice(off[r], off[r + 1]), slice(off[min(cs)], off[max(cs) + 1])
            out.append((rows, span, self.A[rows, span].T))
        return tuple(out)

    def run_batch(self, arr: np.ndarray, x_init: np.ndarray | None = None) -> np.ndarray:
        """Final states for a (B, T, d) batch of windows, started from x_init.

        The carriers run at every step of the window from x_init, multiplying
        only the blocks of A the pattern allows once it is proven.  The
        collector row runs only at the last step, and only when the pattern
        is proven; otherwise every row runs at every step.  Each step computes
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
        # Under a proven pattern A's collector column block is zero, so no step
        # reads the collector's state: before the last step only the carriers,
        # the leading entries, are live.  Otherwise every entry is.
        before_last = int(self.structure.offsets()[-2]) if self._structured else N
        Ct = self.C.T
        # Each step's pre-activation and block product are contiguous
        # reshapes of these, as wide as the step needs.
        pre_buf = np.empty(B * N)
        prod_buf = np.empty(B * max((rows.stop - rows.start for rows, _, _ in self._row_blocks), default=0))
        for t in range(T):
            live = N if t == T - 1 else before_last
            pre = np.matmul(arr[:, t, :], Ct[:, :live], out=pre_buf[: B * live].reshape(B, live))
            for rows, cols, block_t in self._row_blocks:
                if rows.start < live:
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
        """The system in an esn.json object; KeyError, TypeError or ValueError
        if it is malformed."""
        structure = obj.get("structure") if isinstance(obj, dict) else None
        if not isinstance(structure, dict):
            raise ValueError("esn.json has no structure object, which construct always writes")
        if obj["activation"] != "tanh":
            raise ValueError(f"unknown activation {obj['activation']!r}; systems are tanh")
        blocks = BlockStructure(widths=tuple(structure["widths"]))
        if as_int(structure["K"], "structure K") != blocks.horizon:
            raise ValueError(f"structure K={structure['K']} does not match {len(blocks.widths)} widths")
        esn = cls(A=obj["A"], C=obj["C"], zeta=obj["zeta"], W=obj["W"], structure=blocks)
        check_stated_sizes(obj, {"N": esn.state_dim, "d": esn.in_dim, "m": esn.out_dim}, "esn.json")
        return esn


def _allowed_blocks(K: int) -> list[tuple[int, int]]:
    """(block row, block column) of every block of A that may be nonzero: the
    carrier chain A[r, r-1] for 1 <= r < K, then the collector row A[K, j]
    for 0 <= j < K."""
    return [(r, r - 1) for r in range(1, K)] + [(K, j) for j in range(K)]


def _pattern_holds(A: np.ndarray, structure: BlockStructure) -> bool:
    """Is A exactly zero outside its allowed blocks?

    Such an A is strictly block-lower-triangular with K+1 block rows, so
    A^(K+1) == 0 exactly.
    """
    K = structure.horizon
    off = structure.offsets()
    allowed = set(_allowed_blocks(K))
    return not any(
        np.any(A[off[r] : off[r + 1], off[c] : off[c + 1]])
        for r in range(K + 1)
        for c in range(K + 1)
        if (r, c) not in allowed
    )


def check_nilpotent(p: ESNParams) -> tuple[bool, int]:
    """Prove A^(horizon+1) == 0 from A's block pattern.

    Allowed nonzero blocks: the sub-diagonal chain (block row r, column r-1)
    for 1 <= r < horizon, and the last block row at columns 0..horizon-1.
    Everything else, including the entire first block row and the last
    diagonal block, must be exactly zero.  Such a matrix is strictly
    block-lower-triangular with horizon+1 block rows, so its (horizon+1)-th
    power vanishes exactly: ESNParams rejects non-finite entries, so no
    inf * 0 can spoil the zeros.  Returns (False, 0) on any violation.
    """
    if not p._structured:
        return False, 0
    return True, p.structure.horizon + 1


def check_esp_empirical(p: ESNParams, window: np.ndarray, trials: int, seed: int) -> bool:
    """Do `trials` random initial states all lead to the same time-0 state
    on a (T, d) window?

    They must agree bitwise: under a proven pattern, init dependence vanishes
    after horizon+1 steps.  Each trial is its own one-window batch: rows of
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

