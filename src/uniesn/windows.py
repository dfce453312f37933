"""Finite windows of bounded semi-infinite input sequences.

A semi-infinite input taking values in the closed Euclidean ball of radius M
is represented by its last T entries; everything further in the past is an
implicit zero.  Every target filter in the zoo has fading memory, so the
zero-extension error is controlled by an analytic truncation bound, and the
constructed networks have exact finite memory, which makes windows of
sufficient length lossless.

Entries are stored past-to-present: ``entries[0]`` is the oldest value and
``entries[-1]`` is the value at time 0.
"""

from dataclasses import dataclass

import numpy as np


def freeze(arr) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``arr``."""
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def as_int(value, name: str) -> int:
    """A parsed integer field: integral numbers and numeric strings cast, while
    booleans and non-integral numbers raise ValueError instead of truncating."""
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """A parsed real field; a boolean raises ValueError instead of reading as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class InputWindow:
    """The last ``T`` entries of a bounded input sequence.

    entries: (T, d) array, rows ordered past-to-present (row -1 is time 0).
    bound:   radius M of the closed ball every entry must lie in.
    """

    entries: np.ndarray
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "entries", freeze(self.entries))
        if self.entries.ndim != 2:
            raise ValueError(f"entries must be a (T, d) array, got shape {self.entries.shape}")
        T, d = self.entries.shape
        if T < 1 or d < 1:
            raise ValueError(f"window needs T >= 1 and d >= 1, got T={T}, d={d}")
        if not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound}")
        norms = np.linalg.norm(self.entries, axis=1)
        if np.any(norms > self.bound):
            worst = int(np.argmax(norms))
            raise ValueError(
                f"entry at position {worst} has norm {norms[worst]!r} > bound {self.bound!r}; "
                "input lies outside the admissible ball"
            )

    @property
    def length(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def to_json(self) -> dict:
        return {
            "time_order": "past_to_present",
            "dim": self.dim,
            "bound": self.bound,
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InputWindow":
        if obj.get("time_order") != "past_to_present":
            raise ValueError(f"unsupported time_order {obj.get('time_order')!r}")
        return cls(entries=np.asarray(obj["entries"], dtype=np.float64), bound=float(obj["bound"]))


def make_window(entries, M: float) -> InputWindow:
    """Validate a list of d-vectors as a window with per-entry norm <= M."""
    arr = np.atleast_2d(np.asarray(entries, dtype=np.float64))
    return InputWindow(entries=arr, bound=float(M))


def sample_product_ball(d: int, R: float, copies: int, n: int, seed: int) -> np.ndarray:
    """``n`` points of the product of ``copies`` d-balls, stacked to (n, copies*d).

    Each d-slot is sampled independently and uniformly on its ball.  Row 0 is
    all zeros; row 1 (when n >= 2) puts the boundary probe R*e_1 in every slot,
    so sampled maxima always see the boundary.  Bitwise reproducible from
    ``seed``.
    """
    if copies < 1:
        raise ValueError(f"need copies >= 1, got {copies}")
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
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


def sample_window_array(d: int, M: float, T: int, n: int, seed: int) -> np.ndarray:
    """``n`` windows of length T as an (n, T, d) array, entries uniform on the M-ball.

    Row 0 is the all-zero window; row 1 (when n >= 2) is the constant boundary
    window with every entry M*e_1.
    """
    return sample_product_ball(d, M, T, n, seed).reshape(n, T, d)


def weighted_distance(w1: InputWindow, w2: InputWindow, decay: float = 0.5) -> float:
    """Geometric-weight distance sum_{t<=0} decay^|t| * ||z1_t - z2_t||.

    Metrizes the product topology on fixed-bound sequences; the shorter window
    is zero-extended to the common length.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    if w1.dim != w2.dim:
        raise ValueError(f"dimension mismatch: {w1.dim} vs {w2.dim}")
    T = max(w1.length, w2.length)
    a = np.zeros((T, w1.dim))
    b = np.zeros((T, w2.dim))
    a[T - w1.length :] = w1.entries
    b[T - w2.length :] = w2.entries
    diffs = np.linalg.norm(a - b, axis=1)
    weights = decay ** np.arange(T - 1, -1, -1, dtype=np.float64)
    return float(weights @ diffs)
