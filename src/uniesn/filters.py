"""Target filters: causal, time-invariant, fading-memory, with certified tails.

Each filter here is an analytic family whose finite-memory truncation error
has a closed-form upper bound.  That bound is what lets the construction
spend exactly a third of its error budget on truncation and prove it, rather
than invoking an existence theorem.  Arbitrary callables are deliberately
not accepted.

All filters act on zero-extended windows: entries older than the stored
window are exactly zero, so the defining series are finite sums.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import operator_norm
from .windows import as_int, as_real, freeze, required

_HORIZON_CAP = 10_000


class HorizonCapError(RuntimeError):
    """No truncation horizon below the hard cap meets the requested budget."""


def _lagged(arr: np.ndarray, j: int) -> np.ndarray:
    """Batch entry at lag j: arr is (B, T, d); zero beyond the stored past."""
    B, T, d = arr.shape
    if j >= T:
        return np.zeros((B, d))
    return arr[:, T - 1 - j, :]


@dataclass(frozen=True)
class TargetFilter:
    """Base for filter families; subclasses define the series and its tail."""

    in_dim: int
    out_dim: int
    input_bound: float

    def evaluate_batch(self, arr: np.ndarray) -> np.ndarray:
        """The functional on a (B, T, d) batch of zero-extended windows: the
        (B, out_dim) outputs at time 0.  By time invariance, the output at
        time -k is the functional on ``arr[:, : T - k]``."""
        raise NotImplementedError

    def truncation_bound(self, horizon: int) -> float:
        """Upper bound on the sup (over admissible inputs) of the error made by
        forgetting everything older than lag ``horizon``."""
        raise NotImplementedError

    def choose_horizon(self, budget: float) -> int:
        """Smallest K >= 0 with truncation_bound(K) < budget."""
        if not budget > 0:
            raise ValueError(f"budget must be positive, got {budget}")
        for horizon in range(_HORIZON_CAP + 1):
            if self.truncation_bound(horizon) < budget:
                return horizon
        raise HorizonCapError(
            f"no horizon K <= {_HORIZON_CAP} has truncation bound below {budget:g}; "
            "the filter's memory decays too slowly or the budget is too small"
        )


@dataclass(frozen=True)
class FIRFilter(TargetFilter):
    """H(z) = sum_{j=0}^{J} a_j z_{-j} with finitely many matrix taps a_j."""

    coeffs: tuple = ()  # tuple of (out_dim, in_dim) arrays, lag order a_0..a_J

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(freeze(a) for a in self.coeffs))
        for a in self.coeffs:
            if a.shape != (self.out_dim, self.in_dim):
                raise ValueError(f"tap shape {a.shape} != ({self.out_dim}, {self.in_dim})")
            if not np.isfinite(a).all():
                raise ValueError("filter tap holds a non-finite entry")

    def evaluate_batch(self, arr: np.ndarray) -> np.ndarray:
        out = np.zeros((arr.shape[0], self.out_dim))
        for j, a in enumerate(self.coeffs):
            out += _lagged(arr, j) @ a.T
        return out

    def truncation_bound(self, horizon: int) -> float:
        return float(
            sum(operator_norm(a) for j, a in enumerate(self.coeffs) if j > horizon)
            * self.input_bound
        )


@dataclass(frozen=True)
class ExpFadingFilter(TargetFilter):
    """H(z) = sum_{j>=0} decay^j B z_{-j}: geometric memory, closed-form tail."""

    matrix: np.ndarray = field(default_factory=lambda: np.ones((1, 1)))
    decay: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        if self.matrix.shape != (self.out_dim, self.in_dim):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({self.out_dim}, {self.in_dim})")
        if not np.isfinite(self.matrix).all():
            raise ValueError("filter matrix holds a non-finite entry")
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")

    def evaluate_batch(self, arr: np.ndarray) -> np.ndarray:
        B, T, d = arr.shape
        # weights along the stored axis: entry at row t has lag T-1-t
        weights = self.decay ** np.arange(T - 1, -1, -1, dtype=np.float64)
        summed = np.einsum("t,btd->bd", weights, arr)
        return summed @ self.matrix.T

    def truncation_bound(self, horizon: int) -> float:
        return float(
            operator_norm(self.matrix)
            * self.input_bound
            * self.decay ** (horizon + 1)
            / (1.0 - self.decay)
        )


@dataclass(frozen=True)
class QuadTerm:
    """One quadratic interaction: b * (z_{-j} . z_{-k}), b an out_dim vector."""

    j: int
    k: int
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", freeze(np.ravel(self.b)))
        if self.j < 0 or self.k < 0:
            raise ValueError(f"lags must be >= 0, got ({self.j}, {self.k})")
        if not np.isfinite(self.b).all():
            raise ValueError("quad coefficient holds a non-finite entry")


@dataclass(frozen=True)
class Volterra2Filter(FIRFilter):
    """FIR part plus finitely many second-order interaction terms."""

    quad: tuple = ()  # tuple of QuadTerm

    def __post_init__(self):
        super().__post_init__()
        for q in self.quad:
            if q.b.shape != (self.out_dim,):
                raise ValueError(f"quad coefficient shape {q.b.shape} != ({self.out_dim},)")

    def evaluate_batch(self, arr: np.ndarray) -> np.ndarray:
        out = super().evaluate_batch(arr)
        for q in self.quad:
            inner = np.sum(_lagged(arr, q.j) * _lagged(arr, q.k), axis=1)
            out += inner[:, None] * q.b[None, :]
        return out

    def truncation_bound(self, horizon: int) -> float:
        M = self.input_bound
        quadratic = sum(
            float(np.linalg.norm(q.b)) * M * M
            for q in self.quad
            if q.j > horizon or q.k > horizon
        )
        return float(super().truncation_bound(horizon) + quadratic)


def filter_from_json(obj: dict) -> TargetFilter:
    """Build a filter from its JSON spec, the filter section of a run config."""
    kind = obj.get("kind")
    d, m, M = (required(obj, key, "filter") for key in ("d", "m", "M"))
    d, m, M = as_int(d, "filter d"), as_int(m, "filter m"), as_real(M, "filter M")
    if d < 1 or m < 1 or not 0 < M < np.inf:
        raise ValueError(f"filter needs d, m >= 1 and a finite positive M, got d={d}, m={m}, M={M}")
    if kind == "fir":
        return FIRFilter(
            in_dim=d, out_dim=m, input_bound=M,
            coeffs=tuple(np.asarray(a, dtype=np.float64) for a in required(obj, "coeffs", "filter")),
        )
    if kind == "exp_fading":
        return ExpFadingFilter(
            in_dim=d, out_dim=m, input_bound=M,
            matrix=np.asarray(required(obj, "B", "filter"), dtype=np.float64),
            decay=as_real(required(obj, "lambda", "filter"), "filter lambda"),
        )
    if kind == "volterra2":
        return Volterra2Filter(
            in_dim=d, out_dim=m, input_bound=M,
            coeffs=tuple(np.asarray(a, dtype=np.float64) for a in obj.get("coeffs", [])),
            quad=tuple(
                QuadTerm(
                    j=as_int(required(q, "j", "quad term"), "quad j"),
                    k=as_int(required(q, "k", "quad term"), "quad k"),
                    b=np.asarray(required(q, "b", "quad term"), dtype=np.float64),
                )
                for q in obj.get("quad", [])
            ),
        )
    raise ValueError(f"unknown filter kind {kind!r}")
