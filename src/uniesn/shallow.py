"""Single-hidden-layer networks and sup-norm fitting on compact balls.

These nets do double duty: one approximates the truncated target functional
on a product of balls, and a chain of them approximates the identity map so
that past inputs can be ferried through the reservoir one step at a time.

Training is random features plus ridge least squares, never backprop: the
hidden layer is frozen random, the readout solves a convex problem, and the
whole fit is bitwise reproducible from its arguments.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .windows import as_int, as_real, freeze, sample_product_ball


@dataclass(frozen=True)
class Activation:
    """A scalar activation, applied componentwise.

    Must be Lipschitz, bounded, and non-constant; those three facts are what
    every estimate downstream leans on.
    """

    kind: str
    lipschitz_const: float

    def __call__(self, x, out=None):
        """sigma(x), written into ``out`` when given (``out`` may be ``x``)."""
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        raise ValueError(f"unknown activation kind {self.kind!r}")


_ACTIVATIONS = {"tanh": Activation(kind="tanh", lipschitz_const=1.0)}


def get_activation(kind: str) -> Activation:
    try:
        return _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}; known: {sorted(_ACTIVATIONS)}") from None


@dataclass(frozen=True)
class ShallowNet:
    """readout @ sigma(hidden_matrix @ u + hidden_bias)."""

    hidden_matrix: np.ndarray
    hidden_bias: np.ndarray
    readout: np.ndarray
    activation: Activation

    def __post_init__(self):
        object.__setattr__(self, "hidden_matrix", freeze(self.hidden_matrix))
        object.__setattr__(self, "hidden_bias", freeze(self.hidden_bias))
        object.__setattr__(self, "readout", freeze(self.readout))
        w, d = self.hidden_matrix.shape
        if self.hidden_bias.shape != (w,):
            raise ValueError(f"hidden_bias shape {self.hidden_bias.shape} != ({w},)")
        if self.readout.ndim != 2 or self.readout.shape[1] != w:
            raise ValueError(f"readout shape {self.readout.shape} incompatible with width {w}")
        for name in ("hidden_matrix", "hidden_bias", "readout"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} holds a non-finite entry")

    @property
    def in_dim(self) -> int:
        return self.hidden_matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.readout.shape[0]

    @property
    def width(self) -> int:
        return self.hidden_matrix.shape[0]

    def forward(self, u) -> np.ndarray:
        """Evaluate the net on a batch (n, d) of input vectors; returns (n, out_dim)."""
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != self.in_dim:
            raise ValueError(f"expected a batch of shape (n, {self.in_dim}), got {u.shape}")
        pre = u @ self.hidden_matrix.T
        pre += self.hidden_bias
        return self.activation(pre, out=pre) @ self.readout.T

    def to_json(self) -> dict:
        """The net's JSON object, with the weights as (read-only) float arrays."""
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "width": self.width,
            "activation": self.activation.kind,
            "hidden_matrix": self.hidden_matrix,
            "hidden_bias": self.hidden_bias,
            "readout": self.readout,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShallowNet":
        return cls(
            hidden_matrix=np.asarray(obj["hidden_matrix"], dtype=np.float64),
            hidden_bias=np.asarray(obj["hidden_bias"], dtype=np.float64),
            readout=np.asarray(obj["readout"], dtype=np.float64),
            activation=get_activation(obj["activation"]),
        )


class FitToleranceError(RuntimeError):
    """Raised when the doubling policy exhausts max_width above tolerance."""

    def __init__(self, message: str, achieved: float, width: int):
        super().__init__(message)
        self.achieved = achieved
        self.width = width


@dataclass(frozen=True)
class WidthPolicy:
    """Doubling schedule and sampling budget for fit_to_tolerance.

    Values are cast on construction (so a parsed JSON object may be passed
    as keyword arguments) and out-of-range values raise ValueError.
    """

    start_width: int = 32
    max_width: int = 4096
    train_samples: int = 1024
    val_samples: int = 2048
    ridge: float = 1e-10
    scale: float | None = None  # None: 2 / circumradius of the fitting domain

    def __post_init__(self):
        for key in ("start_width", "max_width", "train_samples", "val_samples"):
            object.__setattr__(self, key, as_int(getattr(self, key), key))
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.max_width < self.start_width:
            raise ValueError(f"max_width {self.max_width} is below start_width {self.start_width}")
        object.__setattr__(self, "ridge", as_real(self.ridge, "ridge"))
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.scale is not None:
            object.__setattr__(self, "scale", as_real(self.scale, "scale"))
            if not 0 < self.scale < np.inf:
                raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def widths(self):
        w = self.start_width
        while w <= self.max_width:
            yield w
            w *= 2


def fit_random_feature(inputs, targets, width: int, ridge: float, scale: float, seed: int) -> ShallowNet:
    """Frozen random tanh hidden layer + ridge least-squares readout.

    ``width`` random units are drawn i.i.d. uniform on [-scale, scale] (rows
    and biases alike); one extra unit with a zero input row and bias 1 is
    appended so that constant targets are exactly representable.  The readout
    minimizes mean squared error plus ridge * ||readout||_F^2, which makes the
    solution invariant under uniform duplication of the sample set.  The
    constant unit is exempt from the penalty, as an intercept should be.
    """
    X = np.asarray(inputs, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"inconsistent sample shapes {X.shape} vs {Y.shape}")
    if X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    n, d = X.shape

    rng = np.random.default_rng(seed)
    hidden = np.zeros((width + 1, d))
    bias = np.zeros(width + 1)
    hidden[:width] = rng.uniform(-scale, scale, size=(width, d))
    bias[:width] = rng.uniform(-scale, scale, size=width)
    bias[width] = 1.0

    act = _ACTIVATIONS["tanh"]
    pre = X @ hidden.T
    pre += bias
    phi = act(pre, out=pre)  # (n, width+1), written over pre
    gram = phi.T @ phi
    gram /= n
    gram[np.diag_indices(width)] += ridge  # leave the constant unit unpenalized
    rhs = phi.T @ Y / n
    del phi  # the solve's workspace is the peak; phi is not needed for it
    try:
        # gram is exactly symmetric (phi.T @ phi is one triangle, mirrored),
        # and its F-ordered transpose is LAPACK's layout: solve copies it
        # straight instead of transposing.
        readout_t = np.linalg.solve(gram.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular; increase ridge or width"
        ) from exc
    return ShallowNet(hidden_matrix=hidden, hidden_bias=bias, readout=readout_t.T, activation=act)


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).data)
    return h.digest()


def fit_to_tolerance(
    target,
    d: int,
    radius: float,
    tol: float,
    policy: WidthPolicy,
    seed: int,
    *,
    copies: int = 1,
    margin: float = 0.8,
    attempts: dict | None = None,
) -> tuple[ShallowNet, float]:
    """Fit ``target`` on a product of balls to a sampled sup error <= tol * margin.

    The fitting domain is the product of ``copies`` radius-balls in d-space,
    points stacked to (n, copies * d); ``target`` maps such a batch to
    (n, out_dim).  Widths double from policy.start_width until the error on
    a held-out validation sample clears tol * margin; the margin leaves
    headroom because a sampled sup is only a lower bound on the true one.

    Raises FitToleranceError, carrying the best achieved error, if max_width
    is not enough.

    ``attempts``, when given, stores each attempt's (net, sampled error) under
    a key that covers every input the pair depends on: a digest of the
    training and validation points and of the target's values on both, the
    ridge, the hidden scale, the width and the weight seed.  A later call
    with the same dict reuses any attempt whose key it repeats, so its result
    is bitwise that of a call without the dict.  The caller owns the dict and
    its lifetime.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not 0 < margin <= 1:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    ss = np.random.SeedSequence(seed)
    train_seed, val_seed, base_weight_seed = (int(s) for s in ss.generate_state(3))
    X_train = sample_product_ball(d, radius, copies, policy.train_samples, train_seed)
    Y_train = np.asarray(target(X_train), dtype=np.float64)
    X_val = sample_product_ball(d, radius, copies, policy.val_samples, val_seed)
    Y_val = np.asarray(target(X_val), dtype=np.float64)
    data_key = _digest(X_train, Y_train, X_val, Y_val) if attempts is not None else None

    # The domain's circumradius, not the per-ball radius, is what keeps the
    # default hidden scale responsive as the number of balls grows.
    scale = policy.scale if policy.scale is not None else 2.0 / (radius * float(np.sqrt(copies)))
    best_err = np.inf
    best_net = None
    for attempt, width in enumerate(policy.widths()):
        weight_seed = base_weight_seed + attempt
        key = (data_key, policy.ridge, scale, width, weight_seed)
        if attempts is not None and key in attempts:
            net, err = attempts[key]
        else:
            net = fit_random_feature(
                X_train, Y_train, width=width, ridge=policy.ridge, scale=scale, seed=weight_seed
            )
            err = float(np.max(np.linalg.norm(net.forward(X_val) - Y_val, axis=1)))
            if attempts is not None:
                attempts[key] = net, err
        if err < best_err:
            best_err, best_net = err, net
        if err <= tol * margin:
            return net, err
    raise FitToleranceError(
        f"tolerance {tol:g} (margin {margin:g}) not met: best sampled error "
        f"{best_err:g} at width {best_net.width if best_net else 0}",
        achieved=best_err,
        width=best_net.width if best_net else 0,
    )
