"""Single-hidden-layer networks and sup-norm fitting on compact balls.

One net is fitted here, the static net, to the truncated target functional
on a product of balls.  The identity nets that ferry past inputs through the
reservoir are not fitted: each is tanh(s x) / s, which construct.carry
applies and construct.assemble_esn wires.  The activation is always tanh:
bounded, 1-Lipschitz and non-constant, the three facts every estimate
downstream leans on.

Fitting is random features plus ridge least squares, never backprop: the
hidden layer is frozen random, the readout solves a convex problem, and the
whole fit is bitwise reproducible from its arguments.
"""

from dataclasses import dataclass

import numpy as np

from .windows import as_int, check_stated_sizes, freeze, required, sample_product_ball


@dataclass(frozen=True)
class ShallowNet:
    """readout @ tanh(hidden_matrix @ u + hidden_bias)."""

    hidden_matrix: np.ndarray
    hidden_bias: np.ndarray
    readout: np.ndarray

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
        return np.tanh(pre, out=pre) @ self.readout.T

    def to_json(self) -> dict:
        """The net's JSON object, with the weights as (read-only) float arrays."""
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "width": self.width,
            "activation": "tanh",
            "hidden_matrix": self.hidden_matrix,
            "hidden_bias": self.hidden_bias,
            "readout": self.readout,
        }

    @classmethod
    def from_json(cls, obj: dict, where: str = "net") -> "ShallowNet":
        """The net in a JSON object; a missing key raises ValueError naming it and ``where``."""
        if required(obj, "activation", where) != "tanh":
            raise ValueError(f"{where}: unknown activation {obj['activation']!r}; nets are tanh")
        net = cls(**{name: required(obj, name, where) for name in ("hidden_matrix", "hidden_bias", "readout")})
        check_stated_sizes(obj, {"in_dim": net.in_dim, "out_dim": net.out_dim, "width": net.width}, where)
        return net


#: fit_to_tolerance accepts a net whose sampled sup error is at most this
#: share of its tolerance.
FIT_MARGIN = 0.8

#: The ridge penalty of every fit_to_tolerance attempt.
RIDGE = 1e-10

#: The width of every fit_to_tolerance's first attempt; each next one doubles it.
START_WIDTH = 32


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

    max_width: int = 4096
    train_samples: int = 1024
    val_samples: int = 2048

    def __post_init__(self):
        for key in ("max_width", "train_samples", "val_samples"):
            object.__setattr__(self, key, as_int(getattr(self, key), key))
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.max_width < START_WIDTH:
            raise ValueError(f"max_width {self.max_width} is below the start width {START_WIDTH}")

    def widths(self):
        w = START_WIDTH
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

    The sample count n picks how the problem is solved:

    - n >= width + 1: the (width+1)-square normal equations
      (phi^T phi / n + ridge * D) readout^T = phi^T Y / n, where D is the
      identity with the constant unit's entry zeroed.
    - n < width + 1: the same problem in sample space, the (n+1)-square
      bordered system of ``_bordered_readout``, which is smaller.  The
      features are dropped once the system is built and computed again,
      bit for bit, for the readout, so the fit holds at most two large
      arrays at once: features and system while the system is built, then
      system and LAPACK's copy of it during the solve.

    Each regime is bitwise reproducible.  The two agree to rounding, not
    bitwise, so duplicating the samples keeps the readout only to rounding
    once the duplicated count crosses width + 1.  A singular system raises
    LinAlgError in either regime.
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

    try:
        if n < width + 1:
            readout_t = _bordered_readout(X, hidden, bias, Y, ridge)
        else:
            phi = _features(X, hidden, bias)
            gram = phi.T @ phi
            gram /= n
            gram[np.diag_indices(width)] += ridge  # leave the constant unit unpenalized
            rhs = phi.T @ Y / n
            del phi  # the solve then holds only the gram and LAPACK's Fortran copy of it
            # gram is exactly symmetric (phi.T @ phi is one triangle, mirrored),
            # and its F-ordered transpose is LAPACK's layout: solve copies it
            # straight instead of transposing.
            readout_t = np.linalg.solve(gram.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular; increase ridge or width"
        ) from exc
    return ShallowNet(hidden_matrix=hidden, hidden_bias=bias, readout=readout_t.T)


def _features(X: np.ndarray, hidden: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The (n, width+1) features tanh(X @ hidden.T + bias), computed in place."""
    phi = X @ hidden.T
    phi += bias
    return np.tanh(phi, out=phi)


def _bordered_readout(
    X: np.ndarray, hidden: np.ndarray, bias: np.ndarray, Y: np.ndarray, ridge: float
) -> np.ndarray:
    """Solve the same ridge problem in sample space, for n < width + 1.

    With the penalized features F = phi[:, :-1] and the constant unit's
    column f_c = phi[:, -1], the readout (transposed) is (F^T alpha; c) where

        [[F F^T + n ridge I, f_c], [f_c^T, 0]] [alpha; c] = [Y; 0],

    an (n+1)-square system: the border keeps the constant unit unpenalized.
    """
    n = len(X)
    phi = _features(X, hidden, bias)
    feats = phi[:, :-1]
    system = np.empty((n + 1, n + 1))
    # F @ F.T is one triangle, mirrored (exactly symmetric), written straight
    # into the system's leading block.
    np.matmul(feats, feats.T, out=system[:n, :n])
    system[np.diag_indices(n)] += n * ridge
    system[:n, n] = system[n, :n] = phi[:, -1]
    system[n, n] = 0.0
    del phi, feats  # the solve then holds only the system and LAPACK's copy of it
    rhs = np.zeros((n + 1, Y.shape[1]))
    rhs[:n] = Y
    sol = np.linalg.solve(system.T, rhs)  # system is exactly symmetric, as in the primal
    del system
    feats = _features(X, hidden, bias)[:, :-1]  # the same calls, so the same bits
    return np.vstack([feats.T @ sol[:n], sol[n:]])


#: glibc's malloc_trim, found on first use; None before, False where it is missing.
_malloc_trim = None


def _give_back_heap():
    """Return the free heap pages glibc keeps to the system; a no-op without glibc.

    A missed fit attempt frees arrays that glibc keeps as heap, since its mmap
    threshold rises after large frees, and the next, wider attempt's arrays
    then add to that resident set.  ``ctypes`` is imported here, not at module
    load, and ``CDLL(None)`` reads the symbol from the running process: it
    starts no helper process, as ``ctypes.util.find_library`` would.
    """
    global _malloc_trim
    if _malloc_trim is None:
        try:
            import ctypes

            trim = ctypes.CDLL(None).malloc_trim
        except (OSError, AttributeError):
            _malloc_trim = False
        else:
            trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
            _malloc_trim = trim
    if _malloc_trim:
        _malloc_trim(0)


class WidthLadder:
    """The attempts of fit_to_tolerance's doubling fit, each fitted in this process.

    The fitting domain is the product of ``copies`` radius-balls in d-space,
    points stacked to (n, copies * d); ``target`` maps such a batch to
    (n, out_dim).  The training and validation samples are drawn once, here.
    Attempt i fits width ``widths[i]``, doubling from START_WIDTH up to the
    policy's max_width, with its own weight seed on those samples: hidden
    weights on [-s, s] with s = 2 / the domain's circumradius,
    radius * sqrt(copies), and RIDGE.  Its sampled error is the sup over the
    validation sample.  Every attempt depends on the arguments alone, not on
    a tolerance, so one ladder serves every tolerance.
    """

    def __init__(self, target, d: int, radius: float, policy: WidthPolicy, seed: int, *, copies: int):
        ss = np.random.SeedSequence(seed)
        train_seed, val_seed, self.base_weight_seed = (int(s) for s in ss.generate_state(3))
        self.X_train = sample_product_ball(d, radius, copies, policy.train_samples, train_seed)
        self.Y_train = np.asarray(target(self.X_train), dtype=np.float64)
        self.X_val = sample_product_ball(d, radius, copies, policy.val_samples, val_seed)
        self.Y_val = np.asarray(target(self.X_val), dtype=np.float64)
        # The domain's circumradius, not the per-ball radius, is what keeps the
        # hidden scale responsive as the number of balls grows.
        self.scale = 2.0 / (radius * float(np.sqrt(copies)))
        self.widths = tuple(policy.widths())

    def attempt(self, i: int) -> tuple[ShallowNet, float]:
        """Attempt i's net and its sampled sup error; MemoryError if it cannot allocate."""
        net = fit_random_feature(
            self.X_train, self.Y_train, width=self.widths[i], ridge=RIDGE, scale=self.scale,
            seed=self.base_weight_seed + i,
        )
        return net, float(np.max(np.linalg.norm(net.forward(self.X_val) - self.Y_val, axis=1)))


def fit_to_tolerance(
    target,
    d: int,
    radius: float,
    tol: float,
    policy: WidthPolicy,
    seed: int,
    *,
    copies: int,
    ladder=WidthLadder,
) -> tuple[ShallowNet, float]:
    """Fit ``target`` on a product of balls to a sampled sup error <= tol * FIT_MARGIN.

    The attempts are those of ``ladder(target, d, radius, policy, seed,
    copies=copies)``: a WidthLadder, which fits each in this process, or a
    source of the same attempts, such as a sweep's ladder shared by every
    tolerance of one horizon.  They are taken in order, widths doubling,
    until one's error on the held-out validation sample clears
    tol * FIT_MARGIN; the margin leaves headroom because a sampled sup is
    only a lower bound on the true one.

    Raises FitToleranceError, carrying the best achieved error, if max_width
    is not enough, or if an attempt (its fit or its validation forward)
    cannot allocate: the fit then ends at its stage, as an exhausted
    max_width does.  Any other error of an attempt, such as a sweep's
    attempt whose process died, travels up as it is.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    attempts = ladder(target, d, radius, policy, seed, copies=copies)
    best_err = np.inf
    best_net = None
    reason = f"tolerance {tol:g} (margin {FIT_MARGIN:g}) not met"
    for i, width in enumerate(attempts.widths):
        if i:
            _give_back_heap()  # what the missed attempt freed, before this wider one
        try:
            net, err = attempts.attempt(i)
        except MemoryError:
            # Raised outside this handler, so the failed attempt's frames and
            # arrays are released before the error travels up.
            reason = f"width {width} could not allocate"
            break
        if err < best_err:
            best_err, best_net = err, net
        if err <= tol * FIT_MARGIN:
            return net, err
    best_width = best_net.width if best_net else 0
    raise FitToleranceError(
        f"{reason}: best sampled error {best_err:g} at width {best_width}",
        achieved=best_err,
        width=best_width,
    )
