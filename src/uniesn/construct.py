"""Build an echo state network within eps of a target filter, and check it.

The pipeline mirrors the constructive argument it implements:

1.  Pick the smallest memory horizon whose analytic truncation bound is below
    eps/3.
2.  Fit a shallow static net to the truncated functional on the product of
    per-lag balls, to sampled sup error below eps/3.
3.  Split the static net's hidden matrix into per-lag column blocks and form
    the error gain: readout norm times the lag-weighted sum of block norms
    (tanh is 1-Lipschitz).  Per-identity-net error times this gain bounds
    the output error of ferrying inputs through the reservoir.
4.  Write down one identity net per delay step, phi(x) = tanh(s x) / s
    coordinate-wise, with s the largest power of two whose proven chain bound
    gain * (s^2 M^3 / 3 + rho) is below eps/3 (|tanh t - t| <= |t|^3 / 3, and
    phi maps the M-ball into itself).  After j steps the composed chain drifts
    less than j * (s^2 M^3 / 3 + rho) from the identity.  That depends only on
    (d, j, s, M), so the test suite checks it as a property and no build samples it.
5.  Assemble the block system: a sub-diagonal chain of carrier blocks feeding
    a collector block.  The reservoir matrix is nilpotent of degree
    horizon + 1 by construction, which certifies the echo state and fading
    memory properties exactly.
6.  Estimate the sampled budget terms, and the chain's witness, on fresh Monte
    Carlo samples and check the triangle inequality closes below eps.

Sampled suprema are lower bounds on the true ones; the truncation and chain
terms are true upper bounds.  The error budget records which is which.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .esn import BlockStructure, ESNParams
from .filters import TargetFilter
from .linalg import operator_norm
from .shallow import FitToleranceError, ShallowNet, WidthLadder, WidthPolicy, fit_to_tolerance
from .windows import as_int, as_real, sample_window_array

#: Each identity net's allowance for its own rounding, relative to M.  With s a
#: power of two, s*x and the readout's 1/s are exact, so only tanh rounds, and
#: numpy's tanh measures about 1.6 * 2**-53 relative against mpmath: a net
#: then errs by less than 2**-52 * ||x|| in floating point, and 2**-40 * M is
#: 4096 times that.
CHAIN_ROUNDING = 2.0**-40

#: Largest recursion-versus-closed-form gap a build or a verify accepts.
CLOSED_FORM_TOL = 1e-10

#: Most windows the budget evaluates at once.  It takes them in consecutive
#: blocks of this many (the last may be shorter), so its working set is a
#: few (block, width) arrays whatever budget_windows is.
BUDGET_BLOCK = 2048

#: Entries of each budget window and each verify window, unless the horizon needs more.
WINDOW_LEN = 30


class ConstructionError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class BudgetError(ConstructionError):
    """A budget term came out at or above its share of eps."""

    def __init__(self, term: str, value: float, limit: float):
        super().__init__(
            "budget", f"budget term {term!r} is {value:g}, needs < {limit:g}"
        )
        self.term = term
        self.value = value
        self.limit = limit


#: The sample counts of ConstructionConfig that a build draws, each at least 1.
SAMPLE_COUNTS = ("budget_windows", "closed_form_check_windows")


@dataclass(frozen=True)
class ConstructionConfig:
    """Tolerance, seed, fitting policies, and sample counts for one build.

    This is the construction config's schema: values are cast on
    construction, a policy may be given as a dict of WidthPolicy fields, an
    unknown key raises TypeError and an out-of-range value ValueError.
    """

    eps: float
    seed: int = 0
    static_policy: WidthPolicy = field(default_factory=WidthPolicy)
    # Read by nothing since the identity nets are written down, but still
    # parsed and validated: the benchmark's self-check config sets it.
    identity_policy: WidthPolicy = field(default_factory=WidthPolicy)
    # Read by nothing since the chain's drift is a tested property; ROADMAP item 6 removes it.
    chain_samples: int = 10_000
    budget_windows: int = 10_000
    closed_form_check_windows: int = 200

    def __post_init__(self):
        counts = ("chain_samples", *SAMPLE_COUNTS)
        cast = {"eps": as_real, "seed": as_int, **dict.fromkeys(counts, as_int)}
        for key, kind in cast.items():
            object.__setattr__(self, key, kind(getattr(self, key), key))
        for key in ("static_policy", "identity_policy"):
            if not isinstance(getattr(self, key), WidthPolicy):
                object.__setattr__(self, key, WidthPolicy(**getattr(self, key)))
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for key in counts:
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")


def lag_blocks(net: ShallowNet, horizon: int) -> list[np.ndarray]:
    """The column blocks of a stacked-lag net's hidden matrix, indexed by lag.

    The net's input is the stacked vector (z_{-K}; ...; z_0), K = horizon, so
    index j holds the block multiplying the input at lag j (j=0 is the present).
    """
    if net.in_dim % (horizon + 1):
        raise ValueError(f"a net with {net.in_dim} inputs does not split into {horizon + 1} lag blocks")
    return np.split(net.hidden_matrix, horizon + 1, axis=1)[::-1]


def identity_error_gain(readout, blocks) -> float:
    """||readout|| * sum_j ||block_j|| * j over lags j = 0..K.

    The factor by which a per-step identity-approximation error is amplified
    in the final output: tanh is 1-Lipschitz, so it adds no factor.  Lag 0
    carries weight zero because the present input is never ferried.
    """
    r = operator_norm(np.asarray(readout, dtype=np.float64))
    total = sum(j * operator_norm(np.asarray(b, dtype=np.float64)) for j, b in enumerate(blocks))
    return float(r * total)


def identity_step(s: float, M: float) -> float:
    """Proven bound on one identity net's error on the M-ball, rounding included.

    |tanh t - t| <= |t|^3 / 3 (the difference t^3/3 - t + tanh t has
    derivative t^2 - tanh^2 t >= 0), so coordinate-wise
    ||tanh(s x) / s - x|| <= s^2 ||x||_6^3 / 3 <= s^2 M^3 / 3, plus the net's
    rounding allowance CHAIN_ROUNDING * M.
    """
    return s * s * M**3 / 3.0 + CHAIN_ROUNDING * M


def chain_scale(gain: float, M: float, share: float) -> float:
    """The largest power of two s with gain * identity_step(s, M) < share.

    Raises ConstructionError if the gain is zero, which leaves s unbounded, or
    if the rounding allowance alone misses the share.
    """
    if not gain > 0:
        raise ConstructionError("fit_identity_chain", "error gain is zero with K >= 1; nothing to calibrate against")
    room = share / gain - CHAIN_ROUNDING * M
    if not room > 0:
        message = f"the rounding allowance alone, times gain {gain:g}, misses the chain's share {share:g}"
        raise ConstructionError("fit_identity_chain", message)
    s = 2.0 ** math.floor(math.log2(math.sqrt(3.0 * room / M**3)))
    while not gain * identity_step(s, M) < share:
        s /= 2.0
    return s


def carry(s: float, j: int, z: np.ndarray) -> np.ndarray:
    """Apply phi(x) = tanh(s x) / s, every carrier's identity net (hidden matrix
    s I_d, bias 0, readout I_d / s), j times to an (n, d) batch; j=0 is the
    identity.  |tanh t| <= |t| and tanh is 1-Lipschitz, so phi maps the
    M-ball into itself and j steps drift at most j * identity_step(s, M)."""
    out = np.asarray(z, dtype=np.float64)
    for _ in range(j):
        out = np.tanh(s * out) / s
    return out


def assemble_esn(static: ShallowNet, horizon: int, s: float | None) -> ESNParams:
    """Wire the static net and the identity chain of scale s (None when the
    horizon K is 0) into the block state-space system.

    State blocks 0..K-1 are the carriers, each d wide; block K is the
    collector.  Carrier 0 reads the input through s I_d, carrier r carrier
    r-1 through (s I_d)(I_d / s), exactly I_d for a power-of-two s, and the
    collector carrier j-1 through lag block j times I_d / s, exactly the
    block / s, and the input through lag block 0.  W reads the collector.
    """
    K = horizon
    blocks = lag_blocks(static, K)
    d = blocks[0].shape[1]
    structure = BlockStructure(widths=(d,) * K + (static.width,))
    N, w = structure.total, static.width

    C = np.zeros((N, d))
    if K:
        C[:d] = s * np.eye(d)
    C[N - w :] = blocks[0]
    zeta = np.zeros(N)
    zeta[N - w :] = static.hidden_bias
    W = np.zeros((static.out_dim, N))
    W[:, N - w :] = static.readout

    collector = np.hstack(blocks[1:]) / s if K else np.empty((w, 0))
    carriers = (np.eye(d),) * max(K - 1, 0)
    return ESNParams(carriers=carriers, collector=collector, C=C, zeta=zeta, W=W, structure=structure)


def closed_form_state(net: ShallowNet, s: float | None, arr: np.ndarray) -> np.ndarray:
    """Collector state at time 0, evaluated directly from the solved recursion.

    The static net's hidden layer on the stacked carried lags,
    tanh(Z @ hidden_matrix.T + bias) with row Z = (carry(s, K, z_{-K}); ...;
    z_0): the unique solution's collector block without running the state
    equation, for a (B, T, d) batch of windows; the independent oracle for
    the recursion-computed functional.  The horizon is K = net.in_dim // d - 1.
    """
    B, T, d = arr.shape
    K = net.in_dim // d - 1
    if T < K + 1:
        raise ValueError(f"window of length {T} too short: need >= {K + 1}")
    Z = np.empty((B, K + 1, d))  # most-delayed lag first, as direct_functional stacks them
    for j in range(K + 1):
        Z[:, K - j] = carry(s, j, arr[:, T - 1 - j, :])
    state = np.matmul(Z.reshape(B, (K + 1) * d), net.hidden_matrix.T, out=np.empty((B, net.width)))
    state += net.hidden_bias
    return np.tanh(state, out=state)


def closed_form_gap(esn: ESNParams, net: ShallowNet, s: float | None, arr: np.ndarray) -> float:
    """Largest row-norm gap, over a (B, T, d) batch of windows, between the
    recursion's collector state at time 0 and closed_form_state."""
    collector = esn.run_batch(arr)[:, esn.state_dim - net.width :]
    return float(np.max(np.linalg.norm(collector - closed_form_state(net, s, arr), axis=1)))


def direct_functional(net: ShallowNet, arr: np.ndarray) -> np.ndarray:
    """The static net applied to the true stacked lags of a (B, T, d) batch,
    its last net.in_dim // d entries (no chain in between)."""
    B, T, d = arr.shape
    lags = net.in_dim // d
    if T < lags:
        raise ValueError(f"window of length {T} too short: need >= {lags}")
    return net.forward(arr[:, T - lags :, :].reshape(B, lags * d))


def _window_blocks(n: int) -> list[slice]:
    """Consecutive slices of range(n), each at most BUDGET_BLOCK long."""
    return [slice(a, min(a + BUDGET_BLOCK, n)) for a in range(0, n, BUDGET_BLOCK)]


def budget_errors(f: TargetFilter, net: ShallowNet, s: float | None, arr: np.ndarray) -> np.ndarray:
    """Per-window net_fit, chain and total errors on a (B, T, d) batch, as
    the rows of a (3, B) array.

    net_fit compares the truncated target with the static net, chain the
    static net with the constructed system (its closed form, read out),
    total the target with the system.  The windows are evaluated one block
    at a time.  The horizon is K = net.in_dim // d - 1.
    """
    B, T, d = arr.shape
    K = net.in_dim // d - 1
    errors = np.empty((3, B))
    for rows in _window_blocks(B):
        block = arr[rows]
        net_vals = direct_functional(net, block)
        chained_vals = closed_form_state(net, s, block) @ net.readout.T
        errors[0, rows] = np.linalg.norm(f.evaluate_batch(block[:, T - 1 - K :]) - net_vals, axis=1)
        errors[1, rows] = np.linalg.norm(net_vals - chained_vals, axis=1)
        errors[2, rows] = np.linalg.norm(f.evaluate_batch(block) - chained_vals, axis=1)
    return errors


# Budget term labels, weakest first: a sampled sup is a lower bound on the
# true one, an analytic bound an upper bound.
STATUS_STRENGTH = ("sampled_sup", "analytic_upper_bound")


@dataclass(frozen=True)
class ErrorBudget:
    """The three-way error split and its empirical verdict.

    truncation_analytic and chain_analytic are true upper bounds; the sampled
    terms are maxima over finite samples, hence lower bounds on their sups.
    chain_witness is the chain's sampled error, checked against its proven
    value: a witness at or above it is a bug.  rows() is the one statement of
    each term's label and limit; verdict_status() labels the verdict as a
    whole, never stronger than its weakest term.
    """

    eps: float
    truncation_analytic: float
    net_fit_sampled: float
    chain_analytic: float
    chain_witness: float
    total_sampled: float

    def rows(self) -> list[tuple]:
        """(term, value, status, limit) for each term, in check order."""
        third = self.eps / 3.0
        return [
            ("truncation", self.truncation_analytic, "analytic_upper_bound", third),
            ("net_fit", self.net_fit_sampled, "sampled_sup", third),
            ("chain", self.chain_analytic, "analytic_upper_bound", third),
            ("chain_witness", self.chain_witness, "sampled_sup", self.chain_analytic),
            ("total", self.total_sampled, "sampled_sup", self.eps),
        ]

    def verdict_status(self) -> str:
        """The label the verdict "within eps" can carry: its weakest term's."""
        return min((status for _, _, status, _ in self.rows()), key=STATUS_STRENGTH.index)

    def check(self):
        """Raise BudgetError for the first term not strictly below its limit;
        a limit of 0, a chain with no nets, is met by a value of 0."""
        for term, value, _, limit in self.rows():
            if not (value < limit or value == limit == 0.0):
                raise BudgetError(term, value, limit)


@dataclass(frozen=True)
class ConstructionResult:
    """Everything a report needs: the system, the budget, and the evidence."""

    esn: ESNParams
    budget: ErrorBudget
    static_net: ShallowNet
    horizon: int
    gain: float
    chain_scale: float | None
    net_fit_achieved: float
    closed_form_check_max: float
    closed_form_check_windows: int
    wall_times: dict


def _derived_seed(base: int, tag: int) -> int:
    return int(np.random.SeedSequence([base, tag]).generate_state(1)[0])


def construct_universal_esn(f: TargetFilter, cfg: ConstructionConfig, *, ladder=WidthLadder) -> ConstructionResult:
    """Run the whole construction and check its error budget.

    ``ladder`` gives the static fit's width attempts (see fit_to_tolerance):
    a WidthLadder fits them in this process, and a sweep passes one that
    shares them between the tolerances of one horizon.

    The truncation and chain terms are analytic bounds; net_fit and total
    are sampled sups, so the returned budget's verdict_status() is
    ``"sampled_sup"``.

    Raises ConstructionError (with a stage tag) if a stage fails or cannot
    allocate its samples, or BudgetError if a budget term misses its share.
    """
    eps = cfg.eps
    d, M = f.in_dim, f.input_bound
    times: dict[str, float] = {}

    @contextmanager
    def stage(name):
        start = time.perf_counter()
        try:
            yield name
        except FitToleranceError as exc:
            raise ConstructionError(name, str(exc)) from exc
        except MemoryError as exc:
            raise ConstructionError(name, f"could not allocate: {exc}") from exc
        times[name] = time.perf_counter() - start

    with stage("choose_horizon") as name:
        try:
            K = f.choose_horizon(eps / 3.0)
        except Exception as exc:
            raise ConstructionError(name, str(exc)) from exc

    with stage("fit_static_net"):
        net, net_fit_achieved = fit_to_tolerance(
            lambda u: f.evaluate_batch(u.reshape(len(u), K + 1, d)),  # stacked lags, most-delayed first
            d, M, eps / 3.0, cfg.static_policy, _derived_seed(cfg.seed, 1), copies=K + 1, ladder=ladder,
        )

    gain = identity_error_gain(net.readout, lag_blocks(net, K))

    with stage("fit_identity_chain"):
        s = chain_scale(gain, M, eps / 3.0) if K else None  # K = 0: no chain, and no chain error
        step = identity_step(s, M) if K else 0.0  # the proven per-net bound

    with stage("assemble"):
        esn = assemble_esn(net, K, s)

    with stage("verify_closed_form") as name:
        # Budget windows: fresh inputs, long enough to expose the truncation tail.
        T = max(WINDOW_LEN, K + 1)
        arr = sample_window_array(d, M, T, cfg.budget_windows, _derived_seed(cfg.seed, 4))
        n_check = min(cfg.closed_form_check_windows, cfg.budget_windows)
        gap = closed_form_gap(esn, net, s, arr[:n_check])
        if gap > CLOSED_FORM_TOL:
            raise ConstructionError(
                name, f"recursion and closed form disagree by {gap:g} (tolerance {CLOSED_FORM_TOL:g})"
            )

    with stage("budget"):
        net_fit, chain_err, total = budget_errors(f, net, s, arr)
        budget = ErrorBudget(
            eps=eps, truncation_analytic=float(f.truncation_bound(K)), net_fit_sampled=float(np.max(net_fit)),
            chain_analytic=gain * step, chain_witness=float(np.max(chain_err)), total_sampled=float(np.max(total)),
        )
        budget.check()

    return ConstructionResult(
        esn=esn, budget=budget, static_net=net, horizon=K, gain=gain, chain_scale=s,
        net_fit_achieved=net_fit_achieved, closed_form_check_max=gap, closed_form_check_windows=n_check,
        wall_times=times,
    )
