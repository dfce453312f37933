"""Build an echo state network within eps of a target filter, and prove it.

The pipeline mirrors the constructive argument it implements:

1.  Pick the smallest memory horizon whose analytic truncation bound is below
    eps/3.
2.  Fit a shallow static net to the truncated functional on the product of
    per-lag balls, to sampled sup error below eps/3.
3.  Split the static net's hidden matrix into per-lag column blocks and form
    the error gain: readout norm times the lag-weighted sum of block norms
    (tanh is 1-Lipschitz).  Per-identity-net error times this gain bounds
    the output error of ferrying inputs through the reservoir.
4.  Fit one identity-approximator net per delay step, each on a slightly
    inflated ball, to per-net tolerance eps / (3 * gain); verify the composed
    chain drifts less than j * eps / (3 * gain) after j steps and stays inside
    the inflated balls.
5.  Assemble the block system: a sub-diagonal chain of carrier blocks feeding
    a collector block.  The reservoir matrix is nilpotent of degree
    horizon + 1 by construction, which certifies the echo state and fading
    memory properties exactly.
6.  Estimate every budget term on fresh Monte Carlo samples and check the
    triangle inequality closes below eps.

Sampled suprema are lower bounds on the true ones; the analytic truncation
term is a true upper bound.  The error budget records which is which.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .esn import BlockStructure, ESNParams
from .filters import TargetFilter
from .linalg import operator_norm
from .shallow import FitToleranceError, ShallowNet, WidthPolicy, fit_to_tolerance
from .windows import as_int, as_real, sample_product_ball, sample_window_array

#: Largest recursion-versus-closed-form gap a build or a verify accepts.
CLOSED_FORM_TOL = 1e-10

#: Most windows the budget evaluates at once.  It takes them in consecutive
#: blocks of this many (the last may be shorter), so its working set is a
#: few (block, width) arrays whatever budget_windows is.
BUDGET_BLOCK = 2048


class ConstructionError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class ChainBoundError(ConstructionError):
    """The composed identity chain violated its inductive bound."""

    def __init__(self, message: str, j: int, witness: np.ndarray):
        super().__init__("verify_chain", message)
        self.j = j
        self.witness = witness


class BudgetError(ConstructionError):
    """A budget term came out at or above its share of eps."""

    def __init__(self, term: str, value: float, limit: float):
        super().__init__(
            "budget", f"budget term {term!r} is {value:g}, needs < {limit:g}"
        )
        self.term = term
        self.value = value
        self.limit = limit


#: The sample-count fields of ConstructionConfig, each at least 1.
SAMPLE_COUNTS = ("chain_samples", "budget_windows", "budget_window_len", "closed_form_check_windows")


@dataclass(frozen=True)
class ConstructionConfig:
    """Tolerance, seed, fitting policies, and sample counts for one build.

    This is the construction config's schema: values are cast on
    construction, a policy may be given as a dict of WidthPolicy fields, an
    unknown key raises TypeError and an out-of-range value ValueError.
    """

    eps: float
    seed: int = 0
    margin: float = 0.8
    static_policy: WidthPolicy = field(default_factory=WidthPolicy)
    identity_policy: WidthPolicy = field(default_factory=WidthPolicy)
    chain_samples: int = 10_000
    budget_windows: int = 10_000
    budget_window_len: int = 30
    closed_form_check_windows: int = 200

    def __post_init__(self):
        cast = {"eps": as_real, "seed": as_int, "margin": as_real, **dict.fromkeys(SAMPLE_COUNTS, as_int)}
        for key, kind in cast.items():
            object.__setattr__(self, key, kind(getattr(self, key), key))
        for key in ("static_policy", "identity_policy"):
            if not isinstance(getattr(self, key), WidthPolicy):
                object.__setattr__(self, key, WidthPolicy(**getattr(self, key)))
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.margin <= 1:
            raise ValueError(f"margin must lie in (0, 1], got {self.margin}")
        for key in SAMPLE_COUNTS:
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")


@dataclass(frozen=True)
class LagBlockNet:
    """A static net over stacked lags, with its hidden matrix split per lag.

    The net's input is the stacked vector (z_{-K}; ...; z_0).  column_blocks
    holds the per-lag column blocks of the hidden matrix in that stacking
    order (most-delayed first); their horizontal concatenation reproduces the
    hidden matrix exactly.
    """

    net: ShallowNet
    column_blocks: tuple

    @property
    def horizon(self) -> int:
        return len(self.column_blocks) - 1

    @property
    def lag_dim(self) -> int:
        return self.column_blocks[0].shape[1]

    @property
    def readout(self) -> np.ndarray:
        return self.net.readout

    @property
    def bias(self) -> np.ndarray:
        return self.net.hidden_bias

    def lag_block(self, j: int) -> np.ndarray:
        """Column block multiplying the input at lag j (j=0 is the present)."""
        if not 0 <= j <= self.horizon:
            raise ValueError(f"lag {j} outside 0..{self.horizon}")
        return self.column_blocks[self.horizon - j]


def split_lag_blocks(net: ShallowNet, d: int) -> LagBlockNet:
    """Partition the hidden matrix of a stacked-lag net into per-lag blocks."""
    if d < 1:
        raise ValueError(f"lag dim must be >= 1, got {d}")
    if net.in_dim % d != 0:
        raise ValueError(f"input dim {net.in_dim} is not a multiple of lag dim {d}")
    copies = net.in_dim // d
    blocks = tuple(net.hidden_matrix[:, i * d : (i + 1) * d] for i in range(copies))
    return LagBlockNet(net=net, column_blocks=blocks)


def identity_error_gain(readout, lag_blocks) -> float:
    """||readout|| * sum_j ||block_j|| * j over lags j = 0..K.

    The factor by which a per-step identity-approximation error is amplified
    in the final output: tanh is 1-Lipschitz, so it adds no factor.  Lag 0
    carries weight zero because the present input is never ferried.
    """
    blocks = list(lag_blocks)
    r = operator_norm(np.asarray(readout, dtype=np.float64))
    total = sum(j * operator_norm(np.asarray(b, dtype=np.float64)) for j, b in enumerate(blocks))
    return float(r * total)


def identity_chain_radii(M: float, horizon: int, eps: float, gain: float) -> list[float]:
    """Fitting-ball radius for each identity net j = 1..horizon: M + (j-1)*eps/(3*gain)."""
    if horizon == 0:
        return []
    if not gain > 0:
        raise ValueError(f"gain must be positive for a nonzero horizon, got {gain}")
    step = eps / (3.0 * gain)
    return [M + (j - 1) * step for j in range(1, horizon + 1)]


def build_identity_chain(
    d: int,
    M: float,
    horizon: int,
    eps: float,
    gain: float,
    policy: WidthPolicy,
    seed: int,
    *,
    margin: float = 0.8,
) -> list[ShallowNet]:
    """Fit one identity-approximator net per delay step.

    Net j is fitted on the ball of radius M + (j-1)*eps/(3*gain) to tolerance
    eps/(3*gain); the inflated radii cover the drift the earlier nets may
    have introduced by the time net j sees the data.
    """
    radii = identity_chain_radii(M, horizon, eps, gain)
    tol = eps / (3.0 * gain) if horizon >= 1 else None
    chain = []
    for j, radius in enumerate(radii, start=1):
        try:
            net, _ = fit_to_tolerance(
                lambda x: x, d, radius, tol, policy, _derived_seed(seed, j), margin=margin
            )
        except FitToleranceError as exc:
            raise ConstructionError(
                "fit_identity_chain",
                f"identity net {j} of {horizon} failed: {exc} (radius {radius:g}, tol {tol:g})",
            ) from exc
        chain.append(net)
    return chain


def compose_chain(chain: list[ShallowNet], j: int, z: np.ndarray) -> np.ndarray:
    """Apply the first j chain nets in order; j=0 is the identity."""
    if not 0 <= j <= len(chain):
        raise ValueError(f"chain depth {j} outside 0..{len(chain)}")
    out = np.asarray(z, dtype=np.float64)
    for i in range(j):
        out = chain[i].forward(out)
    return out


def verify_chain_bound(
    chain: list[ShallowNet],
    M: float,
    eps: float,
    gain: float,
    n_samples: int,
    seed: int,
) -> list[dict]:
    """Check the inductive drift and containment bounds of the composed chain.

    On n_samples points of the M-ball, for every depth j: the composed chain
    must stay within j*eps/(3*gain) of the identity (strict) and inside the
    ball of radius M + j*eps/(3*gain).  Returns one record per depth; raises
    ChainBoundError with the witness point on the first violation.
    """
    K = len(chain)
    if K == 0:
        return []
    d = chain[0].in_dim
    step = eps / (3.0 * gain)
    points = sample_product_ball(d, M, 1, n_samples, seed)
    current = points
    records = []
    for j in range(1, K + 1):
        current = chain[j - 1].forward(current)
        errs = np.linalg.norm(current - points, axis=1)
        norms = np.linalg.norm(current, axis=1)
        worst_err = int(np.argmax(errs))
        worst_norm = int(np.argmax(norms))
        err_limit = j * step
        norm_limit = M + j * step
        if not errs[worst_err] < err_limit:
            raise ChainBoundError(
                f"chain drift at depth {j}: {errs[worst_err]:g} >= {err_limit:g}",
                j=j,
                witness=points[worst_err],
            )
        if not norms[worst_norm] <= norm_limit:
            raise ChainBoundError(
                f"chain escape at depth {j}: point mapped to norm "
                f"{norms[worst_norm]:g} > {norm_limit:g}",
                j=j,
                witness=points[worst_norm],
            )
        records.append(
            {
                "lag": j,
                "sup_error": float(errs[worst_err]),
                "error_limit": float(err_limit),
                "sup_norm": float(norms[worst_norm]),
                "norm_limit": float(norm_limit),
            }
        )
    return records


def assemble_esn(split: LagBlockNet, chain: list[ShallowNet]) -> ESNParams:
    """Wire the fitted nets into the block state-space system.

    State blocks 0..K-1 are the identity carriers; block K is the collector.
    The reservoir matrix holds the carrier chain on its sub-diagonal and the
    delayed lag blocks (composed with the carrier readouts) in its last block
    row; the input matrix feeds the first carrier and the present-lag block;
    the readout sees only the collector.
    """
    K = split.horizon
    d = split.lag_dim
    if len(chain) != K:
        raise ValueError(f"chain length {len(chain)} != horizon {K}")
    for j, net in enumerate(chain, start=1):
        if net.in_dim != d or net.out_dim != d:
            raise ValueError(
                f"identity net {j} maps {net.in_dim}->{net.out_dim}, expected {d}->{d}"
            )

    structure = BlockStructure(widths=(*(net.width for net in chain), split.net.width))
    off = structure.offsets()
    N = structure.total
    m = split.readout.shape[0]

    # Carrier r reads carrier r-1 through its readout; the collector reads
    # carrier j-1 as the lag-j input.
    carriers = tuple(chain[r].hidden_matrix @ chain[r - 1].readout for r in range(1, K))
    collector = np.empty((split.net.width, off[K]))
    for j in range(1, K + 1):
        collector[:, off[j - 1] : off[j]] = split.lag_block(j) @ chain[j - 1].readout

    C = np.zeros((N, d))
    if K >= 1:
        C[off[0] : off[1]] = chain[0].hidden_matrix
    C[off[K] : off[K + 1]] = split.lag_block(0)

    zeta = np.zeros(N)
    for j in range(K):
        zeta[off[j] : off[j + 1]] = chain[j].hidden_bias
    zeta[off[K] : off[K + 1]] = split.bias

    W = np.zeros((m, N))
    W[:, off[K] :] = split.readout

    return ESNParams(carriers=carriers, collector=collector, C=C, zeta=zeta, W=W, structure=structure)


def closed_form_state(split: LagBlockNet, chain: list[ShallowNet], arr: np.ndarray) -> np.ndarray:
    """Collector state at time 0, evaluated directly from the solved recursion.

    The static net's hidden layer on the stacked chain-composed lags,
    tanh(Z @ hidden_matrix.T + bias) with row Z = (chain_K(z_{-K}); ...;
    chain_0(z_0)): the unique solution's collector block without running the
    state equation, for a (B, T, d) batch of windows; the independent oracle
    for the recursion-computed functional.
    """
    K = split.horizon
    B, T, d = arr.shape
    if T < K + 1:
        raise ValueError(f"window of length {T} too short: need >= {K + 1}")
    Z = np.empty((B, K + 1, d))  # most-delayed lag first, as direct_functional stacks them
    for j in range(K + 1):
        Z[:, K - j] = compose_chain(chain, j, arr[:, T - 1 - j, :])
    state = np.matmul(Z.reshape(B, (K + 1) * d), split.net.hidden_matrix.T, out=np.empty((B, split.net.width)))
    state += split.bias
    return np.tanh(state, out=state)


def closed_form_gap(esn: ESNParams, split: LagBlockNet, chain: list[ShallowNet], arr: np.ndarray) -> float:
    """Largest row-norm gap, over a (B, T, d) batch of windows, between the
    recursion's collector state at time 0 and closed_form_state."""
    collector = esn.run_batch(arr)[:, esn.state_dim - split.net.width :]
    return float(np.max(np.linalg.norm(collector - closed_form_state(split, chain, arr), axis=1)))


def direct_functional(split: LagBlockNet, arr: np.ndarray) -> np.ndarray:
    """The static net applied to the true stacked lags of a (B, T, d) batch
    (no chain in between)."""
    K = split.horizon
    B, T, d = arr.shape
    if T < K + 1:
        raise ValueError(f"window of length {T} too short: need >= {K + 1}")
    stacked = arr[:, T - 1 - K :, :].reshape(B, (K + 1) * d)
    return split.net.forward(stacked)


def _window_blocks(n: int) -> list[slice]:
    """Consecutive slices of range(n), each at most BUDGET_BLOCK long."""
    return [slice(a, min(a + BUDGET_BLOCK, n)) for a in range(0, n, BUDGET_BLOCK)]


def budget_errors(f: TargetFilter, split: LagBlockNet, chain: list[ShallowNet], arr: np.ndarray) -> np.ndarray:
    """Per-window net_fit, chain and total errors on a (B, T, d) batch, as
    the rows of a (3, B) array.

    net_fit compares the truncated target with the static net, chain the
    static net with the constructed system (its closed form, read out),
    total the target with the system.  The windows are evaluated one block
    at a time.
    """
    K = split.horizon
    T = arr.shape[1]
    errors = np.empty((3, arr.shape[0]))
    for rows in _window_blocks(arr.shape[0]):
        block = arr[rows]
        net_vals = direct_functional(split, block)
        chained_vals = closed_form_state(split, chain, block) @ split.readout.T
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

    truncation_analytic is a true upper bound; the sampled terms are maxima
    over finite samples, hence lower bounds on their sups.  rows() is the one statement
    of each term's label and limit; verdict_status() labels the verdict as a
    whole, never stronger than its weakest term.
    """

    eps: float
    truncation_analytic: float
    net_fit_sampled: float
    chain_sampled: float
    total_sampled: float

    def rows(self) -> list[tuple]:
        """(term, value, status, limit) for each term, in check order."""
        third = self.eps / 3.0
        return [
            ("truncation", self.truncation_analytic, "analytic_upper_bound", third),
            ("net_fit", self.net_fit_sampled, "sampled_sup", third),
            ("chain", self.chain_sampled, "sampled_sup", third),
            ("total", self.total_sampled, "sampled_sup", self.eps),
        ]

    def verdict_status(self) -> str:
        """The label the verdict "within eps" can carry: its weakest term's."""
        return min((status for _, _, status, _ in self.rows()), key=STATUS_STRENGTH.index)

    def check(self):
        """Raise BudgetError for the first term not strictly below its limit."""
        for term, value, _, limit in self.rows():
            if not value < limit:
                raise BudgetError(term, value, limit)


@dataclass(frozen=True)
class ConstructionResult:
    """Everything a report needs: the system, the budget, and the evidence."""

    esn: ESNParams
    budget: ErrorBudget
    split: LagBlockNet
    chain: list
    horizon: int
    gain: float
    net_fit_achieved: float
    chain_records: list
    closed_form_check_max: float
    closed_form_check_windows: int
    wall_times: dict


def _derived_seed(base: int, tag: int) -> int:
    return int(np.random.SeedSequence([base, tag]).generate_state(1)[0])


def construct_universal_esn(
    f: TargetFilter, cfg: ConstructionConfig, *, on_assembled=None
) -> ConstructionResult:
    """Run the whole construction and check its error budget.

    Only the truncation term is an analytic bound; the other terms are
    sampled sups, so the returned budget's verdict_status() is
    ``"sampled_sup"``.

    Raises ConstructionError (with a stage tag) if any stage fails, or
    BudgetError if every stage succeeds but a budget term misses its share.
    ``on_assembled(esn, split, chain)``, if given, is called once the system
    is assembled, before the closed-form check and the budget; the system it
    sees is the one returned.
    """
    eps = cfg.eps
    d, M = f.in_dim, f.input_bound
    times: dict[str, float] = {}

    def staged(stage):
        times[stage] = time.perf_counter()
        return stage

    def done(stage):
        times[stage] = time.perf_counter() - times[stage]

    stage = staged("choose_horizon")
    try:
        K = f.choose_horizon(eps / 3.0)
    except Exception as exc:
        raise ConstructionError(stage, str(exc)) from exc
    done(stage)

    stage = staged("fit_static_net")
    try:
        net, net_fit_achieved = fit_to_tolerance(
            lambda u: f.evaluate_batch(u.reshape(len(u), K + 1, d)),  # stacked lags, most-delayed first
            d, M, eps / 3.0, cfg.static_policy, _derived_seed(cfg.seed, 1), copies=K + 1, margin=cfg.margin,
        )
    except FitToleranceError as exc:
        raise ConstructionError(stage, str(exc)) from exc
    done(stage)

    split = split_lag_blocks(net, d)
    gain = identity_error_gain(split.readout, [split.lag_block(j) for j in range(K + 1)])

    stage = staged("fit_identity_chain")
    if K >= 1 and not gain > 0:
        raise ConstructionError(stage, "error gain is zero with K >= 1; nothing to calibrate against")
    chain = build_identity_chain(
        d, M, K, eps, gain, cfg.identity_policy, _derived_seed(cfg.seed, 2), margin=cfg.margin
    )
    done(stage)

    stage = staged("verify_chain")
    chain_records = verify_chain_bound(
        chain, M, eps, gain, cfg.chain_samples, _derived_seed(cfg.seed, 3)
    )
    done(stage)

    stage = staged("assemble")
    esn = assemble_esn(split, chain)
    done(stage)
    if on_assembled is not None:
        on_assembled(esn, split, chain)

    # Budget windows: fresh inputs, long enough to expose the truncation tail.
    T = max(cfg.budget_window_len, K + 1)
    arr = sample_window_array(d, M, T, cfg.budget_windows, _derived_seed(cfg.seed, 4))

    stage = staged("verify_closed_form")
    n_check = min(cfg.closed_form_check_windows, cfg.budget_windows)
    gap = closed_form_gap(esn, split, chain, arr[:n_check])
    if gap > CLOSED_FORM_TOL:
        raise ConstructionError(
            stage, f"recursion and closed form disagree by {gap:g} (tolerance {CLOSED_FORM_TOL:g})"
        )
    done(stage)

    stage = staged("budget")
    net_fit, chain_err, total = budget_errors(f, split, chain, arr)
    budget = ErrorBudget(
        eps=eps,
        truncation_analytic=float(f.truncation_bound(K)),
        net_fit_sampled=float(np.max(net_fit)),
        chain_sampled=float(np.max(chain_err)),
        total_sampled=float(np.max(total)),
    )
    budget.check()
    done(stage)

    return ConstructionResult(
        esn=esn,
        budget=budget,
        split=split,
        chain=chain,
        horizon=K,
        gain=gain,
        net_fit_achieved=net_fit_achieved,
        chain_records=chain_records,
        closed_form_check_max=gap,
        closed_form_check_windows=n_check,
        wall_times=times,
    )
