"""Mixing-time measurement against the uniform distribution.

The distance is total variation ||P - U|| = sum_j |P_j - 1/N|, range
[0, 2].  mixing_time scans a coarse grid of 2048 intervals over the
search horizon, then bisects the bracketing interval with fresh distance
evaluations down to relative width 1e-4.  A mode-sum method evaluates
only the grid rows before its envelope's cut: past it the distance is
known to stay under eps (see mixing_time).  Two crossing notions are
supported: `first-crossing` (the literal first time the distance dips
under eps) and `sustained` (the first time after which every sampled
distance stays under eps).  The oscillatory small-gamma regime dips
transiently below eps long before settling, so `sustained` is the
default and is what the sweep module uses.

Every method is one callable, times -> distributions of shape
(len(times), n), used for the grid and for each bisection midpoint.
The analytic methods are one evolution.ModeSum each, over the index
sums s = 1..N/2: `exact` and `perturbative` hold the blocks of the
literal-S generator, solved exactly (DiagonalPropagator, which a sweep
solves for a slab of gammas at once and hands in) or at first order
(spectral._PerturbativeKernel), and `large-gamma-closed-form`
(large_gamma.closed_form_a) one heat-kernel mode of the slow branch
per block.  Every mode sum reads the grid as lead x lag: about
2 sqrt(T) exponentials per mode for T times, and one per mode at a
midpoint.
`s-literal` / `rho` step either master equation with RK4, guarded to
n <= MAX_DENSE_N, on the half spectrum of the generator's
diagonal-shift blocks, N//2 + 1 blocks of N x N
(evolution.generator_blocks, O(N^3) to read off).  Their steps form a
dyadic lattice (see _SteppedDistributions): one set of step blocks per
search, squared up to the coarse-grid hop H at O(N^4) per squaring.  The
grid is read as lead x lag, as ModeSum reads its own: row 0 of (H^B)^a
against the lag states H^b y0 (evolution._HopChain, which integrate's
trajectories share), about sqrt(T) N^2 entries and
O(N^2 T + N^4 log B) for T times, with no table of T block states.  Each
bisection midpoint costs at most p + 1 batched products of O(N^3), and
four more off the lattice, from the coarse state below it, rebuilt once
per cell.
The distance of a grid is taken in place on the method's table, so a
search holds one T x n table, not two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    DiagonalPropagator,
    IntegrationError,
    apply_blocks,
    block_diagonal,
    build_full_operator,  # unused here; the benchmark tracer patches it by this name
    check_table_size,
    effective_step,
    generator_blocks,
    rk4_step_matrix,
    to_blocks,
    _HopChain,
    _as_state_vector,
    _check_dense_size,
    _check_modesum_size,
)
from .large_gamma import closed_form_a, large_gamma_bounds
from .model import WalkConfig, check_cycle_size, check_eps, check_positive
from .spectral import _PerturbativeKernel, small_gamma_mixing_bound

METHODS = ("exact", "s-literal", "rho", "perturbative", "large-gamma-closed-form")
MODES = ("first-crossing", "sustained")

GRID_INTERVALS = 2048
RELATIVE_BRACKET = 1e-4


@dataclass(frozen=True)
class MixingResult:
    """Measured eps-mixing time.

    When converged, the distance at t_mix is at or below eps and bracket
    is the final bisection width; in first-crossing mode the distance at
    t_mix - bracket still exceeds eps.  When not converged, t_mix equals
    the horizon.
    """

    t_mix: float
    converged: bool
    eps: float
    method: str
    mode: str
    horizon: float
    bracket: float


def uniform_distribution(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """sum_j |p_j - q_j|; symmetric, in [0, 2] for probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).sum())


def default_horizon(config: WalkConfig, eps: float) -> float:
    """Search window guaranteed to contain the crossing in both regimes.

    10x the larger of the small-dephasing bound and the diffusive upper
    bound.  The undamped walk has no bound at all (it need not mix), so
    gamma = 0 falls back to a fixed window of 100 N.
    """
    if config.gamma == 0:
        return 100.0 * config.n
    e = min(eps, 1.9)  # keep the bound formulas inside their domain
    small = small_gamma_mixing_bound(config.n, config.gamma, e)
    large = large_gamma_bounds(config.n, config.gamma, e).t_upper
    return 10.0 * max(small, large)


class _SteppedDistributions:
    """Vertex distributions of an RK4 trajectory on a dyadic lattice of one step.

    The state is held in block coordinates (evolution.to_blocks), where
    the generator is N//2 + 1 blocks of N x N (generator_blocks) and so
    is the RK4 step S.  The step is dt = cell / 2^p, with 2^p the
    smallest power of two at or above effective_step's count for one
    coarse cell, and the levels S^(2^j), j = 0..p, are p batched
    squarings, O(N^4) each.  H = S^(2^p) hops the coarse grid of T
    times.  As in evolution.ModeSum,
    grid index k splits as a B + b with B = ceil(sqrt(T)), and only the
    entry the distribution reads is formed: Y^_k[q, 0] = e0^T (H_q^B)^a
    H_q^b y0_q, from the lag states H^b y0, the lead covectors, row 0 of
    (H^B)^a, and one batched contraction (evolution._HopChain, which
    integrate shares): O(N^2 T + N^4 log B), against O(N^3 T) for T
    sequential hops, and about sqrt(T) N^2 entries plus H^B, not
    T N^2 / 2.  A later request at offset k dt from the grid point below
    it (every bisection midpoint down to depth p) starts from that coarse
    state, rebuilt as (H^B)^a H^b y0 and kept for the next request, and
    takes one batched product with S^(2^j) per set bit j of k, O(N^3)
    each.  A request off the lattice adds one RK4 step of the remaining
    fraction of a step, in Horner form on the block vector.  The
    generator blocks, the p + 1 levels, H^B, the lag and lead tables and
    the distributions are refused above MAX_TABLE_BYTES before any is
    built.  A non-finite lag state, lead covector, grid distribution or
    rebuilt or advanced state raises IntegrationError naming its time:
    on the grid, the first time whose distribution reads one.
    """

    def __init__(self, config: WalkConfig, model: str, times: np.ndarray, dt: float) -> None:
        n = config.n
        self._times = times
        cell = float(times[1] - times[0])
        _, per_cell = effective_step(cell, dt, config.gamma)
        self._depth = (per_cell - 1).bit_length()
        self._dt = cell / 2**self._depth
        # Rows of n doubles: 2 (n//2 + 1) n per complex table of blocks (the
        # generator, the depth + 1 levels and H^B), one per distribution,
        # and the chain's lag, lead and contraction tables.
        check_table_size("RK4 block levels and states",
                         2 * (n // 2 + 1) * n * (self._depth + 3)
                         + _HopChain.table_rows(n, times.size) + times.size, 8 * n)
        self._blocks = generator_blocks(config, model)
        hop = rk4_step_matrix(self._blocks, self._dt)
        self._levels = [hop]
        for _ in range(self._depth):
            hop = hop @ hop
            self._levels.append(hop)
        start = to_blocks(_as_state_vector(config, model, None).reshape(n, n))
        self._chain = _HopChain(hop, start, np.empty((times.size, n)))
        if self._chain.bad < times.size:
            raise IntegrationError(f"non-finite RK4 state at t={times[self._chain.bad]:g}")
        self._coarse = (0, self._chain.lag[0])

    def _coarse_state(self, k: int) -> np.ndarray:
        """Block state at grid index k, rebuilt by the chain and kept for the next request."""
        if self._coarse[0] != k:
            state = self._chain.state(k)
            if not np.isfinite(state).all():
                raise IntegrationError(f"non-finite RK4 state at t={self._times[k]:g}")
            self._coarse = (k, state)
        return self._coarse[1]

    def _advance(self, state: np.ndarray, delta: float, tol: float) -> np.ndarray:
        """state advanced by delta: lattice steps, then one partial step if needed."""
        steps = int(np.rint(delta / self._dt))
        rest = delta - steps * self._dt
        if abs(rest) <= tol:
            rest = 0.0
        elif rest < 0.0:
            steps, rest = steps - 1, rest + self._dt
        for j in reversed(range(steps.bit_length())):
            if steps >> j & 1:
                state = apply_blocks(self._levels[j], state)
        if rest > 0.0:
            # I + hG + ... + (hG)^4/24 applied in Horner form, as rk4_step_matrix.
            start = state
            for fraction in (rest / 4.0, rest / 3.0, rest / 2.0, rest):
                state = start + fraction * apply_blocks(self._blocks, state)
        return state

    def distributions(self, times: np.ndarray) -> np.ndarray:
        tol = 1e-12 * np.maximum(1.0, np.abs(times))
        idx = np.searchsorted(self._times, times + tol, side="right") - 1
        idx = np.clip(idx, 0, self._times.size - 1)
        out = self._chain.dists[idx]
        delta = times - self._times[idx]
        for k in np.flatnonzero(np.abs(delta) > tol):
            state = self._advance(self._coarse_state(int(idx[k])), float(delta[k]),
                                  float(tol[k]))
            if not np.isfinite(state).all():
                raise IntegrationError(f"non-finite RK4 state at t={times[k]:g}")
            out[k] = block_diagonal(state)
        return out


def check_request(n: int, eps: float, method: str) -> None:
    """Refuse a bad n, eps or method, or a size over the method's guard:
    n <= MAX_DENSE_N for RK4, n <= MAX_MODESUM_N for a mode sum, and a
    grid of n doubles per time within MAX_TABLE_BYTES for the closed form."""
    check_cycle_size(n)
    check_eps(eps)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in ("s-literal", "rho"):
        _check_dense_size(n)
    elif method in ("exact", "perturbative"):
        _check_modesum_size(n)
    else:
        check_table_size("closed-form mixing grid", GRID_INTERVALS + 1, 8 * n)


def _route(config: WalkConfig, method: str, times: np.ndarray, dt: float,
           propagator: DiagonalPropagator | None):
    """(times, eps=None) -> vertex distributions, shape (rows, n), of one method.

    rows is len(times), or with eps on the grid of a mode sum, the rows
    before its envelope's cut (evolution.envelope_leads).
    """
    if method == "exact":
        return (propagator or DiagonalPropagator(config)).distributions
    if method in ("s-literal", "rho"):
        stepped = _SteppedDistributions(config, method, times, dt)
        return lambda ts, eps=None: stepped.distributions(ts)  # no envelope: every row
    if method == "perturbative":
        return _PerturbativeKernel(config).distributions
    return lambda ts, eps=None: closed_form_a(config, ts, eps)


def mixing_time(
    config: WalkConfig,
    eps: float,
    method: str = "exact",
    mode: str = "sustained",
    horizon: float | None = None,
    dt: float = 0.01,
    propagator: DiagonalPropagator | None = None,
) -> MixingResult:
    """Smallest time at which the walk is eps-close to uniform.

    first-crossing returns the first grid-then-bisection-refined time
    with distance <= eps; sustained returns the earliest time from which
    every later grid sample stays <= eps.  Reports converged=False with
    t_mix=horizon when the distance never qualifies.

    The mode-sum methods bound the distance by an envelope
    E(t) = sum_k |w_k| exp(Re z_k t) that decreases in t (ModeSum).  E
    is evaluated at the grid's lead times
    (evolution.lead_lag, every 46th time), and the grid rows from the
    first lead time with E <= eps - envelope_margin on are not evaluated:
    the margin covers the rounding of both the envelope and the
    distance, so every row left out would have read <= eps.  The rows
    before the cut are bitwise those of the whole grid, so both modes
    give what the whole grid gives.  A row left out cannot be
    non-finite (every rate decays and every amplitude is finite), so no
    IntegrationError is missed.  With no envelope (an expm block, gamma =
    0) and on the RK4 methods, every row is evaluated.

    propagator, if given, is the exact method's DiagonalPropagator of
    config, built beforehand (sweep_gamma solves a slab of them at once);
    else the exact method builds its own.
    """
    check_request(config.n, eps, method)
    if propagator is not None and (method != "exact" or propagator.config != config):
        raise ValueError("a propagator is taken by the exact method only, built for its config")
    check_positive("dt", dt)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if horizon is None:
        horizon = default_horizon(config, eps)
    check_positive("horizon", horizon)

    times = np.linspace(0.0, float(horizon), GRID_INTERVALS + 1)
    distributions = _route(config, method, times, dt, propagator)
    uniform = uniform_distribution(config.n)

    def distance(ts: np.ndarray, cut: float | None = None) -> np.ndarray:
        table = distributions(ts, cut)  # every method returns a fresh table: reduce it in place
        table -= uniform
        np.abs(table, out=table)
        return table.sum(axis=1)

    # A mode sum leaves out the rows past its envelope's cut: they are under eps.
    below = np.ones(times.size, dtype=bool)
    near = distance(times, eps)
    below[:near.size] = near <= eps
    if mode == "sustained":
        below = np.logical_and.accumulate(below[::-1])[::-1]

    hits = np.flatnonzero(below)
    if hits.size == 0:
        return MixingResult(
            t_mix=float(horizon), converged=False, eps=eps, method=method,
            mode=mode, horizon=float(horizon), bracket=0.0,
        )
    first = int(hits[0])
    if first == 0:
        return MixingResult(
            t_mix=0.0, converged=True, eps=eps, method=method,
            mode=mode, horizon=float(horizon), bracket=0.0,
        )
    lo, hi = float(times[first - 1]), float(times[first])
    while hi - lo > RELATIVE_BRACKET * hi:
        mid = 0.5 * (lo + hi)
        if distance(np.array([mid]))[0] <= eps:
            hi = mid
        else:
            lo = mid
    return MixingResult(
        t_mix=hi, converged=True, eps=eps, method=method,
        mode=mode, horizon=float(horizon), bracket=hi - lo,
    )
