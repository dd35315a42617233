"""Mixing-time measurement against the uniform distribution.

The distance is total variation ||P - U|| = sum_j |P_j - 1/N|, range
[0, 2].  mixing_time scans a coarse grid of 2048 intervals over the
search horizon, then bisects the bracketing interval with fresh distance
evaluations down to relative width 1e-4.  Two crossing notions are
supported: `first-crossing` (the literal first time the distance dips
under eps) and `sustained` (the first time after which every sampled
distance stays under eps).  The oscillatory small-gamma regime dips
transiently below eps long before settling, so `sustained` is the
default and is what the sweep module uses.

Every method is one callable, times -> distributions of shape
(len(times), n), used for the grid and for each bisection midpoint.
The analytic methods are mode sums: `exact` and `perturbative` are the
same evolution.ModeSum over the index-sum blocks of the literal-S
generator, solved exactly (DiagonalPropagator) or at first order
(spectral._PerturbativeKernel), and `large-gamma-closed-form` is the
heat-kernel mode sum of the slow branch (large_gamma.closed_form_a).
`s-literal` / `rho` step either master equation with RK4, guarded to
n <= MAX_DENSE_N, on the generator's N diagonal-shift blocks of N x N
(evolution.generator_blocks, O(N^3) to read off).  Their steps form a
dyadic lattice (see _SteppedDistributions): one set of step blocks per
search, squared up to the coarse-grid hop at O(N^4) per squaring, so
each bisection midpoint costs at most p + 1 batched products of O(N^3),
and four more off the lattice.
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
    the generator is N blocks of N x N (generator_blocks) and so is the
    RK4 step S.  The step is dt = cell / 2^p, with 2^p the smallest power
    of two at or above effective_step's count for one coarse cell, and
    the levels S^(2^j), j = 0..p, are p batched squarings, O(N^4) each.
    S^(2^p) hops the coarse grid, whose block states are stored.  A later
    request at offset k dt from the stored state below it (every
    bisection midpoint down to depth p) takes one batched product with
    S^(2^j) per set bit j of k, O(N^3) each.  A request off the lattice
    adds one RK4 step of the remaining fraction of a step, in Horner form
    on the block vector.  The generator blocks, the p + 1 levels and the
    stored states are refused above MAX_TABLE_BYTES before any is built.
    A non-finite stored or advanced state raises IntegrationError.
    """

    def __init__(self, config: WalkConfig, model: str, times: np.ndarray, dt: float) -> None:
        n = config.n
        self._times = times
        cell = float(times[1] - times[0])
        _, per_cell = effective_step(cell, dt, config.gamma)
        self._depth = (per_cell - 1).bit_length()
        self._dt = cell / 2**self._depth
        check_table_size("RK4 block levels and states",
                         (self._depth + 2) * n + times.size, 16 * n * n)
        self._blocks = generator_blocks(config, model)
        hop = rk4_step_matrix(self._blocks, self._dt)
        self._levels = [hop]
        for _ in range(self._depth):
            hop = hop @ hop
            self._levels.append(hop)
        state = to_blocks(_as_state_vector(config, model, None).reshape(n, n))
        self._states = np.empty((times.size, n, n), dtype=complex)
        self._states[0] = state
        for k in range(1, times.size):
            state = apply_blocks(hop, state)
            self._states[k] = state
        finite = np.isfinite(self._states).all(axis=(1, 2))
        if not finite.all():
            raise IntegrationError(f"non-finite RK4 state at t={times[np.argmin(finite)]:g}")
        self._dists = block_diagonal(self._states)

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
        out = self._dists[idx]
        delta = times - self._times[idx]
        for k in np.flatnonzero(np.abs(delta) > tol):
            state = self._advance(self._states[idx[k]], float(delta[k]), float(tol[k]))
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


def _route(config: WalkConfig, method: str, times: np.ndarray, dt: float):
    """times -> vertex distributions, shape (len(times), n), of one method."""
    if method == "exact":
        return DiagonalPropagator(config).distributions
    if method in ("s-literal", "rho"):
        return _SteppedDistributions(config, method, times, dt).distributions
    if method == "perturbative":
        return _PerturbativeKernel(config).distributions
    return lambda ts: closed_form_a(config, ts)


def mixing_time(
    config: WalkConfig,
    eps: float,
    method: str = "exact",
    mode: str = "sustained",
    horizon: float | None = None,
    dt: float = 0.01,
) -> MixingResult:
    """Smallest time at which the walk is eps-close to uniform.

    first-crossing returns the first grid-then-bisection-refined time
    with distance <= eps; sustained returns the earliest time from which
    every later grid sample stays <= eps.  Reports converged=False with
    t_mix=horizon when the distance never qualifies.
    """
    check_request(config.n, eps, method)
    check_positive("dt", dt)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if horizon is None:
        horizon = default_horizon(config, eps)
    check_positive("horizon", horizon)

    times = np.linspace(0.0, float(horizon), GRID_INTERVALS + 1)
    distributions = _route(config, method, times, dt)
    uniform = uniform_distribution(config.n)

    def distance(ts: np.ndarray) -> np.ndarray:
        table = distributions(ts)  # every method returns a fresh table: reduce it in place
        table -= uniform
        np.abs(table, out=table)
        return table.sum(axis=1)

    below = distance(times) <= eps
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
