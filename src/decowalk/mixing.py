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
n <= MAX_DENSE_N.  Their steps form a dyadic lattice (see
_SteppedDistributions): one step matrix per search, squared up to the
coarse-grid hop, so each bisection midpoint costs at most p
matrix-vector products instead of a fresh N^2 x N^2 step matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    MAX_TABLE_BYTES,
    DiagonalPropagator,
    IntegrationError,
    build_full_operator,
    check_table_size,
    effective_step,
    rk4_step_matrix,
    stencil_step,
    _as_state_vector,
    _check_dense_size,
    _check_modesum_size,
    _diag_indices,
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

    The step is dt = cell / 2^p, with 2^p the smallest power of two at or
    above effective_step's count for one coarse cell, and its step matrix
    S is squared p times: S^(2^p) hops the coarse grid, whose states are
    stored.  A later request at offset k dt from the stored state below it
    (every bisection midpoint down to depth p) takes one matrix-vector
    product with S^(2^j) per set bit j of k.  The levels 1..p-1 are cached
    from the top down while they fit in MAX_TABLE_BYTES; a level below the
    cache is rebuilt by squaring S.  A request off the lattice adds one
    stencil_step of the remaining fraction of a step.  A non-finite stored
    or advanced state raises IntegrationError.
    """

    def __init__(self, config: WalkConfig, model: str, times: np.ndarray, dt: float) -> None:
        self._config, self._model = config, model
        self._diag = _diag_indices(config.n)
        self._times = times
        cell = float(times[1] - times[0])
        _, per_cell = effective_step(cell, dt, config.gamma)
        self._depth = (per_cell - 1).bit_length()
        self._dt = cell / 2**self._depth
        self._step = rk4_step_matrix(build_full_operator(config, model), self._dt)
        self._levels: dict[int, np.ndarray] = {}
        level_bytes = self._step.nbytes
        hop = self._step
        for j in range(1, self._depth + 1):
            hop = hop @ hop
            if j < self._depth and (self._depth - j) * level_bytes <= MAX_TABLE_BYTES:
                self._levels[j] = hop
        vec = _as_state_vector(config, model, None)
        self._states = np.empty((times.size, vec.size), dtype=vec.dtype)
        self._states[0] = vec
        for k in range(1, times.size):
            vec = hop @ vec
            self._states[k] = vec
        finite = np.isfinite(self._states.view(float)).all(axis=1)
        if not finite.all():
            raise IntegrationError(f"non-finite RK4 state at t={times[np.argmin(finite)]:g}")

    def _level(self, j: int) -> np.ndarray:
        """S^(2^j), from the cache or squared afresh from S."""
        if j in self._levels:
            return self._levels[j]
        power = self._step
        for _ in range(j):
            power = power @ power
        return power

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
                state = self._level(j) @ state
        if rest > 0.0:
            n = self._config.n
            state = stencil_step(self._config, self._model, rest)(state.reshape(n, n)).ravel()
        return state

    def distributions(self, times: np.ndarray) -> np.ndarray:
        tol = 1e-12 * np.maximum(1.0, np.abs(times))
        idx = np.searchsorted(self._times, times + tol, side="right") - 1
        idx = np.clip(idx, 0, self._times.size - 1)
        out = np.real(self._states[idx[:, None], self._diag])
        delta = times - self._times[idx]
        for k in np.flatnonzero(np.abs(delta) > tol):
            state = self._advance(self._states[idx[k]], float(delta[k]), float(tol[k]))
            if not np.isfinite(state.view(float)).all():
                raise IntegrationError(f"non-finite RK4 state at t={times[k]:g}")
            out[k] = np.real(state[self._diag])
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
        check_table_size(GRID_INTERVALS + 1, 8 * n)


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
        return np.abs(distributions(ts) - uniform).sum(axis=1)

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
