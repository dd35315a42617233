"""Mixing-time measurement against the uniform distribution.

The distance is total variation ||P - U|| = sum_j |P_j - 1/N|, range
[0, 2].  mixing_time scans a coarse grid of 2048 intervals over the
search horizon, then bisects the bracketing interval with fresh distance
evaluations down to relative width 1e-4.  A search evaluates only the
grid rows before its mode sum's envelope's cut: past it the distance is
known to stay under eps (see mixing_time).  Two crossing notions are
supported: `first-crossing` (the literal first time the distance dips
under eps) and `sustained` (the first time after which every sampled
distance stays under eps).  The oscillatory small-gamma regime dips
transiently below eps long before settling, so `sustained` is the
default and is what the sweep module uses.

Every search is a LockstepSearch over a list of configs of one n;
mixing_time is its one-config case, and sweep_gamma hands it a whole
gamma grid.  The configs go in slabs.  A slab builds every config's
mode sum, scans every config's grid in one pass (ModeSum.scan), then
bisects in lockstep: each level evaluates the midpoint of every bracket
still open in one call, so that a slab of G gammas takes one scan and
about 14 calls, not G scans and 14 G calls, and each config gets the
bits it gets alone.
Every method is one evolution.ModeSum member per gamma, over the index
sums s = 1..N/2, built for a slab at once: `exact` (`s-literal` is its
other name) and `rho` hold the exact blocks of the literal-S and of the
density-matrix generator (DiagonalPropagator, one stacked secular solve
per slab, evolution.secular_mode_sums), `perturbative` the literal-S
blocks at first order (spectral.perturbative_modes), and
`large-gamma-closed-form` one heat-kernel mode per block
(large_gamma.heat_kernel_modes, the mode sum of closed_form_a).  Every
mode sum reads the grid as lead x lag: about sqrt(T) + log2 sqrt(T)
exponentials per mode for T times, the lag factors by doubling.  The
scan takes every config's envelope cut in one evaluation, then, per
group of configs within a small entry budget, one stacked product, one
inverse real FFT and one row sum; the distance is taken in place on
that table, so a group holds one table, not two.  A bisection level is
one ModeSum.at over the slab: one stacked (G, S, 1, K) @ (G, S, K, 1)
product of one exponential per mode, one inverse real FFT and one row
sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    IntegrationError,
    ModeSum,
    build_full_operator,  # unused here; the benchmark tracer patches it by this name
    check_table_size,
    envelope_margin,
    rk4_step_matrix,  # unused here; the benchmark tracer patches it by this name
    secular_mode_sums,
    stack_slab,
    _check_modesum_size,
)
from .large_gamma import (
    closed_form_a,  # unused here; the benchmark tracer patches it by this name
    heat_kernel_modes,
    large_gamma_bounds,
)
from .model import WalkConfig, check_cycle_size, check_eps, check_positive
from .spectral import perturbative_modes, small_gamma_mixing_bound

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


def check_request(n: int, eps: float, method: str) -> None:
    """Refuse a bad n, eps or method, or a size over the method's guard:
    n <= MAX_MODESUM_N for the exact blocks and the perturbative ones,
    and a grid of n doubles per time within MAX_TABLE_BYTES for the
    closed form."""
    check_cycle_size(n)
    check_eps(eps)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "large-gamma-closed-form":
        check_table_size("closed-form mixing grid", GRID_INTERVALS + 1, 8 * n)
    else:
        _check_modesum_size(n)


# The failures a search records as the outcome of its own config
# (LockstepSearch) instead of raising; any other exception propagates.
SEARCH_ERRORS = (ValueError, IntegrationError, np.linalg.LinAlgError)


def _picture(method: str) -> str:
    """The generator whose exact blocks the method sums: rho's own, else literal-S."""
    return "rho" if method == "rho" else "s-literal"


def _slab(n: int, method: str) -> int:
    """How many configs one lockstep search takes at once: stack_slab of
    the entries of one config's (S, K) mode tables, S = N/2 blocks of one
    mode each on the closed form and of at most N modes otherwise."""
    return stack_slab(n // 2 * (1 if method == "large-gamma-closed-form" else n))


class _Member:
    """One config of a lockstep search: its mode sum, then its bracket, then
    its outcome (a MixingResult or the exception it failed with)."""

    def __init__(self, config: WalkConfig) -> None:
        self.config = config
        self.horizon = self.modes = self.reach = self.outcome = None
        self.lo = self.hi = 0.0

    def time(self, k: int) -> float:
        """Time k of the coarse grid over the search horizon: bitwise
        np.linspace(0, horizon, GRID_INTERVALS + 1)[k]."""
        return self.horizon if k == GRID_INTERVALS else float(k * (self.horizon / GRID_INTERVALS))


def _distance(table: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """sum_j |P_j - 1/N| per row (last axis), taken in place on a table that is the caller's to spend."""
    table -= uniform
    np.abs(table, out=table)
    return table.sum(axis=-1)


def _mode_sum_route(method: str):
    """build(n, gammas) of a method: the ModeSum of a slab's gammas, one member each."""
    if method == "perturbative":
        return perturbative_modes
    if method == "large-gamma-closed-form":
        return heat_kernel_modes
    picture = _picture(method)
    return lambda n, gammas: secular_mode_sums(n, gammas, picture)


def _attach_modes(members: list[_Member], method: str) -> None:
    """Give each member its member of one mode sum stacked over the slab's
    gammas, and the reach of that mode sum at its horizon (ModeSum.reach).
    If the stacked build raises, each member builds alone, and only a
    member whose own build fails records it."""
    if not members:
        return
    build = _mode_sum_route(method)
    try:
        stack = build(members[0].config.n, [m.config.gamma for m in members])
    except SEARCH_ERRORS:
        for m in members:
            try:
                m.modes = build(m.config.n, [m.config.gamma])
            except SEARCH_ERRORS as exc:
                m.outcome = exc
            else:
                m.reach = m.modes.reach(np.array([m.horizon]))[0]
    else:
        reach = stack.reach(np.array([m.horizon for m in members]))
        for g, m in enumerate(members):
            m.modes, m.reach = stack.member(g), reach[g]


def _check_resolution(m: _Member, eps: float) -> None:
    """Refuse a search whose rounding margin at the horizon is not below eps.

    envelope_margin bounds how far rounding can move a computed distance
    whose exponents z t turn up to the member's reach (over at most N^2/2
    modes); where that margin is not below eps, no distance on the grid
    can be told from eps: at n = 5 and gamma = 1e-30 the horizon is 1e32
    and z t keeps no phase digits there.  Checked before any grid row is
    evaluated.
    """
    n = m.config.n
    margin = envelope_margin(eps, m.reach, n * (n // 2), n)
    if not margin < eps:
        raise ValueError(
            f"gamma={m.config.gamma:g} is past what the mode sum resolves: at the horizon "
            f"t={m.horizon:g} the rounding margin {margin:.3g} is not below eps={eps:g}")


def _midpoints(members: list[_Member], mids: np.ndarray, uniform: np.ndarray):
    """(distances, failures) of each member at its midpoint, by one stacked
    ModeSum.at over the slab, failures None where there is none."""
    table = ModeSum.stack([m.modes for m in members]).at(mids)
    finite = np.isfinite(table).all(axis=1)
    return _distance(table, uniform), [None if ok else ModeSum.failure(t)
                                       for ok, t in zip(finite, mids)]


def _bracket(m: _Member, cells: np.ndarray, near: np.ndarray, eps: float, mode: str,
             result) -> None:
    """Leave m's outcome or grid bracket from its grid rows before its
    envelope's cut, cells |P_j - 1/N| and their sums near: the failure at
    its first row that is not finite, else the bracket of the crossing of
    the given mode.  A sum can overflow where every cell is finite."""
    if not np.isfinite(near).all():
        finite = np.isfinite(cells).all(axis=1)  # as P_j is
        if not finite.all():
            m.outcome = ModeSum.failure(m.time(int(np.argmin(finite))))
            return
    below = np.ones(GRID_INTERVALS + 1, dtype=bool)
    below[:near.size] = near <= eps
    if mode == "sustained":
        below = np.logical_and.accumulate(below[::-1])[::-1]
    hits = np.flatnonzero(below)
    if hits.size == 0:
        m.outcome = result(m, m.horizon, False, 0.0)
    elif hits[0] == 0:
        m.outcome = result(m, 0.0, True, 0.0)
    else:
        m.lo, m.hi = m.time(int(hits[0]) - 1), m.time(int(hits[0]))


def _search(members: list[_Member], eps: float, method: str, mode: str,
            horizon: float | None) -> None:
    """Search one slab in lockstep, leaving each member's outcome."""

    def result(m: _Member, t_mix: float, converged: bool, bracket: float) -> MixingResult:
        return MixingResult(t_mix=t_mix, converged=converged, eps=eps, method=method,
                            mode=mode, horizon=m.horizon, bracket=bracket)

    for m in members:
        try:
            span = default_horizon(m.config, eps) if horizon is None else horizon
            check_positive("horizon", span)
        except SEARCH_ERRORS as exc:
            m.outcome = exc
            continue
        m.horizon = float(span)
    _attach_modes([m for m in members if m.outcome is None], method)
    uniform = uniform_distribution(members[0].config.n)
    scanned = []
    for m in members:
        if m.outcome is None:
            try:
                _check_resolution(m, eps)
            except SEARCH_ERRORS as exc:
                m.outcome = exc
            else:
                scanned.append(m)
    if scanned:  # one scan of every open grid, each cut at its envelope: the rest is under eps
        spans = np.array([m.horizon for m in scanned])
        stack = ModeSum.stack([m.modes for m in scanned])
        for index, table, rows in stack.scan(spans, GRID_INTERVALS + 1, eps):
            distances = _distance(table, uniform)
            for k, g in enumerate(index):
                _bracket(scanned[g], table[k, :rows[k]], distances[k, :rows[k]], eps, mode, result)
            del table  # not held while the next group is evaluated
        del stack  # nor during the bisection
    # Bisection in lockstep: each level is one midpoint per open member.
    open_ = [m for m in members if m.outcome is None]
    while open_ := [m for m in open_ if m.outcome is None
                    and m.hi - m.lo > RELATIVE_BRACKET * m.hi]:
        mids = np.array([0.5 * (m.lo + m.hi) for m in open_])
        distances, failures = _midpoints(open_, mids, uniform)
        for k, (m, mid, failure) in enumerate(zip(open_, mids, failures)):
            if failure is not None:
                m.outcome = failure
            elif distances[k] <= eps:
                m.hi = float(mid)
            else:
                m.lo = float(mid)
    for m in members:
        if m.outcome is None:
            m.outcome = result(m, m.hi, True, m.hi - m.lo)
        m.modes = None  # a searched slab keeps its outcomes only


class LockstepSearch:
    """The mixing-time searches of configs of one n, run slab by slab in lockstep.

    A slab (_slab) holds as many gammas as keep their (S, K) mode tables
    within _CHUNK_ENTRIES entries together (stack_slab: all 25 of the
    default grid up to n = 289 on the exact methods and perturbative, 8
    at n = 512).  It is searched at
    the first outcome asked of any of its configs: it builds its mode
    sums, the exact methods in one stacked secular solve
    (evolution.secular_mode_sums) and the other mode sums in one table
    build, then scans every config's grid in one pass (ModeSum.scan,
    whose rows are bitwise those of each config's grid alone), and then
    bisects in lockstep: each level takes the midpoint of every bracket
    still open in one stacked call (ModeSum.at), whose rows are bitwise
    the single-time evaluations of each config alone, so a slab of G
    gammas takes about 14 calls, not 14 G.

    outcome(k) is config k's MixingResult, or the ValueError,
    IntegrationError or LinAlgError its own search failed with (any
    other exception propagates): every outcome, result or failure, is
    the one mixing_time gives for that config alone, and a config whose
    midpoint is not finite fails alone.  A bad eps, method, mode or
    horizon, common to all, is refused here.  sweep_gamma asks for each
    point through mixing_time(..., search=).
    """

    def __init__(
        self,
        configs: list[WalkConfig],
        eps: float,
        method: str = "exact",
        mode: str = "sustained",
        horizon: float | None = None,
    ) -> None:
        configs = list(configs)
        if not configs or any(c.n != configs[0].n for c in configs):
            raise ValueError("a lockstep search takes one or more configs, all of one n")
        n = configs[0].n
        check_request(n, eps, method)
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if horizon is not None:
            check_positive("horizon", horizon)
        self.request = (eps, method, mode, horizon)
        self.index = {c: k for k, c in enumerate(configs)}
        self._members = [_Member(c) for c in configs]
        self._width = _slab(n, method)

    def outcome(self, k: int) -> MixingResult | Exception:
        """Config k's result or failure, searching its slab first if it has not been."""
        if self._members[k].outcome is None:
            lo = k - k % self._width
            _search(self._members[lo:lo + self._width], *self.request)
        return self._members[k].outcome


def mixing_time(
    config: WalkConfig,
    eps: float,
    method: str = "exact",
    mode: str = "sustained",
    horizon: float | None = None,
    search: LockstepSearch | None = None,
) -> MixingResult:
    """Smallest time at which the walk is eps-close to uniform.

    first-crossing returns the first grid-then-bisection-refined time
    with distance <= eps; sustained returns the earliest time from which
    every later grid sample stays <= eps.  Reports converged=False with
    t_mix=horizon when the distance never qualifies.

    Every method's mode sum bounds the distance by an envelope
    E(t) = sum_k |w_k| exp(Re z_k t) that decreases in t (ModeSum).  E
    is evaluated at the grid's lead times (every 46th time) up to the
    first one with E <= eps - envelope_margin, and the grid rows from
    there on are not evaluated: the margin covers the rounding of both
    the envelope and the distance, so every row left out would have
    read <= eps.  The rows before the cut are bitwise those of the whole
    grid, so both modes give what the whole grid gives.  A row left out
    cannot be non-finite (every rate decays and every amplitude is
    finite), so no IntegrationError is missed.  With no envelope (an
    expm block, gamma = 0) every row is evaluated.  A search whose
    rounding margin at the horizon is not below eps, where no distance
    can be told from eps, is refused before any row (_check_resolution).

    This is the one-config case of LockstepSearch, and raises the
    failure it reports.  search, if given, is a LockstepSearch holding
    config, built for the same eps, method, mode and horizon, which
    answers instead (sweep_gamma searches its grid so).
    """
    if search is None:
        search = LockstepSearch([config], eps, method, mode, horizon)
    elif search.request != (eps, method, mode, horizon) or config not in search.index:
        raise ValueError("a lockstep search answers for its own configs and request only")
    outcome = search.outcome(search.index[config])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
