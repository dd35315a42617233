"""Dephasing-rate sweeps of the mixing time.

The mixing time scales like 1/gamma when dephasing is weak (coherences
must decay before the walk settles) and like gamma N^2 when dephasing is
strong (the walk degrades into slow classical diffusion), so T_mix(gamma)
is large in both tails with a unique interior optimum.  This module
sweeps log-spaced gamma grids, locates and optionally refines that
optimum, and fits the two tail slopes on a log-log scale.

Every point is one mixing_time search.  On the exact method the
propagators of a grid are solved beforehand in slabs, one stacked
secular solve per slab (evolution.secular_mode_sums): the blocks of
every gamma share their undamped rates and size classes, so a slab
takes one eigenvalue call and one Newton polish per size class, not one
per gamma, and each point gets the bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (
    MAX_DENSE_N,
    DiagonalPropagator,
    IntegrationError,
    secular_mode_sums,
    secular_slab,
)
from .mixing import check_request, mixing_time
from .model import WalkConfig, check_positive

DEFAULT_EPS = 0.01
DEFAULT_GAMMA_MIN = 1e-3
DEFAULT_GAMMA_MAX = 1e2
DEFAULT_GAMMA_POINTS = 25
# Largest N whose default sweep method is the Fourier-block `exact`
# propagator (setup close to O(N^4) per gamma, solved in stacks across
# the grid); larger N default to RK4 up to MAX_DENSE_N, where the RK4
# methods stop, and to `exact` again above it.
EXACT_METHOD_MAX_N = 20

# Converged points per tail in the log-log slope fits of tail_slopes.
_TAIL_POINTS = 5

_REFINE_RELATIVE_WIDTH = 1e-2
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepPoint:
    """One gamma of a sweep; reason says why a point failed, if it did."""

    gamma: float
    t_mix: float
    converged: bool
    reason: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Mixing times over a gamma grid, with the grid optimum.

    gamma_opt / t_opt are the argmin over converged points, or None when
    nothing converged.
    """

    n: int
    eps: float
    method: str
    points: tuple[SweepPoint, ...]
    gamma_opt: float | None
    t_opt: float | None


@dataclass(frozen=True)
class TransitionEntry:
    """One cycle size: its sweep and the fitted tail exponents."""

    n: int
    sweep: SweepResult
    small_gamma_slope: float | None
    large_gamma_slope: float | None


@dataclass(frozen=True)
class TransitionReport:
    eps: float
    entries: tuple[TransitionEntry, ...]


def default_gamma_grid(
    num: int = DEFAULT_GAMMA_POINTS,
    lo: float = DEFAULT_GAMMA_MIN,
    hi: float = DEFAULT_GAMMA_MAX,
) -> np.ndarray:
    """Log-spaced grid spanning both scaling regimes for N up to ~35."""
    check_positive("gamma_min", lo)
    check_positive("gamma_max", hi)
    if num < 2 or hi <= lo:
        raise ValueError(f"need points >= 2 and gamma_min < gamma_max, got {num} in [{lo}, {hi}]")
    return np.logspace(np.log10(lo), np.log10(hi), num)


def default_method(n: int) -> str:
    return "s-literal" if EXACT_METHOD_MAX_N < n <= MAX_DENSE_N else "exact"


def _evaluate_point(n: int, gamma: float, eps: float, method: str,
                    propagator: DiagonalPropagator | None = None) -> SweepPoint:
    try:
        result = mixing_time(WalkConfig(n=n, gamma=gamma), eps, method=method,
                             propagator=propagator)
    except (ValueError, IntegrationError, np.linalg.LinAlgError) as exc:
        return SweepPoint(gamma=gamma, t_mix=float("nan"), converged=False,
                          reason=f"{type(exc).__name__}: {exc}")
    return SweepPoint(gamma=gamma, t_mix=result.t_mix, converged=result.converged)


def _slab_propagators(n: int, gammas: np.ndarray) -> list[DiagonalPropagator | None]:
    """The exact propagator of each gamma, from one stacked secular solve.

    If that solve raises a ValueError or LinAlgError, every entry is
    None: each point then solves alone in mixing_time, and only the
    points that fail alone record a reason.
    """
    try:
        modes = secular_mode_sums(n, gammas)
    except (ValueError, np.linalg.LinAlgError):
        return [None] * gammas.size
    return [DiagonalPropagator(WalkConfig(n=n, gamma=float(g)), modes=m)
            for g, m in zip(gammas, modes)]


def sweep_gamma(
    n: int,
    eps: float = DEFAULT_EPS,
    gammas: np.ndarray | None = None,
    method: str | None = None,
) -> SweepResult:
    """Measure the sustained mixing time at every gamma of a sorted positive grid.

    A point whose measurement fails with a ValueError, IntegrationError
    or LinAlgError is recorded as converged=False, t_mix=nan, with the
    error in its reason; any other exception propagates.  Input that
    would fail every point (see mixing.check_request) is refused before
    any point runs.

    The exact method solves its propagators in slabs of
    evolution.secular_slab gammas, one stacked solve per slab (all 25
    of the default grid up to n = 46), and hands each point its own; a
    slab whose solve fails has each of its points solve alone.
    """
    if gammas is None:
        gammas = default_gamma_grid()
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size == 0:
        raise ValueError("gamma grid is empty")
    if not np.all(np.diff(gammas) > 0):
        raise ValueError("gamma grid must be strictly increasing")
    for gamma in gammas:
        check_positive("gamma", gamma)
    if method is None:
        method = default_method(n)
    check_request(n, eps, method)
    width = secular_slab(n) if method == "exact" else gammas.size
    points = []
    for lo in range(0, gammas.size, width):
        slab = gammas[lo:lo + width]
        built = _slab_propagators(n, slab) if method == "exact" else [None] * slab.size
        points += [_evaluate_point(int(n), float(g), float(eps), method, propagator)
                   for g, propagator in zip(slab, built)]
    points = tuple(points)

    gamma_opt = t_opt = None
    converged = [p for p in points if p.converged and math.isfinite(p.t_mix)]
    if converged:
        best = min(converged, key=lambda p: p.t_mix)
        gamma_opt, t_opt = best.gamma, best.t_mix
    return SweepResult(
        n=int(n), eps=float(eps), method=method,
        points=points, gamma_opt=gamma_opt, t_opt=t_opt,
    )


def optimal_gamma(result: SweepResult, refine: bool = True) -> tuple[float, float]:
    """Locate the mixing-time optimum of a sweep.

    Requires at least 3 converged points with an interior minimum;
    refuses a boundary minimum, which signals the grid missed one of the
    tails.  Refinement runs a golden-section search between the two grid
    neighbours of the argmin (the sweep curves are empirically unimodal
    there) down to relative interval width 1e-2, and never returns a
    worse value than the grid optimum.
    """
    converged = [p for p in result.points if p.converged and math.isfinite(p.t_mix)]
    if len(converged) < 3:
        raise ValueError(f"need at least 3 converged points, got {len(converged)}")
    arg = min(range(len(converged)), key=lambda i: converged[i].t_mix)
    if arg == 0 or arg == len(converged) - 1:
        raise ValueError(
            f"minimum at grid boundary (gamma={converged[arg].gamma:g}); widen the grid"
        )
    best_gamma, best_t = converged[arg].gamma, converged[arg].t_mix
    if not refine:
        return best_gamma, best_t

    def measure(gamma: float) -> float:
        point = _evaluate_point(result.n, gamma, result.eps, result.method)
        return point.t_mix if point.converged and math.isfinite(point.t_mix) else math.inf

    lo, hi = converged[arg - 1].gamma, converged[arg + 1].gamma
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = measure(c), measure(d)
    for gamma, t in ((c, fc), (d, fd)):
        if t < best_t:
            best_gamma, best_t = gamma, t
    while hi - lo > _REFINE_RELATIVE_WIDTH * 0.5 * (hi + lo):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = measure(c)
            if fc < best_t:
                best_gamma, best_t = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = measure(d)
            if fd < best_t:
                best_gamma, best_t = d, fd
    return best_gamma, best_t


def tail_slopes(result: SweepResult) -> tuple[float | None, float | None]:
    """Log-log slopes of T_mix(gamma) over the smallest and largest gammas.

    Fits least-squares lines through the first and last _TAIL_POINTS
    converged points; returns None for a tail with fewer points.
    """
    converged = [p for p in result.points if p.converged and math.isfinite(p.t_mix)]

    def fit(chunk: list[SweepPoint]) -> float | None:
        if len(chunk) < _TAIL_POINTS:
            return None
        x = np.log10([p.gamma for p in chunk])
        y = np.log10([p.t_mix for p in chunk])
        return float(np.polyfit(x, y, 1)[0])

    return fit(converged[:_TAIL_POINTS]), fit(converged[-_TAIL_POINTS:])


def transition_report(
    ns: list[int],
    eps: float = DEFAULT_EPS,
    gammas: np.ndarray | None = None,
    method: str | None = None,
) -> TransitionReport:
    """Sweep every requested cycle size and fit both tail exponents.

    The per-N curves exhibit the coherence-limited 1/gamma tail, the
    diffusive gamma tail, and the interior optimum in between.  Every
    size is checked as sweep_gamma would check it before any is swept.
    """
    for n in ns:
        check_request(n, eps, method or default_method(n))
    entries = []
    for n in ns:
        result = sweep_gamma(n, eps=eps, gammas=gammas, method=method)
        small, large = tail_slopes(result)
        entries.append(
            TransitionEntry(
                n=int(n), sweep=result,
                small_gamma_slope=small, large_gamma_slope=large,
            )
        )
    return TransitionReport(eps=float(eps), entries=tuple(entries))
