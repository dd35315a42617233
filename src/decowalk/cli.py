"""Command-line front end.

Subcommands: evolve (trajectory CSV), unitary (closed-walk trajectory
CSV), mixing (single measurement, JSON), bounds (analytic bound values,
JSON), sweep (gamma sweep CSV), transition (multi-N sweep CSV), compare
(method comparison at one time, CSV) and verify (cross-validation
report).  Outputs are deterministic: identical invocations produce
byte-identical files.  Numbers are serialized with 17 significant
digits, so doubles round-trip exactly; CSV metadata lines are prefixed
with '#' and always record the package defaults.  Exit codes: 0 success,
2 usage error, 1 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checks
from .evolution import IntegrationError, TimeGrid, exact_evolve, integrate
from .large_gamma import closed_form_a, large_gamma_bounds
from .mixing import METHODS, MODES, mixing_time
from .model import WalkConfig
from .spectral import perturbative_distribution, small_gamma_mixing_bound, unitary_distribution
from .sweep import (
    DEFAULT_EPS,
    DEFAULT_GAMMA_MAX,
    DEFAULT_GAMMA_MIN,
    DEFAULT_GAMMA_POINTS,
    default_method,
    sweep_gamma,
    transition_report,
)

_DEFAULTS_LINE = (
    f"# defaults: eps={DEFAULT_EPS} gamma_grid={DEFAULT_GAMMA_POINTS} log-spaced in "
    f"[{DEFAULT_GAMMA_MIN},{DEFAULT_GAMMA_MAX}] mode=sustained"
)
_DEFAULTS_JSON = {
    "eps": DEFAULT_EPS,
    "gamma_grid": f"{DEFAULT_GAMMA_POINTS} log-spaced in [{DEFAULT_GAMMA_MIN},{DEFAULT_GAMMA_MAX}]",
    "mode": "sustained",
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _trajectory_csv(meta: list[str], times, dists) -> str:
    n = dists.shape[1]
    lines = meta + [_DEFAULTS_LINE]
    lines.append("time," + ",".join(f"p_{j}" for j in range(n)))
    for t, row in zip(times, dists):
        lines.append(",".join([_fmt(t)] + [_fmt(p) for p in row]))
    return "\n".join(lines) + "\n"


def _guard(parser: argparse.ArgumentParser, build):
    """Run flag-range validation; report violations as usage errors."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))


def _cmd_evolve(parser, args) -> int:
    config, grid = _guard(parser, lambda: (
        WalkConfig(n=args.n, gamma=args.gamma),
        TimeGrid(t_end=args.t_max, dt=args.dt, sample_stride=args.stride),
    ))
    series = integrate(config, grid, model=args.model)
    meta = [
        "# decowalk evolve",
        f"# n={args.n} gamma={_fmt(args.gamma)} t_max={_fmt(args.t_max)} "
        f"dt={_fmt(args.dt)} stride={args.stride} model={args.model}",
    ]
    _write_text(args.output, _trajectory_csv(meta, series.times, series.dists))
    return 0


def _cmd_unitary(parser, args) -> int:
    _guard(parser, lambda: WalkConfig(n=args.n))
    if args.t_max <= 0 or args.dt <= 0:
        parser.error("t-max and dt must be > 0")
    count = int(np.floor(args.t_max / args.dt + 1e-9)) + 1
    times = np.arange(count) * args.dt
    dists = np.array([unitary_distribution(args.n, float(t)) for t in times])
    meta = [
        "# decowalk unitary",
        f"# n={args.n} t_max={_fmt(args.t_max)} dt={_fmt(args.dt)} generator=bare-adjacency",
    ]
    _write_text(args.output, _trajectory_csv(meta, times, dists))
    return 0


def _cmd_mixing(parser, args) -> int:
    config = _guard(parser, lambda: WalkConfig(n=args.n, gamma=args.gamma))
    if not 0 < args.eps <= 2:
        parser.error(f"eps must lie in (0, 2], got {args.eps}")
    result = mixing_time(config, args.eps, method=args.method, mode=args.mode,
                         horizon=args.horizon, dt=args.dt)
    _write_json(args.output, {
        "command": "mixing",
        "n": args.n,
        "gamma": args.gamma,
        "eps": args.eps,
        "method": result.method,
        "mode": result.mode,
        "horizon": result.horizon,
        "t_mix": result.t_mix,
        "converged": result.converged,
        "bracket": result.bracket,
        "defaults": _DEFAULTS_JSON,
    })
    return 0


def _cmd_bounds(parser, args) -> int:
    if args.gamma <= 0:
        parser.error("bounds require gamma > 0")
    if not 0 < args.eps < 2:
        parser.error(f"eps must lie in (0, 2), got {args.eps}")
    small, report = _guard(parser, lambda: (
        small_gamma_mixing_bound(args.n, args.gamma, args.eps),
        large_gamma_bounds(args.n, args.gamma, args.eps),
    ))
    _write_json(args.output, {
        "command": "bounds",
        "n": args.n,
        "gamma": args.gamma,
        "eps": args.eps,
        "small_gamma_bound": small,
        "t_lower": report.t_lower,
        "t_upper": report.t_upper,
        "t_lower_large_n": report.t_lower_large_n,
        "t_lower_large_n_alt": report.t_lower_large_n_alt,
        "defaults": _DEFAULTS_JSON,
    })
    return 0


def _failure_lines(prefix: str, points) -> list[str]:
    """One '# failed' metadata line per failed sweep point, with its reason."""
    return [
        f"# failed {prefix}gamma={_fmt(p.gamma)} reason={' '.join(p.reason.split())}"
        for p in points if p.reason is not None
    ]


def _gamma_grid_from_args(parser, args) -> np.ndarray:
    if not (args.gamma_min > 0 and args.gamma_max > args.gamma_min and args.points >= 2):
        parser.error("need 0 < gamma-min < gamma-max and points >= 2")
    return np.logspace(np.log10(args.gamma_min), np.log10(args.gamma_max), args.points)


def _cmd_sweep(parser, args) -> int:
    _guard(parser, lambda: WalkConfig(n=args.n))
    if not 0 < args.eps <= 2:
        parser.error(f"eps must lie in (0, 2], got {args.eps}")
    grid = _gamma_grid_from_args(parser, args)
    method = args.method or default_method(args.n)
    result = sweep_gamma(args.n, eps=args.eps, gammas=grid, method=method, jobs=args.jobs)
    meta = [
        "# decowalk sweep",
        f"# n={args.n} eps={_fmt(args.eps)} method={method} mode=sustained "
        f"gamma_min={_fmt(args.gamma_min)} gamma_max={_fmt(args.gamma_max)} points={args.points}",
        f"# gamma_opt={'none' if result.gamma_opt is None else _fmt(result.gamma_opt)} "
        f"t_opt={'none' if result.t_opt is None else _fmt(result.t_opt)}",
        _DEFAULTS_LINE,
        *_failure_lines("", result.points),
        "gamma,t_mix,converged",
    ]
    rows = [
        f"{_fmt(p.gamma)},{_fmt(p.t_mix)},{'true' if p.converged else 'false'}"
        for p in result.points
    ]
    _write_text(args.output, "\n".join(meta + rows) + "\n")
    return 0


def _cmd_transition(parser, args) -> int:
    try:
        ns = [int(part) for part in args.ns.split(",") if part.strip()]
    except ValueError:
        parser.error(f"could not parse --ns {args.ns!r}; expected comma-separated integers")
    if not ns:
        parser.error("--ns must list at least one cycle size")
    for n in ns:
        _guard(parser, lambda n=n: WalkConfig(n=n))
    if not 0 < args.eps <= 2:
        parser.error(f"eps must lie in (0, 2], got {args.eps}")
    grid = _gamma_grid_from_args(parser, args)
    report = transition_report(ns, eps=args.eps, gammas=grid,
                               method=args.method, jobs=args.jobs)
    meta = [
        "# decowalk transition",
        f"# ns={','.join(str(n) for n in ns)} eps={_fmt(args.eps)} "
        f"gamma_min={_fmt(args.gamma_min)} gamma_max={_fmt(args.gamma_max)} points={args.points}",
    ]
    for entry in report.entries:
        opt_g = "none" if entry.sweep.gamma_opt is None else _fmt(entry.sweep.gamma_opt)
        opt_t = "none" if entry.sweep.t_opt is None else _fmt(entry.sweep.t_opt)
        s_small = "none" if entry.small_gamma_slope is None else _fmt(entry.small_gamma_slope)
        s_large = "none" if entry.large_gamma_slope is None else _fmt(entry.large_gamma_slope)
        meta.append(
            f"# n={entry.n} method={entry.sweep.method} gamma_opt={opt_g} t_opt={opt_t} "
            f"small_slope={s_small} large_slope={s_large}"
        )
    meta.append(_DEFAULTS_LINE)
    for entry in report.entries:
        meta += _failure_lines(f"n={entry.n} ", entry.sweep.points)
    meta.append("n,gamma,t_mix,converged")
    rows = []
    for entry in report.entries:
        for p in entry.sweep.points:
            rows.append(
                f"{entry.n},{_fmt(p.gamma)},{_fmt(p.t_mix)},{'true' if p.converged else 'false'}"
            )
    _write_text(args.output, "\n".join(meta + rows) + "\n")
    return 0


def _cmd_compare(parser, args) -> int:
    config = _guard(parser, lambda: WalkConfig(n=args.n, gamma=args.gamma))
    if args.gamma <= 0:
        parser.error("compare requires gamma > 0 (the diffusive column needs it)")
    if args.t < 0:
        parser.error("t must be >= 0")
    p_exact = exact_evolve(config, args.t).diagonal()
    p_pert = perturbative_distribution(config, args.t)
    p_large = closed_form_a(config, args.t)
    meta = [
        "# decowalk compare",
        f"# n={args.n} gamma={_fmt(args.gamma)} t={_fmt(args.t)}",
        _DEFAULTS_LINE,
        "vertex,p_exact,p_perturbative,p_large_gamma,err_perturbative,err_large_gamma",
    ]
    rows = [
        ",".join([
            str(j), _fmt(p_exact[j]), _fmt(p_pert[j]), _fmt(p_large[j]),
            _fmt(abs(p_pert[j] - p_exact[j])), _fmt(abs(p_large[j] - p_exact[j])),
        ])
        for j in range(args.n)
    ]
    _write_text(args.output, "\n".join(meta + rows) + "\n")
    return 0


def _cmd_verify(parser, args) -> int:
    outcomes = checks.run_checks()
    _write_text(args.output, checks.format_report(outcomes))
    return 1 if checks.has_failures(outcomes) else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decowalk",
        description="Dephasing-monitored walk on the cycle: evolution, bounds, mixing times.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("evolve", help="integrate a master equation and emit the trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--model", choices=("s-literal", "rho"), default="s-literal")
    _add_output(p)

    p = subs.add_parser("unitary", help="closed-form bare-adjacency walk trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.05)
    _add_output(p)

    p = subs.add_parser("mixing", help="measure one eps-mixing time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--method", choices=METHODS, default="exact")
    p.add_argument("--mode", choices=MODES, default="sustained")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=0.01)
    _add_output(p)

    p = subs.add_parser("bounds", help="analytic mixing-time bounds for (n, gamma, eps)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    _add_output(p)

    p = subs.add_parser("sweep", help="mixing time over a log-spaced gamma grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--gamma-min", type=float, default=DEFAULT_GAMMA_MIN)
    p.add_argument("--gamma-max", type=float, default=DEFAULT_GAMMA_MAX)
    p.add_argument("--points", type=int, default=DEFAULT_GAMMA_POINTS)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_output(p)

    p = subs.add_parser("transition", help="sweeps for several cycle sizes plus tail slopes")
    p.add_argument("--ns", type=str, default="5,10,15,20")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--gamma-min", type=float, default=DEFAULT_GAMMA_MIN)
    p.add_argument("--gamma-max", type=float, default=DEFAULT_GAMMA_MAX)
    p.add_argument("--points", type=int, default=DEFAULT_GAMMA_POINTS)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_output(p)

    p = subs.add_parser("compare", help="exact vs approximate distributions at one time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_output(p)

    p = subs.add_parser("verify", help="run the cross-validation suite")
    _add_output(p)

    return parser


_HANDLERS = {
    "evolve": _cmd_evolve,
    "unitary": _cmd_unitary,
    "mixing": _cmd_mixing,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "transition": _cmd_transition,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    except (ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
