"""Command-line front end.

Subcommands: evolve (trajectory CSV), unitary (closed-walk trajectory
CSV), mixing (single measurement, JSON), bounds (analytic bound values,
JSON), sweep (gamma sweep CSV), transition (multi-N sweep CSV), compare
(method comparison at one time, CSV) and verify (cross-validation
report).  Outputs are deterministic: identical invocations produce
byte-identical files.  Numbers are serialized with 17 significant
digits, so doubles round-trip exactly; CSV metadata lines are prefixed
with '#' and always record the package defaults.  Exit codes: 0 success,
2 usage error (any flag value outside its domain, checked by the
validators of decowalk.model), 1 computation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import checks
from .evolution import IntegrationError, TimeGrid, check_table_size, exact_evolve, integrate
from .large_gamma import closed_form_a, large_gamma_bounds
from .mixing import METHODS, MODES, mixing_time
from .model import WalkConfig, check_cycle_size, check_eps, check_positive, check_times
from .spectral import perturbative_distribution, small_gamma_mixing_bound, unitary_distribution
from .sweep import (
    DEFAULT_EPS,
    DEFAULT_GAMMA_MAX,
    DEFAULT_GAMMA_MIN,
    DEFAULT_GAMMA_POINTS,
    default_gamma_grid,
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
    """Write payload as JSON, refusing NaN and infinities, which JSON cannot carry."""
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is {value}; JSON output carries only finite numbers")
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _trajectory_csv(meta: list[str], times, dists) -> str:
    n = dists.shape[1]
    lines = meta + [_DEFAULTS_LINE]
    lines.append("time," + ",".join(f"p_{j}" for j in range(n)))
    row = ",".join(["%.17g"] * (n + 1))  # as _fmt, once per row
    lines.extend(row % (t, *p) for t, p in zip(times.tolist(), dists.tolist()))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _guard(parser: argparse.ArgumentParser):
    """Report a flag value that a validator rejects as a usage error."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))


def _cmd_evolve(parser, args) -> int:
    with _guard(parser):
        config = WalkConfig(n=args.n, gamma=args.gamma)
        check_positive("t_max", args.t_max)
        grid = TimeGrid(t_end=args.t_max, dt=args.dt, sample_stride=args.stride)
    series = integrate(config, grid, model=args.model)
    meta = [
        "# decowalk evolve",
        f"# n={args.n} gamma={_fmt(args.gamma)} t_max={_fmt(args.t_max)} "
        f"dt={_fmt(args.dt)} stride={args.stride} model={args.model}",
    ]
    _write_text(args.output, _trajectory_csv(meta, series.times, series.dists))
    return 0


def _cmd_unitary(parser, args) -> int:
    with _guard(parser):
        check_cycle_size(args.n)
        check_positive("t_max", args.t_max)
        TimeGrid(t_end=args.t_max, dt=args.dt)
    count = np.floor(args.t_max / args.dt + 1e-9) + 1
    check_table_size("trajectory table", count, 8 * args.n)
    times = np.arange(int(count)) * args.dt
    dists = np.array([unitary_distribution(args.n, float(t)) for t in times])
    meta = [
        "# decowalk unitary",
        f"# n={args.n} t_max={_fmt(args.t_max)} dt={_fmt(args.dt)} generator=bare-adjacency",
    ]
    _write_text(args.output, _trajectory_csv(meta, times, dists))
    return 0


def _cmd_mixing(parser, args) -> int:
    with _guard(parser):
        config = WalkConfig(n=args.n, gamma=args.gamma)
        check_eps(args.eps)
        check_positive("dt", args.dt)
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
    with _guard(parser):
        small = small_gamma_mixing_bound(args.n, args.gamma, args.eps)
        report = large_gamma_bounds(args.n, args.gamma, args.eps)
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


def _cmd_sweep(parser, args) -> int:
    with _guard(parser):
        check_cycle_size(args.n)
        check_eps(args.eps)
        grid = default_gamma_grid(args.points, args.gamma_min, args.gamma_max)
    result = sweep_gamma(args.n, eps=args.eps, gammas=grid, method=args.method)
    meta = [
        "# decowalk sweep",
        f"# n={args.n} eps={_fmt(args.eps)} method={result.method} mode=sustained "
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
    with _guard(parser):
        check_cycle_size(min(ns))
        check_eps(args.eps)
        grid = default_gamma_grid(args.points, args.gamma_min, args.gamma_max)
    report = transition_report(ns, eps=args.eps, gammas=grid, method=args.method)
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
    with _guard(parser):
        config = WalkConfig(n=args.n, gamma=args.gamma)
        check_positive("gamma", args.gamma)  # the large-gamma column needs it
        check_times(args.t)
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
    _add_output(p)

    p = subs.add_parser("transition", help="sweeps for several cycle sizes plus tail slopes")
    p.add_argument("--ns", type=str, default="5,10,15,20")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--gamma-min", type=float, default=DEFAULT_GAMMA_MIN)
    p.add_argument("--gamma-max", type=float, default=DEFAULT_GAMMA_MAX)
    p.add_argument("--points", type=int, default=DEFAULT_GAMMA_POINTS)
    p.add_argument("--method", choices=METHODS, default=None)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and reused, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    except (ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
