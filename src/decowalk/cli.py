"""Command-line front end.

Subcommands: evolve (trajectory CSV), unitary (closed-walk trajectory
CSV), mixing (single measurement, JSON), bounds (analytic bound values,
JSON), sweep (gamma sweep CSV), transition (multi-N sweep CSV), compare
(method comparison at one time, CSV) and verify (cross-validation
report).  Outputs are deterministic: identical invocations produce
byte-identical files.  Numbers are serialized with 17 significant
digits, so doubles round-trip exactly; CSV metadata lines are prefixed
with '#' and always record the package defaults.  Trajectory tables
(evolve, unitary) are printed by one vectorised kernel, _csv_rows, whose
every cell is byte-identical to format(x, ".17g"); they are written in
chunks of at most _CHUNK_CELLS cells (whole rows, or pieces of a wider row),
so their text is never held whole.
Exit codes: 0 success, 2 usage error (any flag value outside its domain,
checked by the validators of decowalk.model), 1 computation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

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


# Trajectory tables print in chunks of at most this many cells, so their
# text is never held whole.
_CHUNK_CELLS = 1 << 16

# _csv_rows lays each cell out in _CELL bytes: a sign column, up to 24
# characters of _fmt ("-1.2345678901234567e-308") and a separator.
_CELL = 26
# Decimal exponents e of the power-of-ten table 10**(16 - e).  Cells with
# 1e-280 <= |x| <= 1e280 have -281 <= e <= 280, and every product stays normal.
_EXP_MIN, _EXP_MAX = -282, 282
# The scaled value |x| * 10**(16 - e) is known to within 5e-15, so a cell
# within _TIE_MARGIN of a rounding tie is printed by _fmt instead.  So is a
# cell whose high part lies within _EDGE of 10**16 or 10**17, where e may be
# off by one; the low part is below 20 in size.
_TIE_MARGIN = 2.0 ** -20
_EDGE = 64.0
# Row layouts: fixed notation for -4 <= e < 17 as e + 4, then these two.
_SCIENTIFIC, _BY_FMT = 21, 22
_SUFFIX = 19  # first column of a scientific cell's exponent, "e+XX" or "e-XXX"


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = high + low, each half of a's 53 bits."""
    t = 134217729.0 * a  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


class _CsvTables(NamedTuple):
    """Lookup tables of _csv_rows.

    - pow10: per exponent e, 10**(16 - e) as the double-double P + p, with P
      also split in halves.  Both are rounded from exact Python integers.
    - quads: the four ASCII digits of 0..9999, each as one uint32.
    - zeros: the number of trailing zeros of each of those four digits.
    - masks: per (cut, suffix) the columns a cell keeps: [0, cut), plus the
      exponent suffix and its separator for scientific cells.
    """

    pow10: np.ndarray
    quads: np.ndarray
    zeros: np.ndarray
    masks: np.ndarray


@functools.cache
def _csv_tables() -> _CsvTables:
    """The lookup tables, built at the first call, not at import."""
    rows = []
    for e in range(_EXP_MIN, _EXP_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        high = num / den
        h_num, h_den = high.as_integer_ratio()
        rows.append((high, *_halves(high), (num * h_den - h_num * den) / (den * h_den)))
    quad_digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    quads = (quad_digits + ord("0")).view(np.uint32).ravel()
    zeros = np.cumprod(quad_digits[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.int32)
    col = np.arange(_CELL)
    cut = np.arange(_CELL + 1)[:, None, None]
    suffix = np.array([0, 5, 6])[:, None]  # none, "e-XX,", "e-XXX,"
    masks = (col < cut) | ((col >= _SUFFIX) & (col < _SUFFIX + suffix))
    return _CsvTables(np.array(rows), quads, zeros, masks.reshape(-1, _CELL))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, exact) per cell: |x| = D * 10**(e - 16) to 17 significant digits.

    D = round(|x| * 10**(16 - e)) with e = floor(log10 |x|).  Dekker's
    error-free product against the double-double power of ten gives the
    scaled value to within 5e-15.  exact is False where that cannot settle
    D or e: a scaled value near a half-integer or near 10**16 or 10**17, and
    0, subnormals, |x| outside [1e-280, 1e280], NaN and infinities.
    """
    a = np.abs(x)
    exact = (a >= 1e-280) & (a <= 1e280)
    a[~exact] = 1.5  # keeps the arithmetic below finite
    e = np.floor(np.log10(a)).astype(np.int32)
    high, low = _two_product(a, _csv_tables().pow10.take(e - _EXP_MIN, axis=0))
    step = np.rint(low)
    exact &= (high >= 1e16 + _EDGE) & (high <= 1e17 - _EDGE)
    low -= step
    exact &= np.abs(np.abs(low) - 0.5) >= _TIE_MARGIN
    d = high.astype(np.int64)
    d += step.astype(np.int64)
    d[~exact] = 10 ** 16
    return d, e, exact


def _two_product(a: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """high + low = a * (P + p), from rows (P, P_high, P_low, p), up to one rounding of low.

    Dekker's product: high is a * P rounded, and low starts as its exact error.
    """
    big, big_high, big_low, small = power.T
    high = a * big
    a_high, a_low = _halves(a)
    low = ((a_high * big_high - high) + a_high * big_low + a_low * big_high) + a_low * big_low
    low += a * small
    return high, low


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D, and how many are significant."""
    tables = _csv_tables()
    top, bottom = (part.astype(np.int32) for part in np.divmod(d, 10 ** 8))
    groups = np.empty((d.size, 5), np.int32)  # 1 + 4 + 4 + 4 + 4 digits
    groups[:, 0], groups[:, 1] = np.divmod(top // 10 ** 4, 10 ** 4)
    groups[:, 2] = top % 10 ** 4
    groups[:, 3], groups[:, 4] = np.divmod(bottom, 10 ** 4)
    trailing = tables.zeros.take(groups[:, 1])
    for group in groups[:, 2:].T:
        trailing = tables.zeros.take(group) + (group == 0) * trailing
    return tables.quads.take(groups).view(np.uint8)[:, 3:], 17 - trailing


def _csv_rows(table: np.ndarray) -> str:
    """The rows of a float64 table as CSV text, each cell exactly what _fmt prints.

    Cells are joined by "," and rows ended by "\\n".  The whole table is
    printed at once: cells are sorted by row layout, _cells lays them out,
    and the rows go back to table order.  A mask then keeps the sign column
    of negative cells and drops trailing zeros, and one decode turns the
    kept bytes into text.
    """
    rows, cols = table.shape
    x = table.ravel()
    d, e, exact = _decimal(x)
    layout = np.where((e >= -4) & (e < 17), e + 4, _SCIENTIFIC).astype(np.uint8)
    layout[~exact] = _BY_FMT
    order = np.argsort(layout, kind="stable")
    bounds = np.cumsum(np.bincount(layout, minlength=_BY_FMT + 1))
    cells = _cells(d.take(order), e.take(order), bounds, x.take(order[bounds[-2]:]))
    back = np.empty_like(order)
    back[order] = np.arange(x.size)
    m, cut, suffix = (part.take(back, axis=0) for part in cells)
    del cells
    separators = np.full((rows, cols), ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    at = np.where(suffix > 0, _SUFFIX + 3 + suffix, cut)
    m.ravel()[np.arange(0, m.size, _CELL) + at] = separators.ravel()
    cut += suffix == 0
    keep = _csv_tables().masks.take(cut * 3 + suffix, axis=0)
    keep[:, 0] = np.signbit(x) & exact
    return str(m[keep].data, "ascii")


def _cells(d: np.ndarray, e: np.ndarray, bounds: np.ndarray, slow: np.ndarray):
    """Lay out cells sorted by row layout, each layout ending at its bound.

    Returns the (cells, _CELL) bytes with column 0 set to "-", the end of
    each cell's kept columns before any exponent suffix, and the suffix kind
    (0 none, 1 two exponent digits, 2 three).  The last layout's cells are
    slow, printed by _fmt.
    """
    digits, kept = _digits(d)
    m = np.empty((d.size, _CELL), np.uint8)
    m[:, 0] = ord("-")
    cut = np.empty(d.size, np.int32)
    suffix = np.zeros(d.size, np.int32)
    for kind, (s, t) in enumerate(zip(np.concatenate(([0], bounds[:-1])), bounds)):
        if s == t:
            continue
        block, dig, nd = m[s:t], digits[s:t], kept[s:t]
        if 4 <= kind < _SCIENTIFIC:  # d.ddd with the point after e + 1 digits
            p = kind - 3
            block[:, 1:p + 1] = dig[:, :p]
            block[:, p + 1] = ord(".")
            block[:, p + 2:19] = dig[:, p:]
            cut[s:t] = np.where(nd > p, nd + 2, p + 1)
        elif kind < _SCIENTIFIC:  # 0.000ddd
            lead = 4 - kind
            block[:, 1:lead + 2] = np.frombuffer(b"0.000", np.uint8)[:lead + 1]
            block[:, lead + 2:lead + 19] = dig
            cut[s:t] = lead + 2 + nd
        elif kind == _SCIENTIFIC:
            block[:, 1] = dig[:, 0]
            block[:, 2] = ord(".")
            block[:, 3:19] = dig[:, 1:]
            cut[s:t] = np.where(nd > 1, nd + 2, 2)
            size = np.abs(e[s:t])
            hundreds, tens, units = (size // [[100], [10], [1]]) % 10 + ord("0")
            three = size >= 100
            block[:, _SUFFIX] = ord("e")
            block[:, _SUFFIX + 1] = np.where(e[s:t] < 0, ord("-"), ord("+"))
            block[:, _SUFFIX + 2] = np.where(three, hundreds, tens)
            block[:, _SUFFIX + 3] = np.where(three, tens, units)
            block[:, _SUFFIX + 4] = units
            suffix[s:t] = 1 + three
        else:
            texts = [_fmt(v) for v in slow.tolist()]
            padded = "".join([f"{text:<24}" for text in texts]).encode("ascii")
            block[:, 1:25] = np.frombuffer(padded, np.uint8).reshape(-1, 24)
            cut[s:t] = 1 + np.array([len(text) for text in texts])
    return m, cut, suffix


def _write_text(path: str | None, text: str, chunks: Iterable[str] = ()) -> None:
    """Write text, then each of chunks, to path, or to stdout for None or '-'."""
    if path in (None, "-"):
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path, "w", encoding="utf-8", newline="")
    with target as handle:
        handle.write(text)
        for chunk in chunks:
            handle.write(chunk)


def _write_json(path: str | None, payload: dict) -> None:
    """Write payload as JSON, refusing NaN and infinities, which JSON cannot carry."""
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is {value}; JSON output carries only finite numbers")
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _trajectory_header(meta: list[str], n: int) -> str:
    return "\n".join([*meta, _DEFAULTS_LINE, "time," + ",".join(f"p_{j}" for j in range(n))]) + "\n"


def _trajectory_rows(times: np.ndarray, dists: np.ndarray) -> Iterator[str]:
    """The rows "time,p_0,...", in chunks of at most _CHUNK_CELLS cells: whole
    rows, or the cells of a row wider than a chunk, each piece but the last
    ending in its separator."""
    width = dists.shape[1] + 1
    step = _CHUNK_CELLS // width
    if step:
        for start in range(0, len(times), step):
            rows = slice(start, start + step)
            yield _csv_rows(np.column_stack((times[rows], dists[rows])))
        return
    for time, dist in zip(times, dists):
        row = np.concatenate(([time], dist))
        for lo in range(0, width, _CHUNK_CELLS):
            text = _csv_rows(row[None, lo:lo + _CHUNK_CELLS])
            yield text if lo + _CHUNK_CELLS >= width else text[:-1] + ","


def _trajectory_csv(meta: list[str], times, dists) -> str:
    """The whole trajectory CSV as one string: what evolve and unitary write chunk by chunk."""
    return _trajectory_header(meta, dists.shape[1]) + "".join(_trajectory_rows(times, dists))


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
    header = _trajectory_header(meta, args.n)
    _write_text(args.output, header, _trajectory_rows(series.times, series.dists))
    return 0


def _cmd_unitary(parser, args) -> int:
    with _guard(parser):
        check_cycle_size(args.n)
        check_positive("t_max", args.t_max)
        TimeGrid(t_end=args.t_max, dt=args.dt)
    count = np.floor(args.t_max / args.dt + 1e-9) + 1
    check_table_size("trajectory table", count, 8 * args.n)
    times = np.arange(int(count)) * args.dt
    dists = np.empty((times.size, args.n))
    rows = max(1, _CHUNK_CELLS // args.n)  # phase and transform tables of at most a chunk
    for lo in range(0, times.size, rows):
        dists[lo:lo + rows] = unitary_distribution(args.n, times[lo:lo + rows])
    meta = [
        "# decowalk unitary",
        f"# n={args.n} t_max={_fmt(args.t_max)} dt={_fmt(args.dt)} generator=bare-adjacency",
    ]
    _write_text(args.output, _trajectory_header(meta, args.n), _trajectory_rows(times, dists))
    return 0


def _cmd_mixing(parser, args) -> int:
    with _guard(parser):
        config = WalkConfig(n=args.n, gamma=args.gamma)
        check_eps(args.eps)
    result = mixing_time(config, args.eps, method=args.method, mode=args.mode,
                         horizon=args.horizon)
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
    from . import checks  # only verify needs the suite: importing the CLI does not compile it

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
    p.add_argument("--method", choices=METHODS, default="exact")
    _add_output(p)

    p = subs.add_parser("transition", help="sweeps for several cycle sizes plus tail slopes")
    p.add_argument("--ns", type=str, default="5,10,15,20")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--gamma-min", type=float, default=DEFAULT_GAMMA_MIN)
    p.add_argument("--gamma-max", type=float, default=DEFAULT_GAMMA_MAX)
    p.add_argument("--points", type=int, default=DEFAULT_GAMMA_POINTS)
    p.add_argument("--method", choices=METHODS, default="exact")
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
