"""Independent-route checks of the workloads' CLI outputs.

Every result is recomputed from its printed inputs, so jittered seeds are
checked as well as seed 0:

* exact and RK4 sweeps (n <= 24): the dense `exact_evolve` exponential;
* large-gamma closed-form sweeps: `classical_heat_kernel`, the dense
  exponential of the classical rate matrix with hop rate 1/(8 gamma);
* perturbative sweeps: `perturbative_distribution` at the reported time.
  This reuses the method's own kernel, so it checks the search only;
* trajectories: every row sums to 1, and the final row matches
  `exact_evolve` of the literal-S picture.  For n a multiple of 4 both
  pictures have the same vertex distribution, so one oracle serves the
  s-literal and rho runs.

A mixing time passes when the oracle's distance D crosses eps inside the
search's final bracket: D(t_mix) <= eps and D(t_mix - bracket) > eps, each
within DISTANCE_ATOL.  The bracket is the search resolution, rebuilt from
the printed t_mix: the coarse grid cell horizon / GRID_INTERVALS halved
until it is at most RELATIVE_BRACKET * t_mix.  At small gamma the distance
oscillates faster than a relative window of 1e-4, so only the search's
own bracket tells a right crossing from a wrong one.
"""

from __future__ import annotations

import math

import numpy as np

from decowalk.evolution import exact_evolve
from decowalk.large_gamma import classical_heat_kernel
from decowalk.mixing import (
    GRID_INTERVALS,
    RELATIVE_BRACKET,
    default_horizon,
    total_variation,
    uniform_distribution,
)
from decowalk.model import WalkConfig
from decowalk.spectral import perturbative_distribution

ROW_SUM_TOL = 1e-10
FINAL_SAMPLE_TOL = 1e-10
# Agreement of an oracle with the method it checks, in total variation.
DISTANCE_ATOL = 1e-9


def _meta(text: str) -> dict[str, str]:
    """key=value pairs of the '#' lines; the first occurrence of a key wins."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            for token in line[1:].split():
                key, sep, value = token.partition("=")
                if sep:
                    out.setdefault(key, value)
    return out


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _route(method: str, n: int, gamma: float):
    """Oracle vertex distribution at time t for one sweep point."""
    config = WalkConfig(n=n, gamma=gamma)
    if method in ("exact", "s-literal"):
        return lambda t: exact_evolve(config, t).diagonal()
    if method == "large-gamma-closed-form":
        return lambda t: classical_heat_kernel(n, 1.0 / (8.0 * gamma), t)
    if method == "perturbative":
        return lambda t: perturbative_distribution(config, t)
    raise ValueError(f"no oracle for method {method!r}")


def search_bracket(horizon: float, t_mix: float) -> float:
    """Final bisection width of a mixing-time search that returned t_mix."""
    width = horizon / GRID_INTERVALS
    while width > RELATIVE_BRACKET * t_mix:
        width *= 0.5
    return width


def crossing_ok(distance, t_mix: float, eps: float, bracket: float) -> bool:
    """Whether `distance` is above eps at t_mix - bracket and at most eps at t_mix."""
    return (distance(t_mix) <= eps + DISTANCE_ATOL
            and distance(t_mix - bracket) > eps - DISTANCE_ATOL)


def check_sweep(text: str) -> list[bool]:
    """Pass/fail per row of a `sweep` or `transition` CSV."""
    meta = _meta(text)
    eps = float(meta["eps"])
    header, rows = _rows(text)
    methods = {}  # transition prints one "# n=.. method=.." line per size
    for line in text.splitlines():
        if line.startswith("# n=") and "method=" in line:
            fields = dict(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
            methods[int(fields["n"])] = fields["method"]
    ok = []
    for row in rows:
        fields = dict(zip(header, row))
        n = int(fields.get("n", meta.get("n", "0")))
        gamma, t_mix = float(fields["gamma"]), float(fields["t_mix"])
        if fields["converged"] != "true" or not (math.isfinite(t_mix) and t_mix > 0):
            ok.append(False)
            continue
        oracle = _route(methods[n], n, gamma)
        uniform = uniform_distribution(n)
        bracket = search_bracket(default_horizon(WalkConfig(n=n, gamma=gamma), eps), t_mix)
        ok.append(crossing_ok(lambda t: total_variation(oracle(t), uniform), t_mix, eps, bracket))
    return ok


def check_trajectory(text: str) -> bool:
    """Rows sum to 1 and the final row matches the dense exponential."""
    meta = _meta(text)
    header, rows = _rows(text)
    data = np.array(rows, dtype=float)
    if data.size == 0 or not np.all(np.isfinite(data)):
        return False
    dists = data[:, 1:]
    if np.max(np.abs(dists.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        return False
    n, t_end = int(meta["n"]), data[-1, 0]
    if t_end != float(meta["t_max"]):
        return False
    config = WalkConfig(n=n, gamma=float(meta["gamma"]))
    model = meta["model"] if n % 4 else "s-literal"
    expected = np.real(exact_evolve(config, t_end, model=model).diagonal())
    return bool(np.max(np.abs(dists[-1] - expected)) <= FINAL_SAMPLE_TOL)


def check_outputs(argvs: list[list[str]], outputs: list[str], codes: list[int],
                  counts: list[int]) -> int:
    """Number of failed results over one pass of a workload.

    A non-zero exit or output that does not parse fails every result the
    invocation should have produced.
    """
    failed = 0
    for argv, text, code, count in zip(argvs, outputs, codes, counts):
        try:
            if code != 0:
                failed += count
            elif argv[0] == "evolve":
                failed += 0 if check_trajectory(text) else 1
            else:
                verdicts = check_sweep(text)
                failed += verdicts.count(False) + max(0, count - len(verdicts))
        except (ValueError, KeyError, IndexError):
            failed += count
    return failed


def tally(argvs: list[list[str]], counts: list[int], first: dict,
          passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) results over every pass of a run.

    The first pass is checked by `check_outputs`.  The CLI prints the same
    bytes for the same invocation, so a later pass with the first pass's
    digest shares its verdict; one with another digest fails as a whole.
    """
    per_pass = sum(counts)
    failed_first = check_outputs(argvs, first["outputs"], first["codes"], counts)
    failed = sum(failed_first if p["digest"] == first["digest"] else per_pass for p in passes)
    return per_pass * len(passes), failed
