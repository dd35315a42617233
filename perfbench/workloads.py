"""Workload definitions: fixed sets of `decowalk` CLI invocations.

Each workload is a list of argv lists passed to `decowalk.cli.main`.
Sizes are fixed; the seed only jitters the gamma values.  Every gamma
value is moved down by u * JITTER_DECADES decades, u uniform in [0, 1)
drawn from the seed, which is at most 8% of a grid cell on the finest
grid below.  Seed 0 leaves every value unchanged.  Jitter only goes
down so that the RK4 step cap 0.1/max(gamma, 1) of the gamma = 10
trajectories stays above dt = 0.01: the step count is then the same for
every seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

JITTER_DECADES = 0.01


class Invocation(NamedTuple):
    argv: tuple[str, ...]
    gamma_flags: tuple[str, ...]  # each takes one jittered gamma value
    gammas: tuple[float, ...]  # the seed-0 values of those flags
    results: int  # sweep rows it prints, or 1 for a trajectory


class Workload(NamedTuple):
    name: str
    why: str
    invocations: tuple[Invocation, ...]


# Two workloads, split along the line the code keeps between its two
# families of routes: mode sums (exact eigen-propagator, perturbative and
# large-gamma closed forms) and RK4.  Each family's changes show on one
# workload and leave the other untouched.  Each pass is 10-14 s, so a run
# of a few passes spans the multi-second throughput swings of a shared
# 2-core host.
TRANSITION = Invocation(("transition", "--ns", "5,10,15,20"), ("--gamma-min", "--gamma-max"),
                        (1e-3, 1e2), 4 * 25)
PERTURBATIVE = Invocation(("sweep", "--n", "64", "--method", "perturbative", "--points", "7"),
                          ("--gamma-min", "--gamma-max"), (1e-5, 1e-3), 7)
LARGE_GAMMA = Invocation(("sweep", "--n", "256", "--method", "large-gamma-closed-form",
                          "--points", "13"), ("--gamma-min", "--gamma-max"), (3.0, 100.0), 13)
RK4_SWEEP = Invocation(("sweep", "--n", "24", "--points", "7"), ("--gamma-min", "--gamma-max"),
                       (1e-3, 1e2), 7)
TRAJECTORIES = tuple(
    Invocation(("evolve", "--n", "40", "--t-max", "50", "--model", model), ("--gamma",),
               (gamma,), 1)
    for model in ("s-literal", "rho")
    for gamma in (0.1, 10.0)
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "modesum",
            "every mode-sum route: the default transition curve (dense eig of the exact "
            "propagator dominates), a perturbative and a large-gamma sweep; no RK4",
            (TRANSITION, PERTURBATIVE, LARGE_GAMMA),
        ),
        Workload(
            "rk4",
            "every RK4 route: a mixing sweep at n=24, below the stencil crossover, and four "
            "n=40 trajectories above it; no eigen-propagator or mode sums",
            (RK4_SWEEP, *TRAJECTORIES),
        ),
    )
}


def jitter(value: float, rng: random.Random, seed: int) -> float:
    if seed == 0:
        return value
    return value * 10.0 ** (-rng.random() * JITTER_DECADES)


def invocations(name: str, seed: int) -> list[list[str]]:
    """The argv lists of workload `name` for `seed`; same seed, same lists."""
    rng = random.Random(f"{name}:{seed}")
    argvs = []
    for inv in WORKLOADS[name].invocations:
        argv = list(inv.argv)
        for flag, gamma in zip(inv.gamma_flags, inv.gammas):
            argv += [flag, repr(jitter(gamma, rng, seed))]
        argvs.append(argv)
    return argvs


def results_per_invocation(name: str) -> list[int]:
    """How many results each invocation yields: sweep rows or one trajectory."""
    return [inv.results for inv in WORKLOADS[name].invocations]
