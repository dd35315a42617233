"""Top-level acceptance run: one printed pass/fail line per criterion.

Each test prints `[criterion K] PASS/FAIL: detail` before asserting, so
the summary lines survive in the captured log either way.
"""

import numpy as np

from decowalk.checks import (
    degenerate_zero_coupling,
    exact_mixing_bracketed_by_rk4,
    representation_agreement,
    representation_checks,
    similarity_brute_force,
    torus_eigen_equation,
)
from decowalk.evolution import DiagonalPropagator, TimeGrid, exact_evolve, integrate
from decowalk.large_gamma import classical_heat_kernel, closed_form_a, diagonal_sums
from decowalk.mixing import mixing_time
from decowalk.model import WalkConfig
from decowalk.spectral import perturbative_distribution, unitary_distribution
from decowalk.sweep import sweep_gamma, tail_slopes


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_rk4_matches_dense_exponential():
    worst = 0.0
    for n in (4, 5, 6, 8):
        for gamma in (0.0, 0.01, 1.0, 10.0):
            config = WalkConfig(n=n, gamma=gamma)
            series = integrate(config, TimeGrid(t_end=50.0, dt=1e-3, sample_stride=1000))
            for t, dist in zip(series.times, series.dists):
                oracle = np.real(exact_evolve(config, float(t)).diagonal())
                worst = max(worst, float(np.abs(dist - oracle).max()))
    _report(
        1, worst <= 1e-8,
        f"sup diagonal gap {worst:.3e} (tol 1e-8) over N in (4,5,6,8), "
        "gamma in (0,0.01,1,10), t <= 50",
    )


def test_criterion_2_density_and_literal_models_agree_mod_4():
    worst = 0.0
    for n in (4, 8):
        for gamma in (0.1, 1.0):
            worst = max(worst, representation_agreement(n, gamma))
    seam5 = representation_agreement(5, 1.0)
    reported = any(
        o.status == "INFO" and o.name == "seam-discrepancy-n5"
        for o in representation_checks()
    )
    _report(
        2, worst <= 1e-8 and reported,
        f"N in (4,8): sup diagonal gap {worst:.3e} (tol 1e-8); N=5 discrepancy "
        f"{seam5:.3e} measured and reported in the verification output, not asserted",
    )


def test_criterion_3_minor_diagonal_sums_decay_exponentially():
    n = 6
    rng = np.random.default_rng(20240811)
    raw = rng.standard_normal((n, n))
    s0 = 0.5 * (raw + raw.T)
    s0 += np.eye(n) * (1.0 - np.trace(s0)) / n
    d0 = diagonal_sums(s0)
    worst = 0.0
    for gamma in (0.5, 5.0):
        config = WalkConfig(n=n, gamma=gamma)
        series = integrate(
            config, TimeGrid(t_end=5.0, dt=1e-3, sample_stride=500),
            initial=s0, keep_states=True,
        )
        for t, state in zip(series.times, series.states):
            expected = d0 * np.exp(-gamma * t)
            expected[0] = d0[0]
            worst = max(worst, float(np.abs(diagonal_sums(state) - expected).max()))
    _report(
        3, worst <= 1e-8,
        f"sup gap to d[k](0) exp(-gamma t) law {worst:.3e} (tol 1e-8), N=6, "
        "gamma in (0.5,5)",
    )


def test_criterion_4_four_cycle_unitary_closed_form():
    worst = 0.0
    for t in np.linspace(0.0, 25.0, 100):
        probs = unitary_distribution(4, float(t))
        worst = max(worst, abs(probs[0] - np.cos(t) ** 4), abs(probs[2] - np.sin(t) ** 4))
    _report(
        4, worst <= 1e-10,
        f"max closed-form gap {worst:.3e} (tol 1e-10) at 100 sample times",
    )


def test_criterion_5_small_dephasing_bound_and_perturbative_accuracy():
    result = mixing_time(WalkConfig(n=20, gamma=1e-3), 0.01, method="exact", mode="sustained")
    under_bound = result.converged and result.t_mix <= 8445.5

    times = np.linspace(0.0, 500.0, 501)
    window, point = {}, {}
    for gamma in (1e-3, 1e-2):
        config = WalkConfig(n=20, gamma=gamma)
        pert = np.array([perturbative_distribution(config, float(t)) for t in times])
        exact = DiagonalPropagator(config).distributions(times)
        err = np.abs(pert - exact).max(axis=1)
        window[gamma] = float(err.max())
        point[gamma] = float(err[-1])
    # The trajectory-wide error is what orders the two rates; the single
    # t=500 snapshot is printed alongside (it comes out reversed because
    # both runs are already nearly mixed there).
    ordered = window[1e-3] < window[1e-2]
    _report(
        5, under_bound and ordered,
        f"sustained t_mix {result.t_mix:.1f} <= 8445.5; perturbative sup error over "
        f"t in [0,500]: {window[1e-3]:.3e} (gamma=1e-3) < {window[1e-2]:.3e} "
        f"(gamma=1e-2); single-time values at t=500 were {point[1e-3]:.3e} vs "
        f"{point[1e-2]:.3e}",
    )


def test_criterion_6_diffusive_crossing_within_bracket():
    config = WalkConfig(n=10, gamma=10.0)
    closed = mixing_time(config, 0.01, method="large-gamma-closed-form")
    closed_ok = closed.converged and 627.4 <= closed.t_mix <= 2651.7
    # The exact crossings of both pictures, bracketed by RK4 trajectories.
    (integrated,) = exact_mixing_bracketed_by_rk4()
    _report(
        6, closed_ok and integrated.status == "PASS",
        f"closed-form crossing {closed.t_mix:.1f} in [627.4, 2651.7]; "
        f"integrated crossing: {integrated.detail}",
    )


def test_criterion_7_classical_heat_kernel_identity():
    worst = 0.0
    for n in (5, 12):
        for gamma in (5.0, 50.0):
            config = WalkConfig(n=n, gamma=gamma)
            for t in (1.0, 100.0):
                kernel = classical_heat_kernel(n, 1.0 / (8.0 * gamma), t)
                worst = max(worst, float(np.abs(closed_form_a(config, t) - kernel).max()))
    _report(
        7, worst <= 1e-12,
        f"max entrywise gap {worst:.3e} (tol 1e-12), N in (5,12), gamma in (5,50), "
        "t in (1,100)",
    )


def test_criterion_8_transition_curves_have_one_optimum_and_unit_tails():
    passed = True
    parts = []
    for n in (5, 10, 15, 20):
        result = sweep_gamma(n)
        ts = [p.t_mix for p in result.points]
        converged = all(p.converged for p in result.points)
        minima = [
            i for i in range(1, len(ts) - 1) if ts[i] < ts[i - 1] and ts[i] < ts[i + 1]
        ]
        small, large = tail_slopes(result)
        ok = (
            converged
            and len(minima) == 1
            and -1.15 <= small <= -0.85
            and 0.85 <= large <= 1.15
        )
        passed = passed and ok
        parts.append(
            f"N={n}: {len(minima)} interior minimum, slopes ({small:.3f}, {large:.3f})"
        )
    _report(8, passed, "; ".join(parts) + " (tails vs [-1.15,-0.85] and [0.85,1.15])")


def test_criterion_9_perturbation_theory_internals():
    outcomes = torus_eigen_equation() + similarity_brute_force() + degenerate_zero_coupling()
    asserted = [o for o in outcomes if o.status != "INFO"]
    passed = all(o.status == "PASS" for o in asserted)
    _report(9, passed, "; ".join(f"{o.name}: {o.detail}" for o in asserted))
