"""Cross-validation suite tying the analytic routes to the integrators.

Every closed form in this package has an independent numerical route:
stencils against assembled generators, RK4 against dense exponentials,
Fourier-mode eigenpairs against the generator they diagonalise, the
strong-dephasing diffusion against a classical heat kernel, and so on.
run_checks executes all of them and returns PASS/FAIL outcomes plus
INFO lines for quantities that are measured and reported rather than
asserted, notably the density-picture vs literal-S seam discrepancy for
cycle sizes that are not multiples of 4, and the truncation residual of
the strong-dephasing state.  The CLI `verify` subcommand renders this
report and fails on any FAIL line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import TimeGrid, build_full_operator, exact_evolve, integrate
from .large_gamma import (
    classical_heat_kernel,
    closed_form_a,
    diagonal_sums,
    full_large_gamma_state,
    large_gamma_bounds,
    mode_rates,
)
from .mixing import GRID_INTERVALS, default_horizon, mixing_time
from .model import (
    WalkConfig,
    initial_state,
    rho_rhs,
    s_rhs,
)
from .spectral import (
    m_function,
    perturbative_distribution,
    small_gamma_mixing_bound,
    torus_eigenvalue,
    torus_eigenvector,
    u_similarity,
    unitary_distribution,
)

_SEED = 20240811


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str  # PASS | FAIL | INFO
    detail: str


def _outcome(name: str, cases: int, ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(name=name, status="PASS" if ok and cases > 0 else "FAIL", detail=detail)


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n))
    sym = 0.5 * (raw + raw.T)
    sym += (1.0 - np.trace(sym)) / n * np.eye(n)
    return sym


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (raw + raw.conj().T)
    herm += (1.0 - np.trace(herm).real) / n * np.eye(n)
    return herm


def stencil_operator_consistency() -> list[CheckOutcome]:
    """The assembled generators reproduce the roll-based stencils."""
    rng = np.random.default_rng(_SEED)
    config = WalkConfig(n=5, gamma=0.7)
    out = []
    s = _random_symmetric(rng, 5)
    op = build_full_operator(config, "s-literal")
    gap = np.abs((op @ s.ravel()).reshape(5, 5) - s_rhs(config, s)).max()
    out.append(_outcome("stencil-operator-consistency-s", s.size, gap <= 1e-14,
                        f"max gap {gap:.3e} over {s.size} (mu, nu) cases (tol 1e-14)"))
    rho = _random_hermitian(rng, 5)
    op = build_full_operator(config, "rho")
    gap = np.abs((op @ rho.ravel()).reshape(5, 5) - rho_rhs(config, rho)).max()
    out.append(_outcome("stencil-operator-consistency-rho", rho.size, gap <= 1e-14,
                        f"max gap {gap:.3e} over {rho.size} (mu, nu) cases (tol 1e-14)"))
    return out


def stationary_uniform() -> list[CheckOutcome]:
    """Uniform diagonal is a fixed point of both pictures."""
    config = WalkConfig(n=6, gamma=2.0)
    uniform = np.eye(6) / 6.0
    derivatives = (s_rhs(config, uniform), rho_rhs(config, uniform.astype(complex)),
                   build_full_operator(config) @ uniform.ravel())
    worst = max(np.abs(d).max() for d in derivatives)
    cases = sum(d.size for d in derivatives)
    return [_outcome("stationary-uniform", cases, worst <= 1e-15,
                     f"max derivative {worst:.3e} over {cases} (route, entry) cases (tol 1e-15)")]


def rk4_matches_exponential() -> list[CheckOutcome]:
    """Fixed-step RK4 agrees with the dense-exponential oracle."""
    import scipy.linalg

    config = WalkConfig(n=5, gamma=1.0)
    series = integrate(config, TimeGrid(t_end=20.0, dt=1e-3, sample_stride=100))
    op = build_full_operator(config)
    hop = scipy.linalg.expm(op * (series.times[1] - series.times[0]))
    vec = initial_state(config).ravel()
    worst = 0.0
    for k in range(series.times.size):
        worst = max(worst, np.abs(series.dists[k] - vec.reshape(5, 5).diagonal()).max())
        vec = hop @ vec
    cases = series.times.size
    return [_outcome("rk4-matches-exponential", cases, worst <= 1e-8,
                     f"sup diagonal gap {worst:.3e} over {cases} (t) cases, t <= 20 (tol 1e-8)")]


def representation_agreement(n: int, gamma: float, t_end: float = 50.0) -> float:
    """Sup gap between density-picture and literal-S vertex distributions.

    The phase change of variables is seam-consistent only for N divisible
    by 4; elsewhere the two pictures genuinely differ and this measures
    by how much.
    """
    grid = TimeGrid(t_end=t_end, dt=1e-3, sample_stride=500)
    series_s = integrate(WalkConfig(n=n, gamma=gamma), grid, model="s-literal")
    series_rho = integrate(WalkConfig(n=n, gamma=gamma), grid, model="rho")
    return float(np.abs(series_s.dists - series_rho.dists).max())


def representation_checks() -> list[CheckOutcome]:
    out = []
    for n in (4, 8):
        gaps = [representation_agreement(n, g) for g in (0.1, 1.0)]
        out.append(_outcome(f"representation-agreement-n{n}", len(gaps), max(gaps) <= 1e-8,
                            f"sup diagonal gap {max(gaps):.3e} over {len(gaps)} (gamma) cases, "
                            "t <= 50 (tol 1e-8)"))
    for n in (5, 6, 7):
        gap = representation_agreement(n, 1.0)
        out.append(CheckOutcome(
            name=f"seam-discrepancy-n{n}", status="INFO",
            detail=(f"density vs literal-S diagonals differ by {gap:.3e} sup over "
                    f"t <= 50 at gamma=1; reported, not asserted (n mod 4 = {n % 4})"),
        ))
    return out


def minor_diagonal_decay() -> list[CheckOutcome]:
    """Wrapped-diagonal sums decay exactly at rate gamma."""
    rng = np.random.default_rng(_SEED + 1)
    config = WalkConfig(n=6, gamma=0.5)
    s0 = _random_symmetric(rng, 6)
    series = integrate(config, TimeGrid(t_end=10.0, dt=1e-3, sample_stride=100),
                       initial=s0, keep_states=True)
    d0 = diagonal_sums(s0)
    worst = 0.0
    for t, state in zip(series.times, series.states):
        expected = d0 * np.exp(-config.gamma * t)
        expected[0] = d0[0]
        worst = max(worst, np.abs(diagonal_sums(state) - expected).max())
    return [_outcome("minor-diagonal-decay", len(series.states), worst <= 1e-8,
                     f"sup gap to exp(-gamma t) law {worst:.3e} over "
                     f"{len(series.states)} (t) cases (tol 1e-8)")]


def torus_eigen_equation() -> list[CheckOutcome]:
    """Fourier modes diagonalise the undamped generator."""
    worst, cases = 0.0, 0
    for n in range(3, 9):
        op = build_full_operator(WalkConfig(n=n, gamma=0.0))
        for m in range(n):
            for k in range(n):
                vec = torus_eigenvector(m, k, n)
                lam = torus_eigenvalue(m, k, n)
                worst = max(worst, np.abs(op @ vec - lam * vec).max())
                cases += 1
    return [_outcome("torus-eigen-equation", cases, worst <= 1e-12,
                     f"max residual {worst:.3e} over {cases} (n, m, k) cases, all modes, "
                     "n <= 8 (tol 1e-12)")]


def similarity_brute_force() -> list[CheckOutcome]:
    """Closed-form damping matrix elements match the basis contraction."""
    worst, cases = 0.0, 0
    gamma = 1.3
    for n in range(3, 7):
        basis = np.column_stack(
            [torus_eigenvector(m, k, n) for m in range(n) for k in range(n)]
        )
        damping = np.diag(-gamma * (1.0 - np.eye(n)).ravel())
        contracted = basis.conj().T @ damping @ basis
        modes = [(m, k) for m in range(n) for k in range(n)]
        for row, (m, k) in enumerate(modes):
            for col, (m2, k2) in enumerate(modes):
                closed = u_similarity(m, k, m2, k2, n, gamma)
                worst = max(worst, abs(contracted[row, col] - closed))
                cases += 1
    return [_outcome("similarity-brute-force", cases, worst <= 1e-12,
                     f"max gap {worst:.3e} over {cases} (n, m, k, m', k') cases, all "
                     "quadruples, n <= 6 (tol 1e-12)")]


def degenerate_zero_coupling() -> list[CheckOutcome]:
    """Both generators split into index-sum blocks in the torus Fourier basis.

    The claim the Fourier-block propagator rests on: conjugated by the
    unitary basis of modes (m, k), the dense generators of both pictures
    (with damping) have no entry between modes whose index sums m + k
    differ mod N.  Exhaustive over n = 3..12; every such entry counts as
    a case, and an empty population fails.
    """
    worst = 0.0
    entries = 0
    for n in range(3, 13):
        basis = np.column_stack(
            [torus_eigenvector(m, k, n) for m in range(n) for k in range(n)]
        )
        sums = np.add.outer(np.arange(n), np.arange(n)).ravel() % n
        across = sums[:, None] != sums[None, :]
        for model in ("s-literal", "rho"):
            op = build_full_operator(WalkConfig(n=n, gamma=1.3), model)
            conjugated = basis.conj().T @ op @ basis
            worst = max(worst, float(np.abs(conjugated[across]).max()))
            entries += int(across.sum())
    return [_outcome("degenerate-zero-coupling", entries, worst <= 1e-14,
                     f"max |entry| {worst:.3e} across index-sum classes over {entries} "
                     "entries, both models, gamma=1.3, n = 3..12 (tol 1e-14)")]


def heat_kernel_identity() -> list[CheckOutcome]:
    """Slow-branch distribution equals classical diffusion at rate 1/(8 gamma).

    Single times, and every row of the 2049-time grid a closed-form
    mixing search reads (its lead x lag route), at n = 5 and 12.
    """
    worst = 0.0
    cases = [(n, gamma, t) for n in (5, 12) for gamma in (5.0, 50.0) for t in (1.0, 100.0)]
    for n, gamma, t in cases:
        a = closed_form_a(WalkConfig(n=n, gamma=gamma), t)
        kernel = classical_heat_kernel(n, 1.0 / (8.0 * gamma), t)
        worst = max(worst, np.abs(a - kernel).max())
    rows = 0
    for n in (5, 12):
        config = WalkConfig(n=n, gamma=5.0)
        times = np.linspace(0.0, default_horizon(config, 0.01), GRID_INTERVALS + 1)
        for t, a in zip(times, closed_form_a(config, times)):
            kernel = classical_heat_kernel(n, 1.0 / (8.0 * config.gamma), float(t))
            worst = max(worst, np.abs(a - kernel).max())
            rows += 1
    return [_outcome("heat-kernel-identity", len(cases) + rows, worst <= 1e-12,
                     f"max entrywise gap {worst:.3e} over {len(cases)} (n, gamma, t) cases "
                     f"and {rows} rows of the {GRID_INTERVALS + 1}-time mixing grid, "
                     "n = 5, 12, gamma = 5 (tol 1e-12)")]


def zero_dephasing_agreement() -> list[CheckOutcome]:
    """At gamma = 0 the mode reconstruction is exact, the distribution is
    the square of the Fourier kernel at half time, P_j(t) = M_j(t/2)^2,
    and quarter-rate trajectories match the bare-adjacency closed form
    when the phase change of variables is seam-consistent (N divisible
    by 4)."""
    out = []
    times = np.linspace(0.0, 20.0, 11)
    worst, cases = 0.0, 0
    for n in (4, 5, 6, 8):
        config = WalkConfig(n=n, gamma=0.0)
        for t in times:
            exact = exact_evolve(config, float(t)).diagonal()
            pert = perturbative_distribution(config, float(t))
            worst = max(worst, np.abs(exact - pert).max())
            cases += 1
    out.append(_outcome("zero-dephasing-mode-sum-exact", cases, worst <= 1e-10,
                        f"sup gap to dense exponential {worst:.3e} over {cases} (n, t) cases "
                        "(tol 1e-10)"))
    worst, cases = 0.0, 0
    for n in (3, 4, 5, 6, 7, 8, 12):
        config = WalkConfig(n=n, gamma=0.0)
        for t in times:
            exact = exact_evolve(config, float(t)).diagonal()
            square = np.array([m_function(n, j, float(t) / 2.0) ** 2 for j in range(n)])
            worst = max(worst, np.abs(square.real - exact).max())
            cases += 1
    out.append(_outcome("zero-dephasing-m-function-square", cases, worst <= 1e-12,
                        f"sup gap of Re M_j(t/2)^2 to dense exponential {worst:.3e} over "
                        f"{cases} (n, t) cases, n = 3..8, 12, t <= 20 (tol 1e-12)"))
    for n in (4, 8):
        worst = max(
            np.abs(perturbative_distribution(WalkConfig(n=n, gamma=0.0), float(t))
                   - unitary_distribution(n, float(t) / 4.0)).max()
            for t in times
        )
        out.append(_outcome(f"zero-dephasing-unitary-match-n{n}", times.size, worst <= 1e-10,
                            f"sup gap at quarter-rate time {worst:.3e} over {times.size} (t) "
                            "cases (tol 1e-10)"))
    for n in (3, 5, 6, 7):
        gap = max(
            np.abs(perturbative_distribution(WalkConfig(n=n, gamma=0.0), float(t))
                   - unitary_distribution(n, float(t) / 4.0)).max()
            for t in times
        )
        out.append(CheckOutcome(
            name=f"zero-dephasing-seam-gap-n{n}", status="INFO",
            detail=(f"literal-S vs bare-adjacency walk differ by {gap:.3e} sup over "
                    f"t <= 20; reported, not asserted (n mod 4 = {n % 4})"),
        ))
    return out


def mode_rate_identities() -> list[CheckOutcome]:
    """Root sum and product identities of the truncated decay rates."""
    config = WalkConfig(n=9, gamma=7.3)
    worst, cases = 0.0, 0
    for k in range(9):
        rates = mode_rates(k, config)
        worst = max(
            worst,
            abs(rates.gamma0 + rates.gamma1 - config.gamma),
            abs(rates.gamma0 * rates.gamma1 - 0.5 * np.sin(np.pi * k / 9) ** 2),
        )
        cases += 1
    return [_outcome("mode-rate-identities", cases, worst <= 1e-12,
                     f"max identity violation {worst:.3e} over {cases} (k) cases (tol 1e-12)")]


def diffusive_crossing_in_bracket() -> list[CheckOutcome]:
    """Slow-branch crossing time sits inside the analytic bracket."""
    result = mixing_time(WalkConfig(n=10, gamma=10.0), 0.01,
                         method="large-gamma-closed-form", mode="sustained")
    ok = result.converged and 627.4 <= result.t_mix <= 2651.7
    return [_outcome("diffusive-crossing-in-bracket", 1, ok,
                     f"crossing at t={result.t_mix:.4f}, bracket [627.4, 2651.7], "
                     "over 1 (n, gamma) case")]


def exact_mixing_in_large_gamma_bracket() -> list[CheckOutcome]:
    """The exact route's mixing time sits inside the large-gamma bracket.

    The paper's strong-dephasing theorem bounds T_mix between t_lower and
    t_upper of large_gamma_bounds.  Here T_mix comes from the exact
    Fourier-block mode sum, not from the slow-branch closed form the
    bracket is derived from.  Every (gamma, N) pair is a case; an empty
    population fails.
    """
    cases, inside = 0, 0
    above_lower, below_upper = np.inf, 0.0
    for gamma in (2.0, 5.0, 20.0, 100.0):
        for n in (5, 8, 10, 16, 32):
            bounds = large_gamma_bounds(n, gamma, 0.01)
            result = mixing_time(WalkConfig(n=n, gamma=gamma), 0.01, method="exact")
            cases += 1
            inside += result.converged and bounds.t_lower <= result.t_mix <= bounds.t_upper
            above_lower = min(above_lower, result.t_mix / bounds.t_lower)
            below_upper = max(below_upper, result.t_mix / bounds.t_upper)
    return [_outcome("exact-mixing-in-large-gamma-bracket", cases, inside == cases,
                     f"exact t_mix inside [t_lower, t_upper] in {inside} of {cases} cases, "
                     "gamma in {2, 5, 20, 100} x n in {5, 8, 10, 16, 32}, eps=0.01; "
                     f"min t_mix / t_lower {above_lower:.4f}, "
                     f"max t_mix / t_upper {below_upper:.4f}")]


def exact_mixing_below_small_gamma_bound() -> list[CheckOutcome]:
    """The exact route's mixing time is at or below the paper's weak-dephasing
    bound, small_gamma_mixing_bound, in every (gamma, N) case."""
    ratios = []
    for gamma in (1e-4, 1e-3):
        for n in (5, 8, 10, 16, 32):
            result = mixing_time(WalkConfig(n=n, gamma=gamma), 0.01, method="exact")
            bound = small_gamma_mixing_bound(n, gamma, 0.01)
            ratios.append(result.t_mix / bound if result.converged else np.inf)
    below = sum(ratio <= 1.0 for ratio in ratios)
    return [_outcome("exact-mixing-below-small-gamma-bound", len(ratios), below == len(ratios),
                     f"exact t_mix at or below the bound in {below} of {len(ratios)} cases, "
                     "gamma in {1e-4, 1e-3} x n in {5, 8, 10, 16, 32}, eps=0.01; "
                     f"t_mix / bound from {min(ratios):.4f} to {max(ratios):.4f}")]


def truncation_residual_report() -> list[CheckOutcome]:
    """Stencil residual of the tri-diagonal strong-dephasing state.

    On its own support the state satisfies the dynamics to O(1/gamma^2);
    the entries it leaks onto the second off-diagonals are O(1/gamma).
    The support residual is asserted; the leakage scale is reported.
    """
    out = []
    times = (0.05, 0.2, 1.0, 5.0)
    h = 1e-5
    for gamma in (10.0, 40.0):
        config = WalkConfig(n=10, gamma=gamma)
        support = np.zeros((10, 10), dtype=bool)
        idx = np.arange(10)
        support[idx, idx] = True
        support[idx, (idx + 1) % 10] = True
        support[(idx + 1) % 10, idx] = True
        on_support = 0.0
        off_support = 0.0
        for t in times:
            derivative = (full_large_gamma_state(config, t + h)
                          - full_large_gamma_state(config, t - h)) / (2.0 * h)
            residual = derivative - s_rhs(config, full_large_gamma_state(config, t))
            on_support = max(on_support, np.abs(residual[support]).max())
            off_support = max(off_support, np.abs(residual[~support]).max())
        ok = on_support <= 2.5 / gamma**2
        out.append(_outcome(f"truncation-residual-support-gamma{gamma:g}", len(times), ok,
                            f"sup residual on tri-diagonal {on_support:.3e} over "
                            f"{len(times)} (t) cases (tol 2.5/gamma^2 = {2.5 / gamma**2:.3e})"))
        out.append(CheckOutcome(
            name=f"truncation-residual-leak-gamma{gamma:g}", status="INFO",
            detail=(f"second-off-diagonal leakage {off_support:.3e}, "
                    f"about {off_support * gamma:.3f}/gamma; reported, not asserted"),
        ))
    return out


def run_checks() -> list[CheckOutcome]:
    outcomes: list[CheckOutcome] = []
    outcomes += stencil_operator_consistency()
    outcomes += stationary_uniform()
    outcomes += rk4_matches_exponential()
    outcomes += representation_checks()
    outcomes += minor_diagonal_decay()
    outcomes += torus_eigen_equation()
    outcomes += similarity_brute_force()
    outcomes += degenerate_zero_coupling()
    outcomes += heat_kernel_identity()
    outcomes += zero_dephasing_agreement()
    outcomes += mode_rate_identities()
    outcomes += diffusive_crossing_in_bracket()
    outcomes += exact_mixing_in_large_gamma_bracket()
    outcomes += exact_mixing_below_small_gamma_bound()
    outcomes += truncation_residual_report()
    return outcomes


def format_report(outcomes: list[CheckOutcome]) -> str:
    lines = [f"{o.status:<4} {o.name}: {o.detail}" for o in outcomes]
    passed = sum(1 for o in outcomes if o.status == "PASS")
    failed = sum(1 for o in outcomes if o.status == "FAIL")
    info = sum(1 for o in outcomes if o.status == "INFO")
    lines.append(f"summary: {passed} passed, {failed} failed, {info} informational")
    return "\n".join(lines) + "\n"


def has_failures(outcomes: list[CheckOutcome]) -> bool:
    return any(o.status == "FAIL" for o in outcomes)
