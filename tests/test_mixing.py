"""Total-variation distance and mixing-time search."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from decowalk import evolution, mixing, spectral
from decowalk.evolution import (
    DiagonalPropagator,
    IntegrationError,
    ModeSum,
    TimeGrid,
    build_full_operator,
    effective_step,
    envelope_margin,
    exact_evolve,
    integrate,
)
from decowalk.large_gamma import closed_form_a, large_gamma_bounds
from decowalk.mixing import (
    MODES,
    LockstepSearch,
    MixingResult,
    default_horizon,
    mixing_time,
    total_variation,
    uniform_distribution,
)
from decowalk.model import WalkConfig, initial_density, initial_state
from decowalk.spectral import small_gamma_mixing_bound
from decowalk.sweep import default_gamma_grid


class TestTotalVariation:
    def test_origin_against_uniform(self):
        assert total_variation(np.eye(5)[0], uniform_distribution(5)) == pytest.approx(1.6)

    def test_identical_is_zero(self):
        p = np.array([0.25, 0.5, 0.25])
        assert total_variation(p, p) == 0.0

    def test_hand_value(self):
        assert total_variation([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.4)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        p = rng.random(6)
        q = rng.random(6)
        assert total_variation(p, q) == total_variation(q, p)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p, q, r = (x / x.sum() for x in rng.random((3, 7)))
            assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation(np.zeros(3), np.zeros(4))


class TestDefaultHorizon:
    def test_undamped_fallback(self):
        assert default_horizon(WalkConfig(n=5, gamma=0.0), 0.1) == 500.0

    def test_tracks_larger_bound(self):
        horizon = default_horizon(WalkConfig(n=10, gamma=10.0), 0.01)
        assert horizon == pytest.approx(10.0 * large_gamma_bounds(10, 10.0, 0.01).t_upper)

    def test_wide_eps_is_clamped_into_domain(self):
        assert np.isfinite(default_horizon(WalkConfig(n=6, gamma=0.5), 2.0))


class TestMixingTime:
    def test_eps_two_is_met_at_time_zero(self):
        result = mixing_time(WalkConfig(n=5, gamma=1.0), 2.0, method="exact")
        assert result.t_mix == 0.0
        assert result.converged
        assert result.bracket == 0.0

    def test_undamped_walk_never_settles(self):
        result = mixing_time(WalkConfig(n=5, gamma=0.0), 0.1, method="exact", horizon=200.0)
        assert not result.converged
        assert result.t_mix == 200.0
        assert result.bracket == 0.0

    def test_closed_form_crossing_modes_agree(self):
        # The slow-branch distance decays monotonically, so the first
        # crossing is already sustained.
        config = WalkConfig(n=10, gamma=10.0)
        first = mixing_time(config, 0.01, method="large-gamma-closed-form", mode="first-crossing")
        sustained = mixing_time(config, 0.01, method="large-gamma-closed-form", mode="sustained")
        assert first.converged and sustained.converged
        assert first.t_mix == pytest.approx(sustained.t_mix, rel=1e-3)
        assert first.t_mix == pytest.approx(1018.6, rel=1e-3)
        assert first.bracket <= 1e-4 * first.t_mix + 1e-12

    def test_converged_crossing_invariants(self):
        config = WalkConfig(n=10, gamma=10.0)
        result = mixing_time(config, 0.01, method="large-gamma-closed-form", mode="first-crossing")
        uniform = uniform_distribution(10)
        at_mix = total_variation(closed_form_a(config, result.t_mix), uniform)
        before = total_variation(closed_form_a(config, result.t_mix - result.bracket), uniform)
        assert at_mix <= 0.01 + 1e-9
        assert before > 0.01

    def test_closed_form_builds_its_mode_sum_once_per_search(self, monkeypatch):
        # One table build serves the grid and every bisection midpoint, each
        # midpoint one single-time ModeSum.at call; closed_form_a, which
        # builds its own, is not called.
        builds, midpoints = [], []
        real_build, real_at = mixing.heat_kernel_modes, evolution.ModeSum.at

        def build(n, gammas):
            builds.append(len(gammas))
            return real_build(n, gammas)

        def at(self, times):
            midpoints.append(times.shape)
            return real_at(self, times)

        def refuse(*args, **kwargs):
            raise AssertionError("closed_form_a was called")

        monkeypatch.setattr(mixing, "heat_kernel_modes", build)
        monkeypatch.setattr(evolution.ModeSum, "at", at)
        monkeypatch.setattr(mixing, "closed_form_a", refuse)
        result = mixing_time(WalkConfig(n=30, gamma=5.0), 0.01, method="large-gamma-closed-form")
        assert result.converged and result.bracket > 0
        assert builds == [1]
        assert midpoints and all(shape == (1,) for shape in midpoints)
        assert len(midpoints) <= 20

    def test_closed_form_grid_over_budget_is_refused_before_any_work(self, monkeypatch):
        # Room for the 2049-row grid of n = 5 doubles, not of n = 6.
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", (mixing.GRID_INTERVALS + 1) * 8 * 5)
        assert mixing_time(WalkConfig(n=5, gamma=5.0), 0.01,
                           method="large-gamma-closed-form").converged

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form was evaluated")

        monkeypatch.setattr(mixing, "heat_kernel_modes", refuse)
        with pytest.raises(ValueError, match="exceeds"):
            mixing_time(WalkConfig(n=6, gamma=5.0), 0.01, method="large-gamma-closed-form")

    def test_distance_takes_no_second_table(self):
        # The 2049 x 4000 grid table is 62.5 MiB; a second one for |P - U|
        # would lift the search's peak that far above the closed form's own.
        config = WalkConfig(n=4000, gamma=10.0)
        times = np.linspace(0.0, default_horizon(config, 0.01), mixing.GRID_INTERVALS + 1)
        closed_form_a(config, times)  # FFT plans are cached outside both measurements

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak(lambda: closed_form_a(config, times))
        search = peak(lambda: mixing_time(config, 0.01, method="large-gamma-closed-form"))
        assert search <= alone + (1 << 20)

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_pictures_reproduce_their_rk4_results(self, n, method):
        # The results the former RK4 search (dt = 0.01 on a dyadic lattice)
        # gave, fields in hex: the mode sum of each picture repeats every
        # bit of them.
        cases = [row for row in _RK4_GOLDEN if row[:2] == (method, n)]
        assert len(cases) == 6
        for _, _, gamma, mode, *fields in cases:
            result = mixing_time(WalkConfig(n=n, gamma=gamma), 0.01, method=method, mode=mode)
            assert _bits(result) == (fields[0], fields[1], (0.01).hex(), method, mode,
                                     fields[2], fields[3])

    def test_s_literal_is_exact_under_its_own_name(self):
        config = WalkConfig(n=7, gamma=0.3)
        exact = mixing_time(config, 0.01, method="exact")
        literal = mixing_time(config, 0.01, method="s-literal")
        assert literal == dataclasses.replace(exact, method="s-literal")

    def test_rho_sums_the_density_picture(self):
        # The pictures agree when 4 divides N and differ otherwise.
        for n, same in ((8, True), (5, False), (6, False)):
            config = WalkConfig(n=n, gamma=1.0)
            rho = mixing_time(config, 0.01, method="rho")
            exact = mixing_time(config, 0.01, method="exact")
            assert (rho.t_mix == exact.t_mix) == same

    def test_perturbative_stays_under_small_dephasing_bound(self):
        config = WalkConfig(n=8, gamma=0.01)
        result = mixing_time(config, 0.1, method="perturbative")
        assert result.converged
        assert result.t_mix <= small_gamma_mixing_bound(8, 0.01, 0.1)

    def test_strong_dephasing_crossing_within_diffusive_bracket(self):
        result = mixing_time(WalkConfig(n=8, gamma=10.0), 0.01, method="exact")
        bounds = large_gamma_bounds(8, 10.0, 0.01)
        assert result.converged
        assert 0.9 * bounds.t_lower <= result.t_mix <= 1.1 * bounds.t_upper

    @pytest.mark.parametrize("gamma", [1e7, 1e10, 1e13])
    def test_far_strong_dephasing_is_resolved(self, gamma):
        # The fast modes turn by gamma t_end, far past what the phases
        # resolve, but they have decayed long before: only the modes that
        # have not count in the rounding margin (ModeSum.reach), and the
        # crossing still lies in the diffusive bracket.
        result = mixing_time(WalkConfig(n=5, gamma=gamma), 0.01)
        bounds = large_gamma_bounds(5, gamma, 0.01)
        assert result.converged
        assert bounds.t_lower <= result.t_mix <= bounds.t_upper

    def test_result_metadata(self):
        result = mixing_time(WalkConfig(n=6, gamma=1.0), 0.05, method="exact", horizon=100.0)
        assert result.method == "exact"
        assert result.mode == "sustained"
        assert result.eps == 0.05
        assert result.horizon == 100.0
        assert 0.0 < result.t_mix <= result.horizon

    def test_input_guards(self):
        config = WalkConfig(n=5, gamma=1.0)
        with pytest.raises(ValueError):
            mixing_time(config, 0.0)
        with pytest.raises(ValueError):
            mixing_time(config, 2.5)
        with pytest.raises(ValueError):
            mixing_time(config, 0.1, method="nonsense")
        with pytest.raises(ValueError):
            mixing_time(config, 0.1, mode="eventual")
        with pytest.raises(ValueError):
            mixing_time(config, 0.1, horizon=-1.0)


def _bits(outcome):
    """A search outcome by its bits: a result's fields, floats in hex, or a
    failure's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(outcome))


# (method, n, gamma, mode, t_mix, converged, horizon, bracket) of the
# former RK4 search at eps = 0.01, floats in hex.
_RK4_GOLDEN = [
    ("s-literal", 5, 0.05, "first-crossing", "0x1.13855fd478a16p+7", True,
     "0x1.02f1272e462b4p+11", "0x1.02f1272e48000p-7"),
    ("s-literal", 5, 0.05, "sustained", "0x1.3611dcb6bd2e0p+7", True,
     "0x1.02f1272e462b4p+11", "0x1.02f1272e44000p-7"),
    ("s-literal", 5, 1.0, "first-crossing", "0x1.a8317453facd2p+4", True,
     "0x1.4b74e0e745e05p+9", "0x1.4b74e0e746000p-9"),
    ("s-literal", 5, 1.0, "sustained", "0x1.a8317453facd2p+4", True,
     "0x1.4b74e0e745e05p+9", "0x1.4b74e0e746000p-9"),
    ("s-literal", 5, 10.0, "first-crossing", "0x1.19618988f536cp+8", True,
     "0x1.9e52192117585p+12", "0x1.9e52192118000p-6"),
    ("s-literal", 5, 10.0, "sustained", "0x1.19618988f536cp+8", True,
     "0x1.9e52192117585p+12", "0x1.9e52192118000p-6"),
    ("s-literal", 6, 0.05, "first-crossing", "0x1.e1bb4eed6950fp+6", True,
     "0x1.dfc50ca42d716p+10", "0x1.dfc50ca42c000p-8"),
    ("s-literal", 6, 0.05, "sustained", "0x1.24c14744b652ap+7", True,
     "0x1.dfc50ca42d716p+10", "0x1.dfc50ca430000p-8"),
    ("s-literal", 6, 1.0, "first-crossing", "0x1.2e6b22f85f298p+5", True,
     "0x1.dd4c252412b3ap+9", "0x1.dd4c252414000p-9"),
    ("s-literal", 6, 1.0, "sustained", "0x1.2e6b22f85f298p+5", True,
     "0x1.dd4c252412b3ap+9", "0x1.dd4c252414000p-9"),
    ("s-literal", 6, 10.0, "first-crossing", "0x1.8750878b3d1d2p+8", True,
     "0x1.2a4f97368bb04p+13", "0x1.2a4f97368c000p-5"),
    ("s-literal", 6, 10.0, "sustained", "0x1.8750878b3d1d2p+8", True,
     "0x1.2a4f97368bb04p+13", "0x1.2a4f97368c000p-5"),
    ("s-literal", 8, 0.05, "first-crossing", "0x1.b064fe0932b34p+6", True,
     "0x1.bda40a476a1ecp+10", "0x1.bda40a4768000p-8"),
    ("s-literal", 8, 0.05, "sustained", "0x1.00a4ae636c9f4p+7", True,
     "0x1.bda40a476a1ecp+10", "0x1.bda40a4770000p-8"),
    ("s-literal", 8, 1.0, "first-crossing", "0x1.000988baa63a0p+6", True,
     "0x1.a843af3c8266cp+10", "0x1.a843af3c80000p-9"),
    ("s-literal", 8, 1.0, "sustained", "0x1.000988baa63a0p+6", True,
     "0x1.a843af3c8266cp+10", "0x1.a843af3c80000p-9"),
    ("s-literal", 8, 10.0, "first-crossing", "0x1.473fa50c563d4p+9", True,
     "0x1.092a4d85d1804p+14", "0x1.092a4d85d2000p-4"),
    ("s-literal", 8, 10.0, "sustained", "0x1.473fa50c563d4p+9", True,
     "0x1.092a4d85d1804p+14", "0x1.092a4d85d2000p-4"),
    ("rho", 5, 0.05, "first-crossing", "0x1.0533ba01d1900p+6", True,
     "0x1.02f1272e462b4p+11", "0x1.02f1272e44000p-8"),
    ("rho", 5, 0.05, "sustained", "0x1.c4f57759a21e8p+6", True,
     "0x1.02f1272e462b4p+11", "0x1.02f1272e46000p-7"),
    ("rho", 5, 1.0, "first-crossing", "0x1.a93ec34ab6b60p+4", True,
     "0x1.4b74e0e745e05p+9", "0x1.4b74e0e746000p-9"),
    ("rho", 5, 1.0, "sustained", "0x1.a93ec34ab6b60p+4", True,
     "0x1.4b74e0e745e05p+9", "0x1.4b74e0e746000p-9"),
    ("rho", 5, 10.0, "first-crossing", "0x1.19618988f536cp+8", True,
     "0x1.9e52192117585p+12", "0x1.9e52192118000p-6"),
    ("rho", 5, 10.0, "sustained", "0x1.19618988f536cp+8", True,
     "0x1.9e52192117585p+12", "0x1.9e52192118000p-6"),
    ("rho", 6, 0.05, "first-crossing", "0x1.df0224970abeep+6", True,
     "0x1.dfc50ca42d716p+10", "0x1.dfc50ca42c000p-8"),
    ("rho", 6, 0.05, "sustained", "0x1.1ec8032c6b01ep+7", True,
     "0x1.dfc50ca42d716p+10", "0x1.dfc50ca430000p-8"),
    ("rho", 6, 1.0, "first-crossing", "0x1.2b206886cb787p+5", True,
     "0x1.dd4c252412b3ap+9", "0x1.dd4c252414000p-9"),
    ("rho", 6, 1.0, "sustained", "0x1.2b206886cb787p+5", True,
     "0x1.dd4c252412b3ap+9", "0x1.dd4c252414000p-9"),
    ("rho", 6, 10.0, "first-crossing", "0x1.8750878b3d1d2p+8", True,
     "0x1.2a4f97368bb04p+13", "0x1.2a4f97368c000p-5"),
    ("rho", 6, 10.0, "sustained", "0x1.8750878b3d1d2p+8", True,
     "0x1.2a4f97368bb04p+13", "0x1.2a4f97368c000p-5"),
    ("rho", 8, 0.05, "first-crossing", "0x1.b064fe0932b34p+6", True,
     "0x1.bda40a476a1ecp+10", "0x1.bda40a4768000p-8"),
    ("rho", 8, 0.05, "sustained", "0x1.00a4ae636c9f4p+7", True,
     "0x1.bda40a476a1ecp+10", "0x1.bda40a4770000p-8"),
    ("rho", 8, 1.0, "first-crossing", "0x1.000988baa63a0p+6", True,
     "0x1.a843af3c8266cp+10", "0x1.a843af3c80000p-9"),
    ("rho", 8, 1.0, "sustained", "0x1.000988baa63a0p+6", True,
     "0x1.a843af3c8266cp+10", "0x1.a843af3c80000p-9"),
    ("rho", 8, 10.0, "first-crossing", "0x1.473fa50c563d4p+9", True,
     "0x1.092a4d85d1804p+14", "0x1.092a4d85d2000p-4"),
    ("rho", 8, 10.0, "sustained", "0x1.473fa50c563d4p+9", True,
     "0x1.092a4d85d1804p+14", "0x1.092a4d85d2000p-4"),
]


# (n, gammas, method) of the lockstep cases: the default transition size
# n = 20 in each picture, an expm fallback (block s = 4 of n = 64 at
# gamma = 0.1957), and the perturbative and large-gamma sweeps of the
# benchmark.
_LOCKSTEP_CASES = {
    "exact": (20, default_gamma_grid(), "exact"),
    "s-literal": (20, default_gamma_grid(), "s-literal"),
    "rho": (20, default_gamma_grid(), "rho"),
    "exact with expm": (64, np.array([0.1, 0.1957, 1.0]), "exact"),
    "perturbative": (64, np.geomspace(1e-5, 1e-3, 7), "perturbative"),
    "closed form": (256, np.geomspace(3.0, 100.0, 13), "large-gamma-closed-form"),
}


def mixing_times(configs, *args, **kwargs):
    """Every outcome of a LockstepSearch of configs."""
    search = LockstepSearch(configs, *args, **kwargs)
    return [search.outcome(k) for k in range(len(configs))]


def _search_alone(config, eps, method, mode, horizon=None):
    """The reference search of one config: its grid, then one single-time
    distributions call per bisection midpoint."""
    horizon = default_horizon(config, eps) if horizon is None else horizon
    times = np.linspace(0.0, horizon, mixing.GRID_INTERVALS + 1)
    route = {"exact": DiagonalPropagator, "s-literal": DiagonalPropagator,
             "rho": lambda c: DiagonalPropagator(c, "rho"),
             "perturbative": spectral._PerturbativeKernel}.get(method)
    route = route(config).distributions if route else lambda ts, cut: closed_form_a(config, ts, cut)

    def distance(ts, cut=None):
        return np.abs(route(ts, cut) - 1.0 / config.n).sum(axis=1)

    def result(t_mix, converged, bracket):
        return MixingResult(t_mix=t_mix, converged=converged, eps=eps, method=method,
                            mode=mode, horizon=float(horizon), bracket=bracket)

    below = np.ones(times.size, dtype=bool)
    near = distance(times, eps)
    below[:near.size] = near <= eps
    if mode == "sustained":
        below = np.logical_and.accumulate(below[::-1])[::-1]
    hits = np.flatnonzero(below)
    if hits.size == 0:
        return result(float(horizon), False, 0.0)
    if hits[0] == 0:
        return result(0.0, True, 0.0)
    lo, hi = float(times[hits[0] - 1]), float(times[hits[0]])
    while hi - lo > mixing.RELATIVE_BRACKET * hi:
        mid = 0.5 * (lo + hi)
        if distance(np.array([mid]))[0] <= eps:
            hi = mid
        else:
            lo = mid
    return result(hi, True, hi - lo)


class TestLockstepSearch:
    """LockstepSearch against the search of each config alone, bit for bit."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", sorted(_LOCKSTEP_CASES))
    def test_every_field_equals_the_search_alone(self, case, mode):
        n, gammas, method = _LOCKSTEP_CASES[case]
        configs = [WalkConfig(n=n, gamma=float(g)) for g in gammas]
        alone = [_search_alone(c, 0.01, method, mode) for c in configs]
        got = mixing_times(configs, 0.01, method, mode)
        assert [_bits(o) for o in got] == [_bits(r) for r in alone]
        assert all(r.converged and r.bracket > 0 for r in alone)
        if case == "exact with expm":
            # Every expm evaluation is slow: the other settings run without it.
            assert DiagonalPropagator(configs[1]).mode == "expm"
            return
        # A horizon between the fastest and slowest crossing leaves some
        # configs unconverged; eps = 2 is met at t = 0.
        short = float(np.median([r.t_mix for r in alone]))
        for eps, horizon in ((0.01, short), (2.0, None)):
            want = [_search_alone(c, eps, method, mode, horizon) for c in configs]
            got = mixing_times(configs, eps, method, mode, horizon)
            assert [_bits(o) for o in got] == [_bits(r) for r in want]
            if horizon is not None:
                assert {r.converged for r in want} == {True, False}
        assert all(r.t_mix == 0.0 for r in want)

    def test_a_member_that_is_not_finite_fails_alone(self, monkeypatch):
        # Block s = 1 of n = 4 is defective at gamma = 1 and falls back to
        # expm; its flow reads NaN at every midpoint.
        configs = [WalkConfig(n=4, gamma=g) for g in (0.5, 1.0, 2.0)]
        want = [mixing_time(c, 0.01) for c in configs]
        assert [DiagonalPropagator(c).mode for c in configs] == ["eig", "expm", "eig"]
        real = evolution._expm_flows

        def poisoned(times, block, root):
            flows = real(times, block, root)
            if times.size == 1 and times[0] > 0:
                flows[:] = np.nan
            return flows

        monkeypatch.setattr(evolution, "_expm_flows", poisoned)
        with pytest.raises(IntegrationError, match="^mode sum is not finite at t=") as alone:
            mixing_time(configs[1], 0.01)
        got = mixing_times(configs, 0.01)
        assert _bits(got[1]) == ("IntegrationError", str(alone.value))
        assert [_bits(got[0]), _bits(got[2])] == [_bits(want[0]), _bits(want[2])]

    def test_a_grid_row_that_is_not_finite_fails_alone(self, monkeypatch):
        # One scan of a slab with an expm block (gamma = 1), an undamped
        # member (gamma = 0, no envelope) and a member whose largest mode
        # grows so that its sum overflows in mid grid.
        configs = [WalkConfig(n=4, gamma=g) for g in (1.0, 0.0, 0.5, 2.0)]
        want = [mixing_time(c, 0.01) for c in configs]
        assert DiagonalPropagator(configs[0]).mode == "expm"
        growth = 2000.0 / default_horizon(configs[2], 0.01)
        real = mixing.secular_mode_sums

        def grown(n, gammas, picture):
            stack = real(n, gammas, picture)
            for g in np.flatnonzero(np.asarray(gammas) == 0.5):
                stack._rates[g].flat[np.abs(stack._amps[g]).argmax()] = growth
            return stack

        monkeypatch.setattr(mixing, "secular_mode_sums", grown)
        with pytest.raises(IntegrationError, match="^mode sum is not finite at t=") as alone:
            mixing_time(configs[2], 0.01)
        got = mixing_times(configs, 0.01)
        assert _bits(got[2]) == ("IntegrationError", str(alone.value))
        assert [_bits(got[g]) for g in (0, 1, 3)] == [_bits(want[g]) for g in (0, 1, 3)]

    def test_input_guards(self):
        config = WalkConfig(n=5, gamma=1.0)
        for configs in ([], [config, WalkConfig(n=6, gamma=1.0)]):
            with pytest.raises(ValueError, match="one n"):
                LockstepSearch(configs, 0.01)
        search = LockstepSearch([config], 0.01)
        for other in ({"config": WalkConfig(n=5, gamma=2.0)}, {"eps": 0.1},
                      {"method": "perturbative"}, {"horizon": 50.0}):
            args = {"config": config, "eps": 0.01, **other}
            with pytest.raises(ValueError, match="its own configs and request"):
                mixing_time(search=search, **args)
        assert mixing_time(config, 0.01, search=search) == search.outcome(0)


def _dense_start(config, picture):
    """The vertex-0 start of a picture as a state vector of its dense generator."""
    start = initial_state(config) if picture == "s-literal" else initial_density(config)
    return start.ravel().astype(complex)


def _rk4_distance(config, picture, t, dt=1e-3):
    """Distance to uniform at t of the RK4 trajectory of the picture, in one stride."""
    _, steps = effective_step(t, dt, config.gamma)
    series = integrate(config, TimeGrid(t_end=t, dt=dt, sample_stride=steps), picture)
    return total_variation(series.dists[-1], uniform_distribution(config.n))


class TestPictureRoutes:
    """The s-literal and rho searches read the exact mode sum of their
    picture: on the coarse grid through ModeSum.scan, and at bisection
    midpoints through ModeSum.at.  Each must equal the dense exponential
    of that picture's generator, applied to the vertex-0 start."""

    @pytest.mark.parametrize("points", [5, 2049])
    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_grid_equals_the_chain_of_hops(self, n, method, points):
        # One hop is the exponential of the grid spacing; the chain of
        # hops from the start gives every grid row.  Each method is named
        # after its picture.
        config = WalkConfig(n=n, gamma=1.0)
        build = mixing._mode_sum_route(method)
        times = np.linspace(0.0, default_horizon(config, 0.01), points)
        hop = scipy.linalg.expm(build_full_operator(config, method) * times[1])
        state = _dense_start(config, method)
        diag = np.arange(n) * (n + 1)
        chain = np.empty((points, n))
        for k in range(points):
            chain[k] = state[diag].real
            state = hop @ state
        [(_, grid, _)] = build(n, [config.gamma]).scan(times[-1:], points, None)
        np.testing.assert_allclose(grid[0], chain, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_midpoints_equal_the_dense_exponential(self, n, method):
        # Off-grid times, one per stacked member, as a bisection level
        # evaluates them.
        config = WalkConfig(n=n, gamma=1.0)
        build = mixing._mode_sum_route(method)
        span = default_horizon(config, 0.01) / mixing.GRID_INTERVALS
        mids = span * np.array([0.5, 37.25, 614.4, 1000.5, 2047.75])
        modes = build(n, [config.gamma]).member(0)
        got = ModeSum.stack([modes] * mids.size).at(mids)
        want = [exact_evolve(config, t, method).diagonal().real for t in mids]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [5, 8])
    def test_rk4_crosses_eps_inside_the_final_bracket(self, n, method, mode):
        # integrate shares no rate, root or mode with the mode sum.
        config = WalkConfig(n=n, gamma=0.3)
        result = mixing_time(config, 0.01, method=method, mode=mode)
        assert result.converged and result.bracket > 0
        assert _rk4_distance(config, method, result.t_mix) <= 0.01 + 1e-9
        assert _rk4_distance(config, method, result.t_mix - result.bracket) > 0.01 - 1e-9


def _grid(config, eps=0.01):
    return np.linspace(0.0, default_horizon(config, eps), mixing.GRID_INTERVALS + 1)


def _distance(table, n):
    return np.abs(table - 1.0 / n).sum(axis=1)


class TestEnvelopeCut:
    """Mode-sum searches leave out the grid rows past their envelope's cut.

    The computed distance may pass the envelope E by the rounding of
    P_j = 1/N + x, about n u once E is below 1e-16, so the bound checked
    is E plus envelope_margin at E: the bound the cut relies on.
    """

    @pytest.mark.parametrize("n", [3, 5, 8, 20, 64])
    @pytest.mark.parametrize("method", ["exact", "perturbative"])
    def test_mode_sum_distance_stays_under_its_envelope(self, method, n):
        checked = cut = 0
        for gamma in np.geomspace(1e-3, 100.0, 6):
            config = WalkConfig(n=n, gamma=gamma)
            route = DiagonalPropagator(config) if method == "exact" else (
                spectral._PerturbativeKernel(config))
            rates, weights, bounded = route._modes._envelope()
            if not bounded[0]:
                assert route._modes.dense[0]  # n = 64, gamma = 1: expm blocks, no envelope
                continue
            rates, weights = rates[0][weights[0] > 0], weights[0][weights[0] > 0]
            times = _grid(config)
            distance = _distance(route.distributions(times), n)
            envelope = np.exp(np.outer(times, rates.real)) @ weights
            reach = np.abs(rates).max() * times[-1]
            assert np.all(distance <= envelope + envelope_margin(envelope, reach, rates.size, n))
            checked += 1
            for eps in (0.01, 0.1, 0.5):
                rows = route.distributions(times, eps).shape[0]
                cut += times.size - rows
                margin = envelope_margin(eps, reach, rates.size, n)
                assert np.all(eps - distance[rows:] > 1e3 * margin)
        assert checked >= 5 and cut > 0

    @pytest.mark.parametrize("n", [5, 256])
    def test_closed_form_distance_stays_under_its_envelope(self, n):
        k = np.arange(1, n)
        for gamma in (3.0, 10.0, 100.0):
            config = WalkConfig(n=n, gamma=gamma)
            times = _grid(config)
            rates = -np.sin(np.pi * k / n) ** 2 / (2.0 * gamma)
            distance = _distance(closed_form_a(config, times), n)
            envelope = np.exp(np.outer(times, rates)).sum(axis=1)
            reach = -rates.min() * times[-1]
            assert np.all(distance <= envelope + envelope_margin(envelope, reach, n // 2, n))
            for eps in (0.01, 0.1, 0.5):
                rows = closed_form_a(config, times, eps).shape[0]
                assert rows < times.size
                margin = envelope_margin(eps, reach, n // 2, n)
                assert np.all(eps - distance[rows:] > 1e3 * margin)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("mode", ["sustained", "first-crossing"])
    def test_results_equal_the_whole_grid(self, monkeypatch, mode, eps):
        # The default transition points, and the perturbative and
        # large-gamma sweeps of the benchmark.
        cases = [(WalkConfig(n=n, gamma=g), "exact")
                 for n in (5, 10, 15, 20) for g in default_gamma_grid()]
        cases += [(WalkConfig(n=64, gamma=g), "perturbative") for g in np.geomspace(1e-5, 1e-3, 7)]
        cases += [(WalkConfig(n=256, gamma=g), "large-gamma-closed-form")
                  for g in np.geomspace(3.0, 100.0, 13)]
        cut = [mixing_time(config, eps, method=method, mode=mode) for config, method in cases]

        def whole(lead, *args):
            return np.full(lead.shape[0], lead.shape[1])

        monkeypatch.setattr(evolution, "envelope_leads", whole)
        assert cut == [mixing_time(config, eps, method=method, mode=mode)
                       for config, method in cases]

    @staticmethod
    def _grid_rows(monkeypatch, config, method):
        """Grid rows the search evaluates before its envelope's cut (ModeSum.scan)."""
        rows = []
        real = evolution.ModeSum.scan

        def recorded(self, *args):
            for index, table, kept in real(self, *args):
                rows.extend(kept)
                yield index, table, kept

        with monkeypatch.context() as patch:
            patch.setattr(evolution.ModeSum, "scan", recorded)
            mixing_time(config, 0.01, method=method)
        return rows[0]

    def test_mode_sums_cut_their_grid(self, monkeypatch):
        config = WalkConfig(n=10, gamma=1.0)
        assert self._grid_rows(monkeypatch, config, "exact") < 2049
        assert self._grid_rows(monkeypatch, config, "perturbative") < 2049

    @pytest.mark.parametrize("method", ["exact", "perturbative"])
    def test_undamped_mode_sum_evaluates_the_whole_grid(self, monkeypatch, method):
        config = WalkConfig(n=5, gamma=0.0)
        assert self._grid_rows(monkeypatch, config, method) == 2049

    def test_expm_block_evaluates_the_whole_grid(self, monkeypatch):
        config = WalkConfig(n=4, gamma=1.0)
        assert DiagonalPropagator(config).mode == "expm"
        assert self._grid_rows(monkeypatch, config, "exact") == 2049
