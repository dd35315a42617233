"""Total-variation distance and mixing-time search."""

import numpy as np
import pytest

from decowalk import mixing
from decowalk.evolution import (
    IntegrationError,
    build_full_operator,
    rk4_step_matrix,
)
from decowalk.large_gamma import closed_form_a, large_gamma_bounds
from decowalk.mixing import (
    default_horizon,
    mixing_time,
    total_variation,
    uniform_distribution,
)
from decowalk.model import WalkConfig
from decowalk.spectral import small_gamma_mixing_bound


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

    def test_closed_form_is_called_once_per_search_step(self, monkeypatch):
        # One call for the whole grid, then one per bisection midpoint.
        calls = []

        def counted(config, t):
            calls.append(np.shape(t))
            return closed_form_a(config, t)

        monkeypatch.setattr(mixing, "closed_form_a", counted)
        result = mixing_time(WalkConfig(n=30, gamma=5.0), 0.01, method="large-gamma-closed-form")
        assert result.converged
        assert calls[0] == (mixing.GRID_INTERVALS + 1,)
        assert calls[1:] and all(shape == (1,) for shape in calls[1:])
        assert len(calls) <= 1 + 20

    def test_stepped_methods_match_spectral(self):
        # s-literal shares its generator with the exact method at any N;
        # the density route agrees when N is divisible by 4.
        exact6 = mixing_time(WalkConfig(n=6, gamma=1.0), 0.05, method="exact")
        literal6 = mixing_time(WalkConfig(n=6, gamma=1.0), 0.05, method="s-literal")
        assert literal6.t_mix == pytest.approx(exact6.t_mix, rel=5e-4)
        exact8 = mixing_time(WalkConfig(n=8, gamma=1.0), 0.05, method="exact")
        rho8 = mixing_time(WalkConfig(n=8, gamma=1.0), 0.05, method="rho")
        assert rho8.t_mix == pytest.approx(exact8.t_mix, rel=5e-4)

    @pytest.mark.parametrize("poisoned_call", [0, 1])
    def test_non_finite_rk4_state_raises(self, monkeypatch, poisoned_call):
        # 0 poisons the one step matrix, so the coarse grid; 1 poisons the
        # cached level S^(2^(p-1)) after the coarse grid is stored, a level
        # only bisection midpoints use.  A NaN in either must not read as
        # "not converged".
        def poisoned_step(generator, dt):
            step = rk4_step_matrix(generator, dt)
            step[0, 0] = np.nan
            return step

        real_init = mixing._SteppedDistributions.__init__

        def poisoned_init(self, *args):
            real_init(self, *args)
            self._levels[self._depth - 1][0, 0] = np.nan

        if poisoned_call == 0:
            monkeypatch.setattr(mixing, "rk4_step_matrix", poisoned_step)
        else:
            monkeypatch.setattr(mixing._SteppedDistributions, "__init__", poisoned_init)
        with pytest.raises(IntegrationError, match="non-finite RK4 state at t="):
            mixing_time(WalkConfig(n=6, gamma=1.0), 0.01, method="s-literal")

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


def _stepped(n, model, gamma=1.0, cells=4, cell=1.0):
    times = np.linspace(0.0, cells * cell, cells + 1)
    return mixing._SteppedDistributions(WalkConfig(n=n, gamma=gamma), model, times, 0.01)


class TestDyadicLattice:
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_midpoints_equal_powers_of_the_step(self, n, model):
        # A cell of 1 at dt = 0.01 takes 100 steps, so p = 7 and dt = 1/128.
        stepped = _stepped(n, model)
        assert stepped._depth == 7 and stepped._dt == 1.0 / 128
        step = rk4_step_matrix(build_full_operator(WalkConfig(n=n, gamma=1.0), model),
                               stepped._dt)
        for cell, k in ((0, 64), (1, 37), (2, 127), (3, 96)):
            t = stepped._times[cell] + k * stepped._dt
            state = stepped._advance(stepped._states[cell], k * stepped._dt, 1e-12)
            expected = np.linalg.matrix_power(step, k) @ stepped._states[cell]
            np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(stepped.distributions(np.array([t]))[0],
                                       np.real(expected[stepped._diag]), rtol=0, atol=1e-12)

    def test_one_step_matrix_per_search(self, monkeypatch):
        calls = []

        def counted(generator, dt):
            calls.append(dt)
            return rk4_step_matrix(generator, dt)

        monkeypatch.setattr(mixing, "rk4_step_matrix", counted)
        result = mixing_time(WalkConfig(n=6, gamma=1.0), 0.01, method="s-literal")
        assert result.converged and result.bracket > 0
        assert len(calls) == 1

    def test_off_lattice_time_takes_a_partial_step(self):
        # A quarter of a lattice step past a stored state: the lattice has
        # nothing there, so one RK4 step of dt / 4 finishes the advance.
        stepped = _stepped(6, "s-literal")
        config = WalkConfig(n=6, gamma=1.0)
        step = rk4_step_matrix(build_full_operator(config), stepped._dt)
        partial = rk4_step_matrix(build_full_operator(config), stepped._dt / 4)
        t = stepped._times[1] + 3.25 * stepped._dt
        expected = partial @ np.linalg.matrix_power(step, 3) @ stepped._states[1]
        np.testing.assert_allclose(stepped.distributions(np.array([t]))[0],
                                   expected[stepped._diag], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    def test_level_cache_respects_the_table_budget(self, monkeypatch, method):
        config = WalkConfig(n=6, gamma=1.0)
        full = mixing_time(config, 0.01, method=method)
        level_bytes = 36 * 36 * (8 if method == "s-literal" else 16)
        monkeypatch.setattr(mixing, "MAX_TABLE_BYTES", 2 * level_bytes)
        stepped = _stepped(6, method)
        assert sorted(stepped._levels) == [stepped._depth - 2, stepped._depth - 1]
        assert sum(level.nbytes for level in stepped._levels.values()) <= 2 * level_bytes
        rebuilt = []
        real_level = mixing._SteppedDistributions._level

        def level(self, j):
            if j not in self._levels:
                rebuilt.append(j)
            return real_level(self, j)

        monkeypatch.setattr(mixing._SteppedDistributions, "_level", level)
        lean = mixing_time(config, 0.01, method=method)
        assert rebuilt  # the search reached below the cache
        assert (lean.t_mix, lean.bracket) == (full.t_mix, full.bracket)
