"""Total-variation distance and mixing-time search."""

import tracemalloc

import numpy as np
import pytest

from decowalk import evolution, mixing, spectral
from decowalk.evolution import (
    DiagonalPropagator,
    IntegrationError,
    apply_blocks,
    block_diagonal,
    build_full_operator,
    envelope_margin,
    rk4_step_matrix,
    to_blocks,
)
from decowalk.large_gamma import closed_form_a, large_gamma_bounds
from decowalk.mixing import (
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

    def test_closed_form_is_called_once_per_search_step(self, monkeypatch):
        # One call for the whole grid, then one per bisection midpoint.
        calls = []

        def counted(config, t, eps=None):
            calls.append(np.shape(t))
            return closed_form_a(config, t, eps)

        monkeypatch.setattr(mixing, "closed_form_a", counted)
        result = mixing_time(WalkConfig(n=30, gamma=5.0), 0.01, method="large-gamma-closed-form")
        assert result.converged
        assert calls[0] == (mixing.GRID_INTERVALS + 1,)
        assert calls[1:] and all(shape == (1,) for shape in calls[1:])
        assert len(calls) <= 1 + 20

    def test_closed_form_grid_over_budget_is_refused_before_any_work(self, monkeypatch):
        # Room for the 2049-row grid of n = 5 doubles, not of n = 6.
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", (mixing.GRID_INTERVALS + 1) * 8 * 5)
        assert mixing_time(WalkConfig(n=5, gamma=5.0), 0.01,
                           method="large-gamma-closed-form").converged

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form was evaluated")

        monkeypatch.setattr(mixing, "closed_form_a", refuse)
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

    def test_prebuilt_propagator(self):
        config = WalkConfig(n=5, gamma=0.3)
        prop = DiagonalPropagator(config)
        assert mixing_time(config, 0.01, propagator=prop) == mixing_time(config, 0.01)
        for other, method in ((WalkConfig(n=5, gamma=0.4), "exact"), (config, "perturbative")):
            with pytest.raises(ValueError, match="propagator"):
                mixing_time(other, 0.01, method=method, propagator=prop)


def _stepped(n, model, gamma=1.0, cells=4, cell=1.0):
    times = np.linspace(0.0, cells * cell, cells + 1)
    return mixing._SteppedDistributions(WalkConfig(n=n, gamma=gamma), model, times, 0.01)


def _start(n, model):
    start = initial_state(WalkConfig(n=n)) if model == "s-literal" else initial_density(
        WalkConfig(n=n))
    return start.ravel()


class TestDyadicLattice:
    """A cell of 1 at dt = 0.01 takes 100 steps, so the lattice step is
    1/128: every distribution must equal the diagonal of a power of the
    dense RK4 step matrix of that step, applied to the vertex-0 start."""

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_midpoints_equal_powers_of_the_step(self, n, model):
        stepped = _stepped(n, model)
        step = rk4_step_matrix(build_full_operator(WalkConfig(n=n, gamma=1.0), model), 1.0 / 128)
        diag = np.arange(n) * (n + 1)
        # Stored coarse-grid states (k = 0) and midpoints of every depth.
        for cell, k in ((2, 0), (4, 0), (0, 64), (1, 37), (2, 127), (3, 96)):
            expected = np.linalg.matrix_power(step, 128 * cell + k) @ _start(n, model)
            t = cell + k / 128
            np.testing.assert_allclose(stepped.distributions(np.array([t]))[0],
                                       np.real(expected[diag]), rtol=0, atol=1e-12)

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
        # A quarter of a lattice step past a lattice point: one RK4 step of
        # dt / 4 finishes the advance.
        stepped = _stepped(6, "s-literal")
        generator = build_full_operator(WalkConfig(n=6, gamma=1.0))
        step = rk4_step_matrix(generator, 1.0 / 128)
        partial = rk4_step_matrix(generator, 1.0 / 512)
        t = 1.0 + 3.25 / 128
        expected = partial @ np.linalg.matrix_power(step, 128 + 3) @ _start(6, "s-literal")
        np.testing.assert_allclose(stepped.distributions(np.array([t]))[0],
                                   expected[np.arange(6) * 7], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("points", [5, 2049])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_grid_equals_the_chain_of_hops(self, n, model, points):
        # The grid is read as lead a times lag b; B = 3 and 46 leave the
        # last lead row ragged at T = 5 and 2049 (6 and 2070 entries).
        stepped = _stepped(n, model, cells=points - 1)
        hop = stepped._levels[stepped._depth]
        state = to_blocks(_start(n, model).reshape(n, n))
        chain = np.empty((points, n))
        for k in range(points):
            chain[k] = block_diagonal(state)
            state = apply_blocks(hop, state)
        np.testing.assert_allclose(stepped.distributions(stepped._times), chain,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_rebuilt_coarse_state_equals_the_chain(self, model):
        stepped = _stepped(7, model, cells=2048)
        hop = stepped._levels[stepped._depth]
        wanted = {0, 1, 45, 46, 47, 1000, 2023, 2024, 2048}
        state = to_blocks(_start(7, model).reshape(7, 7))
        for k in range(2049):
            if k in wanted:
                np.testing.assert_allclose(stepped._coarse_state(k), state, rtol=0, atol=1e-12)
            state = apply_blocks(hop, state)

    def test_search_holds_no_table_of_grid_states(self):
        # The old layout stored every coarse block state: 2049 x 24 x 24
        # complex entries, 18.9 MB at n = 24.
        config = WalkConfig(n=24, gamma=1.0)
        mixing_time(config, 0.01, method="s-literal")  # FFT plans are cached outside the trace
        tracemalloc.start()
        try:
            result = mixing_time(config, 0.01, method="s-literal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < (mixing.GRID_INTERVALS + 1) * 24**2 * 16

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    def test_level_cache_respects_the_table_budget(self, monkeypatch, method):
        # Complex tables of the N//2 + 1 = 4 blocks: 4 x 6 x 6 for the
        # generator blocks, the levels S^(2^j), j = 0..7, and H^B for
        # B = 3, and 4 x 6 for the three lag states and the two lead rows;
        # the contraction's complex product, 4 x 2 x 3 (its inverse
        # transform is written into the distributions); and the five
        # distributions.
        budget = ((1 + 8 + 1) * 16 * 4 * 6**2 + (3 + 2) * 16 * 4 * 6 + 16 * 4 * 2 * 3
                  + 5 * 8 * 6)
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", budget)
        times = np.array([0.5, 1.0 + 3.25 / 128, 3.75])
        full = _stepped(6, method).distributions(times)
        tracemalloc.start()
        try:
            stepped = _stepped(6, method)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The tables above, less the lead rows freed after the grid, plus bookkeeping.
        assert held <= budget + 4096
        assert np.array_equal(stepped.distributions(times), full)

        def refuse(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", budget - 1)
        monkeypatch.setattr(mixing, "generator_blocks", refuse)
        with pytest.raises(ValueError, match="RK4 block levels and states of"):
            _stepped(6, method)


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
            if route._modes._envelope is None:
                assert route._modes.dense  # n = 64, gamma = 1: expm blocks, no envelope
                continue
            rates, weights = route._modes._envelope
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
            return lead.size

        monkeypatch.setattr(evolution, "envelope_leads", whole)
        assert cut == [mixing_time(config, eps, method=method, mode=mode)
                       for config, method in cases]

    @staticmethod
    def _grid_rows(monkeypatch, owner, config, method):
        """Rows of the first table the search's distributions return."""
        rows = []
        real = owner.distributions

        def recorded(self, times, *args):
            table = real(self, times, *args)
            rows.append(table.shape[0])
            return table

        monkeypatch.setattr(owner, "distributions", recorded)
        mixing_time(config, 0.01, method=method)
        return rows[0]

    def test_mode_sums_cut_their_grid(self, monkeypatch):
        config = WalkConfig(n=10, gamma=1.0)
        assert self._grid_rows(monkeypatch, DiagonalPropagator, config, "exact") < 2049
        assert self._grid_rows(monkeypatch, spectral._PerturbativeKernel, config,
                               "perturbative") < 2049

    @pytest.mark.parametrize("owner, method", [
        (DiagonalPropagator, "exact"),
        (spectral._PerturbativeKernel, "perturbative"),
    ])
    def test_undamped_mode_sum_evaluates_the_whole_grid(self, monkeypatch, owner, method):
        config = WalkConfig(n=5, gamma=0.0)
        assert self._grid_rows(monkeypatch, owner, config, method) == 2049

    def test_expm_block_evaluates_the_whole_grid(self, monkeypatch):
        config = WalkConfig(n=4, gamma=1.0)
        assert DiagonalPropagator(config).mode == "expm"
        assert self._grid_rows(monkeypatch, DiagonalPropagator, config, "exact") == 2049

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    def test_rk4_evaluates_the_whole_grid(self, monkeypatch, method):
        config = WalkConfig(n=6, gamma=1.0)
        assert self._grid_rows(monkeypatch, mixing._SteppedDistributions, config, method) == 2049
