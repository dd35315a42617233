"""Strong-dephasing structure: diagonal-sum decay, the two-band
truncation, its closed forms, and the diffusive mixing bounds."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from decowalk import evolution
from decowalk.evolution import TimeGrid, exact_evolve, integrate
from decowalk.large_gamma import (
    classical_heat_kernel,
    closed_form_a,
    diagonal_sums,
    full_large_gamma_state,
    large_gamma_bounds,
    mode_rates,
)
from decowalk.model import WalkConfig, initial_density, rho_to_s, s_rhs


def _random_symmetric_unit_trace(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    sym = 0.5 * (raw + raw.T)
    sym += np.eye(n) * (1.0 - np.trace(sym)) / n
    return sym


def _two_band_generator(config):
    """The 2N x 2N matrix of the two-band equations, acting on (a, d).

    a_j' = (d_j - d_{j-1}) / 4 and d_j' = (a_{j+1} - a_j) / 2 - gamma d_j,
    cyclic indices, as in the large_gamma module docstring.
    """
    n = config.n
    eye = np.eye(n)
    shift = np.roll(eye, 1, axis=1)  # (shift @ v)_j = v_{j+1}
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, n:] = 0.25 * (eye - shift.T)
    mat[n:, :n] = 0.5 * (shift - eye)
    mat[n:, n:] = -config.gamma * eye
    return mat


class TestDiagonalSums:
    def test_identity_matrix(self):
        sums = diagonal_sums(np.eye(4))
        np.testing.assert_allclose(sums, [4.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_hand_values(self):
        state = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        # k=1 wraps: S01 + S12 + S20 = 2 + 6 + 7.
        np.testing.assert_allclose(diagonal_sums(state), [15.0, 15.0, 15.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            diagonal_sums(np.zeros((3, 4)))


class TestDiagonalSumDecayLaw:
    def test_every_minor_diagonal_decays_at_gamma(self):
        # Each wrapped-diagonal sum closes on itself: d[k](t) = d[k](0) e^{-gamma t}
        # for k != 0, and d[0] is conserved, regardless of the initial state.
        n = 6
        s0 = _random_symmetric_unit_trace(n, seed=20240811)
        for gamma in (0.5, 5.0):
            config = WalkConfig(n=n, gamma=gamma)
            grid = TimeGrid(t_end=3.0, dt=1e-3, sample_stride=250)
            series = integrate(config, grid, model="s-literal", initial=s0, keep_states=True)
            d0 = diagonal_sums(s0)
            worst = 0.0
            for t, state in zip(series.times, series.states):
                sums = diagonal_sums(state)
                expected = d0 * np.exp(-gamma * t)
                expected[0] = d0[0]
                worst = max(worst, np.abs(sums - expected).max())
            assert worst <= 1e-8, f"gamma={gamma}: decay-law violation {worst:.3e}"


class TestTruncatedRhs:
    """The two-band matrix that TestTruncatedModelFidelity propagates."""

    def test_hand_values_from_origin(self):
        config = WalkConfig(n=3, gamma=4.0)
        deriv = _two_band_generator(config) @ np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(deriv[:3], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(deriv[3:], [-0.5, 0.0, 0.5], atol=1e-15)

    def test_uniform_is_stationary(self):
        config = WalkConfig(n=5, gamma=3.0)
        deriv = _two_band_generator(config) @ np.concatenate([np.full(5, 0.2), np.zeros(5)])
        np.testing.assert_allclose(deriv, np.zeros(10), atol=1e-15)

    def test_diagonal_sum_conserved(self):
        rng = np.random.default_rng(7)
        config = WalkConfig(n=8, gamma=2.5)
        deriv = _two_band_generator(config) @ rng.standard_normal(16)
        assert abs(deriv[:8].sum()) < 1e-14


class TestModeRates:
    def test_zero_mode(self):
        rates = mode_rates(0, WalkConfig(n=6, gamma=5.0))
        assert rates.gamma0 == 0.0
        assert rates.gamma1 == 5.0

    def test_frozen_quarter_mode(self):
        rates = mode_rates(1, WalkConfig(n=4, gamma=10.0))
        assert rates.gamma0 == pytest.approx((10.0 - math.sqrt(99.0)) / 2.0, rel=1e-12)

    def test_slow_root_asymptotics(self):
        # gamma0 -> sin^2(pi k / N) / (2 gamma) at strong dephasing.
        rates = mode_rates(1, WalkConfig(n=4, gamma=10.0))
        assert rates.gamma0 == pytest.approx(0.025, abs=3e-4)

    def test_root_identities(self):
        config = WalkConfig(n=9, gamma=7.3)
        for k in range(9):
            rates = mode_rates(k, config)
            assert rates.gamma0 + rates.gamma1 == pytest.approx(7.3, rel=1e-12)
            product = 0.5 * math.sin(math.pi * k / 9) ** 2
            assert rates.gamma0 * rates.gamma1 == pytest.approx(product, abs=1e-12)
            assert rates.gamma0 <= rates.gamma1

    def test_complex_regime_raises(self):
        with pytest.raises(ValueError):
            mode_rates(2, WalkConfig(n=4, gamma=0.5))

    def test_validity_flag(self):
        # Every mode has real rates once gamma^2 >= 2; the k = N/2 mode of
        # an even cycle sits on that edge and raises just below it.
        for k in range(4):
            mode_rates(k, WalkConfig(n=4, gamma=math.sqrt(2.0)))
        with pytest.raises(ValueError):
            mode_rates(2, WalkConfig(n=4, gamma=1.41))


class TestClosedFormA:
    def test_delta_at_time_zero(self):
        probs = closed_form_a(WalkConfig(n=7, gamma=10.0), 0.0)
        np.testing.assert_allclose(probs, np.eye(7)[0], atol=1e-14)

    def test_relaxes_to_uniform(self):
        probs = closed_form_a(WalkConfig(n=5, gamma=4.0), 1e6)
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_normalised(self):
        for t in (0.5, 20.0, 300.0):
            assert closed_form_a(WalkConfig(n=9, gamma=6.0), t).sum() == pytest.approx(
                1.0, abs=1e-13
            )

    def test_tracks_exact_diagonal_at_strong_dephasing(self):
        config = WalkConfig(n=10, gamma=10.0)
        worst = max(
            np.abs(
                closed_form_a(config, t) - np.real(exact_evolve(config, t).diagonal())
            ).max()
            for t in (5.0, 50.0, 500.0)
        )
        assert worst <= 2.0 / config.gamma

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            closed_form_a(WalkConfig(n=5, gamma=0.0), 1.0)

    def test_many_times_equal_stacked_single_times(self):
        config = WalkConfig(n=9, gamma=6.0)
        times = np.array([0.0, 0.5, 20.0, 300.0, 1e6])
        rows = closed_form_a(config, times)
        assert rows.shape == (5, 9)
        assert np.array_equal(rows, np.array([closed_form_a(config, float(t)) for t in times]))

    def test_chunked_rows_equal_stacked_single_times(self, monkeypatch):
        # 18 entries: chunks of three rows of the 5-entry half spectrum
        # of n = 9, the last one short.
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 18)
        config = WalkConfig(n=9, gamma=6.0)
        times = np.array([0.0, 0.5, 20.0, 300.0, 1e6])
        rows = closed_form_a(config, times)
        assert np.array_equal(rows, np.array([closed_form_a(config, float(t)) for t in times]))

    @pytest.mark.parametrize("size", [3, 4, 5, 2049])
    def test_grid_rows_equal_single_times(self, monkeypatch, size):
        config = WalkConfig(n=9, gamma=6.0)
        times = np.linspace(0.0, 700.0, size)
        lags = []
        real = evolution.lead_lag

        def spy(ts, *args):
            split = real(ts, *args)
            lags.append(split[1].size)
            return split

        monkeypatch.setattr(evolution, "lead_lag", spy)
        rows = closed_form_a(config, times)
        assert lags == [math.isqrt(size - 1) + 1]
        single = np.array([closed_form_a(config, float(t)) for t in times])
        assert np.abs(rows - single).max() <= 1e-15

    @pytest.mark.parametrize("entries", [9 * 20, 9 * 50])
    def test_chunk_boundaries_change_no_grid_row(self, monkeypatch, entries):
        # One 46-row lead row of the 2049-time grid per chunk, its four
        # blocks split into groups of three and one, or taken whole.
        config = WalkConfig(n=9, gamma=6.0)
        times = np.linspace(0.0, 700.0, 2049)
        want = closed_form_a(config, times)
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", entries)
        assert np.array_equal(closed_form_a(config, times), want)

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # The 2049-time mixing grid at n = 256 with 4096-entry chunks,
        # beyond the 4 MiB output: measured 0.68 MiB.  Unchunked, the
        # temporaries took 16 MiB.
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 4096)
        times = np.linspace(0.0, 1e4, 2049)
        tracemalloc.start()
        try:
            out = closed_form_a(WalkConfig(n=256, gamma=10.0), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1 << 20

    def test_refuses_a_result_over_the_table_budget(self, monkeypatch):
        # Room for four rows of n = 9 doubles, not five.
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", 4 * 9 * 8)
        config = WalkConfig(n=9, gamma=6.0)
        assert closed_form_a(config, np.arange(4.0)).shape == (4, 9)
        with pytest.raises(ValueError, match="exceeds"):
            closed_form_a(config, np.arange(5.0))

    def test_rejects_any_negative_time(self):
        with pytest.raises(ValueError):
            closed_form_a(WalkConfig(n=5, gamma=4.0), -1.0)
        with pytest.raises(ValueError):
            closed_form_a(WalkConfig(n=5, gamma=4.0), np.array([0.0, 3.0, -1e-9]))


class TestHeatKernelIdentity:
    def test_matches_classical_walk(self):
        # Independent oracle: dense exponential of the classical cycle
        # rate matrix with per-direction hop rate 1/(8 gamma).
        for n in (5, 12):
            for gamma in (5.0, 50.0):
                config = WalkConfig(n=n, gamma=gamma)
                for t in (1.0, 100.0):
                    kernel = classical_heat_kernel(n, 1.0 / (8.0 * gamma), t)
                    gap = np.abs(closed_form_a(config, t) - kernel).max()
                    assert gap <= 1e-12, f"n={n} gamma={gamma} t={t}: gap {gap:.3e}"

    def test_kernel_input_guards(self):
        with pytest.raises(ValueError):
            classical_heat_kernel(2, 0.1, 1.0)
        with pytest.raises(ValueError):
            classical_heat_kernel(5, 0.0, 1.0)


class TestFullState:
    def test_time_zero_is_origin_density(self):
        config = WalkConfig(n=6, gamma=8.0)
        state = full_large_gamma_state(config, 0.0)
        np.testing.assert_allclose(state, rho_to_s(initial_density(config)), atol=1e-15)

    def test_support_is_cyclic_tridiagonal(self):
        config = WalkConfig(n=8, gamma=12.0)
        state = full_large_gamma_state(config, 2.0)
        idx = np.arange(8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[idx, idx] = True
        mask[idx, (idx + 1) % 8] = True
        mask[(idx + 1) % 8, idx] = True
        assert np.all(state[~mask] == 0.0)
        assert np.all(np.isreal(state))

    def test_off_diagonal_magnitude(self):
        config = WalkConfig(n=10, gamma=20.0)
        state = full_large_gamma_state(config, 10.0)
        idx = np.arange(10)
        off = state[idx, (idx + 1) % 10]
        assert np.abs(off).max() <= 2.0 / config.gamma

    def test_symmetric(self):
        state = full_large_gamma_state(WalkConfig(n=7, gamma=9.0), 3.0)
        np.testing.assert_allclose(state, state.T, atol=1e-15)

    def test_stencil_residual_on_support(self):
        # The truncated state honours the full stencil on its support up
        # to O(1/gamma^2); check against a central-difference derivative.
        config = WalkConfig(n=8, gamma=10.0)
        h = 1e-5
        idx = np.arange(8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[idx, idx] = True
        mask[idx, (idx + 1) % 8] = True
        mask[(idx + 1) % 8, idx] = True
        worst = 0.0
        for t in (0.2, 1.0, 5.0):
            ddt = (
                full_large_gamma_state(config, t + h) - full_large_gamma_state(config, t - h)
            ) / (2.0 * h)
            rhs = s_rhs(config, full_large_gamma_state(config, t))
            worst = max(worst, np.abs((ddt - rhs)[mask]).max())
        assert worst <= 2.5 / config.gamma**2


class TestTruncatedModelFidelity:
    @staticmethod
    def _propagate_truncated(config, t):
        # Dense exponential of the two-band equations from the origin.
        start = np.zeros(2 * config.n)
        start[0] = 1.0
        out = scipy.linalg.expm(_two_band_generator(config) * t) @ start
        return out[: config.n]

    def test_truncation_error_shrinks_with_gamma(self):
        n, t = 6, 3.0
        gaps = {}
        for gamma in (10.0, 40.0):
            config = WalkConfig(n=n, gamma=gamma)
            exact = np.real(exact_evolve(config, t).diagonal())
            gaps[gamma] = np.abs(self._propagate_truncated(config, t) - exact).max()
        assert gaps[10.0] <= 5e-3
        assert gaps[40.0] <= 1.25e-3


class TestBounds:
    def test_frozen_values(self):
        report = large_gamma_bounds(10, 10.0, 0.01)
        assert report.t_lower == pytest.approx(627.43431306874777, rel=1e-12)
        assert report.t_upper == pytest.approx(2651.6524540295377, rel=1e-12)
        assert report.t_lower_large_n == pytest.approx(607.06227966408392, rel=1e-12)
        assert report.t_lower_large_n_alt == pytest.approx(303.53113983204196, rel=1e-12)

    def test_lower_below_upper(self):
        for n in (6, 10, 30):
            report = large_gamma_bounds(n, 5.0, 0.01)
            assert report.t_lower < report.t_upper

    def test_vacuous_lower_bound(self):
        report = large_gamma_bounds(10, 5.0, 0.3)
        assert report.t_lower == 0.0
        assert report.t_lower_large_n == 0.0
        assert report.t_upper > 0.0

    def test_input_guards(self):
        with pytest.raises(ValueError):
            large_gamma_bounds(10, 5.0, 2.0)
        with pytest.raises(ValueError):
            large_gamma_bounds(10, 5.0, 0.0)
        with pytest.raises(ValueError):
            large_gamma_bounds(10, 0.0, 0.01)
        with pytest.raises(ValueError):
            large_gamma_bounds(2, 5.0, 0.01)
