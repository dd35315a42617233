"""Gamma sweeps, optimum location and tail-exponent fits."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from decowalk import evolution, mixing, sweep
from decowalk.model import WalkConfig
from decowalk.sweep import (
    DEFAULT_EPS,
    DEFAULT_GAMMA_POINTS,
    SweepPoint,
    SweepResult,
    default_gamma_grid,
    optimal_gamma,
    sweep_gamma,
    tail_slopes,
    transition_report,
)


class TestDefaults:
    def test_grid_shape_and_range(self):
        grid = default_gamma_grid()
        assert grid.size == DEFAULT_GAMMA_POINTS
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e2)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_grid_guards(self):
        with pytest.raises(ValueError):
            default_gamma_grid(num=1)
        with pytest.raises(ValueError):
            default_gamma_grid(lo=0.0)
        with pytest.raises(ValueError):
            default_gamma_grid(lo=1.0, hi=0.5)

    @pytest.mark.parametrize("n", [20, 21, 64])
    def test_default_method_is_exact_at_every_size(self, n):
        gammas = np.array([0.3, 3.0])
        assert sweep_gamma(n, gammas=gammas).method == "exact"
        assert transition_report([n], gammas=gammas).entries[0].sweep.method == "exact"

    def test_a_sweep_leaves_numpy_ma_unloaded(self):
        # numpy.ma adds about 2 MB of resident memory, and np.unique imports
        # it on its first call (numpy 2.4); the size classes do without it.
        src = pathlib.Path(sweep.__file__).resolve().parents[1]
        probe = ("import sys, numpy as np; from decowalk.sweep import sweep_gamma; "
                 "grid = np.geomspace(1e-3, 1e2, 7); "
                 "points = sweep_gamma(24, gammas=grid, method='exact').points; "
                 "print(all(p.converged for p in points), 'numpy.ma' in sys.modules)")
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "True False\n"

    def test_the_default_transition_leaves_scipy_unloaded(self):
        # SciPy serves only the expm fallback, which no block of the
        # default exact transition takes; loading it would add several MB
        # of resident memory to the benchmark's mode-sum workload.
        src = pathlib.Path(sweep.__file__).resolve().parents[1]
        probe = ("import os, sys; from decowalk.cli import main; "
                 "code = main(['transition', '--ns', '5,10,15,20', '--output', os.devnull]); "
                 "print(code, 'scipy' in sys.modules)")
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "0 False\n"


class TestSweepGamma:
    def test_five_cycle_default_grid(self):
        result = sweep_gamma(5)
        assert result.n == 5
        assert result.method == "exact"
        assert len(result.points) == DEFAULT_GAMMA_POINTS
        assert all(p.converged for p in result.points)
        gammas = [p.gamma for p in result.points]
        assert gammas == sorted(gammas)
        assert result.gamma_opt is not None
        assert result.t_opt == min(p.t_mix for p in result.points)

    def test_per_point_failures_are_recorded(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no crossing measured")

        monkeypatch.setattr(sweep, "mixing_time", fail)
        result = sweep_gamma(5, gammas=np.array([0.1, 1.0]))
        assert all(not p.converged for p in result.points)
        assert all(np.isnan(p.t_mix) for p in result.points)
        assert all(p.reason == "ValueError: no crossing measured" for p in result.points)
        assert result.gamma_opt is None and result.t_opt is None

    def test_successful_points_carry_no_reason(self):
        result = sweep_gamma(4, gammas=np.array([0.5, 2.0]))
        assert all(p.converged and p.reason is None for p in result.points)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(sweep, "mixing_time", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            sweep_gamma(5, gammas=np.array([0.1, 1.0]))

    def test_failed_slab_solve_fails_only_its_own_point(self, monkeypatch):
        # The closed-form solver refuses every call holding one gamma: the
        # slab's stacked solve fails, and each of its points solves alone.
        want = sweep_gamma(5)
        chosen = want.points[7].gamma
        real = evolution._closed_form_roots

        def refuse_chosen(n, model, angles, live, sigma, gammas):
            if (gammas == chosen).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(n, model, angles, live, sigma, gammas)

        monkeypatch.setattr(evolution, "_closed_form_roots", refuse_chosen)
        got = sweep_gamma(5)
        failed = [p for p in got.points if not p.converged]
        assert [p.gamma for p in failed] == [chosen]
        assert failed[0].reason == "LinAlgError: Eigenvalues did not converge"
        assert [p for p in got.points if p.gamma != chosen] == [
            p for p in want.points if p.gamma != chosen]

    def test_one_gamma_slabs_change_no_result(self, monkeypatch):
        # At n = 48 the three gammas are one slab, solved in one closed-form
        # call; slabs of one gamma each change no result.
        gammas = default_gamma_grid(3, 0.03, 30.0)
        solves = []
        real = evolution._closed_form_roots

        def spy(n, model, angles, live, sigma, gammas):
            solves.append(gammas.size)
            return real(n, model, angles, live, sigma, gammas)

        monkeypatch.setattr(evolution, "_closed_form_roots", spy)
        assert mixing._slab(48, "exact") >= 3
        want = transition_report([48], gammas=gammas, method="exact")
        assert solves == [3]
        monkeypatch.setattr(mixing, "_slab", lambda n, method: 1)
        assert sweep_gamma(48, gammas=gammas, method="exact") == want.entries[0].sweep
        assert transition_report([48], gammas=gammas, method="exact") == want
        assert solves == [3] + [1] * 6

    def test_a_point_that_is_not_finite_records_its_reason_alone(self, monkeypatch):
        # Block s = 1 of n = 4 is defective at gamma = 1 and falls back to
        # expm; its flow reads NaN at every bisection midpoint.
        gammas = np.array([0.5, 1.0, 2.0])
        want = sweep_gamma(4, gammas=gammas)
        real = evolution._expm_flows

        def poisoned(times, block, root):
            flows = real(times, block, root)
            if times.size == 1 and times[0] > 0:
                flows[:] = np.nan
            return flows

        monkeypatch.setattr(evolution, "_expm_flows", poisoned)
        with pytest.raises(evolution.IntegrationError) as alone:
            mixing.mixing_time(WalkConfig(n=4, gamma=1.0), DEFAULT_EPS)
        got = sweep_gamma(4, gammas=gammas)
        assert got.points[1].reason == f"IntegrationError: {alone.value}"
        assert not got.points[1].converged and np.isnan(got.points[1].t_mix)
        assert got.points[::2] == want.points[::2]

    def test_default_slab_bisects_in_at_most_eight_calls(self, monkeypatch):
        # All 25 points of the default grid at n = 20 form one slab; each
        # bisection level is one stacked call over the brackets still open.
        calls = []
        real = evolution.ModeSum.at

        def counted(self, times):
            calls.append(times.size)
            return real(self, times)

        monkeypatch.setattr(evolution.ModeSum, "at", counted)
        assert mixing._slab(20, "exact") >= DEFAULT_GAMMA_POINTS
        result = sweep_gamma(20)
        assert all(p.converged for p in result.points)
        assert calls[0] == DEFAULT_GAMMA_POINTS
        assert len(calls) <= 8

    def test_grid_guards(self):
        with pytest.raises(ValueError):
            sweep_gamma(5, gammas=np.array([]))
        with pytest.raises(ValueError):
            sweep_gamma(5, gammas=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            sweep_gamma(5, gammas=np.array([-1.0, 1.0]))


class TestRefusedBeforeAnyPoint:
    """Input that would fail every point raises instead of a table of nan."""

    @pytest.fixture(autouse=True)
    def refuse_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was measured")

        monkeypatch.setattr(sweep, "mixing_time", refuse)

    @pytest.mark.parametrize("kwargs, reason", [
        ({"n": 2}, "n must be >= 3"),
        ({"n": 5, "eps": 3.0}, "eps must lie in"),
        ({"n": 5, "eps": 0.0}, "eps must lie in"),
        ({"n": 5, "method": "bogus"}, "unknown method"),
    ])
    def test_sweep(self, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            sweep_gamma(gammas=np.array([0.1, 1.0]), **kwargs)

    @pytest.mark.parametrize("ns, kwargs, reason", [
        ([2], {}, "n must be >= 3"),
        ([5, 2], {}, "n must be >= 3"),
        ([4, 5], {"eps": 3.0}, "eps must lie in"),
        ([4, 5], {"method": "bogus"}, "unknown method"),
    ])
    def test_transition_checks_every_size_first(self, ns, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            transition_report(ns, gammas=np.array([0.1, 1.0]), **kwargs)

    def test_closed_form_grid_over_budget(self, monkeypatch):
        # Room for the 2049-row mixing grid of n = 5 doubles, not of n = 6.
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", 2049 * 8 * 5)
        grid, method = np.array([5.0, 10.0]), "large-gamma-closed-form"
        with pytest.raises(ValueError, match="exceeds"):
            sweep_gamma(6, gammas=grid, method=method)
        with pytest.raises(ValueError, match="exceeds"):
            transition_report([5, 6], gammas=grid, method=method)


def _synthetic_sweep(t_mixes, converged=None):
    converged = converged or [True] * len(t_mixes)
    gammas = np.logspace(-2, 1, len(t_mixes))
    points = tuple(
        SweepPoint(gamma=g, t_mix=t, converged=c)
        for g, t, c in zip(gammas, t_mixes, converged)
    )
    ok = [p for p in points if p.converged]
    best = min(ok, key=lambda p: p.t_mix) if ok else None
    return SweepResult(
        n=5, eps=0.01, method="exact", points=points,
        gamma_opt=best.gamma if best else None, t_opt=best.t_mix if best else None,
    )


class TestOptimalGamma:
    def test_grid_value_without_refinement(self):
        result = sweep_gamma(5)
        gamma, t_mix = optimal_gamma(result, refine=False)
        assert gamma == result.gamma_opt
        assert t_mix == result.t_opt

    def test_refinement_improves_and_stays_bracketed(self):
        result = sweep_gamma(5)
        gamma, t_mix = optimal_gamma(result, refine=True)
        assert t_mix <= result.t_opt
        gammas = [p.gamma for p in result.points]
        arg = gammas.index(result.gamma_opt)
        assert gammas[arg - 1] <= gamma <= gammas[arg + 1]

    def test_rejects_boundary_minimum(self):
        with pytest.raises(ValueError):
            optimal_gamma(_synthetic_sweep([5.0, 4.0, 3.0, 2.0, 1.0]), refine=False)
        with pytest.raises(ValueError):
            optimal_gamma(_synthetic_sweep([1.0, 2.0, 3.0, 4.0, 5.0]), refine=False)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            optimal_gamma(_synthetic_sweep([2.0, 1.0], [True, True]), refine=False)


class TestTailSlopes:
    def test_five_cycle_slopes_near_unit_exponents(self):
        small, large = tail_slopes(sweep_gamma(5))
        assert -1.15 <= small <= -0.85
        assert 0.85 <= large <= 1.15

    def test_short_sweep_has_no_slopes(self):
        small, large = tail_slopes(_synthetic_sweep([3.0, 1.0, 3.0, 4.0]))
        assert small is None and large is None

    def test_exact_powerlaw_recovered(self):
        gammas = np.logspace(-2, 1, 10)
        points = tuple(SweepPoint(g, 7.0 / g, True) for g in gammas)
        result = SweepResult(
            n=5, eps=0.01, method="exact",
            points=points, gamma_opt=gammas[-1], t_opt=7.0 / gammas[-1],
        )
        small, large = tail_slopes(result)
        assert small == pytest.approx(-1.0, abs=1e-12)
        assert large == pytest.approx(-1.0, abs=1e-12)


class TestTransitionReport:
    def test_structure_and_slopes(self):
        report = transition_report([4, 5], eps=0.05)
        assert report.eps == 0.05
        assert [e.n for e in report.entries] == [4, 5]
        for entry in report.entries:
            assert entry.sweep.gamma_opt is not None
            assert entry.small_gamma_slope is not None
            assert entry.large_gamma_slope is not None
            assert entry.small_gamma_slope < 0 < entry.large_gamma_slope
