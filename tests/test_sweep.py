"""Gamma sweeps, optimum location and tail-exponent fits."""

import numpy as np
import pytest

from decowalk import evolution, sweep
from decowalk.sweep import (
    DEFAULT_GAMMA_POINTS,
    EXACT_METHOD_MAX_N,
    SweepPoint,
    SweepResult,
    default_gamma_grid,
    default_method,
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

    def test_method_switchover(self):
        assert default_method(EXACT_METHOD_MAX_N) == "exact"
        assert default_method(EXACT_METHOD_MAX_N + 1) == "s-literal"


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
        # eigvals refuses every stack holding a block of one gamma: the
        # slab's stacked solve fails, and each of its points solves alone.
        want = sweep_gamma(5)
        chosen = want.points[7].gamma
        real = np.linalg.eigvals

        def refuse_chosen(blocks):
            # Each merged block of size k has trace real part gamma (1 - k).
            k = blocks.shape[-1]
            gammas = np.trace(blocks, axis1=-2, axis2=-1).real / (1 - k)
            if np.isclose(gammas, chosen, rtol=1e-9, atol=0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(blocks)

        monkeypatch.setattr(evolution.np.linalg, "eigvals", refuse_chosen)
        got = sweep_gamma(5)
        failed = [p for p in got.points if not p.converged]
        assert [p.gamma for p in failed] == [chosen]
        assert failed[0].reason == "LinAlgError: Eigenvalues did not converge"
        assert [p for p in got.points if p.gamma != chosen] == [
            p for p in want.points if p.gamma != chosen]

    def test_one_gamma_slabs_change_no_result(self, monkeypatch):
        # At n = 48 a chunk of 2**16 entries leaves one gamma per slab and
        # splits no mode-sum evaluation that the default chunk keeps whole.
        gammas = default_gamma_grid(3, 0.03, 30.0)
        stacks = []
        real = evolution._block_modes

        def spy(beta, counts, gamma, n):
            stacks.append((*beta.shape, evolution._CHUNK_ENTRIES))
            return real(beta, counts, gamma, n)

        monkeypatch.setattr(evolution, "_block_modes", spy)
        assert evolution.secular_slab(48) == 22
        want = transition_report([48], gammas=gammas, method="exact")
        assert len(stacks) == 2  # one stack per size class, across all three gammas
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 1 << 16)
        assert evolution.secular_slab(48) == 1
        assert sweep_gamma(48, gammas=gammas, method="exact") == want.entries[0].sweep
        assert transition_report([48], gammas=gammas, method="exact") == want
        assert len(stacks) == 2 + 2 * 3 * 2  # one stack per class and gamma
        for rows, size, entries in stacks:
            assert evolution._SECULAR_TABLES * rows * size * (size + 1) <= entries

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
