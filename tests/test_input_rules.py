"""The input rules of decowalk.model and the library entry points that apply them."""

import math

import numpy as np
import pytest

from decowalk import evolution
from decowalk.evolution import DiagonalPropagator, TimeGrid, exact_evolve, integrate
from decowalk.large_gamma import closed_form_a, large_gamma_bounds
from decowalk.mixing import mixing_time
from decowalk.model import WalkConfig, check_cycle_size, check_eps, check_positive, check_times
from decowalk.sweep import sweep_gamma

NAN, INF = math.nan, math.inf


class TestCheckCycleSize:
    @pytest.mark.parametrize("n", [3, 4, 512, np.int64(5)])
    def test_accepts(self, n):
        check_cycle_size(n)

    @pytest.mark.parametrize("n", [2, 0, -3])
    def test_rejects_small(self, n):
        with pytest.raises(ValueError):
            check_cycle_size(n)

    @pytest.mark.parametrize("n", [True, 10.0, NAN, INF, "5"])
    def test_rejects_non_integer(self, n):
        with pytest.raises(TypeError):
            check_cycle_size(n)


class TestCheckPositive:
    @pytest.mark.parametrize("value", [2.0, 1e-300, 1e308, 3])
    def test_accepts(self, value):
        check_positive("dt", value)

    @pytest.mark.parametrize("value", [0.0, -0.0, -2.0, NAN, INF, -INF])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            check_positive("dt", value)


class TestCheckEps:
    @pytest.mark.parametrize("eps", [2.0, 1e-300, 0.01])
    def test_accepts(self, eps):
        check_eps(eps)

    @pytest.mark.parametrize("eps", [0.0, -0.01, 2.0000000000000004, NAN, INF, -INF])
    def test_rejects(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            check_eps(eps)


class TestCheckTimes:
    def test_returns_a_float_array(self):
        times = check_times([0, 2])
        assert times.dtype == float
        np.testing.assert_array_equal(times, [0.0, 2.0])
        assert check_times(0.0).shape == ()

    @pytest.mark.parametrize("bad", [NAN, INF, -INF, -2.0, -1e-300])
    def test_rejects_scalar(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            check_times(bad)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF, -2.0])
    def test_rejects_one_bad_entry(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            check_times(np.array([[0.0, 2.0], [bad, 1.0]]))


CONFIG = WalkConfig(n=5, gamma=1.0)
REFUSALS = {
    "propagator-nan-time": lambda: DiagonalPropagator(CONFIG).distributions([NAN]),
    "closed-form-inf-time": lambda: closed_form_a(CONFIG, INF),
    "exact-evolve-nan-time": lambda: exact_evolve(CONFIG, NAN),
    "bounds-nan-gamma": lambda: large_gamma_bounds(10, NAN, 0.01),
    "sweep-inf-gamma": lambda: sweep_gamma(5, gammas=[1.0, INF]),
    "sweep-nan-gamma": lambda: sweep_gamma(5, gammas=[NAN]),
    "mixing-zero-horizon": lambda: mixing_time(CONFIG, 0.1, horizon=0.0),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refuses_out_of_domain_input(call):
    with pytest.raises(ValueError):
        call()


def test_bound_functions_take_only_integer_n():
    with pytest.raises(TypeError):
        large_gamma_bounds(10.0, 1.0, 0.01)


def test_table_budget_counts_kept_states(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the table budget must be checked before any array is built")

    monkeypatch.setattr(evolution, "build_full_operator", unreachable)
    # 30001 rows: 15 MB of distributions, but 2.0 GB of complex 64 x 64 states.
    with pytest.raises(ValueError, match="exceeds"):
        integrate(WalkConfig(n=64), TimeGrid(t_end=3000.0), model="rho", keep_states=True)
