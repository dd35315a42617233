"""Property tests of the Fourier-block propagator over random (n, gamma, t)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decowalk.evolution import DiagonalPropagator, TimeGrid, exact_evolve, integrate
from decowalk.mixing import total_variation, uniform_distribution
from decowalk.model import WalkConfig

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

cases = st.tuples(
    st.integers(min_value=3, max_value=12),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from(["s-literal", "rho"]),
)


@PROPERTY_SETTINGS
@given(cases)
def test_matches_dense_exponential(case):
    n, gamma, t, model = case
    config = WalkConfig(n=n, gamma=gamma)
    oracle = exact_evolve(config, t, model).diagonal()
    dist = DiagonalPropagator(config, model).distribution(t)
    assert np.abs(dist - oracle).max() <= 1e-12


@PROPERTY_SETTINGS
@given(cases)
def test_rows_are_probability_vectors(case):
    n, gamma, t, model = case
    times = np.array([0.0, t, 2.0 * t])
    dists = DiagonalPropagator(WalkConfig(n=n, gamma=gamma), model).distributions(times)
    assert dists.dtype == np.float64 and dists.shape == (3, n)
    np.testing.assert_allclose(dists.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for row in dists:
        assert 0.0 <= total_variation(row, uniform_distribution(n)) <= 2.0


@PROPERTY_SETTINGS
@given(st.tuples(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
    st.sampled_from(["s-literal", "rho"]),
))
def test_rk4_matches_block_propagator(case):
    # Dense RK4 steps against the Fourier-block mode sum, at every RK4
    # sample time.
    n, gamma, t_end, model = case
    config = WalkConfig(n=n, gamma=gamma)
    series = integrate(config, TimeGrid(t_end=t_end, dt=0.01), model)
    blocks = DiagonalPropagator(config, model).distributions(series.times)
    assert np.abs(series.dists - blocks).max() <= 1e-8
    np.testing.assert_allclose(series.dists.sum(axis=1), 1.0, rtol=0, atol=1e-12)
