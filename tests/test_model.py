"""States, stencils and picture conversions."""

import numpy as np
import pytest

from decowalk.model import (
    WalkConfig,
    initial_density,
    initial_state,
    rho_rhs,
    rho_to_s,
    s_rhs,
)


def random_symmetric(rng, n):
    raw = rng.normal(size=(n, n))
    return 0.5 * (raw + raw.T)


def random_hermitian(rng, n):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (raw + raw.conj().T)


def apply_four_times(conversion, state):
    for _ in range(4):
        state = conversion(state)
    return state


class TestWalkConfig:
    def test_accepts_valid(self):
        config = WalkConfig(n=3, gamma=0.0)
        assert config.n == 3 and config.gamma == 0.0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            WalkConfig(n=2)

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            WalkConfig(n=4.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            WalkConfig(n=4, gamma=-0.1)

    def test_rejects_non_finite_gamma(self):
        with pytest.raises(ValueError):
            WalkConfig(n=4, gamma=float("inf"))


class TestInitialState:
    def test_delta_at_origin(self):
        s = initial_state(WalkConfig(n=3))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(s, expected)

    def test_diagonal_sum_one(self):
        s = initial_state(WalkConfig(n=5))
        assert np.trace(s) == 1.0

    def test_conversion_round_trip_is_identity(self):
        # The phases i^(k-j) have order 4, so rho_to_s applied three
        # times is its inverse.
        rho = initial_density(WalkConfig(n=4))
        np.testing.assert_array_equal(rho_to_s(rho), initial_state(WalkConfig(n=4)))
        np.testing.assert_array_equal(apply_four_times(rho_to_s, rho), rho)


class TestSRhs:
    def test_hand_values_at_delta(self):
        config = WalkConfig(n=3, gamma=1.0)
        ds = s_rhs(config, initial_state(config))
        assert ds[0, 0] == 0.0
        assert ds[0, 1] == -0.25
        assert ds[1, 0] == -0.25

    def test_uniform_diagonal_is_stationary(self):
        for n, gamma in ((3, 0.0), (6, 2.5)):
            config = WalkConfig(n=n, gamma=gamma)
            ds = s_rhs(config, np.eye(n) / n)
            assert np.abs(ds).max() == 0.0

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(42)
        config = WalkConfig(n=7, gamma=0.8)
        ds = s_rhs(config, random_symmetric(rng, 7))
        np.testing.assert_allclose(ds, ds.T, atol=1e-15)

    def test_diagonal_sum_conserved(self):
        rng = np.random.default_rng(43)
        config = WalkConfig(n=4, gamma=0.0)
        ds = s_rhs(config, random_symmetric(rng, 4))
        assert abs(np.trace(ds)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            s_rhs(WalkConfig(n=5), np.zeros((4, 4)))


class TestRhoRhs:
    def test_hand_values_at_delta(self):
        config = WalkConfig(n=3, gamma=0.5)
        drho = rho_rhs(config, initial_density(config))
        assert drho[0, 0] == 0.0
        assert drho[0, 1] == 0.25j

    def test_uniform_diagonal_is_stationary(self):
        config = WalkConfig(n=5, gamma=1.7)
        drho = rho_rhs(config, np.eye(5, dtype=complex) / 5)
        assert np.abs(drho).max() == 0.0

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(44)
        config = WalkConfig(n=6, gamma=0.4)
        drho = rho_rhs(config, random_hermitian(rng, 6))
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-15)

    def test_trace_free(self):
        rng = np.random.default_rng(45)
        config = WalkConfig(n=4, gamma=3.0)
        drho = rho_rhs(config, random_hermitian(rng, 4))
        assert abs(np.trace(drho)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rho_rhs(WalkConfig(n=3), np.zeros((4, 4), dtype=complex))


class TestStackedRhs:
    """A stack of states (..., N, N) gives each state its own derivative, bit for bit."""

    @pytest.mark.parametrize("rhs, complex_states", [(s_rhs, False), (rho_rhs, True)])
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_each_state_of_a_stack_is_its_own(self, rhs, complex_states, n):
        rng = np.random.default_rng(n)
        config = WalkConfig(n=n, gamma=0.7)
        stack = rng.normal(size=(2, 3, n, n))
        if complex_states:
            stack = stack + 1j * rng.normal(size=stack.shape)
        images = rhs(config, stack)
        assert images.shape == stack.shape
        for index in np.ndindex(2, 3):
            alone = rhs(config, stack[index].copy())
            assert images[index].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("rhs", [s_rhs, rho_rhs])
    @pytest.mark.parametrize("shape", [(5,), (5, 4), (2, 4, 5), (2, 5, 5, 4)])
    def test_bad_trailing_shape(self, rhs, shape):
        with pytest.raises(ValueError, match="state must be 5x5"):
            rhs(WalkConfig(n=5), np.zeros(shape))


class TestConversions:
    def test_first_off_diagonal_phase(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 1] = 0.3
        s = rho_to_s(rho)
        assert s[0, 1] == 0.3j

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(46)
        rho = random_hermitian(rng, 6)
        np.testing.assert_array_equal(apply_four_times(rho_to_s, rho), rho)

    def test_derivatives_commute_with_conversion_when_seam_consistent(self):
        # The phase table is single-valued on the cycle only for n
        # divisible by 4; there the two stencils are exactly conjugate.
        rng = np.random.default_rng(47)
        config = WalkConfig(n=8, gamma=0.6)
        rho = random_hermitian(rng, 8)
        via_rho = rho_to_s(rho_rhs(config, rho))
        via_s = s_rhs(config, rho_to_s(rho))
        np.testing.assert_allclose(via_s, via_rho, atol=1e-14)

    def test_converted_delta_state_is_real(self):
        s = rho_to_s(initial_density(WalkConfig(n=5)))
        assert np.abs(s.imag).max() == 0.0


class TestDiagonalDistribution:
    def test_same_from_either_picture(self):
        # The change of variables leaves the diagonal, and so the vertex
        # distribution, untouched.
        rng = np.random.default_rng(48)
        rho = random_hermitian(rng, 6)
        np.testing.assert_array_equal(np.diag(rho_to_s(rho)), np.diag(rho))
