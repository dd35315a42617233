"""Closed forms, torus modes, damping matrix elements and the mode sum."""

import math

import numpy as np
import pytest

from decowalk.evolution import _block_rates, build_full_operator, exact_evolve
from decowalk.model import WalkConfig
from decowalk.spectral import (
    cycle_eigenvalues,
    m_function,
    perturbative_distribution,
    small_gamma_mixing_bound,
    torus_eigenvalue,
    torus_eigenvector,
    u_similarity,
    unitary_amplitudes,
    unitary_distribution,
)


def _first_order_rate(m, k, config):
    """Undamped rate of mode (m, k) plus its first-order damping shift.

    The mode shares its eigenvalue only with its swap partner (k, m), so
    first-order perturbation theory on that pair adds the diagonal
    element u(m,k,m,k) and, when the partner is a distinct mode, the
    coupling u(m,k,k,m).
    """
    n, gamma = config.n, config.gamma
    shift = u_similarity(m, k, m, k, n, gamma)
    if m != k:
        shift += u_similarity(m, k, k, m, n, gamma)
    return torus_eigenvalue(m, k, n) + shift


class TestCycleEigenvalues:
    def test_four_cycle(self):
        np.testing.assert_allclose(cycle_eigenvalues(4), [2.0, 0.0, -2.0, 0.0], atol=1e-15)

    def test_three_cycle(self):
        np.testing.assert_allclose(cycle_eigenvalues(3), [2.0, -1.0, -1.0], atol=1e-15)

    def test_leading_eigenvalue_is_two(self):
        for n in (3, 5, 8, 17):
            assert cycle_eigenvalues(n)[0] == 2.0


class TestUnitaryWalk:
    def test_starts_at_origin(self):
        amps = unitary_amplitudes(6, 0.0)
        np.testing.assert_allclose(amps, np.eye(6)[0], atol=1e-15)

    def test_normalised(self):
        for t in (0.3, 2.0, 17.5):
            assert abs(np.sum(np.abs(unitary_amplitudes(5, t)) ** 2) - 1.0) < 1e-12

    def test_four_cycle_closed_form(self):
        times = np.linspace(0.0, 30.0, 100)
        for t in times:
            probs = unitary_distribution(4, float(t))
            assert abs(probs[0] - np.cos(t) ** 4) < 1e-12
            assert abs(probs[2] - np.sin(t) ** 4) < 1e-12

    def test_five_cycle_oscillates_without_settling(self):
        probs = np.array([unitary_distribution(5, t)[0] for t in np.linspace(0.0, 500.0, 2000)])
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert probs.max() - probs.min() > 0.5


class TestMFunction:
    def test_delta_at_time_zero(self):
        assert m_function(7, 0, 0.0) == pytest.approx(1.0, abs=1e-15)
        for j in range(1, 7):
            assert abs(m_function(7, j, 0.0)) < 1e-15

    def test_brute_force_sum(self):
        n, j, t = 6, 2, 1.3
        brute = sum(
            np.exp(1j * t * np.sin(2 * np.pi * m / n)) * np.exp(2j * np.pi * m * j / n)
            for m in range(n)
        ) / n
        assert m_function(n, j, t) == pytest.approx(brute, abs=1e-14)

    def test_modulus_bounded(self):
        for t in (0.1, 3.0, 42.0):
            for j in range(5):
                assert abs(m_function(5, j, t)) <= 1.0 + 1e-12

    def test_square_expands_to_mode_double_sum(self):
        n, t = 7, 2.9
        for j in range(n):
            double = sum(
                np.exp(t * torus_eigenvalue(m, k, n)) * np.exp(2j * np.pi * (m + k) * j / n)
                for m in range(n)
                for k in range(n)
            ) / n**2
            assert m_function(n, j, t / 2.0) ** 2 == pytest.approx(double, abs=1e-12)

    def test_equal_index_modes_resum_to_doubled_vertex(self):
        n, t = 8, 1.7
        for j in range(n):
            diag = sum(
                np.exp(t * torus_eigenvalue(m, m, n)) * np.exp(2j * np.pi * 2 * m * j / n)
                for m in range(n)
            ) / n
            assert m_function(n, (2 * j) % n, t) == pytest.approx(diag, abs=1e-12)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            m_function(5, 5, 1.0)


class TestTorusModes:
    def test_zero_mode(self):
        assert torus_eigenvalue(0, 0, 6) == 0.0

    def test_four_cycle_value(self):
        assert torus_eigenvalue(1, 0, 4) == pytest.approx(0.5j, abs=1e-15)

    def test_equal_index_value(self):
        assert torus_eigenvalue(1, 1, 8) == pytest.approx(1j * math.sin(math.pi / 4), abs=1e-15)

    def test_product_and_sum_forms_agree(self):
        n = 7
        for m in range(n):
            for k in range(n):
                alt = 0.5j * (math.sin(2 * math.pi * m / n) + math.sin(2 * math.pi * k / n))
                assert torus_eigenvalue(m, k, n) == pytest.approx(alt, abs=1e-15)

    def test_eigen_equation(self):
        worst = 0.0
        for n in range(3, 9):
            op = build_full_operator(WalkConfig(n=n, gamma=0.0))
            for m in range(n):
                for k in range(n):
                    vec = torus_eigenvector(m, k, n)
                    residual = op @ vec - torus_eigenvalue(m, k, n) * vec
                    worst = max(worst, np.abs(residual).max())
        assert worst <= 1e-12

    def test_eigenvectors_unit_norm(self):
        for m in range(5):
            assert abs(np.linalg.norm(torus_eigenvector(m, 2, 5)) - 1.0) < 1e-14


class TestUSimilarity:
    def test_diagonal_element(self):
        assert u_similarity(2, 3, 2, 3, 8, 1.6) == pytest.approx(-1.6 * 7 / 8, abs=1e-15)

    def test_non_congruent_sums_vanish(self):
        assert u_similarity(0, 1, 0, 2, 5, 2.0) == 0.0

    def test_swap_partner_coupling(self):
        assert u_similarity(1, 4, 4, 1, 6, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_under_argument_swap(self):
        for quad in ((0, 1, 2, 4), (1, 1, 2, 0), (3, 2, 1, 4)):
            m, k, m2, k2 = quad
            assert u_similarity(m, k, m2, k2, 5, 1.1) == u_similarity(m2, k2, m, k, 5, 1.1)

    def test_brute_force_contraction(self):
        gamma = 1.3
        worst = 0.0
        for n in range(3, 7):
            basis = np.column_stack(
                [torus_eigenvector(m, k, n) for m in range(n) for k in range(n)]
            )
            damping = np.diag(-gamma * (1.0 - np.eye(n)).ravel())
            contracted = basis.conj().T @ damping @ basis
            modes = [(m, k) for m in range(n) for k in range(n)]
            for row, (m, k) in enumerate(modes):
                for col, (m2, k2) in enumerate(modes):
                    worst = max(
                        worst,
                        abs(contracted[row, col] - u_similarity(m, k, m2, k2, n, gamma)),
                    )
        assert worst <= 1e-12


class TestDegeneracyClasses:
    """The eigenvalue coincidences that _block_rates merges in each index-sum block."""

    def test_origin_is_zero_class(self):
        beta, _ = _block_rates(6, 0, "s-literal")
        np.testing.assert_allclose(beta, 0.0, atol=1e-15)

    def test_congruent_sum_is_zero_class(self):
        # (3, 5) on the 8-cycle sits in block 0, where every rate vanishes.
        beta, _ = _block_rates(8, (3 + 5) % 8, "s-literal")
        np.testing.assert_allclose(beta, 0.0, atol=1e-15)

    def test_equal_indices(self):
        beta, counts = _block_rates(8, 6, "s-literal")
        (row,) = np.flatnonzero(np.isclose(beta, torus_eigenvalue(3, 3, 8).imag, atol=1e-15))
        assert counts[row] == 1.0

    def test_swap_paired(self):
        beta, counts = _block_rates(8, 3, "s-literal")
        (row,) = np.flatnonzero(np.isclose(beta, torus_eigenvalue(2, 1, 8).imag, atol=1e-15))
        assert counts[row] == 2.0

    def test_fallback_is_unreachable(self):
        # Every mode of a block is either its own partner or half of a
        # swap pair, and is counted exactly once.
        for n in range(3, 11):
            for s in range(1, n):
                _, counts = _block_rates(n, s, "s-literal")
                assert set(counts) <= {1.0, 2.0}
                assert counts.sum() == n


class TestPerturbedEigenvalue:
    """First-order perturbation theory on the swap pair gives the documented shifts."""

    def test_equal_index_shift(self):
        config = WalkConfig(n=5, gamma=0.01)
        expected = 1j * math.sin(2 * math.pi / 5) - 0.008
        assert _first_order_rate(1, 1, config) == pytest.approx(expected, abs=1e-15)

    def test_swap_pair_shift(self):
        config = WalkConfig(n=5, gamma=0.01)
        expected = torus_eigenvalue(2, 1, 5) - 0.006
        assert _first_order_rate(2, 1, config) == pytest.approx(expected, abs=1e-15)

    def test_no_shift_without_damping(self):
        config = WalkConfig(n=6, gamma=0.0)
        for m in range(6):
            for k in range(6):
                assert _first_order_rate(m, k, config) == torus_eigenvalue(m, k, 6)


class TestPerturbativeDistribution:
    def test_reconstructs_delta_at_time_zero(self):
        for n in (4, 5, 9):
            probs = perturbative_distribution(WalkConfig(n=n, gamma=0.02), 0.0)
            np.testing.assert_allclose(probs, np.eye(n)[0], atol=1e-12)

    def test_real_and_normalised(self):
        probs = perturbative_distribution(WalkConfig(n=7, gamma=0.01), 13.0)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_exact_at_zero_dephasing(self):
        # With no damping the mode sum is the exact literal-S solution
        # for every cycle size, not an approximation.
        for n in (4, 5, 6, 8):
            config = WalkConfig(n=n, gamma=0.0)
            for t in (0.7, 5.0, 20.0):
                exact = exact_evolve(config, t).diagonal()
                probs = perturbative_distribution(config, t)
                np.testing.assert_allclose(probs, exact, atol=1e-10)

    def test_matches_quarter_rate_unitary_walk_on_seam_consistent_sizes(self):
        for n in (4, 8):
            config = WalkConfig(n=n, gamma=0.0)
            for t in (1.7, 6.0):
                closed = unitary_distribution(n, t / 4.0)
                probs = perturbative_distribution(config, t)
                np.testing.assert_allclose(probs, closed, atol=1e-10)

    def test_tracks_exact_dynamics_at_small_dephasing(self):
        config = WalkConfig(n=8, gamma=1e-3)
        worst = max(
            np.abs(
                perturbative_distribution(config, t) - exact_evolve(config, t).diagonal()
            ).max()
            for t in (50.0, 200.0)
        )
        assert worst <= 1e-2

    def test_matches_brute_force_mode_sum(self):
        # Independent route: every torus mode with nonzero index sum,
        # one by one, at its first-order rate and phase omega^((m+k) j)/N^2.
        worst = 0.0
        for n in range(3, 17):
            modes = [(m, k) for m in range(n) for k in range(n) if (m + k) % n]
            sums = np.array([m + k for m, k in modes])
            phases = np.exp(2j * np.pi * np.outer(sums, np.arange(n)) / n) / n**2
            for gamma in (0.0, 1e-4, 1e-2, 0.3):
                config = WalkConfig(n=n, gamma=gamma)
                rates = np.array([_first_order_rate(m, k, config) for m, k in modes])
                for t in (0.0, 1.0, 40.0, 500.0):
                    brute = 1.0 / n + np.real(np.exp(rates * t) @ phases)
                    probs = perturbative_distribution(config, t)
                    worst = max(worst, np.abs(probs - brute).max())
        assert worst <= 1e-12


class TestSmallGammaBound:
    def test_frozen_value_n20(self):
        bound = small_gamma_mixing_bound(20, 1e-3, 0.01)
        assert bound == pytest.approx(8445.447177268980, rel=1e-12)

    def test_frozen_value_n4(self):
        bound = small_gamma_mixing_bound(4, 0.1, 0.1)
        assert bound == pytest.approx(73.77758908227871, rel=1e-12)

    def test_monotone_decreasing_in_gamma(self):
        values = [small_gamma_mixing_bound(10, g, 0.01) for g in (1e-3, 1e-2, 1e-1)]
        assert values[0] > values[1] > values[2]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            small_gamma_mixing_bound(2, 0.1, 0.01)
        with pytest.raises(ValueError):
            small_gamma_mixing_bound(10, 0.0, 0.01)
        with pytest.raises(ValueError):
            small_gamma_mixing_bound(10, 0.1, 2.5)
