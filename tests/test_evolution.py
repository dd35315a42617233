"""Generator assembly, RK4 integration and the spectral propagator."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from decowalk import evolution, mixing, spectral, sweep
from decowalk.cli import main
from decowalk.evolution import (
    DiagonalPropagator,
    TimeGrid,
    build_full_operator,
    effective_step,
    exact_evolve,
    integrate,
    rk4_step_matrix,
    stencil_step,
)
from decowalk.model import WalkConfig, initial_state, rho_rhs, s_rhs


def _loop_operator(config, model):
    """The generator assembled one entry at a time: the reference layout."""
    n = config.n
    if model == "s-literal":
        dtype, coeffs = float, (0.25, 0.25, -0.25, -0.25)
    else:
        dtype, coeffs = complex, (0.25j, -0.25j, -0.25j, 0.25j)
    mat = np.zeros((n * n, n * n), dtype=dtype)
    for mu in range(n):
        for nu in range(n):
            row = mu * n + nu
            cols = (
                mu * n + (nu + 1) % n,
                ((mu + 1) % n) * n + nu,
                ((mu - 1) % n) * n + nu,
                mu * n + (nu - 1) % n,
            )
            for col, c in zip(cols, coeffs):
                mat[row, col] += c
            if mu != nu:
                mat[row, row] -= config.gamma
    return mat


def random_symmetric(rng, n):
    raw = rng.normal(size=(n, n))
    return 0.5 * (raw + raw.T)


def random_hermitian(rng, *shape):
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (raw + np.conj(raw).swapaxes(-1, -2))


class TestTimeGrid:
    def test_rejects_reversed_window(self):
        for t_end in (0.0, -1.0):
            with pytest.raises(ValueError):
                TimeGrid(t_end=t_end)

    def test_rejects_oversized_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, dt=2.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, sample_stride=0)


class TestBuildFullOperator:
    def test_matches_stencil_s(self):
        rng = np.random.default_rng(7)
        config = WalkConfig(n=6, gamma=1.3)
        op = build_full_operator(config)
        s = random_symmetric(rng, 6)
        np.testing.assert_allclose(
            (op @ s.ravel()).reshape(6, 6), s_rhs(config, s), atol=1e-14
        )

    def test_matches_stencil_rho(self):
        rng = np.random.default_rng(8)
        config = WalkConfig(n=5, gamma=0.4)
        op = build_full_operator(config, "rho")
        rho = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = 0.5 * (rho + rho.conj().T)
        np.testing.assert_allclose(
            (op @ rho.ravel()).reshape(5, 5), rho_rhs(config, rho), atol=1e-14
        )

    def test_undamped_rows_have_four_quarter_entries(self):
        op = build_full_operator(WalkConfig(n=3, gamma=0.0))
        for row in op:
            nonzero = row[row != 0.0]
            assert nonzero.size == 4
            assert np.all(np.abs(nonzero) == 0.25)

    def test_damping_sits_on_off_diagonal_rows(self):
        op = build_full_operator(WalkConfig(n=3, gamma=2.0))
        for mu in range(3):
            for nu in range(3):
                row = mu * 3 + nu
                assert op[row, row] == (0.0 if mu == nu else -2.0)

    def test_annihilates_uniform_diagonal(self):
        op = build_full_operator(WalkConfig(n=7, gamma=0.9))
        uniform = (np.eye(7) / 7).ravel()
        assert np.abs(op @ uniform).max() < 1e-16

    def test_diagonal_coordinate_column_sums_vanish(self):
        # No generator column feeds net weight into the diagonal sum.
        op = build_full_operator(WalkConfig(n=5, gamma=1.1))
        diag_rows = np.arange(5) * 5 + np.arange(5)
        np.testing.assert_allclose(op[diag_rows, :].sum(axis=0), 0.0, atol=1e-15)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            build_full_operator(WalkConfig(n=4), "heisenberg")

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_bytes_match_the_entrywise_loop(self, model):
        # Same entries, signed zeros included, as the per-entry assembly.
        for n in (*range(3, 17), 64):
            for gamma in (0.0, 1e-3, 1.3, 100.0):
                config = WalkConfig(n=n, gamma=gamma)
                got, want = build_full_operator(config, model), _loop_operator(config, model)
                assert got.dtype == want.dtype and got.shape == want.shape
                # Bitwise, as 8-byte words: tobytes() equality without the copies.
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGeneratorBlocks:
    """The diagonal-shift blocks are the dense generator in other coordinates."""

    @pytest.mark.parametrize("gamma", [0.0, 1.3])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", range(3, 13))  # every N mod 4 class, twice or more
    def test_blocks_reproduce_the_dense_generator(self, n, model, gamma):
        rng = np.random.default_rng(n)
        config = WalkConfig(n=n, gamma=gamma)
        x = rng.normal(size=(n, n)) if model == "s-literal" else random_hermitian(rng, n, n)
        dense = build_full_operator(config, model) @ x.ravel()
        blocks = evolution.generator_blocks(config, model)
        assert blocks.shape == (n // 2 + 1, n, n)
        image = evolution.apply_blocks(blocks, evolution.to_blocks(x))
        np.testing.assert_allclose(evolution.from_blocks(image, real=model == "s-literal").ravel(),
                                   dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("columns", [1, 3, 7, 64])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [*range(3, 14), 24, 40, 64])
    def test_stacked_unit_states_equal_the_column_loop(self, monkeypatch, n, model, columns):
        # The reference reads one column per right-hand side; any stack,
        # from one column per call to all of them in one call, must give
        # the same bytes: rows 0..N//2 of the transform, by rfft of the
        # real literal-S images and by fft of the complex density ones.
        monkeypatch.setattr(evolution, "_RHS_STACK_ENTRIES", columns * n * n)
        config = WalkConfig(n=n, gamma=0.3)
        rhs = s_rhs if model == "s-literal" else rho_rhs
        unit = np.zeros((n, n), dtype=float if model == "s-literal" else complex)
        images = np.empty((n, n, n), dtype=unit.dtype)
        for column in range(n):
            unit[0, column] = 1.0
            images[..., column] = rhs(config, unit)
            unit[0, column] = 0.0
        shift = (np.arange(n)[:, None] + np.arange(n)) % n
        diagonals = images[np.arange(n)[:, None], shift]
        full = np.fft.fft(diagonals, axis=0)
        loop = np.fft.rfft(diagonals, axis=0) if model == "s-literal" else full[:n // 2 + 1]
        blocks = evolution.generator_blocks(config, model)
        assert blocks.shape == (n // 2 + 1, n, n)
        assert blocks.tobytes() == loop.tobytes()
        # The real transform is the half of the full one, to rounding.
        np.testing.assert_allclose(blocks, full[:n // 2 + 1], rtol=0, atol=1e-15)

    def test_state_maps_invert_each_other(self):
        rng = np.random.default_rng(4)
        x = random_hermitian(rng, 3, 7, 7)
        y = evolution.to_blocks(x)
        assert y.shape == (3, 4, 7)
        np.testing.assert_allclose(evolution.from_blocks(y, real=False), x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(evolution.from_blocks(evolution.to_blocks(x.real), real=True),
                                   x.real, rtol=0, atol=1e-15)
        np.testing.assert_allclose(evolution.block_diagonal(y),
                                   np.diagonal(x, axis1=1, axis2=2).real, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_half_spectrum_round_trips(self, n):
        # Odd N has no Nyquist row; the rows past N/2 are rebuilt by the
        # real and the Hermitian mirror alike.
        rng = np.random.default_rng(n)
        real = rng.uniform(-1, 1, size=(2, n, n))
        hermitian = 0.5 * (real + 1j * rng.uniform(-1, 1, size=(2, n, n)))
        hermitian = hermitian + np.conj(hermitian).swapaxes(-1, -2)
        for x, is_real in ((real, True), (hermitian, False)):
            y = evolution.to_blocks(x)
            assert y.shape == (2, n // 2 + 1, n)
            np.testing.assert_allclose(evolution.from_blocks(y, real=is_real), x, rtol=0,
                                       atol=1e-15)
            # The kept rows are those of the full transform.
            j = np.arange(n)
            full = np.fft.fft(x[:, j[:, None], (j[:, None] + j) % n], axis=-2)
            np.testing.assert_allclose(y, full[:, :n // 2 + 1], rtol=0, atol=1e-14)

    def test_step_blocks_are_the_step_matrix_of_each_block(self):
        blocks = evolution.generator_blocks(WalkConfig(n=6, gamma=0.7), "rho")
        stacked = rk4_step_matrix(blocks, 0.05)
        for q in range(4):
            np.testing.assert_allclose(stacked[q], rk4_step_matrix(blocks[q], 0.05),
                                       rtol=0, atol=1e-15)


class TestExactEvolve:
    def test_time_zero_is_identity(self):
        config = WalkConfig(n=5, gamma=1.0)
        np.testing.assert_array_equal(exact_evolve(config, 0.0), initial_state(config))

    def test_trace_preserved(self):
        state = exact_evolve(WalkConfig(n=4, gamma=0.5), 10.0)
        assert abs(np.trace(state) - 1.0) < 1e-12

    def test_relaxes_to_uniform_diagonal(self):
        state = exact_evolve(WalkConfig(n=5, gamma=1.0), 200.0)
        assert np.abs(state - np.eye(5) / 5).max() < 1e-6

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exact_evolve(WalkConfig(n=65, gamma=1.0), 1.0)

    def test_non_finite_result_raises(self):
        with pytest.raises(evolution.IntegrationError, match="not finite at t=1e\\+300"):
            exact_evolve(WalkConfig(n=5, gamma=1.0), 1e300)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            exact_evolve(WalkConfig(n=4), -1.0)


class TestRk4StepMatrix:
    def test_equals_quartic_taylor(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(6, 6))
        h = 0.07
        a = h * g
        expected = (
            np.eye(6) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
        )
        np.testing.assert_allclose(rk4_step_matrix(g, h), expected, atol=1e-14)

    def test_effective_step_respects_cap(self):
        dt, steps = effective_step(10.0, 0.01, gamma=50.0)
        assert dt <= 0.1 / 50.0 + 1e-15
        assert abs(steps * dt - 10.0) < 1e-9


class TestIntegrate:
    def test_matches_exponential_oracle(self):
        config = WalkConfig(n=4, gamma=0.5)
        series = integrate(config, TimeGrid(t_end=50.0, dt=1e-3, sample_stride=1000))
        op = build_full_operator(config)
        hop = scipy.linalg.expm(op * (series.times[1] - series.times[0]))
        vec = initial_state(config).ravel()
        worst = 0.0
        for k in range(series.times.size):
            worst = max(worst, np.abs(series.dists[k] - vec[np.arange(4) * 5]).max())
            vec = hop @ vec
        assert worst <= 1e-8

    def test_closed_walk_return_probability(self):
        # Quarter-rate hopping: the undamped return probability on the
        # 4-cycle is cos^4 of a quarter of the elapsed time.
        config = WalkConfig(n=4, gamma=0.0)
        series = integrate(config, TimeGrid(t_end=50.0, dt=1e-3, sample_stride=500))
        expected = np.cos(series.times / 4.0) ** 4
        assert np.abs(series.dists[:, 0] - expected).max() <= 1e-8

    def test_times_increase_and_dists_normalised(self):
        series = integrate(WalkConfig(n=6, gamma=0.3), TimeGrid(t_end=7.0, dt=0.01))
        assert np.all(np.diff(series.times) > 0)
        np.testing.assert_allclose(series.dists.sum(axis=1), 1.0, atol=1e-10)

    def test_fourth_order_step_halving(self):
        # Errors at dt and dt/2 sit well above the rounding floor, so the
        # ratio shows the h^4 order of the scheme.
        config = WalkConfig(n=5, gamma=1.0)
        op = build_full_operator(config)
        exact = (scipy.linalg.expm(op * 10.0) @ initial_state(config).ravel())
        errors = []
        for dt in (0.1, 0.05):
            series = integrate(config, TimeGrid(t_end=10.0, dt=dt, sample_stride=1000))
            diag = exact.reshape(5, 5).diagonal()
            errors.append(np.abs(series.dists[-1] - diag).max())
        assert errors[0] / errors[1] >= 8.0

    def test_rho_model_stays_positive_and_hermitian(self):
        config = WalkConfig(n=6, gamma=0.3)
        series = integrate(
            config, TimeGrid(t_end=30.0, dt=1e-2, sample_stride=10),
            model="rho", keep_states=True,
        )
        assert series.dists.min() >= -1e-10
        worst = max(np.abs(m - m.conj().T).max() for m in series.states)
        assert worst <= 1e-12

    def test_s_literal_states_stay_symmetric(self):
        config = WalkConfig(n=5, gamma=0.8)
        series = integrate(
            config, TimeGrid(t_end=10.0, dt=1e-2), keep_states=True
        )
        worst = max(np.abs(m - m.T).max() for m in series.states)
        assert worst <= 1e-12

    def test_representation_diagonals_agree_for_multiple_of_four(self):
        for n in (4, 8):
            grid = TimeGrid(t_end=10.0, dt=1e-3, sample_stride=100)
            s_series = integrate(WalkConfig(n=n, gamma=1.0), grid, model="s-literal")
            r_series = integrate(WalkConfig(n=n, gamma=1.0), grid, model="rho")
            assert np.abs(s_series.dists - r_series.dists).max() <= 1e-8

    def test_custom_initial_state(self):
        rng = np.random.default_rng(10)
        config = WalkConfig(n=4, gamma=0.6)
        s0 = random_symmetric(rng, 4)
        s0 += (1.0 - np.trace(s0)) / 4 * np.eye(4)
        series = integrate(config, TimeGrid(t_end=5.0, dt=1e-3, sample_stride=100), initial=s0)
        expected = exact_evolve(config, 5.0, initial=s0)
        np.testing.assert_allclose(series.dists[-1], expected.diagonal(), atol=1e-9)

    def test_rejects_complex_initial_for_s_literal(self):
        config = WalkConfig(n=4, gamma=0.1)
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1j
        with pytest.raises(ValueError):
            integrate(config, TimeGrid(t_end=1.0), initial=bad)

    @pytest.mark.parametrize("keep_states", [False, True])
    @pytest.mark.parametrize("stencil_min_n", [evolution.STENCIL_MIN_N, 3])
    def test_rejects_non_hermitian_initial_for_rho(self, monkeypatch, stencil_min_n,
                                                   keep_states):
        # The block route keeps only the half spectrum, which a Hermitian
        # state fixes; the stencil route takes the same starts.
        monkeypatch.setattr(evolution, "STENCIL_MIN_N", stencil_min_n)
        config = WalkConfig(n=4, gamma=0.1)
        grid = TimeGrid(t_end=1.0)
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1j
        with pytest.raises(ValueError, match="^density-picture states are Hermitian matrices$"):
            integrate(config, grid, model="rho", initial=bad, keep_states=keep_states)
        bad[1, 0] = -0.1j  # now Hermitian
        series = integrate(config, grid, model="rho", initial=bad, keep_states=keep_states)
        np.testing.assert_allclose(series.dists[-1], exact_evolve(config, 1.0, "rho", bad)
                                   .diagonal().real, rtol=0, atol=1e-9)
        bad[1, 1] = np.nan  # a non-finite start is named at t = 0, as before
        with pytest.raises(evolution.IntegrationError, match="^non-finite state at t=0; "):
            integrate(config, grid, model="rho", initial=bad, keep_states=keep_states)

    def test_exact_evolve_rejects_non_hermitian_initial_for_rho(self):
        config = WalkConfig(n=4, gamma=0.1)
        bad = np.eye(4, dtype=complex) / 4
        bad[2, 2] += 1e-3j  # a diagonal entry off the real line
        with pytest.raises(ValueError, match="^density-picture states are Hermitian matrices$"):
            exact_evolve(config, 1.0, "rho", bad)
        bad[2, 2] = 0.25
        np.testing.assert_allclose(exact_evolve(config, 0.0, "rho", bad), bad, rtol=0, atol=0)


def _both_routes(monkeypatch, config, grid, model, initial=None):
    """integrate's step-block and stencil trajectories of the same request."""
    out = []
    for threshold in (config.n + 1, config.n):
        monkeypatch.setattr(evolution, "STENCIL_MIN_N", threshold)
        out.append(integrate(config, grid, model=model, initial=initial, keep_states=True))
    return out


class TestStencilIntegrate:
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_step_equals_step_matrix(self, model):
        rng = np.random.default_rng(3)
        config = WalkConfig(n=7, gamma=0.7)
        x = rng.normal(size=(7, 7)) if model == "s-literal" else (
            rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        dense = rk4_step_matrix(build_full_operator(config, model), 0.03) @ x.ravel()
        np.testing.assert_allclose(stencil_step(config, model, 0.03)(x).ravel(), dense,
                                   rtol=0, atol=1e-15)

    # Nine steps sampled every four: two full strides and a remainder of one.
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 10.0])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12, 17])
    def test_matches_dense_route(self, monkeypatch, n, model, gamma):
        config = WalkConfig(n=n, gamma=gamma)
        dt = 0.1 / max(gamma, 1.0)
        grid = TimeGrid(t_end=9 * dt, dt=dt, sample_stride=4)
        blocks, stencil = _both_routes(monkeypatch, config, grid, model)
        assert blocks.times.size == stencil.times.size == 4
        assert stencil.dt_used == blocks.dt_used
        np.testing.assert_array_equal(stencil.times, blocks.times)
        np.testing.assert_allclose(stencil.dists, blocks.dists, rtol=0, atol=1e-12)
        for a, b in zip(stencil.states, blocks.states):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_matches_dense_route_at_n_40(self, monkeypatch, model):
        # The size the benchmark integrates.
        config = WalkConfig(n=40, gamma=0.1)
        grid = TimeGrid(t_end=0.05, dt=0.01, sample_stride=1)
        blocks, stencil = _both_routes(monkeypatch, config, grid, model)
        np.testing.assert_allclose(stencil.dists, blocks.dists, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stencil.states[-1], blocks.states[-1], rtol=0, atol=1e-12)

    def test_default_route_follows_the_threshold(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the stencil route builds no step blocks")

        monkeypatch.setattr(evolution, "generator_blocks", unreachable)
        monkeypatch.setattr(evolution, "rk4_step_matrix", unreachable)
        config = WalkConfig(n=evolution.STENCIL_MIN_N, gamma=0.5)
        series = integrate(config, TimeGrid(t_end=1.0, dt=0.01))
        np.testing.assert_allclose(series.dists.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(AssertionError, match="no step blocks"):
            integrate(WalkConfig(n=evolution.STENCIL_MIN_N - 1), TimeGrid(t_end=1.0))

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_refuses_a_run_over_the_work_budget(self, monkeypatch, model):
        def refuse(*args, **kwargs):
            raise AssertionError("a stencil step was built")

        monkeypatch.setattr(evolution, "stencil_step", refuse)
        n = evolution.STENCIL_MIN_N
        # Room for 100 steps of n x n entries: t_end = 1 at dt = 0.01.
        monkeypatch.setattr(evolution, "MAX_STENCIL_WORK", 100 * n * n)
        with pytest.raises(AssertionError, match="stencil step"):
            integrate(WalkConfig(n=n, gamma=1.0), TimeGrid(t_end=1.0), model=model)
        with pytest.raises(ValueError, match=f"^101 RK4 stencil steps of {n}x{n} states exceed"):
            integrate(WalkConfig(n=n, gamma=1.0), TimeGrid(t_end=1.01), model=model)

    def test_cli_refuses_a_run_over_the_work_budget(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a stencil step was built")

        monkeypatch.setattr(evolution, "stencil_step", refuse)
        # About 11 h of stepping at the measured cost per entry.
        assert main(["evolve", "--n", "512", "--t-max", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1000000 RK4 stencil steps of 512x512 states")

    def test_non_finite_state_raises(self, monkeypatch):
        real = evolution.stencil_step

        def poisoned(config, model, dt):
            step = real(config, model, dt)
            calls = []

            def nan_on_fifth(x):
                calls.append(1)
                out = step(x)
                if len(calls) == 5:
                    out[0, 1] = np.nan
                return out

            return nan_on_fifth

        monkeypatch.setattr(evolution, "STENCIL_MIN_N", 3)
        monkeypatch.setattr(evolution, "stencil_step", poisoned)
        with pytest.raises(evolution.IntegrationError, match="non-finite state at t=0.1"):
            integrate(WalkConfig(n=5, gamma=0.1), TimeGrid(t_end=1.0, dt=0.01))

    def test_trace_drift_raises(self, monkeypatch):
        # Off-diagonal entries of 1e9 round the diagonal sum away from 1.
        s0 = np.zeros((5, 5))
        s0[0, 0] = 1.0
        s0[0, 1], s0[1, 0], s0[2, 4] = 1e9 * np.pi, -1e9, 3e8
        monkeypatch.setattr(evolution, "STENCIL_MIN_N", 3)
        with pytest.raises(evolution.IntegrationError, match="diagonal sum drifted"):
            integrate(WalkConfig(n=5, gamma=0.1), TimeGrid(t_end=1.0), initial=s0)


def _hop_chain(hop, state, count):
    return evolution._HopChain(hop, state, np.empty((count, state.shape[-1])))


class TestHopChain:
    """integrate's block route and the RK4 mixing grid read H^k y0 as lead x lag."""

    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 10.0])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [3, 5, 8, 24, 40, 100])
    def test_matches_the_sequential_trajectory(self, n, model, gamma, stride):
        # 101 steps: 101, 34 and 11 samples, the last two after a partial
        # stride of 2 and 1 steps.
        config = WalkConfig(n=n, gamma=gamma)
        dt = 0.1 / max(gamma, 1.0)
        grid = TimeGrid(t_end=101 * dt, dt=dt, sample_stride=stride)
        chained = integrate(config, grid, model=model)
        stepped = integrate(config, grid, model=model, keep_states=True)
        assert chained.states is None
        assert chained.dt_used == stepped.dt_used
        np.testing.assert_array_equal(chained.times, stepped.times)
        np.testing.assert_allclose(chained.dists, stepped.dists, rtol=0, atol=1e-13)

    def test_takes_no_per_sample_product(self, monkeypatch):
        # 501 samples, as evolve --t-max 50 takes: B = 23 lag states, so
        # 22 products with the step blocks; the A = 22 lead covectors are
        # products with H^B, and no sample takes one of its own.
        calls = []
        real = evolution.apply_blocks

        def counted(blocks, y):
            calls.append(1)
            return real(blocks, y)

        monkeypatch.setattr(evolution, "apply_blocks", counted)
        series = integrate(WalkConfig(n=6, gamma=0.1), TimeGrid(t_end=50.0))
        assert series.dists.shape == (501, 6)
        assert len(calls) == 22

    @pytest.mark.parametrize("count", [1, 2, 5, 46, 2049])
    def test_rebuilt_states_equal_the_chain(self, count):
        rng = np.random.default_rng(count)
        hop = rk4_step_matrix(evolution.generator_blocks(WalkConfig(n=5, gamma=0.4), "rho"), 0.3)
        start = evolution.to_blocks(random_hermitian(rng, 5, 5))
        chain = _hop_chain(hop, start, count)
        state = start
        for k in range(count):
            np.testing.assert_allclose(chain.state(k), state, rtol=0, atol=1e-13)
            np.testing.assert_allclose(chain.dists[k], evolution.block_diagonal(state),
                                       rtol=0, atol=1e-13)
            state = evolution.apply_blocks(hop, state)
        assert chain.bad == count

    @pytest.mark.parametrize("count, first", [
        (200, "lag"),  # B = 15: lag state 11 overflows
        (101, "lead"),  # B = 11: H^B, so lead row 1, overflows
        (50, "contraction"),  # B = 8: lead row 1 and lag 3 are finite, their product is not
    ])
    def test_bad_names_the_first_non_finite_state(self, count, first):
        # H = 1e30 I: y_k ~ 1e30^k overflows first at k = 11.
        hop = np.broadcast_to(1e30 * np.eye(4), (3, 4, 4))
        chain = _hop_chain(hop, evolution.to_blocks(np.eye(4) / 4), count)
        assert chain.bad == 11
        lag_finite = np.isfinite(chain.lag).all(axis=(1, 2))
        assert lag_finite.all() == (first != "lag")
        assert np.isfinite(chain.lead_hop).all() == (first == "contraction")
        assert np.isfinite(chain.dists[:11]).all()

    @pytest.mark.parametrize("entries", [1, 40, 100])
    def test_chunked_contraction_changes_nothing(self, monkeypatch, entries):
        # One lead row per chunk (the floor), two, and five of the 8.
        hop = rk4_step_matrix(evolution.generator_blocks(WalkConfig(n=5, gamma=0.2), "rho"), 0.5)
        start = evolution.to_blocks(initial_state(WalkConfig(n=5)))
        whole = _hop_chain(hop, start, 61)
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", entries)
        chunked = _hop_chain(hop, start, 61)
        np.testing.assert_allclose(chunked.dists, whole.dists, rtol=0, atol=1e-15)

    def test_non_finite_state_raises(self, monkeypatch):
        # The block-route twin of TestStencilIntegrate's: a NaN in the
        # step blocks shows at the first sample after t = 0.
        def poisoned(generator, dt):
            step = rk4_step_matrix(generator, dt)
            step[2, 1, 3] = np.nan
            return step

        monkeypatch.setattr(evolution, "rk4_step_matrix", poisoned)
        for keep_states in (False, True):
            with pytest.raises(evolution.IntegrationError,
                               match=r"^non-finite state at t=0\.1; reduce dt$"):
                integrate(WalkConfig(n=5, gamma=0.1), TimeGrid(t_end=1.0, dt=0.01),
                          keep_states=keep_states)

    def test_trace_drift_raises(self):
        # The block-route twin of TestStencilIntegrate's 1e9 start.
        s0 = np.zeros((5, 5))
        s0[0, 0] = 1.0
        s0[0, 1], s0[1, 0], s0[2, 4] = 1e9 * np.pi, -1e9, 3e8
        for keep_states in (False, True):
            with pytest.raises(evolution.IntegrationError,
                               match=r"^diagonal sum drifted to .* at t=0\.1 \(started at 1\.0\)$"):
                integrate(WalkConfig(n=5, gamma=0.1), TimeGrid(t_end=1.0), initial=s0,
                          keep_states=keep_states)

    def test_first_failing_sample_is_named(self, monkeypatch):
        # Steps of 1e30 times the RK4 step keep every state finite up to
        # the 10th and leave sample 1 drifted: the drift is named, at
        # t = 0.01, on both routes, and with a NaN start sample 0 is.
        def grown(generator, dt):
            return 1e30 * rk4_step_matrix(generator, dt)

        monkeypatch.setattr(evolution, "rk4_step_matrix", grown)
        grid = TimeGrid(t_end=1.0, dt=0.01, sample_stride=1)
        for keep_states in (False, True):
            with pytest.raises(evolution.IntegrationError,
                               match=r"^diagonal sum drifted to .* at t=0\.01 "):
                integrate(WalkConfig(n=5, gamma=0.1), grid, keep_states=keep_states)
            start = np.eye(5) / 5
            start[1, 2] = np.nan
            with pytest.raises(evolution.IntegrationError,
                               match=r"^non-finite state at t=0; reduce dt$"):
                integrate(WalkConfig(n=5, gamma=0.1), grid, initial=start,
                          keep_states=keep_states)

    def test_rebuilt_state_of_a_partial_stride_is_checked(self, monkeypatch):
        # 105 steps sampled every 10: the rebuilt state of sample 10
        # (t = 1) starts the partial stride to t = 1.05.
        def poisoned(self, k):
            return np.full((3, 5), np.nan, dtype=complex)

        monkeypatch.setattr(evolution._HopChain, "state", poisoned)
        with pytest.raises(evolution.IntegrationError, match=r"^non-finite state at t=1; "):
            integrate(WalkConfig(n=5, gamma=0.1), TimeGrid(t_end=1.05, dt=0.01))

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_refuses_chain_tables_over_budget(self, monkeypatch, model):
        def refuse(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(evolution, "generator_blocks", refuse)
        # 1000 steps sampled every step at n = 5, on M = 3 blocks: B = A =
        # 32, so 2 M (B + A) rows of lag states and lead covectors and
        # 2 M A B / n, rounded up, of the one contraction chunk's complex
        # product (its inverse transform is written into the trajectory
        # table): 1613 rows of 5 doubles, above the 1001-row trajectory
        # table and the step blocks.
        grid = TimeGrid(t_end=10.0, dt=0.01, sample_stride=1)
        budget = (2 * 3 * (32 + 32) + -(-2 * 3 * 32 * 32 // 5)) * 8 * 5
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", budget - 1)
        with pytest.raises(ValueError, match="^RK4 lead and lag tables of 1.61e"):
            integrate(WalkConfig(n=5, gamma=1.0), grid, model=model)
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", budget)
        with pytest.raises(AssertionError, match="a block was built"):
            integrate(WalkConfig(n=5, gamma=1.0), grid, model=model)

    def test_long_trajectory_chunks_its_contraction(self, monkeypatch):
        # At most two lead rows of B = 32 per contraction of M = 3 blocks:
        # the chunk term of the chain tables shrinks to 2 x 3 x 2 x 32 / 5
        # rows, and they fit in a budget of just the 1001-row trajectory
        # table.
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 2 * 3 * 32)
        grid = TimeGrid(t_end=10.0, dt=0.01, sample_stride=1)
        reference = integrate(WalkConfig(n=5, gamma=1.0), grid, keep_states=True)
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", 1001 * 8 * 5)
        series = integrate(WalkConfig(n=5, gamma=1.0), grid)
        np.testing.assert_allclose(series.dists, reference.dists, rtol=0, atol=1e-13)


class TestDiagonalPropagator:
    def test_matches_exact_evolve(self):
        config = WalkConfig(n=6, gamma=0.8)
        prop = DiagonalPropagator(config)
        assert prop.mode == "eig"
        for t in (0.0, 1.7, 25.0, 400.0):
            np.testing.assert_allclose(
                prop.distribution(t), exact_evolve(config, t).diagonal(), atol=1e-10
            )

    def test_grid_evaluation_matches_pointwise(self):
        config = WalkConfig(n=5, gamma=2.0)
        prop = DiagonalPropagator(config)
        times = np.linspace(0.0, 40.0, 17)
        grid = prop.distributions(times)
        pointwise = np.array([prop.distribution(float(t)) for t in times])
        np.testing.assert_allclose(grid, pointwise, atol=1e-12)

    def test_undamped_generator_is_normal_enough(self):
        prop = DiagonalPropagator(WalkConfig(n=7, gamma=0.0))
        assert prop.mode == "eig"
        np.testing.assert_allclose(prop.distribution(0.0), initial_state(WalkConfig(n=7)).diagonal(), atol=1e-12)

    def test_agreement_gate(self):
        # Both models, n = 3..16, gamma from 0 to 100: the block route
        # matches the dense exponential to 1e-12.
        worst = 0.0
        for model in ("s-literal", "rho"):
            for n in range(3, 17):
                for gamma in (0.0, 1e-3, 0.05, 0.3, 1.0, 10.0, 100.0):
                    config = WalkConfig(n=n, gamma=gamma)
                    prop = DiagonalPropagator(config, model)
                    for t in (0.0, 1.0, 40.0):
                        oracle = np.real(exact_evolve(config, t, model).diagonal())
                        worst = max(worst, np.abs(prop.distribution(t) - oracle).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_exceptional_point_falls_back_to_expm(self, model):
        # At n=4, gamma=1 block s=1 is defective: double root -1/2.
        config = WalkConfig(n=4, gamma=1.0)
        prop = DiagonalPropagator(config, model)
        assert prop.mode == "expm"
        times = np.array([0.0, 0.5, 3.0, 40.0])
        oracle = np.array([np.real(exact_evolve(config, t, model).diagonal()) for t in times])
        np.testing.assert_allclose(prop.distributions(times), oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prop.distribution(3.0), oracle[2], rtol=0, atol=1e-12)

    def test_never_builds_the_dense_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense generator built")

        monkeypatch.setattr(evolution, "build_full_operator", refuse)
        prop = DiagonalPropagator(WalkConfig(n=100, gamma=0.5))
        assert abs(prop.distribution(10.0).sum() - 1.0) <= 1e-12

    def test_rejects_negative_times(self):
        prop = DiagonalPropagator(WalkConfig(n=5, gamma=0.5))
        with pytest.raises(ValueError):
            prop.distribution(-1.0)
        with pytest.raises(ValueError):
            prop.distributions(np.array([0.0, -1.0]))

    @pytest.mark.parametrize("gamma", [1e-30, 1e-300, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_mode_sum_raises(self, gamma):
        # Every block falls back to expm, whose exponential overflows long
        # before the distribution mixes; the distance must not read NaN.
        prop = DiagonalPropagator(WalkConfig(n=5, gamma=gamma))
        assert len(prop._modes.dense) == 2
        with pytest.raises(evolution.IntegrationError,
                           match=r"^mode sum is not finite at t=4\.88281e\+28$"):
            prop.distributions(np.linspace(0.0, 1e32, 2049))
        with pytest.raises(evolution.IntegrationError,
                           match=r"^mode sum is not finite at t=1e\+30$"):
            prop.distributions(np.array([0.0, 1e30, 2e30]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_mode_block_raises(self):
        # The rates-and-amplitudes blocks of the perturbative route share the check.
        modes = evolution.ModeSum(4, np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(evolution.IntegrationError,
                           match=r"^mode sum is not finite at t=1000$"):
            modes.distributions(np.array([0.0, 1.0, 1000.0]))


def _size_groups(n, model):
    """The merged blocks of each size: {size: (s values, beta (G, k), counts (G, k))}."""
    rates = {s: evolution._block_rates(n, s, model) for s in range(1, n // 2 + 1)}
    groups = {}
    for s, (beta, counts) in rates.items():
        groups.setdefault(beta.size, []).append((s, beta, counts))
    return {size: ([s for s, _, _ in group], np.array([b for _, b, _ in group]),
                   np.array([c for _, _, c in group]))
            for size, group in groups.items()}


def _per_block(found):
    """_block_modes' (roots, amplitudes, trusted) as (roots, amplitudes) or None per block."""
    z, amp, trusted = found
    return [(z[g], amp[g]) if ok else None for g, ok in enumerate(trusted)]


def _mode_tables(prop):
    """The bytes of every table a propagator's mode sum holds."""
    modes = prop._modes
    return (modes._rates.tobytes(), modes._amps.tobytes(),
            [(row, block.tobytes(), root.tobytes()) for row, block, root in modes.dense])


class TestStackedBlockModes:
    """_block_modes on a stack of equal-size blocks against each block alone."""

    @pytest.mark.parametrize("gamma", [1e-3, 0.1957, 1.0, 3.0])
    @pytest.mark.parametrize("n", [4, 10, 20, 64])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_stack_equals_each_block_alone(self, model, n, gamma):
        groups = _size_groups(n, model)
        assert len(groups) <= 2  # split by the parity of s
        for s_values, beta, counts in groups.values():
            stacked = _per_block(evolution._block_modes(beta, counts, gamma, n))
            assert len(stacked) == len(s_values)
            for g, found in enumerate(stacked):
                alone = _per_block(evolution._block_modes(beta[g:g + 1], counts[g:g + 1],
                                                          gamma, n))[0]
                assert (found is None) == (alone is None)
                if found is not None:
                    assert [x.tobytes() for x in found] == [x.tobytes() for x in alone]

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_untrusted_block_leaves_its_group_in_mode_form(self, model):
        # At n = 64, gamma = 0.1957 only block s = 4 is untrusted, and it
        # shares its size with the other 15 even blocks.
        s_values, beta, counts = _size_groups(64, model)[33]
        assert 4 in s_values and len(s_values) == 16
        found = _per_block(evolution._block_modes(beta, counts, 0.1957, 64))
        assert [s for s, modes in zip(s_values, found) if modes is None] == [4]
        prop = DiagonalPropagator(WalkConfig(n=64, gamma=0.1957), model)
        assert [row + 1 for row, _, _ in prop._modes.dense] == [4]

    @pytest.mark.parametrize("entries", [1, evolution._SECULAR_TABLES * 3 * 33 * 34 + 1])
    @pytest.mark.parametrize("n, gamma, model", [(20, 0.3, "rho"), (64, 0.1957, "s-literal"),
                                                 (4, 1.0, "s-literal")])
    def test_chunk_size_changes_no_table(self, monkeypatch, n, gamma, model, entries):
        # One block per group, or three at n = 64 with a short last group.
        config = WalkConfig(n=n, gamma=gamma)
        want = _mode_tables(DiagonalPropagator(config, model))
        calls = []
        real = evolution._block_modes

        def counted(beta, counts, *args):
            calls.append(beta.shape[0])
            return real(beta, counts, *args)

        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(evolution, "_block_modes", counted)
        assert _mode_tables(DiagonalPropagator(config, model)) == want
        assert sum(calls) == n // 2
        if entries == 1:
            assert set(calls) == {1}
        elif n == 64:
            assert max(calls) == 3

    def test_gamma_stack_equals_each_gamma_alone(self):
        # The default grid, plus the exceptional points n = 4 at gamma = 1
        # and n = 64 at sin(4 pi / 64), where block s = 4 falls back (n = 64
        # beside one grid point only, to keep the one-gamma solves short).
        grid = sweep.default_gamma_grid()
        sizes = [(n, grid) for n in (3, 4, 5, 6, 7, 8, 12, 16, 20, 21, 32)]
        sizes[1] = (4, np.sort(np.append(grid, 1.0)))
        sizes.append((64, np.array([np.sin(4 * np.pi / 64), grid[16]])))
        cases = fallbacks = 0
        for model in ("s-literal", "rho"):
            for n, gammas in sizes:
                stacked = evolution.secular_mode_sums(n, gammas, model)
                assert len(stacked) == gammas.size
                for gamma, modes in zip(gammas, stacked):
                    alone = DiagonalPropagator(WalkConfig(n=n, gamma=float(gamma)), model)
                    assert _mode_tables(alone) == _mode_tables(DiagonalPropagator(
                        WalkConfig(n=n, gamma=float(gamma)), model, modes=modes))
                    cases += 1
                    fallbacks += len(modes.dense)
        assert cases == 2 * (11 * 25 + 1 + 2)
        assert fallbacks >= 4  # n = 4 at gamma = 1 and n = 64 at sin(4 pi / 64), both models

    def test_undamped_rows_in_a_damped_stack(self):
        # gamma = 0 rows keep their poles and counts beside damped rows.
        stacked = evolution.secular_mode_sums(7, [0.0, 0.3, 0.0, 2.0])
        for gamma, modes in zip((0.0, 0.3, 0.0, 2.0), stacked):
            alone = evolution.secular_mode_sums(7, [gamma])[0]
            assert modes._rates.tobytes() == alone._rates.tobytes()
            assert modes._amps.tobytes() == alone._amps.tobytes()


def _spy_lags(patch):
    """The lag.size of every ModeSum._sums call made while patch holds."""
    sizes = []
    real = evolution.ModeSum._sums

    def spy(self, lead, lag, size):
        sizes.append(lag.size)
        return real(self, lead, lag, size)

    patch.setattr(evolution.ModeSum, "_sums", spy)
    return sizes


def _grid_and_pointwise(monkeypatch, modes, times, stride=1):
    """modes.distributions on a grid, checked to take the grid split, and
    every stride-th time on its own."""
    with monkeypatch.context() as patch:
        lags = _spy_lags(patch)
        grid = modes.distributions(times)
    assert lags and all(size > 1 for size in lags)
    pointwise = np.array([modes.distributions(np.array([t]))[0] for t in times[::stride]])
    return grid[::stride], pointwise


def _mixing_grid(config):
    return np.linspace(0.0, mixing.default_horizon(config, 0.01), mixing.GRID_INTERVALS + 1)


class TestModeSumGrid:
    """ModeSum's uniform-grid split against its one-point-lag split."""

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_propagator_matches_pointwise(self, monkeypatch, n, model):
        config = WalkConfig(n=n, gamma=0.3)
        prop = DiagonalPropagator(config, model)
        assert prop.mode == "eig"
        grid, pointwise = _grid_and_pointwise(monkeypatch, prop, _mixing_grid(config))
        assert np.abs(grid - pointwise).max() <= 1e-13

    def test_perturbative_kernel_matches_pointwise(self, monkeypatch):
        config = WalkConfig(n=64, gamma=1e-4)
        grid, pointwise = _grid_and_pointwise(
            monkeypatch, spectral._PerturbativeKernel(config), _mixing_grid(config))
        assert np.abs(grid - pointwise).max() <= 1e-13

    @pytest.mark.parametrize("n, gamma, stride", [(4, 1.0, 1), (64, 0.1957, 16)])
    def test_expm_fallback_matches_pointwise(self, monkeypatch, n, gamma, stride):
        # n = 4, gamma = 1 is defective at s = 1; at n = 64, gamma = 0.1957
        # the roots of block s = 4 (33 merged modes) are not trusted.
        config = WalkConfig(n=n, gamma=gamma)
        prop = DiagonalPropagator(config)
        assert prop.mode == "expm"
        grid, pointwise = _grid_and_pointwise(monkeypatch, prop, _mixing_grid(config), stride)
        assert np.abs(grid - pointwise).max() <= 1e-13

    @pytest.mark.parametrize("case", ["shuffled", "offset", "nudged", "one time", "two times"])
    def test_other_times_take_the_direct_path(self, monkeypatch, case):
        prop = DiagonalPropagator(WalkConfig(n=12, gamma=0.3))
        grid = np.linspace(0.0, 500.0, 257)
        nudged = grid.copy()
        nudged[100] = np.nextafter(nudged[100], np.inf)
        times = {
            "shuffled": np.random.default_rng(4).permutation(grid),
            "offset": np.linspace(1.0, 501.0, 257),
            "nudged": nudged,
            "one time": grid[100:101],
            "two times": grid[100:102],
        }[case]
        with monkeypatch.context() as patch:
            lags = _spy_lags(patch)
            got = prop.distributions(times)
        assert lags == [1]
        want = np.array([prop.distributions(np.array([t]))[0] for t in times])
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("entries", [1, 600])
    @pytest.mark.parametrize("on_grid", [True, False])
    def test_chunk_size_changes_nothing(self, monkeypatch, on_grid, entries):
        times = np.linspace(0.0, 300.0, 2049)
        if not on_grid:
            times = times[::-1].copy()
        for config, model in ((WalkConfig(n=20, gamma=0.3), "rho"),
                              (WalkConfig(n=4, gamma=1.0), "s-literal")):
            prop = DiagonalPropagator(config, model)
            want = prop.distributions(times)
            with monkeypatch.context() as patch:
                patch.setattr(evolution, "_CHUNK_ENTRIES", entries)
                lags = _spy_lags(patch)
                got = prop.distributions(times)
            assert len(lags) == 1 and (lags[0] > 1) == on_grid
            assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_memory_is_bounded_by_the_chunk(self, monkeypatch, on_grid):
        # Setup and evaluation at n = 128 with 64 KiB temporaries, beyond
        # the output: measured 0.53 MiB.  An n x N^2/4 weight table alone
        # would take 8.5 MB.
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 4096)
        config = WalkConfig(n=128, gamma=3.0)
        times = _mixing_grid(config)
        if not on_grid:
            times = times[:300][::-1].copy()
        tracemalloc.start()
        try:
            out = DiagonalPropagator(config).distributions(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1 << 20


def _phase_table_sum(n, rates, amps, dense, times):
    """1/N + Re sum_s c_s omega^(s j) f_s(t), c_s = 2/N^2 (1/N^2 at s = N/2),
    summed term by term through the n x S phase table: the reference combine."""
    s = np.arange(1, rates.shape[0] + 1)
    scale = np.where(2 * s == n, 1.0, 2.0) / n**2
    phase = scale[:, None] * np.exp(2j * np.pi * np.outer(s, np.arange(n)) / n)
    rows = []
    for t in times:
        f = (amps * np.exp(rates * t)).sum(axis=1)
        for row, block, root in dense:
            f[row] = root @ scipy.linalg.expm(t * block) @ root
        rows.append(1.0 / n + (f @ phase).real)
    return np.array(rows)


def _random_tables(n, seed, rows="all"):
    """Decaying S x 3 rate and amplitude tables; rows="last" keeps only row S."""
    rng = np.random.default_rng(seed)
    shape = (n // 2, 3)
    rates = -rng.uniform(0.05, 1.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if rows == "last":
        amps[:-1] = 0.0
    return rates, amps


_COMBINE_TIMES = {
    "grid": np.linspace(0.0, 12.0, 50),  # lead x lag, B = 8
    "other": np.array([0.0, 0.3, 7.1, 2.0]),  # lead = times, lag = [0]
}


class TestModeSumCombine:
    """ModeSum's inverse real FFT against the phase-table sum it replaces."""

    @pytest.mark.parametrize("times", sorted(_COMBINE_TIMES))
    @pytest.mark.parametrize("rows", ["all", "last"])
    @pytest.mark.parametrize("n", [7, 8, 3, 4])
    def test_matches_the_phase_table(self, n, rows, times):
        # Even n puts the s = N/2 row, of weight 1/N^2, last.
        rates, amps = _random_tables(n, seed=n, rows=rows)
        ts = _COMBINE_TIMES[times]
        got = evolution.ModeSum(n, rates, amps).distributions(ts)
        want = _phase_table_sum(n, rates, amps, [], ts)
        assert np.abs(got - want).max() <= 1e-14
        if rows == "last":
            assert np.abs(want - 1.0 / n).max() > 1e-3  # the row is seen

    @pytest.mark.parametrize("entries", [1, 40])
    @pytest.mark.parametrize("times", sorted(_COMBINE_TIMES))
    def test_chunked_call_matches_the_phase_table(self, monkeypatch, times, entries):
        # One lead row and one block per chunk, or a few of each.
        rates, amps = _random_tables(10, seed=3)
        ts = _COMBINE_TIMES[times]
        whole = evolution.ModeSum(10, rates, amps).distributions(ts)
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", entries)
        with monkeypatch.context() as patch:
            lags = _spy_lags(patch)
            got = evolution.ModeSum(10, rates, amps).distributions(ts)
        assert (lags[0] > 1) == (times == "grid")
        assert np.abs(got - whole).max() <= 1e-15
        assert np.abs(got - _phase_table_sum(10, rates, amps, [], ts)).max() <= 1e-14

    @pytest.mark.parametrize("times", sorted(_COMBINE_TIMES))
    @pytest.mark.parametrize("n, row", [(8, 3), (8, 1), (9, 2)])
    def test_expm_block_matches_the_phase_table(self, n, row, times):
        # A complex symmetric block in row s - 1 (s = N/2 at n = 8, row 3),
        # whose table row is zero.
        rng = np.random.default_rng(row)
        rates, amps = _random_tables(n, seed=n)
        amps[row] = 0.0
        block = random_symmetric(rng, 3).astype(complex) - 3.0 * np.eye(3)
        block += 1j * np.diag(rng.uniform(-1.0, 1.0, 3))
        root = np.sqrt(np.array([1.0, 2.0, 2.0]))
        modes = evolution.ModeSum(n, rates, amps, [(row, block, root)])
        assert modes._envelope is None
        ts = _COMBINE_TIMES[times]
        want = _phase_table_sum(n, rates, amps, [(row, block, root)], ts)
        assert np.abs(modes.distributions(ts) - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [3, 8, 49, 98, 103])
    def test_uniform_term_is_exact(self, n):
        # Column 0 of the half spectrum is 1 exactly, also where
        # n * (1/n) rounds below 1 (n = 49, 98, 103).
        zeros = np.zeros((n // 2, 2))
        got = evolution.ModeSum(n, zeros, zeros).distributions(np.array([0.0, 5.0]))
        assert np.array_equal(got, np.full((2, n), 1.0 / n))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0, 30.0])
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_propagator_starts_at_vertex_zero(self, model, gamma):
        # Column 0 of the half spectrum is exactly 1 and the blocks add up
        # to N within the secular tolerance, so t = 0 gives delta_0 to
        # about 2 ulp.  Near an exceptional point (gamma = 1 at small n)
        # the amplitudes cancel and the error grows with them.
        for n in (5, 6, 12, 20, 64):
            start = np.zeros(n)
            start[0] = 1.0
            got = DiagonalPropagator(WalkConfig(n=n, gamma=gamma), model).distribution(0.0)
            assert np.abs(got - start).max() <= 4.5e-16


class TestDenseSizeGuard:
    """RK4 mixing routes refuse n > MAX_DENSE_N before any work starts;
    integrate runs above it, the default sweep method turns to `exact`
    there, and no RK4 route builds an N^2 x N^2 array."""

    @pytest.fixture(autouse=True)
    def refuse_dense_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense generator built")

        monkeypatch.setattr(evolution, "build_full_operator", refuse)
        monkeypatch.setattr(mixing, "build_full_operator", refuse)

    def test_integrate(self):
        worst = 0.0
        for model in ("s-literal", "rho"):
            for gamma in (0.1, 10.0):
                config = WalkConfig(n=68, gamma=gamma)
                series = integrate(config, TimeGrid(t_end=2.0), model=model)
                expected = DiagonalPropagator(config, model).distributions(series.times)
                worst = max(worst, np.abs(series.dists - expected).max())
        assert worst <= 1e-8

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_integrate_refuses_a_stencil_working_set_over_budget(self, monkeypatch, model):
        def refuse(*args, **kwargs):
            raise AssertionError("a stencil step was built")

        monkeypatch.setattr(evolution, "stencil_step", refuse)
        n = evolution.STENCIL_MIN_N
        state_bytes = n * n * (16 if model == "rho" else 8)
        # Room for the 21-row output table, not for twelve N x N arrays.
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", 11 * state_bytes)
        with pytest.raises(ValueError, match="stencil working set of"):
            integrate(WalkConfig(n=n, gamma=1.0), TimeGrid(t_end=2.0), model=model)
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", 12 * state_bytes)
        with pytest.raises(AssertionError, match="stencil step"):
            integrate(WalkConfig(n=n, gamma=1.0), TimeGrid(t_end=2.0), model=model)

    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    def test_integrate_refuses_step_blocks_over_budget(self, monkeypatch, model):
        def refuse(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(evolution, "generator_blocks", refuse)
        # Six complex 35 x 68 x 68 tables, whatever the picture.
        tables = 6 * 16 * 35 * 68**2
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", tables - 1)
        with pytest.raises(ValueError, match="RK4 step blocks of"):
            integrate(WalkConfig(n=68, gamma=1.0), TimeGrid(t_end=2.0), model=model)
        monkeypatch.setattr(evolution, "MAX_TABLE_BYTES", tables)
        with pytest.raises(AssertionError, match="a block was built"):
            integrate(WalkConfig(n=68, gamma=1.0), TimeGrid(t_end=2.0), model=model)

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    def test_stepped_mixing_time(self, method):
        with pytest.raises(ValueError, match="n <= 64"):
            mixing.mixing_time(WalkConfig(n=65, gamma=1.0), 0.01, method=method)

    @pytest.mark.parametrize("method", ["s-literal", "rho"])
    def test_sweep_is_refused_before_any_point(self, method):
        with pytest.raises(ValueError, match="n <= 64"):
            sweep.sweep_gamma(65, gammas=np.array([0.1, 1.0]), method=method)

    def test_transition_checks_every_size_first(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was measured")

        monkeypatch.setattr(sweep, "mixing_time", refuse)
        with pytest.raises(ValueError, match="n <= 64"):
            sweep.transition_report([5, 65], gammas=np.array([0.1, 1.0]), method="s-literal")

    def test_default_method_above_the_guard_is_exact(self):
        assert sweep.default_method(evolution.MAX_DENSE_N) == "s-literal"
        assert sweep.default_method(evolution.MAX_DENSE_N + 1) == "exact"
        result = sweep.sweep_gamma(65, gammas=np.array([0.1, 1.0]))
        assert result.method == "exact"
        assert all(point.converged for point in result.points)

    def test_cli_default_sweep_runs_above_the_guard(self, capsys):
        assert main(["sweep", "--n", "65", "--points", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "# n=65 eps=0.01 method=exact " in captured.out
        rows = captured.out.split("gamma,t_mix,converged\n")[1].splitlines()
        assert [row.split(",")[0] for row in rows] == ["0.001", "100"]
        assert all(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "65", "--points", "3", "--method", "s-literal"],
        ["transition", "--ns", "5,65", "--points", "3", "--method", "rho"],
    ])
    def test_cli_exits_with_the_reason(self, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was measured")

        monkeypatch.setattr(sweep, "mixing_time", refuse)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n <= 64" in captured.err


class TestModeSumSizeGuard:
    """Mode-sum routes refuse n > MAX_MODESUM_N before any block is built."""

    @pytest.fixture(autouse=True)
    def refuse_blocks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(evolution, "_block_modes", refuse)
        monkeypatch.setattr(evolution, "_block_rates", refuse)
        monkeypatch.setattr(spectral, "_block_rates", refuse)
        monkeypatch.setattr(sweep, "mixing_time", refuse)

    def test_propagator(self):
        with pytest.raises(ValueError, match="n <= 512"):
            DiagonalPropagator(WalkConfig(n=513, gamma=1.0))

    def test_perturbative_kernel(self):
        with pytest.raises(ValueError, match="n <= 512"):
            spectral._PerturbativeKernel(WalkConfig(n=513, gamma=1e-3))

    @pytest.mark.parametrize("method", ["exact", "perturbative"])
    def test_sweep_is_refused_before_any_point(self, method):
        with pytest.raises(ValueError, match="n <= 512"):
            sweep.sweep_gamma(513, gammas=np.array([0.1, 1.0]), method=method)

    def test_transition_checks_every_size_first(self):
        with pytest.raises(ValueError, match="n <= 512"):
            sweep.transition_report([5, 513], gammas=np.array([0.1, 1.0]), method="exact")

    @pytest.mark.parametrize("argv", [
        ["mixing", "--n", "513", "--gamma", "1"],
        ["mixing", "--n", "513", "--gamma", "1e-3", "--method", "perturbative"],
        ["sweep", "--n", "513", "--method", "exact", "--points", "3"],
    ])
    def test_cli_exits_with_the_reason(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n <= 512" in captured.err
