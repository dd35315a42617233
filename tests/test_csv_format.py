"""Trajectory tables print through one vectorised kernel, byte-identical to %.17g."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from decowalk import cli
from decowalk.evolution import TimeGrid, integrate
from decowalk.model import WalkConfig
from decowalk.spectral import unitary_distribution

COLS = 64  # corpus values are printed as rows of this many cells
BLOCK = 1 << 15  # and in tables of at most this many cells
# m / 2**17 with m odd lies in (1, 10), where its 17th digit is an exact half.
TIES = np.arange(2 ** 17 + 1, 10 * 2 ** 17, 2) / 2 ** 17


def _mismatches(values) -> list[tuple[float, str, str]]:
    """(value, kernel text, _fmt text) for every value the kernel prints otherwise."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % COLS)])
    found = []
    for start in range(0, values.size, BLOCK):
        block = values[start:start + BLOCK]
        cells = cli._csv_rows(block.reshape(-1, COLS)).replace("\n", ",").split(",")[:-1]
        found += [(v, got, cli._fmt(v)) for v, got in zip(block.tolist(), cells)
                  if got != cli._fmt(v)]
    return found


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])


@pytest.mark.filterwarnings("error")
class TestKernelCorpus:
    """Zero mismatches against format(x, ".17g") on cells chosen to break it."""

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -10, 2.0 ** -30])
    def test_short_binary_fractions(self, scale):
        assert _mismatches(TIES * scale) == []

    def test_ties_are_left_to_fmt(self):
        # The vectorised route's 5e-15 error could round a tie either way.
        assert not cli._decimal(TIES)[2].any()

    def test_powers_of_ten_and_neighbours(self):
        values = _powers_of_ten()
        assert _mismatches(np.concatenate([values, -values])) == []

    def test_special_values(self):
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, -1e-310,
                  np.finfo(float).max, -np.finfo(float).max, 1e-280, 1e280, 9.9999999999999997e-29]
        assert _mismatches(values) == []

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        assert _mismatches(bits.view(float)) == []

    def test_round_off_negatives(self):
        # The RK4 round-off values that evolve prints next to the probabilities.
        rng = np.random.default_rng(1)
        values = -rng.random(100_000) * 10.0 ** rng.integers(-20, -15, 100_000)
        assert _mismatches(values) == []

    def test_short_digit_strings(self):
        # Few significant digits: the point, or a whole mantissa, is dropped.
        values = np.arange(1, 1000)[:, None] * 10.0 ** np.arange(-8, 25)
        assert _mismatches(np.concatenate([values.ravel(), -values.ravel()])) == []

    def test_every_fixed_and_scientific_layout(self):
        rng = np.random.default_rng(2)
        values = rng.random(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
        values *= rng.choice([-1.0, 1.0], values.size)
        assert _mismatches(values) == []
        assert _mismatches(0.01 * np.arange(100_000)) == []


def _capture(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _per_row_template(times, dists) -> str:
    """The rows as the per-row "%.17g" template printed them before the kernel."""
    row = ",".join(["%.17g"] * (dists.shape[1] + 1))
    return "".join(row % (t, *p) + "\n" for t, p in zip(times.tolist(), dists.tolist()))


def _body(text: str) -> str:
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("time,")) + 1
    return "".join(lines[start:])


class TestCommandOutput:
    @pytest.mark.parametrize("model", ["s-literal", "rho"])
    @pytest.mark.parametrize("gamma", [0.1, 10.0])
    def test_evolve_prints_the_template_rows(self, model, gamma):
        # The benchmark's four n = 40 trajectories.
        series = integrate(WalkConfig(n=40, gamma=gamma), TimeGrid(t_end=50.0, dt=0.01,
                                                                     sample_stride=10), model=model)
        text = _capture(["evolve", "--n", "40", "--t-max", "50", "--gamma", str(gamma),
                         "--model", model])
        assert _body(text) == _per_row_template(series.times, series.dists)

    def test_unitary_prints_the_template_rows(self):
        times = np.arange(401) * 0.05
        dists = np.array([unitary_distribution(17, float(t)) for t in times])
        text = _capture(["unitary", "--n", "17", "--t-max", "20", "--dt", "0.05"])
        assert _body(text) == _per_row_template(times, dists)


class TestChunks:
    ARGV = ["evolve", "--n", "6", "--gamma", "0.4", "--t-max", "30", "--stride", "3"]

    @pytest.mark.parametrize("cells", [1, 7, 50, 701])
    def test_chunked_render_equals_one_chunk(self, monkeypatch, cells):
        whole = _capture(self.ARGV)
        monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
        assert _capture(self.ARGV) == whole

    def test_text_is_written_chunk_by_chunk(self, monkeypatch):
        # 1001 rows of 7 cells in chunks of 10 rows: the header, then 101 writes,
        # none holding more than its chunk.
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        monkeypatch.setattr(cli, "_CHUNK_CELLS", 70)
        out = Recorder()
        with contextlib.redirect_stdout(out):
            assert cli.main(self.ARGV) == 0
        assert len(writes) == 1 + 101
        assert max(writes[1:]) <= 10 * 7 * 25
        assert out.getvalue() == _capture(self.ARGV)

    @pytest.mark.parametrize("cells", [1, 7, 20, 21, 22])
    def test_a_row_wider_than_a_chunk_prints_in_pieces(self, monkeypatch, cells):
        # 21 cells a row: pieces of at most `cells` cells, the same bytes.
        times = np.array([0.0, 0.25, 1e-300])
        dists = np.random.default_rng(5).standard_normal((3, 20))
        whole = cli._csv_rows(np.column_stack((times, dists)))
        monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
        pieces = list(cli._trajectory_rows(times, dists))
        assert "".join(pieces) == whole
        assert len(pieces) == (3 * -(-21 // cells) if cells < 21 else -(-3 // (cells // 21)))
        assert max(piece.count(",") + piece.count("\n") for piece in pieces) <= cells

    def test_wide_rows_hold_one_chunk_at_a_time(self):
        # Three rows of 200001 cells once printed as one chunk each, at a
        # traced peak of about three chunks of 2**16 cells of narrow rows.
        rng = np.random.default_rng(6)

        def peak(times, dists):
            tracemalloc.start()
            try:
                for _ in cli._trajectory_rows(times, dists):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        narrow = peak(np.arange(2048.0), rng.random((2048, 63)))  # two whole chunks
        wide = peak(np.arange(3.0), rng.random((3, 200000)))
        assert wide <= 1.5 * narrow

    def test_benchmark_table_is_one_chunk(self):
        times = np.arange(501.0)
        assert len(list(cli._trajectory_rows(times, np.zeros((501, 40))))) == 1
