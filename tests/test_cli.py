"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from decowalk import cli, evolution, mixing, sweep
from decowalk.cli import main


def _read_rows(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestEvolve:
    def test_trajectory_file(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--n", "4", "--t-max", "1.0", "--output", str(out)])
        assert code == 0
        meta, header, rows = _read_rows(out)
        assert meta[0] == "# decowalk evolve"
        assert any(line.startswith("# defaults:") for line in meta)
        assert header == "time,p_0,p_1,p_2,p_3"
        assert len(rows) == 11
        first = [float(x) for x in rows[0]]
        assert first == [0.0, 1.0, 0.0, 0.0, 0.0]
        for row in rows:
            assert sum(float(x) for x in row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["evolve", "--n", "5", "--gamma", "0.7", "--t-max", "2.0"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_tiny_cycle(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--n", "2", "--t-max", "1.0", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_rows_print_every_entry_as_fmt(self):
        # The row template must print what cli._fmt prints, entry by entry,
        # for special values and for arbitrary bit patterns alike.
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e16, 1e17, -1.5e-300]
        bits = np.random.default_rng(0).integers(0, 2**63, size=60, dtype=np.uint64)
        dists = np.concatenate([special * 3, bits.view(float)]).reshape(9, 10)
        times = np.linspace(0.0, 8.0, 9)
        times[3] = -0.0
        text = cli._trajectory_csv(["# m"], times, dists)
        rows = text.splitlines()[3:]
        assert rows == [",".join(cli._fmt(x) for x in [t, *row]) for t, row in zip(times, dists)]


class TestUnitary:
    def test_closed_form_rows(self, tmp_path):
        out = tmp_path / "unitary.csv"
        assert main(["unitary", "--n", "4", "--t-max", "1.0", "--dt", "0.25",
                     "--output", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == "time,p_0,p_1,p_2,p_3"
        assert len(rows) == 5
        t, p0, _, p2, _ = (float(x) for x in rows[2])
        assert t == 0.5
        assert p0 == pytest.approx(np.cos(0.5) ** 4, abs=1e-12)
        assert p2 == pytest.approx(np.sin(0.5) ** 4, abs=1e-12)


class TestMixing:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "mixing.json"
        assert main(["mixing", "--n", "6", "--gamma", "1.0", "--eps", "0.05",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "mixing"
        assert payload["converged"] is True
        assert payload["t_mix"] > 0
        assert payload["horizon"] > 0
        assert payload["method"] == "exact"
        assert payload["defaults"]["mode"] == "sustained"

    def test_eps_two_crosses_immediately(self, tmp_path):
        out = tmp_path / "mixing2.json"
        assert main(["mixing", "--n", "5", "--gamma", "1.0", "--eps", "2.0",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["t_mix"] == 0.0
        assert payload["converged"] is True

    def test_rejects_eps_above_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["mixing", "--n", "5", "--gamma", "1.0", "--eps", "2.5",
                  "--output", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_negative_horizon_is_a_computation_error(self, tmp_path):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["mixing", "--n", "5", "--gamma", "1.0", "--horizon", "-5",
                         "--output", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in stderr.getvalue()


# Full stdout of cheap runs over both splits of the mode sum: the 2049-point
# grid, and single times (bisection midpoints, compare), each with and
# without an expm fallback block.  t_mix is printed to 17 digits, so a
# changed bisection decision shows here.
_GOLDEN = [
    # an expm fallback block: s = 1 is defective
    pytest.param(["mixing", "--n", "4", "--gamma", "1"], (
        '{\n'
        '  "bracket": 0.0008092201092608775,\n'
        '  "command": "mixing",\n'
        '  "converged": true,\n'
        '  "defaults": {\n'
        '    "eps": 0.01,\n'
        '    "gamma_grid": "25 log-spaced in [0.001,100.0]",\n'
        '    "mode": "sustained"\n'
        '  },\n'
        '  "eps": 0.01,\n'
        '  "gamma": 1.0,\n'
        '  "horizon": 424.26439264472606,\n'
        '  "method": "exact",\n'
        '  "mode": "sustained",\n'
        '  "n": 4,\n'
        '  "t_mix": 14.17429943383221\n'
        '}\n'
    ), id="mixing --n 4 --gamma 1"),
    # every block on its secular roots
    pytest.param(["mixing", "--n", "20", "--gamma", "0.3"], (
        '{\n'
        '  "bracket": 0.006069150819470792,\n'
        '  "command": "mixing",\n'
        '  "converged": true,\n'
        '  "defaults": {\n'
        '    "eps": 0.01,\n'
        '    "gamma_grid": "25 log-spaced in [0.001,100.0]",\n'
        '    "mode": "sustained"\n'
        '  },\n'
        '  "eps": 0.01,\n'
        '  "gamma": 0.3,\n'
        '  "horizon": 3181.9829448354453,\n'
        '  "method": "exact",\n'
        '  "mode": "sustained",\n'
        '  "n": 20,\n'
        '  "t_mix": 113.53560437972389\n'
        '}\n'
    ), id="mixing --n 20 --gamma 0.3"),
    # the first-order kernel
    pytest.param(["mixing", "--n", "12", "--gamma", "1e-4", "--method", "perturbative"], (
        '{\n'
        '  "bracket": 3.245579606220417,\n'
        '  "command": "mixing",\n'
        '  "converged": true,\n'
        '  "defaults": {\n'
        '    "eps": 0.01,\n'
        '    "gamma_grid": "25 log-spaced in [0.001,100.0]",\n'
        '    "mode": "sustained"\n'
        '  },\n'
        '  "eps": 0.01,\n'
        '  "gamma": 0.0001,\n'
        '  "horizon": 850809.220293131,\n'
        '  "method": "perturbative",\n'
        '  "mode": "sustained",\n'
        '  "n": 12,\n'
        '  "t_mix": 57333.16374388946\n'
        '}\n'
    ), id="mixing --n 12 --gamma 1e-4 --method perturbative"),
    # five exact mixing times and the optimum
    pytest.param(["sweep", "--n", "8", "--points", "5"], (
        '# decowalk sweep\n'
        '# n=8 eps=0.01 method=exact mode=sustained gamma_min=0.001 gamma_max=100 points=5\n'
        '# gamma_opt=0.31622776601683794 t_opt=21.673525774583702\n'
        '# defaults: eps=0.01 gamma_grid=25 log-spaced in [0.001,100.0] mode=sustained\n'
        'gamma,t_mix,converged\n'
        '0.001,6408.9422132639775,true\n'
        '0.017782794100389229,365.75474687360861,true\n'
        '0.31622776601683794,21.673525774583702,true\n'
        '5.6234132519034903,367.90521795547102,true\n'
        '100,6546.2669958854221,true\n'
    ), id="sweep --n 8 --points 5"),
    # an expm fallback at every bisection midpoint: block s = 4 (33 merged modes)
    pytest.param(["mixing", "--n", "64", "--gamma", "0.1957"], (
        '{\n'
        '  "bracket": 0.04054128009784108,\n'
        '  "command": "mixing",\n'
        '  "converged": true,\n'
        '  "defaults": {\n'
        '    "eps": 0.01,\n'
        '    "gamma_grid": "25 log-spaced in [0.001,100.0]",\n'
        '    "mode": "sustained"\n'
        '  },\n'
        '  "eps": 0.01,\n'
        '  "gamma": 0.1957,\n'
        '  "horizon": 21255.306659986665,\n'
        '  "method": "exact",\n'
        '  "mode": "sustained",\n'
        '  "n": 64,\n'
        '  "t_mix": 780.4196418852678\n'
        '}\n'
    ), id="mixing --n 64 --gamma 0.1957"),
    # one time on the exact and perturbative mode sums
    pytest.param(["compare", "--n", "7", "--gamma", "0.01", "--t", "40"], (
        '# decowalk compare\n'
        '# n=7 gamma=0.01 t=40\n'
        '# defaults: eps=0.01 gamma_grid=25 log-spaced in [0.001,100.0] mode=sustained\n'
        'vertex,p_exact,p_perturbative,p_large_gamma,err_perturbative,err_large_gamma\n'
        '0,0.043131430277991885,0.044805267188386108,0.14285714285714285,'
        '0.0016738369103942233,0.099725712579150971\n'
        '1,0.055708530734195967,0.057083173550056661,0.14285714285714285,'
        '0.0013746428158606938,0.087148612122946889\n'
        '2,0.042502179067365899,0.044306109581168568,0.14285714285714285,'
        '0.0018039305138026693,0.10035496378977696\n'
        '3,0.23931519960483652,0.24118912399137185,0.14285714285714285,'
        '0.0018739243865353306,0.096458056747693671\n'
        '4,0.35964064238015037,0.35410930141722041,0.14285714285714285,'
        '0.0055313409629299537,0.21678349952300752\n'
        '5,0.12116446692151382,0.1187454532199293,0.14285714285714285,'
        '0.0024190137015845242,0.021692675935629027\n'
        '6,0.13853755101394508,0.13976157105186704,0.14285714285714285,'
        '0.0012240200379219635,0.0043195918431977731\n'
    ), id="compare --n 7 --gamma 0.01 --t 40"),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv, expected", _GOLDEN)
    def test_stdout_is_unchanged(self, capsys, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestBounds:
    def test_frozen_values(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--n", "10", "--gamma", "10.0", "--eps", "0.01",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["t_lower"] == pytest.approx(627.43431306874777, rel=1e-12)
        assert payload["t_upper"] == pytest.approx(2651.6524540295377, rel=1e-12)
        assert payload["small_gamma_bound"] == pytest.approx(
            0.1 * np.log(1000.0) * 1.25, rel=1e-12
        )
        assert payload["t_lower_large_n_alt"] == pytest.approx(
            payload["t_lower_large_n"] / 2.0, rel=1e-12
        )

    def test_rejects_zero_gamma(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "10", "--gamma", "0", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestSweep:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "4", "--eps", "0.05", "--gamma-min", "0.05",
                     "--gamma-max", "5", "--points", "7", "--output", str(out)]) == 0
        meta, header, rows = _read_rows(out)
        assert header == "gamma,t_mix,converged"
        assert len(rows) == 7
        assert any(line.startswith("# gamma_opt=") for line in meta)
        gammas = [float(r[0]) for r in rows]
        assert gammas == sorted(gammas)
        assert all(r[2] == "true" for r in rows)

    def test_rejects_bad_grid(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "4", "--gamma-min", "5", "--gamma-max", "1",
                  "--output", str(tmp_path / "x")])
        assert exc.value.code == 2


MESSAGE = "horizon must be positive and finite, got nan"


def _fail_at_gamma_one(monkeypatch):
    real = sweep.mixing_time

    def flaky(config, *args, **kwargs):
        if config.gamma == 1.0:
            raise ValueError(MESSAGE)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(sweep, "mixing_time", flaky)


class TestFailedPoints:
    def test_sweep_prints_the_reason(self, tmp_path, monkeypatch):
        _fail_at_gamma_one(monkeypatch)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "4", "--gamma-min", "0.1", "--gamma-max", "10",
                     "--points", "3", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        failed = [line for line in lines if line.startswith("# failed")]
        assert failed == [f"# failed gamma=1 reason=ValueError: {MESSAGE}"]
        assert lines.index(failed[0]) == lines.index("gamma,t_mix,converged") - 1
        assert "1,nan,false" in lines

    def test_transition_names_the_size(self, tmp_path, monkeypatch):
        _fail_at_gamma_one(monkeypatch)
        out = tmp_path / "transition.csv"
        assert main(["transition", "--ns", "4,5", "--gamma-min", "0.1", "--gamma-max", "10",
                     "--points", "3", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line for line in lines if line.startswith("# failed")] == [
            f"# failed n={n} gamma=1 reason=ValueError: {MESSAGE}" for n in (4, 5)
        ]
        assert lines[lines.index("n,gamma,t_mix,converged") - 3].startswith("# defaults:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_names_an_unresolvable_point(self, tmp_path):
        # At gamma = 1e-30 and 1e-15 the rounding margin at the horizon is
        # not below eps: both points are refused before any grid row.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "5", "--points", "3", "--gamma-min", "1e-30",
                     "--gamma-max", "1", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line for line in lines if line.startswith("# failed")] == [
            f"# failed gamma={gamma} reason=ValueError: gamma={short} is past what the mode "
            f"sum resolves: at the horizon t={horizon} the rounding margin {margin} is not "
            f"below eps=0.01"
            for gamma, short, horizon, margin in (
                ("9.9999999999999991e-31", "1e-30", "1.03577e+32", "1.14e+13"),
                ("1.0000000000000001e-15", "1e-15", "1.03577e+17", "0.0114"))
        ]
        assert lines[-3:] == ["9.9999999999999991e-31,nan,false",
                              "1.0000000000000001e-15,nan,false",
                              "1,26.512073829694437,true"]

    def test_clean_sweep_has_no_failure_lines(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "4", "--points", "3", "--output", str(out)]) == 0
        assert not any(line.startswith("# failed") for line in out.read_text().splitlines())


class TestTransition:
    def test_multi_n_rows_and_slope_lines(self, tmp_path):
        out = tmp_path / "transition.csv"
        assert main(["transition", "--ns", "4,5", "--eps", "0.05", "--gamma-min", "0.02",
                     "--gamma-max", "20", "--points", "9", "--output", str(out)]) == 0
        meta, header, rows = _read_rows(out)
        assert header == "n,gamma,t_mix,converged"
        assert len(rows) == 18
        assert {r[0] for r in rows} == {"4", "5"}
        slope_lines = [m for m in meta if "small_slope=" in m]
        assert len(slope_lines) == 2

    def test_rejects_unparseable_ns(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transition", "--ns", "4,x", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestCompare:
    def test_error_columns_are_consistent(self, tmp_path):
        out = tmp_path / "compare.csv"
        assert main(["compare", "--n", "6", "--gamma", "10.0", "--t", "3.0",
                     "--output", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == (
            "vertex,p_exact,p_perturbative,p_large_gamma,err_perturbative,err_large_gamma"
        )
        assert len(rows) == 6
        for row in rows:
            exact, pert, large, err_p, err_l = (float(x) for x in row[1:])
            assert err_p == abs(pert - exact)
            assert err_l == abs(large - exact)

    def test_requires_positive_gamma(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--n", "6", "--gamma", "0", "--t", "1.0",
                  "--output", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestVerify:
    def test_report_is_clean(self, tmp_path):
        out = tmp_path / "verify.txt"
        assert main(["verify", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("PASS") for line in lines)
        assert any(line.startswith("INFO") for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)
        assert lines[-1].startswith("summary:")
        assert ", 0 failed" in lines[-1]


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_default_output_is_stdout(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["bounds", "--n", "8", "--gamma", "5.0"])
        assert code == 0
        payload = json.loads(stdout.getvalue())
        assert payload["command"] == "bounds"

    def test_one_parser_serves_every_call(self, monkeypatch):
        # main builds its parser at its first call and reuses it: a run of
        # subcommands, a usage error among them, prints and exits as the
        # same run does with a fresh parser per call.
        runs = [
            "bounds --n 8 --gamma 5.0",
            "mixing --n 6 --gamma 1 --eps 3",
            "evolve --n 4 --gamma 0.5 --t-max 0.2",
            "mixing --n 6 --gamma 1 --method s-literal",
            "frobnicate",
            "bounds --n 8 --gamma 5.0",
        ]
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        reused = [_run(argv.split()) for argv in runs]
        assert len(built) == 1
        fresh = []
        for argv in runs:
            cli._parser.cache_clear()
            fresh.append(_run(argv.split()))
        assert len(built) == 1 + len(runs)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 0, 2, 0]

    def test_import_builds_no_parser(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        probe = "import decowalk.cli as c; print(c._parser.cache_info().currsize)"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "0\n"


def _run(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# Each input with the name its error message must give.
REFUSED = [
    ("compare --n 5 --gamma 1 --t nan", "t"),
    ("compare --n 5 --gamma 1 --t inf", "t"),
    ("bounds --n 10 --gamma nan", "gamma"),
    ("bounds --n 10 --gamma inf", "gamma"),
    ("unitary --n 4 --t-max inf", "t_max"),
    ("unitary --n 3 --t-max 1 --dt 2", "dt"),
    ("evolve --n 4 --t-max inf", "t_max"),
    ("sweep --n 5 --points 3 --gamma-max inf", "gamma_max"),
    ("transition --ns 5 --gamma-max inf", "gamma_max"),
]


class TestRefusedInputs:
    @pytest.mark.parametrize("argv, name", REFUSED, ids=[a for a, _ in REFUSED])
    def test_out_of_domain_flag_is_a_usage_error(self, argv, name):
        code, stdout, stderr = _run(argv.split())
        assert code == 2
        assert f"error: {name} must" in stderr
        assert stdout == ""

    def test_json_never_carries_infinity(self):
        # gamma = 1e308 is valid, but the diffusive bounds overflow.
        code, stdout, stderr = _run(["bounds", "--n", "10", "--gamma", "1e308"])
        assert code == 1
        assert stderr.startswith("error: t_lower is inf")
        assert stdout == ""

    def test_non_finite_exponential_is_a_computation_error(self):
        # t = 1e300 is a valid time, but expm of t*G is not finite.
        code, stdout, stderr = _run("compare --n 5 --gamma 1 --t 1e300".split())
        assert code == 1
        assert stderr == "error: dense exponential is not finite at t=1e+300\n"
        assert stdout == ""

    @pytest.mark.parametrize("gamma, horizon, margin", [
        ("1e-30", "1.03577e+32", "1.14e+13"), ("1e-300", "1.03577e+302", "1.14e+283"),
        ("1e+300", "6.62913e+302", "inf"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unresolvable_mode_sum_is_refused(self, gamma, horizon, margin):
        # Valid gammas whose horizon no mode sum resolves: the rounding
        # margin of the exponents z t there is not below eps, so the search
        # is refused before any grid row, with the error line all that
        # reaches stderr (no overflow warning).
        code, stdout, stderr = _run(["mixing", "--n", "5", "--gamma", gamma])
        assert code == 1
        assert stderr == (f"error: gamma={gamma} is past what the mode sum resolves: at the "
                          f"horizon t={horizon} the rounding margin {margin} is not below "
                          f"eps=0.01\n")
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        "evolve --n 4 --t-max 1e300 --dt 1e-10",  # the step count overflows
    ])
    def test_overflowing_step_count_is_a_computation_error(self, argv):
        code, stdout, stderr = _run(argv.split())
        assert code == 1
        assert "overflows the step count" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("method", ["exact", "s-literal", "rho"])
    def test_mixing_takes_no_step(self, method):
        # Every mixing method is a mode sum: no step size to choose.
        code, stdout, stderr = _run(f"mixing --n 6 --gamma 1 --method {method} --dt 0.01".split())
        assert code == 2
        assert "error: unrecognized arguments: --dt 0.01" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        "evolve --n 4 --t-max 1e9",  # 1e10 rows of 4 doubles
        "unitary --n 1000000 --t-max 200",  # 4001 rows of 1e6 doubles
        # The 2049-row mixing grid of 1e5 doubles.
        "mixing --n 100000 --gamma 10 --method large-gamma-closed-form",
    ])
    def test_oversized_table_is_refused_before_any_work(self, monkeypatch, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("the table budget must be checked before any work")

        monkeypatch.setattr(evolution, "build_full_operator", unreachable)
        monkeypatch.setattr(evolution, "generator_blocks", unreachable)
        monkeypatch.setattr(cli, "unitary_distribution", unreachable)
        monkeypatch.setattr(mixing, "closed_form_a", unreachable)
        code, stdout, stderr = _run(argv.split())
        assert code == 1
        assert "exceeds the" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("argv, table", [
        ("evolve --n 4 --t-max 1e9", "trajectory table"),
        ("unitary --n 1000000 --t-max 200", "trajectory table"),
        ("mixing --n 100000 --gamma 10 --method large-gamma-closed-form",
         "closed-form mixing grid"),
    ])
    def test_refusal_names_the_table(self, monkeypatch, argv, table):
        def unreachable(*args, **kwargs):
            raise AssertionError("the table budget must be checked before any work")

        monkeypatch.setattr(evolution, "generator_blocks", unreachable)
        monkeypatch.setattr(cli, "unitary_distribution", unreachable)
        monkeypatch.setattr(mixing, "closed_form_a", unreachable)
        code, stdout, stderr = _run(argv.split())
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: {table} of ")


def test_cli_import_leaves_scipy_unloaded():
    # SciPy serves only the expm oracles, imported where they are called.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    probe = ("import decowalk.cli, sys; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_evolve_leaves_fractions_and_decimal_unloaded():
    # The table kernel builds its exact powers of ten from Python integers.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    probe = ("import contextlib, io, sys, decowalk.cli as c; "
             "contextlib.redirect_stdout(io.StringIO()).__enter__(); "
             "code = c.main(['evolve', '--n', '5', '--gamma', '0.3', '--t-max', '2']); "
             "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules, file=sys.stderr)")
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stderr == "0 False False\n"
