"""Tests of the benchmark itself; run with `python -m pytest perfbench/tests`."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import tracing
import workloads
from tracing import NAME, START, END, PARENT, RUN, INFO

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _span(name, start, end, parent=-1, info=None, run=0):
    return [name, start, end, parent, run, info]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("sweep.sweep_gamma", 1.0, 4.0, parent=0),
            _span("mixing.mixing_time", 2.0, 3.0, parent=1),
            _span("evolution.integrate", 5.0, 7.0, parent=0),
        ]
        assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("a.x", 1.0, 4.0, parent=0),
            _span("a.y", 3.0, 6.0, parent=0),
            _span("a.z", 9.0, 12.0, parent=0),  # runs past its parent's end
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_pass_metrics_from_synthetic_spans(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("mixing.mixing_time", 1.0, 5.0, parent=0,
                  info={"converged": True, "t_mix": 3.0, "bracket": 0.25, "cell": 4.0}),
            _span("evolution.matrix_power", 2.0, 4.0, parent=1),
            _span("mixing.mixing_time", 5.0, 6.0, parent=0,
                  info={"converged": False, "t_mix": 9.0, "bracket": 0.0, "cell": 4.0}),
            _span("evolution.propagator_setup", 6.0, 7.0, parent=0, info={"mode": "eig"}),
            _span("evolution.propagator_setup", 7.0, 8.0, parent=0, info={"mode": "expm"}),
            _span("evolution.integrate", 8.0, 9.5, parent=0, info={"span": 50.0, "dt_used": 0.01}),
        ]
        metrics = tracing.pass_metrics(spans, tracing.self_times(spans))
        assert metrics["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0 - 2.0 - 1.5)
        assert metrics["mixing.mixing_time.calls"] == 2
        assert metrics["mixing.mixing_time.self_s"] == pytest.approx(2.0 + 1.0)
        assert metrics["mixing.bisection_evals"] == 4  # log2(4 / 0.25)
        assert metrics["mixing.converged_ratio"] == 0.5
        assert metrics["evolution.matrix_power.calls"] == 1
        assert metrics["evolution.propagator_eig_ratio"] == 0.5
        assert metrics["evolution.integrate.steps"] == 5000
        assert metrics["sweep.converged_ratio"] == 0.0  # no sweeps: empty base

    def test_tracer_records_parents_and_restores_originals(self):
        import decowalk.sweep
        from decowalk.cli import main

        original = decowalk.sweep.mixing_time
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.call("cli.main", main, ["sweep", "--n", "5", "--points", "3"])
        finally:
            tracer.uninstall()
        assert decowalk.sweep.mixing_time is original
        names = [s[NAME] for s in tracer.spans]
        assert names.count("mixing.mixing_time") == 3
        for span in tracer.spans:
            if span[NAME] == "mixing.mixing_time":
                assert tracer.spans[span[PARENT]][NAME] == "sweep.sweep_gamma"
            assert span[START] <= span[END]
        assert tracer.spans[0][INFO] is None and tracer.spans[0][RUN] == 0


class TestWorkloads:
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            assert workloads.invocations(name, 7) == workloads.invocations(name, 7)
            assert workloads.invocations(name, 7) != workloads.invocations(name, 8)

    def test_seed_zero_is_nominal_and_jitter_is_small_and_downward(self):
        nominal = workloads.invocations("modesum", 0)[0]
        assert nominal == ["transition", "--ns", "5,10,15,20",
                           "--gamma-min", "0.001", "--gamma-max", "100.0"]
        for seed in range(1, 20):
            argv = workloads.invocations("modesum", seed)[0]
            for flag, value in (("--gamma-min", 1e-3), ("--gamma-max", 1e2)):
                jittered = float(argv[argv.index(flag) + 1])
                assert value * 10 ** -workloads.JITTER_DECADES <= jittered < value

    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _cli_output(argv):
    from decowalk.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _tamper(text, row, column, value):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    fields = lines[data[row]].split(",")
    fields[column] = value
    lines[data[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


class TestErrorRate:
    ARGV = ["sweep", "--n", "6", "--points", "4", "--method", "exact"]

    def test_clean_sweep_passes(self):
        text = _cli_output(self.ARGV)
        assert oracle.check_sweep(text) == [True] * 4

    @pytest.mark.parametrize("value", ["{:.17g}", "nan"])
    def test_wrong_mixing_time_counts(self, value):
        text = _cli_output(self.ARGV)
        t_mix = float(text.splitlines()[-2].split(",")[1])
        bad = _tamper(text, 2, 1, value.format(t_mix * 1.001))
        first = {"outputs": [bad], "codes": [0], "digest": "x"}
        passes = [{"digest": "x"}, {"digest": "x"}, {"digest": "y"}]
        assert oracle.tally([self.ARGV], [4], first, passes) == (12, 1 + 1 + 4)

    def test_unconverged_and_failed_invocations_count(self):
        text = _cli_output(self.ARGV)
        bad = _tamper(text, 0, 2, "false")
        assert oracle.check_outputs([self.ARGV], [bad], [0], [4]) == 1
        assert oracle.check_outputs([self.ARGV], [text], [1], [4]) == 4
        assert oracle.check_outputs([self.ARGV], ["garbage\n"], [0], [4]) == 4

    def test_wrong_trajectory_counts(self):
        argv = ["evolve", "--n", "8", "--t-max", "2", "--gamma", "0.5", "--model", "rho"]
        text = _cli_output(argv)
        assert oracle.check_trajectory(text)
        final = text.splitlines()[-1].split(",")
        shifted = [final[0], repr(float(final[1]) + 1e-6), repr(float(final[2]) - 1e-6)]
        bad = "\n".join(text.splitlines()[:-1] + [",".join(shifted + final[3:])]) + "\n"
        assert oracle.check_outputs([argv], [bad], [0], [1]) == 1


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class TestCommand:
    def test_printed_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run_bench(ROOT, "--workload", "modesum", "--seed", "1",
                              "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}

    def test_fails_without_the_program(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        proc = _run_bench(tmp_path, "--workload", "modesum", "--seed", "0",
                          "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
