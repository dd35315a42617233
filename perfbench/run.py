"""decowalk benchmark: time fixed sets of CLI invocations in fresh processes.

    python3 perfbench/run.py --workload modesum --seed 0 --seconds 36 --trace 0

Run from the repository root.  Workloads are defined in workloads.py;
`--workload all` runs each in turn and prints one result line per workload.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one pass over the workload's
               invocations, over at least three passes in a fresh process
               after import and warm-up;
  setup_s      median, over SETUP_PROBES fresh processes, of the time to
               import decowalk.cli;
  peak_rss_mb  peak resident memory of the timed process.
--trace 1 alternates untraced and traced passes in one process and
reports the per-layer metrics of tracing.py from the traced passes.

Every run checks the outputs of its first pass by an independent route
(oracle.py) and requires every later pass to print the same bytes.
error_rate = failed / attempted results is printed with the other
metrics; the JSON result on the last line carries it as `failed` and
`attempted`.  Lines before that record the environment and a summary.

The timed processes run with BLAS_THREADS BLAS threads, set in their
environment.  The checks run in this process with one BLAS thread.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy is imported here: the checks run single-threaded.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Two BLAS threads, not one: on a 2-core Xeon VM, the n=24 RK4 sweep took a median
# 6.0 s with two and 8.4 s with one, and its run-to-run spread was no wider
# (5% vs 12% of the median over 5 runs).  One thread would hide the speed-up
# users get.  The first-call stall that threading brings is taken by the
# warm-up in child.py, outside the timed passes.
BLAS_THREADS = 2
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict[str, str]:
    return {**os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS}}


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), *args],
        env=_child_env(), capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )


def _llc_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level")) as level, \
                    open(os.path.join(base, entry, "size")) as size:
                best = max(best, (int(level.read()), size.read().strip()))
        except (OSError, ValueError):
            continue
    return best[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_size": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> None:
    """Run one workload and print its summary and JSON result lines."""
    import oracle
    import tracing
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    argvs = workloads.invocations(name, seed)
    counts = workloads.results_per_invocation(name)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-trace{trace}")

    try:
        setup = [] if trace else [
            float(_child(["setup", SRC], deadline).stdout.split()[-1])
            for _ in range(SETUP_PROBES)
        ]
        with open(stem + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump({"src": SRC, "bench": BENCH, "argvs": argvs,
                       "seconds": seconds, "traced": bool(trace)}, handle)
        _child(["run", stem + ".spec.json", stem + ".result.json"], deadline)
    except subprocess.CalledProcessError as exc:
        _fail(f"benchmark process failed with exit code {exc.returncode}:\n{exc.stderr}")
    except subprocess.TimeoutExpired:
        _fail(f"benchmark process exceeded the {DEADLINE_S:.0f} s deadline")
    with open(stem + ".result.json", encoding="utf-8") as handle:
        result = json.load(handle)

    first, passes = result["first"], result["passes"]
    attempted, failed = oracle.tally(argvs, counts, first, passes)
    for argv, error in zip(argvs, first["errors"]):
        if error:
            print(f"perfbench: decowalk {' '.join(argv)}: {error.strip()}", file=sys.stderr)

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if trace:
        traced = [p["wall_s"] for p in passes if p["traced"]]
        values = tracing.layer_metrics(result["spans"], untraced, traced)
        units = {key: "count" if key.endswith((".calls", ".steps", ".times", "_evals"))
                 else "ratio" if key.endswith("_ratio") else "s" for key in values}
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {name} seed {seed}: " + " | ".join(" ".join(argv) for argv in argvs))
    print("# pass wall_s " + " ".join(
        f"{p['wall_s']:.4f}{'(traced)' if p['traced'] else ''}" for p in passes))
    if trace:
        shares = tracing.self_time_by_span(result["spans"])
        whole = sum(shares.values())
        print("# self time share " + " ".join(
            f"{key}={share / whole:.3f}"
            for key, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    for key, value in values.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} results failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "decowalk", "cli.py")):
        _fail(f"no decowalk sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            _fail(f"unknown workload {name!r}; expected 'all' or one of {list(workloads.WORKLOADS)}")
        run_workload(name, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
