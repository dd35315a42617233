"""Fresh-process side of the benchmark; started by run.py, not by hand.

    python child.py setup <src dir>
        Import decowalk.cli and print the import time in seconds.
    python child.py run <spec.json> <result.json>
        Import decowalk.cli, warm up BLAS, then run the workload's
        invocations in-process, pass after pass, until the spec's seconds
        are spent and at least MIN_PASSES passes are done.  With "traced"
        set, passes alternate untraced and traced.  Writes pass times,
        outputs and spans to <result.json>.

CLI output goes to an in-memory buffer, so a pass times argument
parsing, the computation and CSV formatting, but no file I/O.
"""

import sys
import time

# A median needs three samples, so a run times at least three passes even
# when they outlast the requested seconds.  With tracing, pass 1 is traced.
MIN_PASSES = 3


def _import_cli(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import decowalk.cli

    return decowalk.cli, time.perf_counter() - start


def _warm_up() -> None:
    """Start the BLAS thread pool before timing.

    The first multithreaded LAPACK call in a fresh process sometimes
    stalls for about a second; one small eig and one matmul take that
    stall here instead of inside a timed pass.
    """
    import numpy as np

    a = np.random.default_rng(0).random((96, 96))
    np.linalg.eig(a)
    a @ a


def _run_pass(cli, argvs, tracer=None):
    """Run every invocation once; return (seconds, outputs, exit codes, errors)."""
    import contextlib
    import io

    outputs, codes, errors = [], [], []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed result, not a harness error
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
        outputs.append(out.getvalue())
        codes.append(code)
        errors.append(err.getvalue())
    return time.perf_counter() - start, outputs, codes, errors


def _run(spec_path: str, result_path: str) -> None:
    import hashlib
    import json
    import resource

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    cli, _ = _import_cli(spec["src"])
    _warm_up()

    tracer = None
    if spec["traced"]:
        sys.path.insert(0, spec["bench"])
        from tracing import Tracer

        tracer = Tracer()
    passes, first = [], None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < spec["seconds"]:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.run_id = len(passes)
            tracer.install()
        try:
            wall, outputs, codes, errors = _run_pass(cli, spec["argvs"], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        digest = hashlib.sha256(json.dumps([outputs, codes]).encode()).hexdigest()
        if first is None:
            first = {"outputs": outputs, "codes": codes, "errors": errors, "digest": digest}
        passes.append({"traced": traced, "wall_s": wall, "digest": digest})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "peak_rss_mb": peak_rss_mb,
            "passes": passes,
            "first": first,
            "spans": tracer.spans if tracer else [],
        }, handle)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(repr(_import_cli(sys.argv[2])[1]))
    else:
        _run(sys.argv[2], sys.argv[3])
