"""Printed CLI output, byte for byte, against recorded texts.

golden_cli.json holds, per invocation, the exit code and the exact
stdout and stderr, recorded before the grid scans of a lockstep slab
became one stacked pass: the default transition curve, default sweeps
at n = 5, 21, 32 and 64 in both pictures, the benchmark's mode-sum
sweeps at seeds 0 and 7, mixing at n = 256, a first-crossing search and
the refusal at gamma = 1e-30.  A change meant to move any of these
bytes records the new texts and reports the shift in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import pytest

from decowalk.cli import main

CASES = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_printed_output_is_unchanged(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"],
                                                        case["stderr"])
