"""Every name the benchmark tracer patches must resolve, and come back unchanged.

perfbench/tracing.py wraps module attributes and methods of decowalk by
name, so a rename in src/ breaks the benchmark's per-layer metrics.
This test reads perfbench/ and changes nothing there.
"""

import importlib
import pathlib
import sys

ROOT = str(pathlib.Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import TARGETS, Tracer


def _current(owner_path, attr):
    module_name, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls).__dict__[attr] if cls else getattr(owner, attr)


def test_every_patch_point_resolves_and_is_restored():
    before = [_current(owner, attr) for owner, attr, _, _ in TARGETS]
    tracer = Tracer()
    try:
        tracer.install()
        during = [_current(owner, attr) for owner, attr, _, _ in TARGETS]
    finally:
        tracer.uninstall()
    after = [_current(owner, attr) for owner, attr, _, _ in TARGETS]
    assert all(patched is not original for patched, original in zip(during, before))
    assert all(restored is original for restored, original in zip(after, before))
