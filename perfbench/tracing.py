"""Spans around calls into each decowalk module, recorded from outside `src/`.

`Tracer.install` replaces module attributes and methods with timing
wrappers and `Tracer.uninstall` puts the originals back.  Each name is
patched where it is looked up: `from .x import y` binds `y` in the
importing module, so e.g. `mixing_time` is patched in `decowalk.sweep`,
not in `decowalk.mixing`.  Spans are kept in memory as
[name, start, end, parent index, run id, info] and written out when the
run ends; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import statistics
from time import perf_counter


def _sweep_info(result, args, kwargs):
    return {"points": len(result.points), "converged": sum(p.converged for p in result.points)}


def _mixing_info(result, args, kwargs):
    from decowalk.mixing import GRID_INTERVALS

    return {
        "converged": result.converged,
        "t_mix": result.t_mix,
        "bracket": result.bracket,
        "cell": result.horizon / GRID_INTERVALS,
    }


def _integrate_info(result, args, kwargs):
    return {"span": float(result.times[-1] - result.times[0]), "dt_used": result.dt_used}


def _propagator_info(result, args, kwargs):
    return {"mode": args[0].mode}


def _kernel_info(result, args, kwargs):
    return {"times": len(result)}


# (owner "module" or "module:Class", attribute, span name, annotation)
TARGETS = (
    ("decowalk.cli", "sweep_gamma", "sweep.sweep_gamma", _sweep_info),
    ("decowalk.cli", "transition_report", "sweep.transition_report", None),
    ("decowalk.cli", "integrate", "evolution.integrate", _integrate_info),
    ("decowalk.sweep", "sweep_gamma", "sweep.sweep_gamma", _sweep_info),
    ("decowalk.sweep", "mixing_time", "mixing.mixing_time", _mixing_info),
    ("decowalk.mixing", "build_full_operator", "evolution.build_full_operator", None),
    ("decowalk.mixing", "rk4_step_matrix", "evolution.rk4_step_matrix", None),
    ("decowalk.mixing", "closed_form_a", "large_gamma.closed_form_a", None),
    ("decowalk.mixing", "total_variation", "mixing.total_variation", None),
    ("decowalk.evolution", "build_full_operator", "evolution.build_full_operator", None),
    ("decowalk.evolution", "rk4_step_matrix", "evolution.rk4_step_matrix", None),
    ("decowalk.evolution:DiagonalPropagator", "__init__", "evolution.propagator_setup",
     _propagator_info),
    ("decowalk.evolution:DiagonalPropagator", "distributions", "evolution.propagator_grid", None),
    ("decowalk.evolution:DiagonalPropagator", "distribution", "evolution.propagator_point", None),
    ("decowalk.spectral:_PerturbativeKernel", "distributions", "spectral.perturbative_kernel",
     _kernel_info),
    # Called as np.linalg.matrix_power by mixing and evolution; the span's
    # parent is whichever decowalk span made the call.
    ("numpy.linalg", "matrix_power", "evolution.matrix_power", None),
)

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                record[INFO] = annotate(result, args, kwargs)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        for owner_path, attr, name, annotate in TARGETS:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, annotate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def _ratio(part: float, whole: float) -> float:
    """part / whole, reported as 0 when the base count is 0."""
    return part / whole if whole else 0.0


def pass_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """Per-layer metrics of the spans of one workload pass and their self times."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for span, s in zip(spans, own):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        self_s[name] = self_s.get(name, 0.0) + s
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    def infos(name):
        return [span[INFO] for span in spans if span[NAME] == name]

    sweeps = infos("sweep.sweep_gamma")
    mixes = infos("mixing.mixing_time")
    setups = infos("evolution.propagator_setup")
    bisection = sum(
        round(math.log2(m["cell"] / m["bracket"]))
        for m in mixes
        if m["converged"] and m["t_mix"] > 0 and m["bracket"] > 0
    )
    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "sweep.sweep_gamma.calls": calls.get("sweep.sweep_gamma", 0),
        "sweep.self_s": layer_self.get("sweep", 0.0),
        "sweep.converged_ratio": _ratio(sum(s["converged"] for s in sweeps),
                                        sum(s["points"] for s in sweeps)),
        "mixing.mixing_time.calls": calls.get("mixing.mixing_time", 0),
        "mixing.mixing_time.self_s": self_s.get("mixing.mixing_time", 0.0),
        "mixing.bisection_evals": bisection,
        "mixing.converged_ratio": _ratio(sum(m["converged"] for m in mixes), len(mixes)),
        "evolution.propagator_setup.calls": calls.get("evolution.propagator_setup", 0),
        "evolution.propagator_setup_s": total.get("evolution.propagator_setup", 0.0),
        "evolution.propagator_eig_ratio": _ratio(sum(s["mode"] == "eig" for s in setups),
                                                 len(setups)),
        "evolution.propagator_grid_s": total.get("evolution.propagator_grid", 0.0),
        "evolution.propagator_point.calls": calls.get("evolution.propagator_point", 0),
        "evolution.propagator_point_s": total.get("evolution.propagator_point", 0.0),
        "evolution.build_full_operator_s": total.get("evolution.build_full_operator", 0.0),
        "evolution.rk4_step_matrix.calls": calls.get("evolution.rk4_step_matrix", 0),
        "evolution.rk4_step_matrix_s": total.get("evolution.rk4_step_matrix", 0.0),
        "evolution.matrix_power.calls": calls.get("evolution.matrix_power", 0),
        "evolution.matrix_power_s": total.get("evolution.matrix_power", 0.0),
        "evolution.integrate.calls": calls.get("evolution.integrate", 0),
        "evolution.integrate.self_s": self_s.get("evolution.integrate", 0.0),
        "evolution.integrate.steps": sum(
            round(i["span"] / i["dt_used"]) for i in infos("evolution.integrate")
        ),
        "spectral.perturbative_kernel.calls": calls.get("spectral.perturbative_kernel", 0),
        "spectral.perturbative_kernel.times": sum(
            i["times"] for i in infos("spectral.perturbative_kernel")
        ),
        "spectral.perturbative_kernel_s": total.get("spectral.perturbative_kernel", 0.0),
        "large_gamma.closed_form_a.calls": calls.get("large_gamma.closed_form_a", 0),
        "large_gamma.closed_form_a_s": total.get("large_gamma.closed_form_a", 0.0),
    }


def layer_metrics(spans: list[list], untraced_wall: list[float],
                  traced_wall: list[float]) -> dict[str, float]:
    """Median over traced passes (run ids) of `pass_metrics`, plus the tracing overhead."""
    own = self_times(spans)
    by_run: dict[int, tuple[list, list]] = {}
    for span, s in zip(spans, own):
        run_spans, run_own = by_run.setdefault(span[RUN], ([], []))
        run_spans.append(span)
        run_own.append(s)
    per_pass = [pass_metrics(*pair) for pair in by_run.values()]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced_wall)
    return metrics


def self_time_by_span(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, for the human-readable summary."""
    out: dict[str, float] = {}
    for span, s in zip(spans, self_times(spans)):
        out[span[NAME]] = out.get(span[NAME], 0.0) + s
    return out
