"""Per-layer tracing by wrapping lightpos functions where callers look them up.

Each entry of ``LAYERS`` names a layer function and the module attributes
through which other modules reach it (``lightpos.sim.line_of_sight`` is how
``sim.measure`` finds ``geom.line_of_sight``).  ``Tracer.install`` replaces
those attributes with timing wrappers and ``Tracer.uninstall`` restores the
originals, so no line of the library changes.

A wrapper opens a span around the call.  Spans are not kept one by one: the
tracer folds each span into its layer's call count and self time as it
closes.  Self time is the span's duration minus the time of the spans it
caused, which are nested calls on the same thread and so never overlap.
The time outside every span, between the first round and the last, is the
benchmark's own loop (``untraced``).
"""

import time
from dataclasses import dataclass, field

import numpy as np

# (layer name, [(module under ``lightpos``, attribute), ...]).  A site
# missing from its module (a refactor may remove a function) is skipped and
# listed in ``Tracer.missing``; the run reports it, and selftest.py fails on
# it, since the layer's time would move into its caller unseen.
LAYERS = (
    ("geom.line_of_sight", (("sim", "line_of_sight"),)),
    ("geom.solve_frame_basis", (("sim", "solve_frame_basis"),
                                ("solve", "solve_frame_basis"))),
    ("signal.synthesize_trace", (("sim", "synthesize_trace"),)),
    ("signal.extract_amplitude", (("sim", "extract_amplitude"),)),
    ("sim.measure", (("sim", "measure"),)),
    ("sim.locate", (("sim", "locate"),)),
    ("sim.sensitivity_sweep", (("sim", "sensitivity_sweep"),)),
    ("sim.greedy_min_lamps", (("sim", "greedy_min_lamps"),)),
    ("sim.coverage_analysis", (("sim", "coverage_analysis"),)),
    ("solve.Reading", (("sim", "Reading"),)),
    ("solve.select_readings", (("sim", "select_readings"),)),
    ("solve.mflp_closed_form", (("solve", "mflp_closed_form"),)),
    ("solve.to_world_position", (("sim", "to_world_position"),
                                 ("solve", "to_world_position"))),
    ("solve.mflp_least_squares", (("sim", "mflp_least_squares"),
                                  ("solve", "mflp_least_squares"))),
    ("solve._kernels.solve_single", (("_kernels", "solve_single"),)),
    ("solve.solve_multi", (("sim", "solve_multi"),)),
    ("solve.trilaterate", (("sim", "trilaterate"),)),
)

# Solvers whose results count towards ``useful_frac`` (unique ÷ calls).
USEFUL = ("solve.mflp_least_squares", "solve.solve_multi", "solve.trilaterate")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    unique: int = 0
    iterations: list = field(default_factory=list)


def _status_unique(result) -> bool:
    return getattr(result, "status", None) == "unique"


def _kernel_hook(stats, args, result):
    # solve_single returns (x, y, z, rms, status, iterations).
    if isinstance(result, tuple) and len(result) >= 6:
        stats.iterations.append(int(result[5]))


def _solver_hook(stats, args, result):
    stats.unique += _status_unique(result)
    iterations = getattr(result, "iterations", None)
    if iterations is not None:
        stats.iterations.append(int(iterations))


def _multi_hook(stats, args, result):
    stats.unique += _status_unique(result)
    # With readings of one lamp, solve_multi hands the problem to the
    # single-lamp kernel, whose iterations are counted there; only the
    # inline multi-lamp loop counts here.
    readings = args[0] if args else ()
    if len({getattr(r, "lamp_id", None) for r in readings}) > 1:
        stats.iterations.append(int(result.iterations))


def _unique_hook(stats, args, result):
    stats.unique += _status_unique(result)


HOOKS = {
    "solve._kernels.solve_single": _kernel_hook,
    "solve.mflp_least_squares": _unique_hook,
    "solve.solve_multi": _multi_hook,
    "solve.trilaterate": _solver_hook,
}


class Tracer:
    """Installs wrappers on the ``LAYERS`` sites and aggregates spans."""

    def __init__(self, modules, clock=time.perf_counter):
        self._modules = modules  # {"sim": lightpos.sim, ...}; None if absent
        self._clock = clock
        self.stats = {name: LayerStats() for name, _ in LAYERS}
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._saved = []
        self.missing = []    # "module.attribute" sites that were not found

    def _wrap(self, name, fn):
        stats = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stack[-1] += span
                stats.calls += 1
                stats.self_s += span - children
            if hook is not None:
                hook(stats, args, result)
            return result

        return traced

    def install(self):
        for name, sites in LAYERS:
            for module_name, attr in sites:
                module = self._modules.get(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @property
    def root_child_s(self) -> float:
        """Time spent inside top-level spans."""
        return self._stack[0]


def quantile(values, q) -> float:
    """Empirical quantile that is unchanged when the data repeat whole."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q,
                             method="inverted_cdf"))


def layer_metrics(tracer, wall_s, cal_s, ops, untraced_cal_s):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    ``wall_s`` and ``cal_s`` are the pass's wall and calibrated seconds;
    shares are ratios of wall times, ``self_us`` is calibrated.
    """
    scale = cal_s / wall_s
    out = {}
    for name, _ in LAYERS:
        st = tracer.stats[name]
        out[f"{name}.calls_per_op"] = (st.calls / ops, "calls/op")
        out[f"{name}.self_us"] = (
            st.self_s * scale / st.calls * 1e6 if st.calls else 0.0, "us")
        out[f"{name}.share"] = (st.self_s / wall_s, "ratio")
    kernel = tracer.stats["solve._kernels.solve_single"].iterations
    multi = tracer.stats["solve.solve_multi"].iterations
    tri = tracer.stats["solve.trilaterate"].iterations
    for prefix, iters in (("solve.lm_iters", kernel),
                          ("solve.solve_multi.iters", multi),
                          ("solve.trilaterate.iters", tri)):
        out[f"{prefix}_p50"] = (quantile(iters, 0.50), "iterations")
        out[f"{prefix}_p99"] = (quantile(iters, 0.99), "iterations")
    for name in USEFUL:
        st = tracer.stats[name]
        out[f"{name}.useful_frac"] = (
            st.unique / st.calls if st.calls else 0.0, "ratio")
    out["trace.overhead"] = (cal_s / untraced_cal_s - 1.0, "ratio")
    out["untraced.share"] = ((wall_s - tracer.root_child_s) / wall_s, "ratio")
    return out
