"""Per-layer tracing of cnotsteer, done from outside the package.

``Tracer.install`` wraps each public function in ``LAYERS``.  Because
``from .x import y`` copies bindings, the wrapper replaces the function under
every name that any loaded ``cnotsteer`` module bound it to, so calls from
inside the package (``equivclass`` calling its own ``makhlin_invariants``,
``optimize`` calling ``nelder_mead``) are traced too.  Spans stay in memory
and are written once, at the end of the run.
"""

from __future__ import annotations

import collections
import sys
import time
from typing import Callable

import numpy as np

# Metric prefix -> (module, function) pairs whose calls it aggregates.
LAYERS = {
    "sequences.fit_local_rotations": [("sequences", "fit_local_rotations")],
    "simplex.nelder_mead": [("simplex", "nelder_mead")],
    "optimize.calibrate_single_step": [("optimize", "calibrate_single_step")],
    "optimize.calibrate_two_step": [("optimize", "calibrate_two_step")],
    "equivclass.makhlin_invariants": [("equivclass", "makhlin_invariants")],
    "equivclass.weyl_coordinates": [("equivclass", "weyl_coordinates")],
    "equivclass.weyl_trajectory": [("equivclass", "weyl_trajectory")],
    "qmat.expm_skew": [("qmat", "expm_skew")],
    "propagate.entangling_u": [("propagate", "entangling_u_frame1"), ("propagate", "entangling_u_frame2")],
    "verify.run_checks": [("verify", "run_checks")],
}

# Which derived figures each layer reports; every layer reports calls and s.
SELF_TIME = {
    "sequences.fit_local_rotations", "simplex.nelder_mead", "optimize.calibrate_single_step",
    "equivclass.weyl_coordinates", "equivclass.weyl_trajectory", "verify.run_checks",
}
COUNTERS = {
    "sequences.fit_local_rotations": ["starts"],
    "simplex.nelder_mead": ["iterations", "evals", "unconverged"],
    "optimize.calibrate_single_step": ["unconverged"],
}


def _result_counts(layer: str, result, counts: collections.Counter) -> None:
    # A result that no longer carries a field counts 0, so the traced run
    # keeps working when a layer's implementation changes.
    if layer == "sequences.fit_local_rotations":
        counts[layer + ".starts"] += getattr(result, "restarts_used", 0)
    elif layer == "simplex.nelder_mead":
        counts[layer + ".iterations"] += getattr(result, "iterations", 0)
        counts[layer + ".unconverged"] += not getattr(result, "converged", True)
    elif layer == "optimize.calibrate_single_step":
        counts[layer + ".unconverged"] += not getattr(result, "converged", True)


class Tracer:
    """Spans ``(layer, start, end, parent_index, op_index)`` in perf_counter stamps."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count_evals = layer == "simplex.nelder_mead"

        def traced(*args, **kwargs):
            if count_evals:
                objective = args[0]

                def counted(x):
                    counts["simplex.nelder_mead.evals"] += 1
                    return objective(x)

                args = (counted, *args[1:])
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            _result_counts(layer, result, counts)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function; return the ones that were not found."""
        modules = [m for name, m in list(sys.modules.items()) if name == "cnotsteer" or name.startswith("cnotsteer.")]
        missing = []
        for layer, targets in LAYERS.items():
            for module_name, fn_name in targets:
                fn = getattr(sys.modules.get("cnotsteer." + module_name), fn_name, None)
                if fn is None:
                    missing.append(f"cnotsteer.{module_name}.{fn_name}")
                    continue
                wrapper = self._wrap(layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._bindings.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    def _normalised(self, timeline) -> np.ndarray:
        stamps = np.array([(start, end) for _layer, start, end, _parent, _op in self.spans]).reshape(-1, 2)
        return timeline(stamps)[0]

    def metrics(self, n_ops: int, timeline) -> dict[str, float]:
        """Per-operation calls, inclusive and self normalised time of each layer, and counters."""
        total = collections.Counter()
        norm = self._normalised(timeline)
        durations = norm[:, 1] - norm[:, 0]
        children = [0.0] * len(self.spans)
        for (layer, _start, _end, parent, _op), duration in zip(self.spans, durations):
            total[layer + ".calls"] += 1
            total[layer + ".s"] += duration
            if parent >= 0:
                children[parent] += duration
        for (layer, *_), duration, child in zip(self.spans, durations, children):
            total[layer + ".self_s"] += duration - child
        total.update(self.counts)
        out = {}
        for layer in LAYERS:
            names = ["calls", "s"] + (["self_s"] if layer in SELF_TIME else []) + COUNTERS.get(layer, [])
            for name in names:
                out[f"{layer}.{name}"] = total[f"{layer}.{name}"] / n_ops
        return out

    def write(self, path, timeline) -> None:
        """Spans as CSV, with normalised start and end times."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start_s,end_s,parent,op\n")
            for (layer, _start, _end, parent, op), (start, end) in zip(self.spans, self._normalised(timeline)):
                fh.write(f"{layer},{start:.9f},{end:.9f},{parent},{op}\n")
