"""Spans around the public functions of each spotdeconv module.

Callers inside the package import functions by name (solver.forward,
cli.detect, synth.forward, ...), so a wrapper is installed at every module
attribute that refers to a spotdeconv function, not only where it is
defined. Spans stay in memory and are written out when the run ends.
"""

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("tensors", "kernels", "convolution", "solver", "detection",
           "evaluation", "synth", "codec", "cli")


def _tensor_bytes(arr):
    """Size of the .f64t file holding `arr`: 12-byte header, u64 dims, f64 payload."""
    return 12 + 8 * arr.ndim + 8 * arr.size


# Work counted at a span, from its arguments and result.
WORK = {
    "evaluation.match": lambda args, result: len(args[0]) * len(args[1]),
    "codec.read_tensor": lambda args, result: _tensor_bytes(result),
    "codec.write_tensor": lambda args, result: _tensor_bytes(args[1]),
}


class Tracer:
    """Records (name, start, end, parent, op, work) spans; parent is an index."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._wrappers = {}
        self._installed = []

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, self.op, 0]
        work = WORK.get(name)
        if work is not None:
            self.spans[index][5] = work(args, result)
        return result

    def _wrapper(self, fn):
        if fn not in self._wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

            self._wrappers[fn] = wrapper
        return self._wrappers[fn]

    def install(self):
        for mod_name in MODULES:
            module = importlib.import_module(f"spotdeconv.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr == "main" or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("spotdeconv.")):
                    continue
                self._installed.append((module, attr, obj))
                setattr(module, attr, self._wrapper(obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def run_op(self, op, fn):
        """Run fn() as op number `op`, with wrappers installed only meanwhile."""
        self.op = op
        self.install()
        try:
            return self.span("op", fn)
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                       "spans": self.spans}, fh)


def span_totals(spans):
    """Per span name: calls, total time, self time and counted work."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    for index, (name, start, end, parent, op, work) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[index]
        t["work"] += work
    return totals


def conv_work(shape, taps):
    """Computed flops and bytes of one forward and one adjoint call.

    Each kernel k costs two 1-D passes of len(taps_k) multiply-adds per pixel;
    each pass reads and writes one M x N float64 image. forward also adds
    each slice into the output (read two images, write one); adjoint copies
    each result into its slice of the volume (read one, write one).
    """
    pixels = shape[0] * shape[1]
    passes = sum(4 * t * pixels for t in taps)
    flops = {"forward": passes + len(taps) * pixels, "adjoint": passes}
    bytes_ = {"forward": len(taps) * (32 + 24) * pixels, "adjoint": len(taps) * (32 + 16) * pixels}
    return flops, bytes_


def layer_metrics(spans, shape, taps, detections_per_op):
    """Per-layer metrics per traced op, named <module>.<metric>."""
    totals = span_totals(spans)
    ops = totals["op"]["calls"]
    op_total = totals["op"]["total_s"]

    def t(name, key="total_s"):
        return totals[name][key] if name in totals else 0

    def per_call_us(name):
        calls = t(name, "calls")
        return 1e6 * t(name) / calls if calls else 0.0

    # Stages are the spans the CLI opens directly under the op.
    stage_s = defaultdict(float)
    for name, start, end, parent, op, work in spans:
        if parent >= 0 and spans[parent][0] == "op":
            stage_s[name] += end - start
    stages = {
        "cli.synth_s": stage_s["cli.run_synth"] / ops,
        "cli.solve_s": stage_s["cli.run_solve"] / ops,
        "cli.detect_s": stage_s["detection.detect"] / ops,
        "cli.evaluate_s": stage_s["cli.run_evaluate"] / ops,
    }
    m = dict(stages)
    m["cli.other_s"] = op_total / ops - sum(stages.values())

    m["kernels.build_s"] = t("kernels.build_kernel_bank") / max(t("kernels.build_kernel_bank", "calls"), 1)
    m["kernels.taps"] = sum(taps)

    flops, bytes_ = conv_work(shape, taps)
    busy = 0.0
    work_flops = work_bytes = 0
    for kind in ("forward", "adjoint"):
        name = f"convolution.{kind}"
        m[f"{name}.calls"] = t(name, "calls") / ops
        m[f"{name}.us_per_call"] = per_call_us(name)
        busy += t(name)
        work_flops += t(name, "calls") * flops[kind]
        work_bytes += t(name, "calls") * bytes_[kind]
    m["convolution.gflops"] = work_flops / busy / 1e9 if busy else 0.0
    m["convolution.gbytes_per_s"] = work_bytes / busy / 1e9 if busy else 0.0

    iterations = t("solver.momentum_alpha", "calls")  # one call per iteration
    m["solver.iter_ms"] = 1e3 * t("solver.apg_solve") / iterations if iterations else 0.0
    m["solver.self_ms_per_iter"] = 1e3 * t("solver.apg_solve", "self_s") / iterations if iterations else 0.0
    m["solver.prox_group.us_per_call"] = per_call_us("solver.prox_group")
    m["solver.objective.calls"] = t("solver.objective", "calls") / ops
    m["solver.objective_share"] = t("solver.objective") / op_total

    m["tensors.project_nonneg.us_per_call"] = per_call_us("tensors.project_nonneg")
    m["tensors.group_norm_image.us_per_call"] = per_call_us("tensors.group_norm_image")
    m["tensors.frobenius_norm.calls"] = t("tensors.frobenius_norm", "calls") / ops

    maxima = t("detection.regional_maxima")
    m["detection.regional_maxima_s"] = maxima / ops
    m["detection.count"] = detections_per_op
    m["detection.mpix_per_s"] = (
        t("detection.regional_maxima", "calls") * shape[0] * shape[1] / maxima / 1e6 if maxima else 0.0
    )

    sweeps = t("evaluation.threshold_sweep", "calls") / ops
    m["evaluation.sweeps"] = sweeps
    m["evaluation.useful_sweep_ratio"] = 1.0 / sweeps if sweeps else 0.0
    m["evaluation.match.calls"] = t("evaluation.match", "calls") / ops
    m["evaluation.pair_checks"] = t("evaluation.match", "work") / ops

    m["synth.generate_scene_s"] = t("synth.generate_scene") / ops
    m["synth.render_s"] = t("synth.render_observation") / ops

    m["codec.read_tensor_s"] = t("codec.read_tensor") / ops
    m["codec.write_tensor_s"] = t("codec.write_tensor") / ops
    m["codec.bytes"] = (t("codec.read_tensor", "work") + t("codec.write_tensor", "work")) / ops
    m["codec.csv_s"] = sum(v["total_s"] for k, v in totals.items()
                           if k.startswith("codec.") and "csv" in k) / ops

    for module in MODULES:
        m[f"{module}.self_s"] = sum(v["self_s"] for k, v in totals.items()
                                    if k.startswith(module + ".")) / ops
    return m
