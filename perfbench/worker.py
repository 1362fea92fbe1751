"""Closed-loop measurement of one workload in a fresh process.

One client runs one op at a time through spotdeconv.cli.main, the code
behind the `spotdeconv` console script, for the given seconds. Peak RSS is
read after the first op. Every op's outputs are checked outside the timed
region. Each op is timed; the first one's lazy set-up is left to the
median rather than to a warm-up op, which at ~14 s per crowded128 op would
cost most of a 20 s run.

    python3 perfbench/worker.py PLAN_JSON SECONDS TRACE RESULT_JSON

With TRACE 1 the first half of the time runs untraced and the second half
with spans around every public spotdeconv function. A host-speed reference
(calibration.py) is timed between ops, outside the op.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from spotdeconv import cli, codec  # noqa: E402
from spotdeconv.kernels import build_kernel_bank, make_scale_grid  # noqa: E402
from spotdeconv.solver import objective  # noqa: E402

from calibration import reference_s, rescale  # noqa: E402
from scorer import best_f1  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import iterations_from_stdout  # noqa: E402

DETECTIONS_HEADER = ["row", "col", "pseudo_likelihood"]
REFERENCE_SHARE = 0.05  # host reference time per second of op (or of run, before the first op)


def run_op(plan):
    """Run the op's CLI calls; return exit codes, captured output and any escaped error."""
    codes, out, err = [], io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in plan["ops"]:
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # an uncaught error is a failed op, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
                break
            if codes[-1] != 0:
                break
    return codes, out.getvalue(), err.getvalue(), error


def read_table(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: header is not {','.join(header)}")
    table = [tuple(float(v) for v in row) for row in rows[1:]]
    if any(len(row) != len(header) or not all(np.isfinite(row)) for row in table):
        raise ValueError(f"{path}: malformed or non-finite row")
    return table


class Checker:
    """Checks one op's outputs; identical output files are scored once."""

    def __init__(self, plan):
        self.plan = plan
        self.cfg = cli.load_config(plan["config"])
        grid = make_scale_grid(self.cfg.sigma_max_pixels, self.cfg.num_scales)
        self.bank = build_kernel_bank(grid, self.cfg.truncation)
        self.taps = [len(f.taps) for f in self.bank.factors]
        self.known = {}

    def __call__(self, outcome):
        codes, stdout, stderr, error = outcome
        problems = []
        if error is not None:
            problems.append(f"uncaught {error}")
        if len(codes) != len(self.plan["ops"]) or any(codes):
            problems.append(f"exit codes {codes}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        iterations = self.plan.get("input_iterations") or iterations_from_stdout(stdout)
        if iterations is None:
            problems.append("no iteration count reported")
        if problems:
            return {"ok": False, "reason": "; ".join(problems)}
        files = [self.plan["volume"], self.plan["detections"], self.plan["report"]]
        try:
            digest = hashlib.sha256(b"".join(Path(f).read_bytes() for f in files if f)).hexdigest()
            if digest not in self.known:
                self.known[digest] = self._check_files()
        except (OSError, ValueError, KeyError) as exc:
            return {"ok": False, "reason": str(exc)}
        return dict(self.known[digest], iterations=iterations)

    def _check_files(self):
        plan = self.plan
        a = codec.read_tensor(plan["volume"])
        if a.shape != tuple(plan["shape"]):
            return {"ok": False, "reason": f"volume shape {a.shape}, expected {tuple(plan['shape'])}"}
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            return {"ok": False, "reason": "volume is not finite and non-negative"}
        dets = read_table(plan["detections"], DETECTIONS_HEADER)
        keys = [(-p, r, c) for r, c, p in dets]
        if keys != sorted(keys):
            return {"ok": False, "reason": "detections not sorted by (-p, row, col)"}
        gt = read_table(plan["ground_truth"], ["row", "col"])
        score = best_f1(dets, gt, plan["tol"])
        if plan["report"] is not None:
            with open(plan["report"]) as fh:
                report = json.load(fh)
            for key in ("threshold", "TP", "FP", "FN"):
                if report[key] != score[key]:
                    return {"ok": False, "reason": f"report {key}={report[key]}, scorer {score[key]}"}
        d_obs = codec.read_tensor(plan["obs"])
        w = np.full(d_obs.shape, self.cfg.weights_uniform)
        return {
            "ok": True,
            "f1": score["f1"],
            "objective": objective(a, d_obs, w, self.bank, self.cfg.lam),
            "detections": len(dets),
        }


def main():
    plan_path, seconds, trace, result_path = sys.argv[1:5]
    plan = json.loads(Path(plan_path).read_text())
    seconds = float(seconds)
    check = Checker(plan)
    checks = []
    result = {}

    def timed(run):
        start = perf_counter()
        outcome = run()
        elapsed = perf_counter() - start
        if "peak_rss_mb" not in result:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.append(check(outcome))
        return elapsed

    def loop(run, duration):
        """[op seconds, reference seconds] per op; the reference is the
        mean of the timings taken just before and just after the op."""
        samples = []
        end = perf_counter() + duration
        before = reference_s(REFERENCE_SHARE * duration)
        while not samples or perf_counter() < end:
            elapsed = timed(run)
            after = reference_s(REFERENCE_SHARE * elapsed)
            samples.append([elapsed, (before + after) / 2])
            before = after
        return samples

    if trace == "1":
        result["untraced"] = loop(lambda: run_op(plan), seconds / 2)
        tracer = Tracer()
        ops = itertools.count(1)
        result["samples"] = loop(lambda: tracer.run_op(next(ops), lambda: run_op(plan)), seconds / 2)
        tracer.write(Path(plan_path).with_name("spans.json"))
    else:
        result["samples"] = loop(lambda: run_op(plan), seconds)

    passed = [c for c in checks if c["ok"]]
    result["attempted"] = len(checks)
    result["failed"] = len(checks) - len(passed)
    result["failures"] = sorted({c["reason"] for c in checks if not c["ok"]})
    for key in ("iterations", "objective", "f1", "detections"):
        result[key] = statistics.median_low(c[key] for c in passed) if passed else None
    if trace == "1":
        layers = layer_metrics(tracer.spans, plan["shape"], check.taps, result["detections"] or 0)
        traced, untraced = ([rescale(*sample) for sample in result[key]] for key in ("samples", "untraced"))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layers["host.reference_ms"] = 1e3 * statistics.median(ref for _, ref in result["samples"])
        result["layers"] = layers
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
