"""spotdeconv benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload demo64 --seed 20260823 --seconds 20 --trace 0

Run from the repository root. It prepares the workload's inputs (untimed),
times set-up in fresh interpreters, then runs a closed loop of ops in a
fresh worker process (perfbench/worker.py). It prints every metric by
name with its unit, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics. Working files go to
.bench_work/ in the repository root. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
SETUP_REFERENCE_S = 0.1  # host reference sample around each set-up probe
DEADLINE_S = 170  # the whole run must end within 180 s


def env_record():
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
    env.update(python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__)
    with contextlib.suppress(Exception):  # the config API differs between numpy versions
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SPOTDECONV_THREADS"):
        env[var] = os.environ.get(var)
    return env


def tail(samples):
    """Highest percentile with at least 10 samples above it: (value, percentile).

    Below 20 samples that percentile would lie under the median, so the
    maximum stands in for it.
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def time_setup(config):
    """[probe seconds, reference seconds] per fresh interpreter; the
    reference is the mean of the timings just before and just after it."""
    from calibration import reference_s

    reference_s()  # the first timings in a process run cold
    samples = []
    before = reference_s(SETUP_REFERENCE_S)
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), config],
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        after = reference_s(SETUP_REFERENCE_S)
        samples.append([elapsed, (before + after) / 2])
        before = after
    return samples


def end_to_end(result, setup_samples, plan):
    from calibration import NOMINAL_S, rescale

    raw = [op for op, _ in result["samples"]]
    refs = [ref for _, ref in result["samples"]]
    samples = [rescale(op, ref) for op, ref in result["samples"]]
    setup = [rescale(probe, ref) for probe, ref in setup_samples]
    tail_value, tail_pct = tail(samples)
    scale = f"rescaled to a {1e3 * NOMINAL_S:g} ms reference"
    input_note = "; of the stored input volume" if plan["workload"] == "detect256" else ""
    return [
        ("wall_s", statistics.median(samples),
         f"median of {len(samples)} ops, {scale}; raw median {statistics.median(raw):.4f} s, "
         f"reference median {1e3 * statistics.median(refs):.3f} ms"),
        ("wall_s.tail", tail_value,
         f"p{tail_pct:.0f} of {len(samples)} ops, {scale}; raw p{tail_pct:.0f} {tail(raw)[0]:.4f} s"
         + (", the maximum: fewer than 20 ops" if tail_pct == 100 else "")),
        ("setup_s", statistics.median(setup),
         f"median of {len(setup)} fresh interpreters, {scale}; raw median "
         f"{statistics.median(probe for probe, _ in setup_samples):.4f} s"),
        ("peak_rss_mb", result["peak_rss_mb"], "fresh process after one op"),
        ("iterations", result["iterations"], "to rel_tol or max_iters" + input_note),
        ("objective", result["objective"], "spotdeconv.solver.objective" + input_note),
        ("f1", result["f1"], f"best F1 from perfbench/scorer.py, {result['detections']} detections"),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    began = perf_counter()

    if not (ROOT / "src" / "spotdeconv" / "cli.py").is_file() or not (ROOT / "configs" / "demo.json").is_file():
        sys.exit(f"error: {ROOT} holds no spotdeconv source tree (src/spotdeconv, configs/demo.json)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        sys.exit(f"error: unknown workload {args.workload!r}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end" if args.trace == "0" else "per_layer"]}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, prepare

    seed = DEFAULT_SEED if args.seed is None else args.seed
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = prepare(args.workload, seed, ROOT, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2))

    setup_samples = time_setup(plan["config"])
    result_path = work / "result.json"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(args.seconds), args.trace,
             str(result_path)],
            check=True, timeout=max(DEADLINE_S - (perf_counter() - began), 1),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"error: worker failed: {exc}")
    result = json.loads(result_path.read_text())
    if result["attempted"] == result["failed"]:
        sys.exit(f"error: every op failed: {result['failures']}")

    print(f"workload {args.workload} seed {seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env_record()))
    if args.trace == "0":
        rows = end_to_end(result, setup_samples, plan)
    else:
        rows = [(name, value, "") for name, value in result["layers"].items()]
        print(f"traced {len(result['samples'])} ops, untraced {len(result['untraced'])} ops; "
              f"spans in {work / 'spans.json'}")
    if {name for name, _, _ in rows} != set(units):
        sys.exit(f"error: metrics {sorted(n for n, _, _ in rows)} differ from BENCHMARK.json {sorted(units)}")
    for name, value, note in rows:
        print(f"{name} {value!r} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"error_rate {result['failed'] / result['attempted']!r} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for reason in result["failures"]:
        print(f"failed check: {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value, _ in rows},
    }))


if __name__ == "__main__":
    main()
