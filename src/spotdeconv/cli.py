"""Command-line pipeline: synth, solve, detect, evaluate, pipeline.

Configuration is one JSON file (README has the schema). load_config checks
JSON shape and types and runs the library constructors that own the value
bounds, so the whole config is checked at load. A failing command exits
nonzero naming the offending field or file, and writes nothing: each command
runs all of its stages (run_synth, run_solve, detect, run_evaluate; none
writes a file) before it writes any output.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import codec
from .convolution import forward
from .detection import detect
from .evaluation import DEFAULT_TOL, best_report, threshold_sweep
from .kernels import DEFAULT_TRUNCATION, build_kernel_bank, check_truncation, make_scale_grid
from .solver import SolverConfig, apg_solve
from .synth import GENERATOR_NAME, SceneSpec, add_noise, generate_scene
from .tensors import BoundError, as_image, as_volume, require


class ConfigError(ValueError):
    pass


@dataclass(kw_only=True)
class RunConfig(SolverConfig):
    """The SolverConfig the config file describes, its weights None until run_solve
    sets the image, plus the scale grid, the truncation, the weights' source and the scene."""
    sigma_max_pixels: float
    num_scales: int
    truncation: float
    weights_uniform: Optional[float]
    weights_file: Optional[str]
    seed: int
    scene: Optional[SceneSpec] = None


CONFIG_FIELDS = ("sigma_max", "delta_pix", "K", "truncation", "lambda", "weights", "momentum",
                 "chambolle_a", "rel_tol", "max_iters", "seed", "scene")
SCENE_FIELDS = ("rows", "cols", "n_sources", "min_separation", "amplitude", "noise_sigma",
                "noise_sigma_rel", "scale_profile")
# The files that synth writes into --out-dir, then those that pipeline adds.
SCENE_FILES = ("a_true.f64t", "d_obs.f64t", "gt.csv", "meta.json")
RUN_FILES = ("a_opt.f64t", "trace.csv", "detections.csv", "report.json", "sweep.csv")
# The config field of each library parameter whose name differs from it.
_FIELD_OF = {"num_bins": "K", "sigma_max_pixels": "sigma_max/delta_pix",
             **{name: f"scene.{name}" for name in SCENE_FIELDS}}


def _check_known(table, fields, prefix=""):
    """Reject a key outside `fields`, which would otherwise be ignored
    (a misspelled 'max_iter' would leave 'max_iters' at its default)."""
    for key in table:
        if key not in fields:
            raise ConfigError(f"config field {prefix + key!r} is not a known field")


def _number(table, key, default=None, *, scope="", integer=False):
    """table[key] (an object field `scope.key` or a list entry `scope[key]`) as a finite
    float, or int if `integer`; required if `default` is None. A failure raises a
    ConfigError naming the field and the value; the library checks its bound."""
    name = f"{scope}[{key}]" if isinstance(table, list) else f"{scope}.{key}".lstrip(".")
    if isinstance(table, dict) and key not in table:
        if default is None:
            raise ConfigError(f"config field {name!r} is missing")
        return default
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    elif not -sys.float_info.max <= value <= sys.float_info.max:  # exact for any int; NaN fails
        problem = "must be a finite number"
    elif integer and value != int(value):
        problem = "must be an integer"
    else:
        return int(value) if integer else float(value)
    raise ConfigError(f"config field {name!r} {problem}, got {value!r}")


def load_config(path):
    """Parse and check a whole config, scene block included: JSON shape and types
    here, each bound in the library constructor that owns it, run here too."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return _parse_config(raw)
    except BoundError as exc:
        raise ConfigError(f"config field {_FIELD_OF.get(exc.name, exc.name)!r} must be "
                          f"{exc.rule}, got {exc.value!r}") from None


def _parse_config(raw):
    _check_known(raw, CONFIG_FIELDS)
    sigma_max, delta_pix = _number(raw, "sigma_max"), _number(raw, "delta_pix", 1.0)
    # A negative sigma_max over a negative delta_pix would pass the grid's rule.
    require(delta_pix > 0, "delta_pix", "> 0", delta_pix)
    grid = make_scale_grid(sigma_max / delta_pix, _number(raw, "K", integer=True))
    truncation = check_truncation(_number(raw, "truncation", DEFAULT_TRUNCATION))
    seed = _number(raw, "seed", 0, integer=True)

    weights = raw.get("weights", {"uniform": 1.0})
    if not (isinstance(weights, dict) and len(weights) == 1
            and ("uniform" in weights or isinstance(weights.get("file"), str))):
        raise ConfigError("config field 'weights' must be {\"uniform\": value} or {\"file\": path}")

    momentum = raw.get("momentum", SolverConfig.momentum)
    scene = raw.get("scene")
    if scene is not None:
        if not isinstance(scene, dict):
            raise ConfigError(f"config field 'scene' must be an object, got {scene!r}")
        _check_known(scene, SCENE_FIELDS, "scene.")
        if "noise_sigma" in scene and "noise_sigma_rel" in scene:
            raise ConfigError("config field 'scene' sets both noise_sigma and noise_sigma_rel")
        amplitude = scene.get("amplitude", [1.0, 1.0])
        if not (isinstance(amplitude, list) and len(amplitude) == 2):
            raise ConfigError("config field 'scene.amplitude' must be a [lo, hi] pair")
        profile = scene.get("scale_profile")
        if not (profile is None or isinstance(profile, list)):
            raise ConfigError("config field 'scene.scale_profile' must be a list")
        number = functools.partial(_number, scene, scope="scene")
        scene = SceneSpec(
            rows=number("rows", integer=True), cols=number("cols", integer=True),
            depth=grid.num_bins, n_sources=number("n_sources", integer=True),
            min_separation=number("min_separation", 1.0),
            amplitude_lo=_number(amplitude, 0, scope="scene.amplitude"),
            amplitude_hi=_number(amplitude, 1, scope="scene.amplitude"),
            noise_sigma=number("noise_sigma", 0.0), seed=seed, noise_sigma_rel=(
                number("noise_sigma_rel") if "noise_sigma_rel" in scene else None),
            scale_profile=None if profile is None else [
                _number(profile, i, scope="scene.scale_profile") for i in range(len(profile))])

    return RunConfig(  # weights None: apg_solve checks the weights image
        lam=_number(raw, "lambda"), weights=None,
        momentum=momentum.lower() if isinstance(momentum, str) else momentum,
        chambolle_a=_number(raw, "chambolle_a", SolverConfig.chambolle_a),
        max_iters=_number(raw, "max_iters", SolverConfig.max_iters, integer=True),
        rel_tol=_number(raw, "rel_tol", SolverConfig.rel_tol),
        sigma_max_pixels=grid.sigma_max_pixels, num_scales=grid.num_bins, truncation=truncation,
        weights_uniform=None if "file" in weights else _number(weights, "uniform", scope="weights"),
        weights_file=weights.get("file"), seed=seed, scene=scene)


def _kernel_bank(cfg):
    grid = make_scale_grid(cfg.sigma_max_pixels, cfg.num_scales)
    return build_kernel_bank(grid, cfg.truncation)


def _read_checked(path, check):
    """Read a tensor file and pass it through `check`; a failure names the file."""
    try:
        return check(codec.read_tensor(path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _weights_image(cfg, shape):
    """The weights image: the weights file (2-D and finite; apg_solve checks
    its shape) or the uniform value as an image of `shape`."""
    if cfg.weights_file is None:
        return np.full(shape, cfg.weights_uniform)
    return _read_checked(cfg.weights_file, as_image)


def run_synth(cfg, bank):
    """Generate and render the scene: (a_true, d_obs, ground truth, meta), all finite."""
    spec = cfg.scene
    if spec is None:
        raise ConfigError("config field 'scene' is missing")
    noise_seed = spec.seed + 1
    with np.errstate(over="ignore", invalid="ignore"):
        a_true, gt = generate_scene(spec)
        clean = forward(a_true, bank)
        noise_sigma = (spec.noise_sigma if spec.noise_sigma_rel is None
                       else spec.noise_sigma_rel * float(np.max(clean)))
        d_obs = add_noise(clean, noise_sigma, noise_seed)
    if not np.isfinite(clean).all():
        raise ConfigError("config fields 'scene.amplitude'/'scene.scale_profile' "
                          "give a non-finite clean image")
    if not np.isfinite(d_obs).all():  # the clean image is finite: the noise overflowed
        field = "noise_sigma" if spec.noise_sigma_rel is None else "noise_sigma_rel"
        raise ConfigError(f"config field 'scene.{field}' gives a non-finite observation, "
                          f"got {spec.noise_sigma_rel or spec.noise_sigma!r}")
    meta = {
        "generator": GENERATOR_NAME,
        "seed": spec.seed,
        "noise_seed": noise_seed,
        "rows": spec.rows,
        "cols": spec.cols,
        "K": spec.depth,
        "n_sources": spec.n_sources,
        "min_separation": spec.min_separation,
        "amplitude": [spec.amplitude_lo, spec.amplitude_hi],
        "noise_sigma": noise_sigma,
    }
    return a_true, d_obs, gt, meta


def run_solve(cfg, bank, weights, d_obs):
    return apg_solve(d_obs, bank, replace(cfg, weights=weights))


def _check_tol(tol):
    if not np.isfinite(tol) or tol < 0:
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol}")


def _check_paths(inputs, outputs, out_dir=None):
    """Reject, before any stage runs, an output path that names an input or an
    earlier output (the write would replace it), an existing directory, or a
    file in no existing directory (the write would fail after the earlier
    outputs were written), and an `out_dir` (the --out-dir the command makes,
    parents included) that is or lies under a file. Both lists hold (flag,
    path) pairs; a None path is absent."""
    made = None if out_dir is None else Path(out_dir).resolve()
    if made is not None and not next(p for p in (made, *made.parents) if p.exists()).is_dir():
        raise ConfigError(f"--out-dir names a file or a path under one: {out_dir}")
    seen = [(flag, Path(path).resolve()) for flag, path in inputs if path is not None]
    for flag, path in outputs:
        if path is None:
            continue
        resolved = Path(path).resolve()
        for other_flag, other in seen:
            if resolved == other:
                raise ConfigError(f"{flag} and {other_flag} name the same file: {path}")
        if resolved.is_dir():
            raise ConfigError(f"{flag} names a directory: {path}")
        if resolved.parent != made and not resolved.parent.is_dir():
            raise ConfigError(f"{flag} names a file in no existing directory: {path}")
        seen.append((flag, resolved))


def run_evaluate(dets, gt, tol):
    """The threshold sweep and its best-F1 report: (sweep, report)."""
    sweep = threshold_sweep(dets, gt, tol)
    return sweep, best_report(sweep)


def _json(obj):
    """Strict JSON: a NaN or an infinity raises ValueError, not `Infinity`."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _write_scene(out_dir, a_true, d_obs, gt, meta):
    out_dir.mkdir(parents=True, exist_ok=True)
    a_true_path, d_obs_path, gt_path, meta_path = (out_dir / name for name in SCENE_FILES)
    codec.write_tensor(a_true_path, a_true)
    codec.write_tensor(d_obs_path, d_obs)
    codec.write_ground_truth_csv(gt_path, gt)
    meta_path.write_text(_json(meta))


def _write_solve(result, out, trace):
    codec.write_tensor(out, result.a_opt)
    if trace is not None:
        codec.write_table(trace, codec.TRACE_HEADER, enumerate(result.objectives, start=1))


def _write_evaluation(report_path, sweep_path, sweep, report, tol):
    """report.json, with a +inf best threshold (no detection kept) as null, and the sweep."""
    Path(report_path).write_text(_json({
        "threshold": None if report.threshold == np.inf else report.threshold,
        "TP": report.tp,
        "FP": report.fp,
        "FN": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "tolerance": tol,
    }))
    codec.write_table(sweep_path, codec.SWEEP_HEADER, sweep)


def _print_cap(cfg, result):
    if not result.converged:
        print(
            f"not converged: hit max_iters = {cfg.max_iters} with rel change "
            f"{result.final_rel_change:.3e} > rel_tol {cfg.rel_tol:g}"
        )


def _cmd_synth(args):
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir)
    _check_paths([("--config", args.config)],
                 [("--out-dir", out_dir / name) for name in SCENE_FILES], out_dir)
    _write_scene(out_dir, *run_synth(cfg, _kernel_bank(cfg)))
    print(f"scene written to {args.out_dir}")


def _cmd_solve(args):
    cfg = load_config(args.config)
    _check_paths([("--config", args.config), ("--obs", args.obs),
                  ("config field 'weights.file'", cfg.weights_file)],
                 [("--out", args.out), ("--trace", args.trace)])
    d_obs = _read_checked(args.obs, as_image)
    bank = _kernel_bank(cfg)
    result = run_solve(cfg, bank, _weights_image(cfg, d_obs.shape), d_obs)
    _write_solve(result, args.out, args.trace)
    print(
        f"solved in {result.iterations} iterations, {result.restarts} restarts "
        f"(final rel change {result.final_rel_change:.3e})"
    )
    _print_cap(cfg, result)


def _cmd_detect(args):
    _check_paths([("--volume", args.volume)], [("--out", args.out)])
    dets = _read_checked(args.volume, lambda vol: detect(as_volume(vol)))
    codec.write_detections_csv(args.out, dets)
    print(f"{len(dets)} detections written to {args.out}")


def _cmd_evaluate(args):
    sweep_path = args.sweep or str(Path(args.out).with_suffix("")) + "_sweep.csv"
    _check_paths([("--detections", args.detections), ("--ground-truth", args.ground_truth)],
                 [("--out", args.out), ("--sweep", sweep_path)])
    _check_tol(args.tol)
    dets = codec.read_detections_csv(args.detections)
    gt = codec.read_ground_truth_csv(args.ground_truth)
    sweep, report = run_evaluate(dets, gt, args.tol)
    _write_evaluation(args.out, sweep_path, sweep, report, args.tol)
    print(
        f"best F1 {report.f1:.4f} at threshold {report.threshold:.6g} "
        f"(TP={report.tp} FP={report.fp} FN={report.fn})"
    )


def _cmd_pipeline(args):
    _check_tol(args.tol)
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir)
    _check_paths([("--config", args.config), ("config field 'weights.file'", cfg.weights_file)],
                 [("--out-dir", out_dir / name) for name in SCENE_FILES + RUN_FILES], out_dir)
    bank = _kernel_bank(cfg)
    a_true, d_obs, gt, meta = run_synth(cfg, bank)
    result = run_solve(cfg, bank, _weights_image(cfg, d_obs.shape), d_obs)
    dets = detect(result.a_opt)
    sweep, report = run_evaluate(dets, gt, args.tol)
    a_opt_path, trace_path, dets_path, report_path, sweep_path = (
        out_dir / name for name in RUN_FILES)
    _write_scene(out_dir, a_true, d_obs, gt, meta)
    _write_solve(result, a_opt_path, trace_path)
    codec.write_detections_csv(dets_path, dets)
    _write_evaluation(report_path, sweep_path, sweep, report, args.tol)
    print(
        f"pipeline done: {result.iterations} iterations, {result.restarts} restarts, "
        f"{len(dets)} detections, best F1 {report.f1:.4f} at threshold {report.threshold:.6g}"
    )
    _print_cap(cfg, result)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spotdeconv",
        description="Group-sparse multi-kernel deconvolution and spot detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("solve", help="reconstruct a volume from an observation")
    p.add_argument("--config", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("detect", help="extract detections from a volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="score detections against ground truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="synth + solve + detect + evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
