import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spotdeconv
from spotdeconv import cli, codec
from spotdeconv.cli import ConfigError, RunConfig, load_config, main
from spotdeconv.detection import Detection
from spotdeconv.evaluation import match
from spotdeconv.kernels import build_kernel_bank, make_scale_grid
from spotdeconv.solver import SolverConfig, objective

from oracles import reference_threshold_sweep


def _write_config(tmp_path, **overrides):
    cfg = {
        "sigma_max": 1.5,
        "delta_pix": 1.0,
        "K": 2,
        "lambda": 0.05,
        "weights": {"uniform": 1.0},
        "momentum": "beck",
        "rel_tol": 1e-6,
        "max_iters": 500,
        "seed": 123,
        "scene": {
            "rows": 24,
            "cols": 24,
            "n_sources": 3,
            "min_separation": 8.0,
            "amplitude": [3.0, 5.0],
            "noise_sigma_rel": 0.01,
        },
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_missing_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"K": 2, "lambda": 0.1}))
    with pytest.raises(ConfigError, match="'sigma_max'"):
        load_config(path)


def test_load_config_bad_momentum(tmp_path):
    path = _write_config(tmp_path, momentum="turbo")
    with pytest.raises(ConfigError, match="momentum"):
        load_config(path)


def test_load_config_bad_weights(tmp_path):
    path = _write_config(tmp_path, weights={"magic": 1})
    with pytest.raises(ConfigError, match="weights"):
        load_config(path)


@pytest.mark.parametrize("case, problem", [
    ("missing", "cannot be read: [Errno 2]"),
    ("directory", "cannot be read: [Errno 21]"),
    ("invalid-json", "is not valid JSON: Expecting"),
    ("json-array", "must be a JSON object"),
])
def test_unloadable_config_exit_code(tmp_path, capsys, case, problem):
    # load_config refuses a config file it cannot read or parse with one line
    # naming the file, before the pipeline makes its out-dir.
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_text({"invalid-json": '{"K": 2,', "json-array": "[]"}[case])
    out = tmp_path / "p"
    rc = main(["pipeline", "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: config {path} {problem}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("max_iters", [0, -3])
def test_load_config_bad_max_iters(tmp_path, max_iters):
    path = _write_config(tmp_path, max_iters=max_iters)
    with pytest.raises(ConfigError, match="'max_iters'"):
        load_config(path)


def _set_field(cfg, dotted, value):
    """Set a field named like 'scene.amplitude.0' in a nested config."""
    *parents, key = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    for parent in parents:
        cfg = cfg[parent]
    cfg[key] = value


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("dotted, value, named", [
    pytest.param("truncation", INF, "'truncation'", id="truncation-inf-'truncation'"),
    pytest.param("truncation", NAN, "'truncation'", id="truncation-nan-'truncation'"),
    pytest.param("scene", [1], "'scene'", id="scene-value2-'scene'"),
    pytest.param("rel_tol", NAN, "'rel_tol'", id="rel_tol-nan-'rel_tol'"),
    pytest.param("K", 1.7, "'K'", id="K-1.7-'K'"),
    pytest.param("max_iters", 2.5, "'max_iters'", id="max_iters-2.5-'max_iters'"),
    pytest.param("lambda", NAN, "'lambda'", id="lambda-nan-'lambda'"),
    pytest.param("weights.uniform", NAN, "'weights.uniform'",
                 id="weights.uniform-nan-'weights.uniform'"),
    pytest.param("chambolle_a", NAN, "'chambolle_a'", id="chambolle_a-nan-'chambolle_a'"),
    pytest.param("sigma_max", NAN, "'sigma_max'", id="sigma_max-nan-'sigma_max'"),
    pytest.param("delta_pix", NAN, "'delta_pix'", id="delta_pix-nan-'delta_pix'"),
    pytest.param("scene.noise_sigma_rel", NAN, "'scene.noise_sigma_rel'",
                 id="scene.noise_sigma_rel-nan-'scene.noise_sigma_rel'"),
    pytest.param("scene.noise_sigma", 0.1, "noise_sigma and noise_sigma_rel",
                 id="scene.noise_sigma-0.1-noise_sigma and noise_sigma_rel"),
    pytest.param("scene.n_sources", -1, "n_sources", id="scene.n_sources--1-n_sources"),
    pytest.param("scene.rows", 0, "rows", id="scene.rows-0-rows"),
    pytest.param("max_iter", 3, "'max_iter'", id="max_iter-3-'max_iter'"),
    pytest.param("scene.noise_sigmarel", 0.5, "'scene.noise_sigmarel'",
                 id="scene.noise_sigmarel-0.5-'scene.noise_sigmarel'"),
    # A library bound, worded with the config field's name.
    pytest.param("K", 0, "'K' must be >= 1, got 0\n", id="K-0-'K' must be >= 1, got 0\n"),
    pytest.param("seed", -1, "'seed' must be >= 0, got -1\n",
                 id="seed--1-'seed' must be >= 0, got -1\n"),
    pytest.param("scene.rows", 0, "'scene.rows' must be >= 1, got 0\n",
                 id="scene.rows-0-'scene.rows' must be >= 1, got 0\n"),
    pytest.param("scene.amplitude", [2.0, 1.0],
                 "'scene.amplitude' must be [lo, hi] with 0 < lo <= hi, got [2.0, 1.0]\n",
                 id="scene.amplitude-value20-'scene.amplitude' must be [lo, hi] "
                    "with 0 < lo <= hi, got [2.0, 1.0]\n"),
    # Refused at load, not after 10,000 placement attempts.
    pytest.param("scene", {"rows": 16, "cols": 16, "n_sources": 1000000, "min_separation": 1.0},
                 "'scene.n_sources' must be <= 256, one per 1x1 pixel block at min_separation "
                 "1.0, got 1000000\n",
                 id="scene-value21-'scene.n_sources' must be <= 256, one per 1x1 pixel block "
                    "at min_separation 1.0, got 1000000\n"),
    pytest.param("rel_tol", 5e-324, "'rel_tol'",
                 id="rel_tol-5e-324-'rel_tol'"),  # below float64's epsilon: never reached
    # Fit the pixels but not the separation: refused by the packing bound.
    pytest.param("scene", {"rows": 16, "cols": 16, "n_sources": 100, "min_separation": 1.5},
                 "'scene.n_sources' must be <= 64, one per 2x2 pixel block at min_separation "
                 "1.5, got 100\n",
                 id="scene-value23-'scene.n_sources' must be <= 64, one per 2x2 pixel block "
                    "at min_separation 1.5, got 100\n"),
    pytest.param("scene", {"rows": 4, "cols": 4, "n_sources": 10, "min_separation": 10},
                 "'scene.n_sources' must be <= 1, one per 4x4 pixel block at min_separation "
                 "10.0, got 10\n",
                 id="scene-value24-'scene.n_sources' must be <= 1, one per 4x4 pixel block "
                    "at min_separation 10.0, got 10\n"),
])
def test_pipeline_rejects_bad_config_value(tmp_path, capsys, dotted, value, named):
    path = Path(_write_config(tmp_path))
    cfg = json.loads(path.read_text())
    _set_field(cfg, dotted, value)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "p"
    rc = main(["pipeline", "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: config field") and named in err
    assert not out.exists()


DEMO_CONFIG = Path(__file__).parent.parent / "configs" / "demo.json"
DEMO_FIELDS = [
    "sigma_max", "delta_pix", "K", "truncation", "lambda", "weights", "weights.uniform",
    "weights.file", "momentum", "chambolle_a", "rel_tol", "max_iters", "seed", "scene",
    "scene.rows", "scene.cols", "scene.n_sources", "scene.min_separation",
    "scene.amplitude", "scene.amplitude.0", "scene.amplitude.1", "scene.noise_sigma",
    "scene.noise_sigma_rel", "scene.scale_profile",
]
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=6), st.floats(),
        st.integers(-10**6, 10**6), st.sampled_from([10**400, -10**400, 2**64, -1, 0, 4]),
    ),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dotted=st.sampled_from(DEMO_FIELDS), value=json_values)
@example(dotted="truncation", value=0)  # the bank's rule, checked at load too
@example(dotted="truncation", value=-1.5)
@example(dotted="sigma_max", value=1e-310)
@example(dotted="max_iters", value=0)
def test_load_config_any_field_value(tmp_path, dotted, value):
    cfg = json.loads(DEMO_CONFIG.read_text())
    _set_field(cfg, dotted, value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        run = load_config(path)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    assert np.isfinite([run.sigma_max_pixels, run.truncation, run.lam, run.rel_tol]).all()
    # load_config accepts nothing the library rejects. A bank past these sizes
    # takes memory and time in proportion (ROADMAP item 6); a bad truncation is
    # small, so it is built, and a NaN product fails the size test.
    grid = make_scale_grid(run.sigma_max_pixels, run.num_scales)
    if run.num_scales <= 64 and not run.truncation * run.sigma_max_pixels > 1e4:
        build_kernel_bank(grid, run.truncation)
    SolverConfig(lam=run.lam, momentum=run.momentum, chambolle_a=run.chambolle_a,
                 max_iters=run.max_iters, rel_tol=run.rel_tol)


# For each SolverConfig field a config sets: a valid value, neither its default nor the demo's.
SOLVER_FIELD_VALUES = {"lam": 0.125, "momentum": "chambolle", "chambolle_a": 4.5,
                       "max_iters": 7, "rel_tol": 1e-3}


@pytest.mark.parametrize("field", dataclasses.fields(SolverConfig), ids=lambda f: f.name)
def test_every_solver_field_reaches_apg_solve(tmp_path, monkeypatch, field):
    # A SolverConfig field is a config key, and solve hands apg_solve its value.
    key = "lambda" if field.name == "lam" else field.name
    assert key in cli.CONFIG_FIELDS
    value = SOLVER_FIELD_VALUES[field.name]
    cfg = json.loads(DEMO_CONFIG.read_text())
    assert value != cfg.get(key) and value != field.default
    cfg[key] = value
    path, obs = tmp_path / "cfg.json", tmp_path / "d_obs.f64t"
    path.write_text(json.dumps(cfg))
    codec.write_tensor(obs, np.ones((8, 8)))
    seen, solve = [], cli.apg_solve
    monkeypatch.setattr(cli, "apg_solve", lambda d_obs, w, bank, solver_cfg: (
        seen.append(solver_cfg) or solve(d_obs, w, bank, solver_cfg)))
    assert main(["solve", "--config", str(path), "--obs", str(obs),
                 "--out", str(tmp_path / "a.f64t")]) == 0
    assert getattr(seen[0], field.name) == value


FUZZ_CONFIG = {
    "sigma_max": 1.5, "delta_pix": 1.0, "K": 2, "truncation": 4.0, "lambda": 0.05,
    "weights": {"uniform": 1.0}, "momentum": "beck", "chambolle_a": 3.0, "rel_tol": 1e-4,
    "max_iters": 200, "seed": 7,
    "scene": {"rows": 16, "cols": 16, "n_sources": 2, "min_separation": 6.0,
              "amplitude": [3.0, 5.0], "noise_sigma_rel": 0.01},
}
FUZZ_FIELDS = [
    *cli.CONFIG_FIELDS, "weights.uniform", "weights.file", "max_iter",
    *(f"scene.{name}" for name in cli.SCENE_FIELDS), "scene.amplitude.0", "scene.amplitude.1",
    "scene.scale_profile.0", "scene.seed",
]
DELETE = object()
# The only positive values below 0.5 are subnormal, so with sigma_max capped,
# sigma_max/delta_pix is at most 2 * FUZZ_CAPS["sigma_max"] px or overflows to inf.
fuzz_scalars = st.sampled_from([
    -1, 0, -0.0, 0.5, 1, 2, 3, 1.7, 64.0, 2**64, 10**400, -1e300, 1e300, 1e308, 5e-324, 1e-310,
    NAN, INF, True, False, None, "", "beck", "CHAMBOLLE", "none", "1.0", "missing.f64t",
])
fuzz_values = (fuzz_scalars | st.lists(fuzz_scalars, max_size=3)
               | st.dictionaries(st.sampled_from(["uniform", "file", "x"]), fuzz_scalars,
                                 max_size=2)
               | st.just(DELETE))
# Until the kernel bank is clipped to the image extent (ROADMAP item 6),
# these values allocate memory in proportion: the volumes grow with
# rows * cols * K, the tap arrays with truncation * sigma_max/delta_pix.
# Of the values that take time in proportion, only max_iters is capped:
# n_sources is bounded by rows * cols. A number above its cap is set to the cap.
FUZZ_CAPS = {"scene.rows": 24, "scene.cols": 24, "K": 6, "truncation": 40, "sigma_max": 8,
             "max_iters": 300}


def _fuzz_edit(cfg, dotted, value):
    """Set (or delete, for DELETE) the field named like 'scene.amplitude.0'; an
    edit under a parent that an earlier edit replaced or removed does nothing."""
    *parents, key = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    for parent in parents:
        if not (isinstance(cfg, dict) and parent in cfg
                or isinstance(cfg, list) and isinstance(parent, int) and parent < len(cfg)):
            return
        cfg = cfg[parent]
    if isinstance(key, int) and not (isinstance(cfg, list) and key < len(cfg)):
        return
    if not isinstance(key, int) and not isinstance(cfg, dict):
        return
    cap = FUZZ_CAPS.get(dotted)
    if cap is not None and type(value) in (int, float) and value > cap:
        value = cap
    if value is not DELETE:
        cfg[key] = value
    elif isinstance(cfg, dict):
        cfg.pop(key, None)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), fuzz_values),
                      min_size=1, max_size=3))
def test_cli_contract_under_random_config_edits(tmp_path, capsys, edits):
    # Every config either runs (exit 0, every file written, nothing on stderr)
    # or fails with one `error: ` line, no traceback and no out-dir.
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    for dotted, value in edits:
        _fuzz_edit(cfg, dotted, value)
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        path = Path(work) / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command, files in [("synth", cli.SCENE_FILES),
                               ("pipeline", cli.SCENE_FILES + cli.RUN_FILES)]:
            out = Path(work) / command
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([command, "--config", str(path), "--out-dir", str(out)])
            err = capsys.readouterr().err
            if rc == 0:
                assert err == ""
                assert sorted(p.name for p in out.iterdir()) == sorted(files)
            else:
                assert rc == 1
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                assert "Traceback" not in err
                assert not out.exists()


@pytest.mark.parametrize("overrides, px", [
    ({"sigma_max": 1e-310}, "1e-310"),
    ({"delta_pix": 1e308, "sigma_max": 1e-5}, "1e-313"),
])
def test_tiny_sigma_max_pixels_names_sigma(tmp_path, capsys, overrides, px):
    # 1/sigma_max_pixels, the scale of the solver's step, overflows: the
    # config fields that set it are at fault, not the weights (uniform 1.0).
    cfg = json.loads(DEMO_CONFIG.read_text())
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "p"
    rc = main(["pipeline", "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: config field 'sigma_max/delta_pix' must be finite and > 0 "
                   f"with a finite reciprocal, got {px}\n")
    assert not out.exists()


def _readme_section(start, end):
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return text[text.index(start):text.index(end, text.index(start))]


def test_readme_lists_every_config_field():
    # A new key cannot land undocumented: the schema table lists exactly
    # CONFIG_FIELDS, and the scene paragraph names exactly SCENE_FIELDS.
    table = _readme_section("| field ", "\n\n")
    assert re.findall(r"^\| `(\w+)`", table, re.MULTILINE) == list(cli.CONFIG_FIELDS)
    scene = _readme_section("Scene block:", "\n\n")
    assert sorted(set(re.findall(r"`(\w+)`", scene))) == sorted(cli.SCENE_FIELDS)


def test_synth_outputs(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "scene"
    assert main(["synth", "--config", cfg, "--out-dir", str(out)]) == 0
    d_obs = codec.read_tensor(out / "d_obs.f64t")
    a_true = codec.read_tensor(out / "a_true.f64t")
    gt = codec.read_ground_truth_csv(out / "gt.csv")
    meta = json.loads((out / "meta.json").read_text())
    assert d_obs.shape == (24, 24)
    assert a_true.shape == (24, 24, 2)
    assert len(gt) == 3
    assert meta["generator"] == "numpy-pcg64"
    assert meta["seed"] == 123


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("scene, named", [
    # 1e308 overflows: as a relative sigma at once, as an absolute one in the noise.
    pytest.param({"noise_sigma": 1e308},
                 "'scene.noise_sigma' gives a non-finite observation, got 1e+308",
                 id="noise_sigma"),
    pytest.param({"noise_sigma_rel": 1e308},
                 "'scene.noise_sigma_rel' gives a non-finite observation, got 1e+308",
                 id="noise_sigma_rel"),
    # 1e300 times 1e10 overflows in the source volume itself.
    pytest.param({"amplitude": [1e300, 1e300], "scale_profile": [1e10, 1.0]},
                 "'scene.amplitude'/'scene.scale_profile' give a non-finite clean image",
                 id="amplitude"),
])
def test_non_finite_scene_exit_code(tmp_path, capsys, command, scene, named):
    path = Path(_write_config(tmp_path))
    cfg = json.loads(path.read_text())
    del cfg["scene"]["noise_sigma_rel"]
    cfg["scene"].update(scene)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: config field") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("profile", [[-1.0, 2.0], [0.0, 0.0], [-0.5, -0.5]])
def test_bad_scale_profile_exit_code(tmp_path, capsys, command, profile):
    # A negative entry makes a negative source; no positive entry, no source at all.
    path = Path(_write_config(tmp_path))
    cfg = json.loads(path.read_text())
    cfg["scene"]["scale_profile"] = profile
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: config field 'scene.scale_profile")
    assert not out.exists()


def test_synth_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["synth", "--config", cfg, "--out-dir", str(out1)])
    main(["synth", "--config", cfg, "--out-dir", str(out2)])
    assert (out1 / "d_obs.f64t").read_bytes() == (out2 / "d_obs.f64t").read_bytes()


def test_solve_detect_evaluate_chain(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["synth", "--config", cfg, "--out-dir", str(out)])
    assert main([
        "solve", "--config", cfg, "--obs", str(out / "d_obs.f64t"),
        "--out", str(out / "a_opt.f64t"), "--trace", str(out / "trace.csv"),
    ]) == 0
    assert (out / "trace.csv").exists()
    assert main([
        "detect", "--volume", str(out / "a_opt.f64t"),
        "--out", str(out / "det.csv"),
    ]) == 0
    assert main([
        "evaluate", "--detections", str(out / "det.csv"),
        "--ground-truth", str(out / "gt.csv"),
        "--out", str(out / "report.json"),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"threshold", "TP", "FP", "FN", "precision", "recall", "f1"}
    assert (out / "report_sweep.csv").exists()


def test_pipeline_end_to_end(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    for name in ["d_obs.f64t", "a_true.f64t", "a_opt.f64t", "gt.csv",
                 "detections.csv", "report.json", "sweep.csv", "trace.csv",
                 "meta.json"]:
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["f1"] == 1.0


@pytest.mark.parametrize("case, message", [
    ("zero-weights", "degenerate weights"),
    ("weights-square-underflows", "degenerate weights"),
    ("weights-square-overflows", "degenerate weights"),
    ("weights-step-overflows", "degenerate weights"),
    ("weights-shape", "shape (24, 23)"),
    ("weights-nan", "non-finite"),
    ("infeasible-scene", "could not place"),
])
def test_pipeline_checks_run_inputs_before_writing(tmp_path, capsys, case, message):
    w = np.ones((24, 23) if case == "weights-shape" else (24, 24))
    if case == "weights-nan":
        w[1, 2] = np.nan
    codec.write_tensor(tmp_path / "w.f64t", w)
    overrides = {
        "zero-weights": {"weights": {"uniform": 0.0}},
        "weights-square-underflows": {"weights": {"uniform": 1e-200}},
        "weights-square-overflows": {"weights": {"uniform": 1e160}},
        "weights-step-overflows": {"weights": {"uniform": 1e-155}},
        "weights-shape": {"weights": {"file": str(tmp_path / "w.f64t")}},
        "weights-nan": {"weights": {"file": str(tmp_path / "w.f64t")}},
        "infeasible-scene": {"scene": {"rows": 16, "cols": 16, "n_sources": 3,
                                       "min_separation": 18}},
    }[case]
    out = tmp_path / "p"
    rc = main(["pipeline", "--config", _write_config(tmp_path, **overrides),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err and message in err
    assert not out.exists()


def test_pipeline_builds_bank_and_clean_image_once(tmp_path, monkeypatch):
    calls = {"build_kernel_bank": 0, "forward": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["pipeline", "--config", _write_config(tmp_path),
                 "--out-dir", str(tmp_path / "p")]) == 0
    assert calls == {"build_kernel_bank": 1, "forward": 1}


def test_pipeline_matches_subcommand_chain(tmp_path):
    cfg = _write_config(tmp_path)
    pipe, chain = tmp_path / "pipe", tmp_path / "chain"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(pipe)]) == 0
    assert main(["synth", "--config", cfg, "--out-dir", str(chain)]) == 0
    assert main(["solve", "--config", cfg, "--obs", str(chain / "d_obs.f64t"),
                 "--out", str(chain / "a_opt.f64t"), "--trace", str(chain / "trace.csv")]) == 0
    assert main(["detect", "--volume", str(chain / "a_opt.f64t"),
                 "--out", str(chain / "detections.csv")]) == 0
    assert main(["evaluate", "--detections", str(chain / "detections.csv"),
                 "--ground-truth", str(chain / "gt.csv"), "--out", str(chain / "report.json"),
                 "--sweep", str(chain / "sweep.csv")]) == 0
    names = sorted(p.name for p in pipe.iterdir())
    assert names == sorted(p.name for p in chain.iterdir())
    assert len(names) == 9
    for name in names:
        assert (pipe / name).read_bytes() == (chain / name).read_bytes(), name


def test_solve_degenerate_weights_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, weights={"uniform": 0.0})
    out = tmp_path / "scene"
    main(["synth", "--config", _write_config(tmp_path), "--out-dir", str(out)])
    cfg = _write_config(tmp_path, weights={"uniform": 0.0})
    rc = main([
        "solve", "--config", cfg, "--obs", str(out / "d_obs.f64t"),
        "--out", str(out / "a.f64t"),
    ])
    assert rc == 1
    assert "degenerate weights" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("solve", "--trace"), ("evaluate", "--sweep")])
def test_two_outputs_on_one_path_exit_code(tmp_path, capsys, monkeypatch, command, flag):
    # One file named twice, relative and absolute: the second write would replace the first.
    cfg = _write_config(tmp_path)
    assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    codec.write_detections_csv(tmp_path / "det.csv", [])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    inputs = {
        "solve": ["--config", cfg, "--obs", "d_obs.f64t"],
        "evaluate": ["--detections", "det.csv", "--ground-truth", "gt.csv"],
    }[command]
    same = tmp_path / "same.out"
    rc = main([command, *inputs, "--out", "same.out", flag, str(same)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {flag} and --out name the same file: ")
    assert not same.exists()


@pytest.mark.parametrize("command, source, flag", [
    ("detect", "--volume", "--out"),
    ("solve", "--obs", "--out"),
    ("solve", "--obs", "--trace"),
    ("solve", "--config", "--out"),
    ("evaluate", "--detections", "--out"),
    ("evaluate", "--ground-truth", "--out"),
    ("evaluate", "--detections", "--sweep"),
    ("evaluate", "--ground-truth", "--sweep"),
])
def test_output_on_an_input_path_exit_code(tmp_path, capsys, monkeypatch, command, source, flag):
    # An input named again as an output, relative and absolute: the write would replace it.
    cfg = _write_config(tmp_path)
    assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert main(["solve", "--config", cfg, "--obs", str(tmp_path / "d_obs.f64t"),
                 "--out", str(tmp_path / "a.f64t")]) == 0
    codec.write_detections_csv(tmp_path / "det.csv", [])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    args = {
        "detect": {"--volume": "a.f64t", "--out": "det_out.csv"},
        "solve": {"--config": "cfg.json", "--obs": "d_obs.f64t", "--out": "a_out.f64t"},
        "evaluate": {"--detections": "det.csv", "--ground-truth": "gt.csv",
                     "--out": "report.json", "--sweep": "sweep.csv"},
    }[command]
    args[flag] = str(tmp_path / args[source])
    before = (tmp_path / args[source]).read_bytes()
    rc = main([command, *[item for pair in args.items() for item in pair]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {flag} and {source} name the same file: ")
    assert (tmp_path / args[source]).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["a.f64t", "a_true.f64t", "cfg.json", "d_obs.f64t", "det.csv", "gt.csv", "meta.json"])


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_solve_output_on_weights_file_exit_code(tmp_path, capsys, flag):
    # The config's weights file is an input of solve too.
    weights = tmp_path / "w.f64t"
    codec.write_tensor(weights, np.ones((24, 24)))
    cfg = _write_config(tmp_path, weights={"file": str(weights)})
    assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    before = weights.read_bytes()
    outputs = {"--out": str(tmp_path / "a.f64t"), "--trace": str(tmp_path / "trace.csv")}
    outputs[flag] = str(weights)
    rc = main(["solve", "--config", cfg, "--obs", str(tmp_path / "s" / "d_obs.f64t"),
               *[item for pair in outputs.items() for item in pair]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {flag} and config field 'weights.file' name the same file: ")
    assert weights.read_bytes() == before
    assert not (tmp_path / "a.f64t").exists() and not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command, source, name", [
    ("synth", "--config", "meta.json"),
    ("pipeline", "--config", "meta.json"),
    ("pipeline", "config field 'weights.file'", "a_opt.f64t"),
])
def test_out_dir_file_on_an_input_path_exit_code(tmp_path, capsys, command, source, name):
    # A file the command writes into --out-dir is one of its inputs: the write would replace it.
    out = tmp_path / "out"
    out.mkdir()
    if source == "--config":
        cfg = out / name
        cfg.write_text(Path(_write_config(tmp_path)).read_text())
        source_path = cfg
    else:
        source_path = out / name
        codec.write_tensor(source_path, np.ones((24, 24)))
        cfg = _write_config(tmp_path, weights={"file": str(source_path)})
    before = source_path.read_bytes()
    rc = main([command, "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: --out-dir and {source} name the same file: {source_path}\n"
    assert source_path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("command, flag, second, problem", [
    ("solve", "--trace", "missing/t.csv", "names a file in no existing directory"),
    ("solve", "--trace", "sub", "names a directory"),
    ("evaluate", "--sweep", "nodir/s.csv", "names a file in no existing directory"),
    ("evaluate", "--sweep", "sub", "names a directory"),
])
def test_unwritable_second_output_exit_code(tmp_path, capsys, monkeypatch, command, flag,
                                            second, problem):
    # The second write would fail: the command must fail before it writes the first.
    cfg = _write_config(tmp_path)
    assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    codec.write_detections_csv(tmp_path / "det.csv", [])
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    inputs, first = {
        "solve": (["--config", cfg, "--obs", "d_obs.f64t"], "a.f64t"),
        "evaluate": (["--detections", "det.csv", "--ground-truth", "gt.csv"], "r.json"),
    }[command]
    rc = main([command, *inputs, "--out", first, flag, second])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {flag} {problem}: {second}\n"
    assert not (tmp_path / first).exists()


def test_pipeline_out_dir_file_is_a_directory_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    rc = main(["pipeline", "--config", _write_config(tmp_path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: --out-dir names a directory: {out / 'report.json'}\n"
    assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("under", ["", "sub", "sub/deeper"], ids=["file", "under", "deeper"])
def test_out_dir_on_a_file_exit_code(tmp_path, capsys, monkeypatch, command, under):
    # --out-dir is a file, or lies under one, so it cannot be made: the command
    # says so, naming the flag, before any stage runs.
    afile = tmp_path / "afile"
    afile.write_text("kept")
    cfg = _write_config(tmp_path)

    def no_stage(spec):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(cli, "generate_scene", no_stage)
    out = str(afile / under)
    rc = main([command, "--config", cfg, "--out-dir", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: --out-dir names a file or a path under one: {out}\n"
    assert afile.read_text() == "kept"


def test_solve_weights_shape_exit_code(tmp_path, capsys):
    # apg_solve checks the weights' shape for solve as for pipeline.
    obs_path, w_path = tmp_path / "d_obs.f64t", tmp_path / "w.f64t"
    codec.write_tensor(obs_path, np.ones((24, 24)))
    codec.write_tensor(w_path, np.ones((24, 23)))
    cfg = _write_config(tmp_path, weights={"file": str(w_path)})
    out = tmp_path / "a.f64t"
    rc = main(["solve", "--config", cfg, "--obs", str(obs_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err and "shape (24, 23)" in err
    assert not out.exists()


_BLOCK_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
from spotdeconv.cli import main
for argv in {argv!r}:
    if main(argv) != 0:
        sys.exit(1)
"""


def _demo_chain(out):
    """synth, solve, detect and evaluate on the demo into out/chain, pipeline into out/pipe."""
    chain = out / "chain"
    return [
        ["synth", "--config", str(DEMO_CONFIG), "--out-dir", str(chain)],
        ["solve", "--config", str(DEMO_CONFIG), "--obs", str(chain / "d_obs.f64t"),
         "--out", str(chain / "a_opt.f64t"), "--trace", str(chain / "trace.csv")],
        ["detect", "--volume", str(chain / "a_opt.f64t"), "--out", str(chain / "detections.csv")],
        ["evaluate", "--detections", str(chain / "detections.csv"),
         "--ground-truth", str(chain / "gt.csv"), "--out", str(chain / "report.json"),
         "--sweep", str(chain / "sweep.csv")],
        ["pipeline", "--config", str(DEMO_CONFIG), "--out-dir", str(out / "pipe")],
    ]


def test_every_command_runs_without_scipy(tmp_path):
    # The package needs numpy alone: with scipy unimportable, each command
    # exits 0 and writes the same files as a run in this process.
    for argv in _demo_chain(tmp_path / "here"):
        assert main(argv) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(spotdeconv.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    script = _BLOCK_SCIPY.format(argv=_demo_chain(tmp_path / "blocked"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "pipeline done: " in run.stdout
    for sub in ("chain", "pipe"):
        here, blocked = tmp_path / "here" / sub, tmp_path / "blocked" / sub
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in blocked.iterdir())
        assert len(names) == 9
        for name in names:
            assert (here / name).read_bytes() == (blocked / name).read_bytes(), name


def test_evaluate_empty_detections(tmp_path, capsys):
    det_path = tmp_path / "det.csv"
    codec.write_detections_csv(det_path, [])
    gt_path = tmp_path / "gt.csv"
    codec.write_ground_truth_csv(gt_path, [(1.0, 1.0), (5.0, 5.0)])
    rc = main([
        "evaluate", "--detections", str(det_path), "--ground-truth", str(gt_path),
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    assert report["f1"] == 0.0
    assert report["FN"] == 2
    assert report["threshold"] is None


def test_malformed_tensor_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    bad = tmp_path / "bad.f64t"
    bad.write_bytes(b"not a tensor")
    rc = main(["solve", "--config", cfg, "--obs", str(bad), "--out", str(tmp_path / "a.f64t")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_ignores_detection_row_order(tmp_path):
    # With equal p, (0,-2) is scored before (0,1) and takes gt (0,0), which
    # leaves (0,2.5) for (0,1); scored the other way round, (0,1) would
    # take (0,0) and (0,-2) would match nothing.
    lines = ["0.0,1.0,0.5", "0.0,-2.0,0.5", "5.0,5.0,0.25", "9.0,9.0,0.75"]
    gt_path = tmp_path / "gt.csv"
    codec.write_ground_truth_csv(gt_path, [(0.0, 0.0), (0.0, 2.5), (5.0, 6.0)])
    outputs = []
    for name, rows in [("given", lines), ("reversed", lines[::-1])]:
        det_path = tmp_path / f"{name}.csv"
        det_path.write_text("row,col,pseudo_likelihood\n" + "\n".join(rows) + "\n")
        out = tmp_path / f"{name}_report.json"
        assert main(["evaluate", "--detections", str(det_path),
                     "--ground-truth", str(gt_path), "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{name}_report_sweep.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["TP"] == 3


def _run_quiet(capsys, argv):
    """In-process main(argv) with RuntimeWarning as an error: (exit code, stderr)."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    return rc, capsys.readouterr().err


def _evaluate(work, capsys, dets, gt, tol, name="eval"):
    """In-process `evaluate` of the rows `dets` and `gt` with RuntimeWarning as
    an error: (exit code, stderr, report bytes, sweep bytes), None if unwritten."""
    det_path, gt_path = work / f"{name}_det.csv", work / f"{name}_gt.csv"
    codec.write_detections_csv(det_path, dets)
    codec.write_ground_truth_csv(gt_path, gt)
    report, sweep = work / f"{name}.json", work / f"{name}_sweep.csv"
    rc, err = _run_quiet(capsys, ["evaluate", "--detections", str(det_path),
                                  "--ground-truth", str(gt_path), "--out", str(report),
                                  "--sweep", str(sweep), "--tol", repr(tol)])
    return rc, err, *(path.read_bytes() if path.exists() else None for path in (report, sweep))


def test_evaluate_overflowing_distance_is_beyond_tol(tmp_path, capsys):
    # (1e308, -1e308) - (-1e308, 1e308) overflows float64: the distance is
    # inf, beyond any finite tolerance, and no warning reaches stderr.
    dets, gt = [(1e308, -1e308, 1.0)], [(-1e308, 1e308)]
    rc, err, report, _ = _evaluate(tmp_path, capsys, dets, gt, 3.0)
    assert (rc, err) == (0, "")
    report = json.loads(report)
    assert (report["TP"], report["FP"], report["FN"]) == (0, 0, 1)
    assert match([Detection(*d) for d in dets], gt) == (0, 1, 1, {})


EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-3, 3.0, 5e-324, 1e-310, -1e-310,
                               1e154, 1e200, 1e300, -1e300, 1.7e308])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dets=st.lists(st.tuples(EDGE_VALUES, EDGE_VALUES, EDGE_VALUES), max_size=6),
       gt=st.lists(st.tuples(EDGE_VALUES, EDGE_VALUES), max_size=4),
       tol=st.sampled_from([0.0, 1e-3, 3.0, 1e300]), shuffle=st.randoms())
@example(dets=[(1e308, -1e308, 1.0)], gt=[(-1e308, 1e308)], tol=3.0, shuffle=random.Random(0))
# Equal but for the sign of a zero p: the threshold is -0.0 in either order.
@example(dets=[(0.0, 0.0, 0.0), (0.0, 0.0, -0.0)], gt=[], tol=3.0, shuffle=random.Random(0))
def test_evaluate_contract_under_random_inputs(tmp_path, capsys, dets, gt, tol, shuffle):
    # Any two small CSVs are scored: exit 0, both files written, nothing on
    # stderr, the reference sweep, and the same bytes for shuffled detections.
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        runs = [_evaluate(Path(work), capsys, rows, gt, tol, name) for name, rows in
                [("given", dets), ("shuffled", shuffle.sample(dets, len(dets)))]]
    for rc, err, report, sweep in runs:
        assert (rc, err) == (0, "") and report is not None and sweep is not None
    assert runs[0][2:] == runs[1][2:]
    rows = [line.split(",") for line in runs[0][3].decode().splitlines()[1:]]
    with np.errstate(over="ignore"):  # the oracle's np.hypot of huge differences
        want = reference_threshold_sweep([Detection(*d) for d in dets], gt, tol)
    assert [(float(t), int(tp), int(fp), int(fn)) for t, tp, fp, fn, *_ in rows] == want


def _assert_contract(rc, err, outputs):
    """Exit 0, every output written and nothing on stderr; or exit 1, one
    `error: ` line, no traceback and no output written."""
    if rc == 0:
        assert err == "" and all(path.exists() for path in outputs)
    else:
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert not any(path.exists() for path in outputs)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obs=arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                  elements=EDGE_VALUES),
       volume=arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16),
                                           st.integers(1, 4)), elements=EDGE_VALUES),
       weights=st.sampled_from(["default", "default", "default", "default", "file", "uniform"]),
       data=st.data())
def test_solve_detect_contract_under_random_files(tmp_path, capsys, obs, volume, weights,
                                                  data):
    # Any small observation is solved and any small volume is detected, or
    # the command fails with one line and writes nothing.
    cfg = dict(FUZZ_CONFIG, max_iters=20)
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        if weights == "file":
            w = data.draw(arrays(np.float64, obs.shape, elements=EDGE_VALUES), label="w")
            codec.write_tensor(work / "w.f64t", w)
            cfg["weights"] = {"file": str(work / "w.f64t")}
        elif weights == "uniform":
            cfg["weights"] = {"uniform": data.draw(EDGE_VALUES, label="uniform")}
        (work / "cfg.json").write_text(json.dumps(cfg))
        codec.write_tensor(work / "d_obs.f64t", obs)
        codec.write_tensor(work / "a.f64t", volume)
        outputs = [work / "a_opt.f64t", work / "trace.csv"]
        rc, err = _run_quiet(capsys, ["solve", "--config", str(work / "cfg.json"),
                                      "--obs", str(work / "d_obs.f64t"),
                                      "--out", str(outputs[0]), "--trace", str(outputs[1])])
        _assert_contract(rc, err, outputs)
        rc, err = _run_quiet(capsys, ["detect", "--volume", str(work / "a.f64t"),
                                      "--out", str(work / "det.csv")])
        _assert_contract(rc, err, [work / "det.csv"])


@pytest.mark.parametrize("which, body, message", [
    ("detections", "row,col,pseudo_likelihood\n1.0,2.0,0.5\n3.0,4.0\n",
     "line 3: expected 3 fields, got 2"),
    ("detections", "row,col,pseudo_likelihood\n1.0,2.0,nan\n",
     "line 2: non-finite value"),
    ("detections", "row,col,pseudo_likelihood\n1.0,2.0,0.5,7\n",
     "line 2: expected 3 fields, got 4"),
    ("detections", "row,col,pseudo_likelihood\n1.0,x,0.5\n",
     "line 2: non-numeric value"),
    ("ground_truth", "row,col\n1.0,2.0\ninf,2.0\n", "line 3: non-finite value"),
    ("ground_truth", "row,col\n1.0\n", "line 2: expected 2 fields, got 1"),
])
def test_evaluate_rejects_bad_csv_rows(tmp_path, capsys, which, body, message):
    paths = {"detections": tmp_path / "det.csv", "ground_truth": tmp_path / "gt.csv"}
    codec.write_detections_csv(paths["detections"], [])
    codec.write_ground_truth_csv(paths["ground_truth"], [(1.0, 1.0)])
    paths[which].write_text(body)
    rc = main([
        "evaluate", "--detections", str(paths["detections"]),
        "--ground-truth", str(paths["ground_truth"]), "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(paths[which]) in err and message in err


@pytest.mark.parametrize("command", ["evaluate", "pipeline"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exit_code(tmp_path, capsys, command, tol):
    det_path, gt_path = tmp_path / "det.csv", tmp_path / "gt.csv"
    codec.write_detections_csv(det_path, [])
    codec.write_ground_truth_csv(gt_path, [(1.0, 1.0)])
    if command == "evaluate":
        argv = ["evaluate", "--detections", str(det_path), "--ground-truth", str(gt_path),
                "--out", str(tmp_path / "r.json")]
    else:
        argv = ["pipeline", "--config", _write_config(tmp_path), "--out-dir", str(tmp_path / "p")]
    rc = main(argv + ["--tol", tol])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err and "--tol" in err
    assert not (tmp_path / "p").exists()


def test_detect_rejects_non_finite_volume(tmp_path, capsys):
    a = np.zeros((6, 6, 2))
    a[2, 3, 1] = np.nan
    volume, out = tmp_path / "a.f64t", tmp_path / "det.csv"
    codec.write_tensor(volume, a)
    rc = main(["detect", "--volume", str(volume), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(volume) in err and "non-finite" in err
    assert not out.exists()


def test_detect_rejects_overflowing_volume(tmp_path, capsys):
    # Finite, but the group norm squares 1e200 past float64's range.
    a = np.zeros((6, 6, 2))
    a[2, 3, 1] = 1e200
    volume, out = tmp_path / "a.f64t", tmp_path / "det.csv"
    codec.write_tensor(volume, a)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["detect", "--volume", str(volume), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(volume) in err and "overflows" in err
    assert not out.exists()
    assert caught == []


def test_diverging_pipeline_exit_code(tmp_path, capsys):
    # The paper's step size is outside FISTA's guarantee here and the
    # iterate overflows; numpy's overflow warnings must not reach stderr.
    cfg = _write_config(tmp_path, sigma_max=0.4, K=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: divergence: ")
    assert caught == []
    assert not (tmp_path / "p").exists()


def test_solve_trace_matches_result(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["synth", "--config", cfg, "--out-dir", str(out)])
    capsys.readouterr()
    assert main([
        "solve", "--config", cfg, "--obs", str(out / "d_obs.f64t"),
        "--out", str(out / "a_opt.f64t"), "--trace", str(out / "trace.csv"),
    ]) == 0
    stdout = capsys.readouterr().out
    assert " restarts (final rel change " in stdout
    iterations = int(stdout.split()[2])
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == "iteration,objective"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, iterations + 1))
    d_obs = codec.read_tensor(out / "d_obs.f64t")
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    final = objective(codec.read_tensor(out / "a_opt.f64t"), d_obs, np.ones(d_obs.shape), bank, 0.05)
    assert float(rows[-1].split(",")[1]) == final


def _run_demo_at_amplitude(tmp_path, amplitude):
    cfg = json.loads(DEMO_CONFIG.read_text())
    cfg["scene"]["amplitude"] = [amplitude, amplitude]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "p")])
    assert caught == []  # numpy's overflow warnings must not reach stderr
    return rc


@pytest.mark.parametrize("amplitude", [1e300, 1e160])
def test_overflowing_pipeline_exit_code(tmp_path, capsys, amplitude):
    # The scene is finite, but the first objective overflows float64.
    rc = _run_demo_at_amplitude(tmp_path, amplitude)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: divergence: float64 overflow at iteration 1 ")
    assert not (tmp_path / "p" / "a_opt.f64t").exists()
    assert not (tmp_path / "p").exists()


def test_large_finite_pipeline_runs(tmp_path, capsys):
    # 1e150 squared still fits in float64: the run is not an overflow.
    assert _run_demo_at_amplitude(tmp_path, 1e150) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "pipeline done: " in captured.out


@pytest.mark.parametrize("which", ["obs", "weights"])
def test_solve_rejects_non_finite_input(tmp_path, capsys, which):
    d_obs, w = np.zeros((16, 16)), np.ones((16, 16))
    (d_obs if which == "obs" else w)[5, 7] = np.nan
    obs_path, w_path = tmp_path / "d_obs.f64t", tmp_path / "w.f64t"
    codec.write_tensor(obs_path, d_obs)
    codec.write_tensor(w_path, w)
    cfg = _write_config(tmp_path, weights={"file": str(w_path)})
    out = tmp_path / "a.f64t"
    rc = main(["solve", "--config", cfg, "--obs", str(obs_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(obs_path if which == "obs" else w_path) in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_capped_run_reports_not_converged(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, max_iters=3)
    out = tmp_path / "run"
    if command == "solve":
        main(["synth", "--config", cfg, "--out-dir", str(out)])
        capsys.readouterr()
        argv = ["solve", "--config", cfg, "--obs", str(out / "d_obs.f64t"),
                "--out", str(out / "a_opt.f64t")]
    else:
        argv = ["pipeline", "--config", cfg, "--out-dir", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert " 3 iterations, " in lines[0]
    assert lines[1].startswith("not converged: hit max_iters = 3 with rel change ")
    assert len(lines) == 2
    run_cfg = load_config(cfg)
    d_obs = codec.read_tensor(out / "d_obs.f64t")
    result = cli.run_solve(run_cfg, cli._kernel_bank(run_cfg), np.ones(d_obs.shape), d_obs)
    assert result.iterations == 3 and result.converged is False


def test_demo_run_converges(tmp_path, capsys):
    cfg = load_config(DEMO_CONFIG)
    bank = cli._kernel_bank(cfg)
    _, d_obs, _, _ = cli.run_synth(cfg, bank)
    result = cli.run_solve(cfg, bank, cli._weights_image(cfg, d_obs.shape), d_obs)
    assert result.converged is True
    assert result.iterations < cfg.max_iters
    # The CI summary line's counts, and the converged objective to 1e-9.
    assert (result.iterations, result.restarts) == (101, 4)
    assert result.objectives[-1] == pytest.approx(15.55658090434963, rel=1e-9)
    assert main(["pipeline", "--config", str(DEMO_CONFIG), "--out-dir", str(tmp_path / "pipe")]) == 0
    assert "not converged" not in capsys.readouterr().out


def test_pipeline_too_large_scene_exit_code(tmp_path, capsys):
    # numpy refuses the 728 TiB weights image before allocating anything.
    cfg = json.loads(DEMO_CONFIG.read_text())
    cfg["scene"].update(rows=10**7, cols=10**7)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "p"
    rc = main(["pipeline", "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: out of memory: ")
    assert not out.exists()
