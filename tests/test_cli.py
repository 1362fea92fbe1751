import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotdeconv import cli, codec
from spotdeconv.cli import ConfigError, RunConfig, load_config, main
from spotdeconv.kernels import build_kernel_bank, make_scale_grid
from spotdeconv.solver import objective


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
    ("truncation", INF, "'truncation'"),
    ("truncation", NAN, "'truncation'"),
    ("scene", [1], "'scene'"),
    ("rel_tol", NAN, "'rel_tol'"),
    ("K", 1.7, "'K'"),
    ("max_iters", 2.5, "'max_iters'"),
    ("lambda", NAN, "'lambda'"),
    ("weights.uniform", NAN, "'weights.uniform'"),
    ("chambolle_a", NAN, "'chambolle_a'"),
    ("sigma_max", NAN, "'sigma_max'"),
    ("delta_pix", NAN, "'delta_pix'"),
    ("scene.noise_sigma_rel", NAN, "'scene.noise_sigma_rel'"),
    ("scene.noise_sigma", 0.1, "noise_sigma and noise_sigma_rel"),
    ("scene.n_sources", -1, "n_sources"),
    ("scene.rows", 0, "rows"),
    ("max_iter", 3, "'max_iter'"),
    ("scene.noise_sigmarel", 0.5, "'scene.noise_sigmarel'"),
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
        "infeasible-scene": {"scene": {"rows": 4, "cols": 4, "n_sources": 10,
                                       "min_separation": 10}},
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
