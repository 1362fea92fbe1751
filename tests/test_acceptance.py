"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from spotdeconv.cli import load_config, main, run_synth
from spotdeconv.convolution import adjoint, forward
from spotdeconv.detection import detect
from spotdeconv.evaluation import best_threshold, evaluate_at, threshold_sweep
from spotdeconv.kernels import build_kernel_bank, make_scale_grid
from spotdeconv.solver import (
    BECK,
    CHAMBOLLE,
    NO_MOMENTUM,
    SolverConfig,
    apg_solve,
    momentum_alpha,
    objective,
    prox_group,
)
from spotdeconv.tensors import group_norm_image

from oracles import (
    Detection,
    coordinate_descent_minimize,
    grid_refine_minimize,
    naive_objective,
    operator_matrix,
    prox_group_pixel_oracle,
)

DEMO_CONFIG = str(__import__("pathlib").Path(__file__).parent.parent / "configs" / "demo.json")


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _demo_problem():
    cfg = load_config(DEMO_CONFIG)
    bank = build_kernel_bank(make_scale_grid(cfg.sigma_max_pixels, cfg.num_scales), cfg.truncation)
    _, d_obs, gt, _ = run_synth(cfg, bank)
    return cfg, bank, d_obs, gt


def test_criterion_1_adjoint_identity():
    t0 = time.time()
    bank = build_kernel_bank(make_scale_grid(3.0, 3))
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((16, 16, 3))
        r = rng.standard_normal((16, 16))
        gap = abs(np.vdot(forward(a, bank), r) - np.vdot(a, adjoint(r, bank)))
        worst = max(worst, gap / (np.linalg.norm(a) * np.linalg.norm(r)))

    bank2 = build_kernel_bank(make_scale_grid(1.5, 2))
    mat = operator_matrix(bank2, 8, 8)
    a = rng.standard_normal((8, 8, 2))
    r = rng.standard_normal((8, 8))
    dense_gap = max(
        float(np.max(np.abs(forward(a, bank2).ravel() - mat @ a.ravel()))),
        float(np.max(np.abs(adjoint(r, bank2).ravel() - mat.T @ r.ravel()))),
    )
    elapsed = time.time() - t0
    _report(
        "criterion 1: adjoint identity",
        worst <= 1e-9 and dense_gap <= 1e-12 and elapsed < 5.0,
        f"rel gap {worst:.2e}, dense gap {dense_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_check():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    rng = np.random.default_rng(101)
    a = rng.uniform(0.1, 1.0, size=(8, 8, 2))
    d_obs = rng.standard_normal((8, 8))
    w = rng.uniform(0.5, 1.5, size=(8, 8))
    w2 = w * w

    def fidelity(x):
        res = w * (d_obs - forward(x, bank))
        return float(np.sum(res * res))

    grad = 2.0 * adjoint(w2 * (forward(a, bank) - d_obs), bank)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        idx = tuple(int(rng.integers(0, s)) for s in a.shape)
        ap = a.copy(); ap[idx] += h
        am = a.copy(); am[idx] -= h
        fd = (fidelity(ap) - fidelity(am)) / (2 * h)
        worst = max(worst, abs(fd - grad[idx]) / max(1.0, abs(fd)))
    _report("criterion 2: fidelity gradient vs central differences",
            worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_3_prox_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 6))
        v = rng.uniform(0, 2, size=depth)
        kappa = float(rng.uniform(0, 2.5))
        got = prox_group(v.reshape(1, 1, depth), kappa)[0, 0]
        want = prox_group_pixel_oracle(v, kappa)
        worst = max(worst, float(np.max(np.abs(got - want))))
    # kappa beyond the group norm: exact zero
    over = prox_group(np.array([0.3, 0.4]).reshape(1, 1, 2), 1.0)
    zero = prox_group(np.zeros((1, 1, 3)), 0.5)
    _report(
        "criterion 3: prox matches per-pixel numerical oracle",
        worst <= 1e-6 and np.all(over == 0) and np.all(zero == 0),
        f"worst abs err {worst:.2e}",
    )


def test_criterion_4_momentum_tables():
    from mpmath import mp, sqrt as msqrt

    mp.dps = 50
    t = mp.mpf(1)
    beck_exact = []
    for _ in range(5):
        tn = (1 + msqrt(1 + 4 * t * t)) / 2
        beck_exact.append(float((t - 1) / tn))
        t = tn

    state = None
    beck_got = []
    for i in range(1, 6):
        alpha, state = momentum_alpha(BECK, i, state)
        beck_got.append(alpha)

    cham_exact = [(i - 1) / (i + 2) for i in range(1, 6)]
    cham_got = [momentum_alpha(CHAMBOLLE, i, chambolle_a=3.0)[0] for i in range(1, 6)]

    beck_err = max(abs(a - b) for a, b in zip(beck_got, beck_exact))
    cham_err = max(abs(a - b) for a, b in zip(cham_got, cham_exact))
    _report(
        "criterion 4: momentum tables",
        beck_err <= 1e-12 and cham_err <= 1e-12,
        f"beck err {beck_err:.2e}, chambolle err {cham_err:.2e}, "
        f"alpha_beck(2)={beck_got[1]:.6f}",
    )


def test_criterion_5_tiny_instance_optimality():
    t0 = time.time()
    # 1x1x2 instance
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    d_obs = np.array([[0.9]])
    w = np.array([[1.0]])
    lam = 0.2
    cfg = SolverConfig(lam=lam, momentum=BECK, max_iters=20000, rel_tol=1e-12)
    res = apg_solve(d_obs, w, bank, cfg)
    solver_obj_a = naive_objective(res.a_opt, d_obs, w, bank, lam)
    _, oracle_obj_a = grid_refine_minimize(
        lambda x: naive_objective(x.reshape(1, 1, 2), d_obs, w, bank, lam),
        [0.0, 0.0], [2.0, 2.0],
    )
    rel_a = (solver_obj_a - oracle_obj_a) / max(abs(oracle_obj_a), 1e-12)

    # 4x4x1 instance with two active pixels
    bank2 = build_kernel_bank(make_scale_grid(1.0, 1))
    a_true = np.zeros((4, 4, 1))
    a_true[1, 1, 0] = 1.0
    a_true[2, 3, 0] = 0.6
    d_obs2 = forward(a_true, bank2)
    w2 = np.ones((4, 4))
    lam2 = 0.05
    cfg2 = SolverConfig(lam=lam2, momentum=BECK, max_iters=20000, rel_tol=1e-12)
    res2 = apg_solve(d_obs2, w2, bank2, cfg2)
    solver_obj_b = naive_objective(res2.a_opt, d_obs2, w2, bank2, lam2)
    _, oracle_obj_b = coordinate_descent_minimize(
        lambda x: naive_objective(x.reshape(4, 4, 1), d_obs2, w2, bank2, lam2),
        np.zeros(16), upper=1.5,
    )
    rel_b = abs(solver_obj_b - oracle_obj_b) / max(abs(oracle_obj_b), 1e-12)
    elapsed = time.time() - t0
    _report(
        "criterion 5: tiny-instance optimality",
        rel_a <= 1e-4 and rel_b <= 1e-4 and elapsed < 10.0,
        f"1x1x2 rel {rel_a:.2e}, 4x4x1 rel {rel_b:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_ista_monotonicity():
    cfg, bank, d_obs, _ = _demo_problem()
    w = np.ones(d_obs.shape)
    solver_cfg = SolverConfig(
        lam=cfg.lam, momentum=NO_MOMENTUM,
        max_iters=cfg.max_iters, rel_tol=cfg.rel_tol,
    )
    objs = []

    def record(i, rel_change, a):
        objs.append(objective(a, d_obs, w, bank, cfg.lam))

    res = apg_solve(d_obs, w, bank, solver_cfg, progress=record)
    trace = np.array(objs)
    increases = int(np.sum(trace[1:] > trace[:-1] * (1 + 1e-12)))
    _report(
        "criterion 6: ISTA objective monotonicity on demo instance",
        increases == 0,
        f"{res.iterations} iterations, {increases} increases",
    )


def test_criterion_7_sparsity_lambda_monotonicity():
    cfg, bank, d_obs, _ = _demo_problem()
    counts = []
    for lam in [cfg.lam, 2 * cfg.lam, 4 * cfg.lam]:
        solver_cfg = SolverConfig(
            lam=lam, momentum=cfg.momentum,
            max_iters=cfg.max_iters, rel_tol=cfg.rel_tol,
        )
        res = apg_solve(d_obs, np.ones(d_obs.shape), bank, solver_cfg)
        counts.append(int(np.sum(group_norm_image(res.a_opt) > 1e-9)))
    _report(
        "criterion 7: nonzero-group count non-increasing in lambda",
        counts[0] >= counts[1] >= counts[2],
        f"counts {counts}",
    )


def test_criterion_8_end_to_end_recovery(tmp_path):
    t0 = time.time()
    out = tmp_path / "demo"
    rc = main(["pipeline", "--config", DEMO_CONFIG, "--out-dir", str(out)])
    elapsed = time.time() - t0
    report = json.loads((out / "report.json").read_text())
    _report(
        "criterion 8: end-to-end synthetic recovery",
        rc == 0 and report["f1"] == 1.0 and elapsed < 30.0,
        f"F1 {report['f1']}, TP {report['TP']}, {elapsed:.1f}s",
    )


def test_criterion_9_evaluation_identities():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(200):
        n_det = int(rng.integers(0, 10))
        n_gt = int(rng.integers(0, 8))
        dets = [
            Detection(row=float(rng.uniform(0, 12)), col=float(rng.uniform(0, 12)),
                      pseudo_likelihood=float(rng.uniform(0, 1)))
            for _ in range(n_det)
        ]
        dets.sort(key=lambda d: (-d.pseudo_likelihood, d.row, d.col))
        gt = [(float(rng.uniform(0, 12)), float(rng.uniform(0, 12))) for _ in range(n_gt)]
        thr = float(rng.uniform(0, 1))
        rep = evaluate_at(dets, gt, thr, tol=3.0)
        kept = sum(1 for d in dets if d.pseudo_likelihood >= thr)
        ok &= rep.tp + rep.fn == len(gt) and rep.tp + rep.fp == kept
        best = best_threshold(dets, gt, tol=3.0)
        ok &= best.f1 == max(r.f1 for r in threshold_sweep(dets, gt, tol=3.0))
    _report("criterion 9: evaluation count identities + best-threshold enumeration", ok)


def test_criterion_10_codec(tmp_path):
    from spotdeconv import codec

    rng = np.random.default_rng(104)
    ok = True
    path = tmp_path / "t.f64t"
    for i in range(100):
        ndim = 2 if i % 2 == 0 else 3
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        arr = rng.standard_normal(shape)
        codec.write_tensor(path, arr)
        back = codec.read_tensor(path)
        ok &= back.shape == arr.shape and back.tobytes() == arr.tobytes()
    codec.write_tensor(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
    size = path.stat().st_size
    _report("criterion 10: codec round-trip + 60-byte example",
            ok and size == 60, f"2x2 file {size} bytes")
