import tracemalloc

import numpy as np
import pytest

from spotdeconv import convolution, solver
from spotdeconv.convolution import adjoint, forward, make_plan
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
    step_size,
)
from spotdeconv.tensors import group_norm_image

from oracles import (
    coordinate_descent_minimize,
    grid_refine_minimize,
    naive_objective,
    prox_group_pixel_oracle,
    reference_fista,
)

# Beck extrapolation coefficients alpha(1..5), frozen from a 60-digit
# evaluation of the t-recurrence.
BECK_ALPHAS = [
    0.0,
    0.28175352512532081819,
    0.43404278278030200061,
    0.53106380540447952985,
    0.59877859405603884473,
]


def beck_alphas(n):
    alphas = []
    state = None
    for i in range(1, n + 1):
        alpha, state = momentum_alpha(BECK, i, state)
        alphas.append(alpha)
    return alphas


def test_step_size_examples():
    assert step_size(4.0, np.full((2, 2), 2.0)) == pytest.approx(0.0625)
    assert step_size(1.0, np.ones((3, 3))) == pytest.approx(1.0)
    assert step_size(2.0, np.full((1, 1), 0.5)) == pytest.approx(2.0)


def test_step_size_degenerate():
    with pytest.raises(ValueError, match="degenerate weights"):
        step_size(1.0, np.zeros((2, 2)))


def test_momentum_beck_table():
    got = beck_alphas(5)
    np.testing.assert_allclose(got, BECK_ALPHAS, atol=1e-12)


def test_momentum_chambolle_table():
    expected = [0.0, 0.25, 0.4, 0.5, 4.0 / 7.0]
    got = [momentum_alpha(CHAMBOLLE, i, chambolle_a=3.0)[0] for i in range(1, 6)]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_momentum_none_and_errors():
    assert momentum_alpha(NO_MOMENTUM, 7)[0] == 0.0
    with pytest.raises(ValueError):
        momentum_alpha(BECK, 0)
    with pytest.raises(ValueError):
        momentum_alpha("nesterov", 1)


def test_prox_group_345():
    v = np.zeros((1, 1, 2))
    v[0, 0] = [3.0, 4.0]
    out = prox_group(v, 2.5)
    np.testing.assert_allclose(out[0, 0], [1.5, 2.0])


def test_prox_group_zero_guard():
    out = prox_group(np.zeros((2, 2, 3)), 1.0)
    assert np.all(out == 0)


def test_prox_group_refuses_negative_kappa():
    with pytest.raises(ValueError, match="^kappa must be >= 0, got -0.5$"):
        prox_group(np.ones((2, 2, 3)), -0.5)


def test_prox_group_matches_pixel_oracle():
    rng = np.random.default_rng(20)
    for _ in range(100):
        depth = int(rng.integers(1, 5))
        v = rng.uniform(0, 2, size=depth)
        kappa = float(rng.uniform(0, 2.5))
        vol = v.reshape(1, 1, depth)
        got = prox_group(vol, kappa)[0, 0]
        want = prox_group_pixel_oracle(v, kappa)
        np.testing.assert_allclose(got, want, atol=1e-6)
    # kappa beyond the norm: exact zero
    v = np.array([0.3, 0.4]).reshape(1, 1, 2)
    assert np.all(prox_group(v, 1.0) == 0)
    # zero input stays zero
    assert np.all(prox_group(np.zeros((1, 1, 2)), 0.7) == 0)


def test_prox_group_norm_law():
    rng = np.random.default_rng(21)
    v = rng.uniform(0, 3, size=(6, 7, 4))
    kappa = 0.8
    rho = group_norm_image(v)
    out_norm = group_norm_image(prox_group(v, kappa))
    np.testing.assert_allclose(out_norm, np.maximum(0.0, rho - kappa), atol=1e-12)


def test_objective_zero_volume():
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    rng = np.random.default_rng(22)
    d_obs = rng.standard_normal((5, 5))
    w = rng.uniform(0.5, 1.5, size=(5, 5))
    got = objective(np.zeros((5, 5, 2)), d_obs, w, bank, 0.3)
    assert got == pytest.approx(float(np.sum((w * d_obs) ** 2)))


def test_objective_exact_preimage():
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    rng = np.random.default_rng(23)
    a = rng.uniform(0, 1, size=(6, 6, 2))
    d_obs = forward(a, bank)
    w = np.ones((6, 6))
    assert objective(a, d_obs, w, bank, 0.0) == pytest.approx(0.0, abs=1e-20)


def test_objective_matches_naive_recomputation():
    bank = build_kernel_bank(make_scale_grid(1.2, 2))
    rng = np.random.default_rng(24)
    a = rng.uniform(0, 1, size=(5, 5, 2))
    d_obs = rng.standard_normal((5, 5))
    w = rng.uniform(0.2, 1.0, size=(5, 5))
    lam = 0.37
    got = objective(a, d_obs, w, bank, lam)
    want = naive_objective(a, d_obs, w, bank, lam)
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_shape_mismatch():
    bank = build_kernel_bank(make_scale_grid(1.0, 1))
    with pytest.raises(ValueError):
        objective(np.zeros((4, 4, 1)), np.zeros((5, 5)), np.ones((5, 5)), bank, 0.0)


def test_solve_zero_observation_fixed_point():
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    res = apg_solve(np.zeros((6, 6)), np.ones((6, 6)), bank, SolverConfig(lam=0.1))
    assert res.iterations == 1
    assert np.all(res.a_opt == 0)


def test_solve_full_shrinkage():
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    rng = np.random.default_rng(25)
    d_obs = rng.uniform(0, 1, size=(6, 6))
    # lambda overwhelms any gradient step: solution collapses to zero
    res = apg_solve(d_obs, np.ones((6, 6)), bank, SolverConfig(lam=1e4, max_iters=50))
    assert np.all(res.a_opt == 0)


def test_solve_iterates_nonnegative():
    bank = build_kernel_bank(make_scale_grid(1.5, 3))
    rng = np.random.default_rng(26)
    d_obs = rng.standard_normal((8, 8))
    res = apg_solve(d_obs, np.ones((8, 8)), bank, SolverConfig(lam=0.05, max_iters=100))
    assert np.all(res.a_opt >= 0)


def test_tiny_1x1x2_matches_grid_oracle():
    bank = build_kernel_bank(make_scale_grid(1.0, 2))
    d_obs = np.array([[0.9]])
    w = np.array([[1.0]])
    lam = 0.2
    cfg = SolverConfig(lam=lam, momentum=BECK, max_iters=20000, rel_tol=1e-12)
    res = apg_solve(d_obs, w, bank, cfg)
    solver_obj = naive_objective(res.a_opt, d_obs, w, bank, lam)

    def cost(x):
        return naive_objective(x.reshape(1, 1, 2), d_obs, w, bank, lam)

    _, oracle_obj = grid_refine_minimize(cost, [0.0, 0.0], [2.0, 2.0])
    assert solver_obj <= oracle_obj * (1 + 1e-4) + 1e-12


def test_tiny_4x4x1_matches_coordinate_oracle():
    bank = build_kernel_bank(make_scale_grid(1.0, 1))
    a_true = np.zeros((4, 4, 1))
    a_true[1, 1, 0] = 1.0
    a_true[2, 3, 0] = 0.6
    d_obs = forward(a_true, bank)
    w = np.ones((4, 4))
    lam = 0.05
    cfg = SolverConfig(lam=lam, momentum=BECK, max_iters=20000, rel_tol=1e-12)
    res = apg_solve(d_obs, w, bank, cfg)
    solver_obj = naive_objective(res.a_opt, d_obs, w, bank, lam)

    def cost(x):
        return naive_objective(x.reshape(4, 4, 1), d_obs, w, bank, lam)

    _, oracle_obj = coordinate_descent_minimize(cost, np.zeros(16), upper=1.5)
    assert abs(solver_obj - oracle_obj) <= 1e-4 * max(abs(oracle_obj), 1e-12)


def test_ista_monotone_objective():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    rng = np.random.default_rng(27)
    a_true = np.zeros((10, 10, 2))
    a_true[3, 3, 0] = 2.0
    a_true[7, 6, 1] = 1.5
    d_obs = forward(a_true, bank) + 0.01 * rng.standard_normal((10, 10))
    w = np.ones((10, 10))
    objs = []
    apg_solve(d_obs, w, bank, SolverConfig(lam=0.05, momentum=NO_MOMENTUM, max_iters=500),
              progress=lambda i, rel, a: objs.append(objective(a, d_obs, w, bank, 0.05)))
    trace = np.array(objs)
    assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-12))


def test_converged_point_is_fixed():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    a_true = np.zeros((8, 8, 2))
    a_true[4, 4, 0] = 2.0
    d_obs = forward(a_true, bank)
    rel_tol = 1e-9
    w = np.ones((8, 8))
    cfg = SolverConfig(lam=0.05, max_iters=50000, rel_tol=rel_tol)
    res = apg_solve(d_obs, w, bank, cfg)
    # one more plain (alpha = 0) step barely moves the solution
    a = res.a_opt
    eta = step_size(bank.grid.sigma_max_pixels, w)
    grad = adjoint(w**2 * (forward(a, bank) - d_obs), bank)
    one_step = prox_group(np.maximum(a - eta * grad, 0.0), 0.5 * eta * cfg.lam)
    change = np.linalg.norm(one_step - a) / np.linalg.norm(a)
    assert change <= 10 * rel_tol


def test_fidelity_gradient_matches_finite_differences():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    rng = np.random.default_rng(28)
    a = rng.uniform(0.1, 1.0, size=(8, 8, 2))
    d_obs = rng.standard_normal((8, 8))
    w = rng.uniform(0.5, 1.5, size=(8, 8))
    w2 = w * w

    def fidelity(x):
        r = w * (d_obs - forward(x, bank))
        return float(np.sum(r * r))

    grad = 2.0 * adjoint(w2 * (forward(a, bank) - d_obs), bank)
    h = 1e-6
    coords = [tuple(rng.integers(0, s) for s in a.shape) for _ in range(50)]
    for idx in coords:
        ap = a.copy(); ap[idx] += h
        am = a.copy(); am[idx] -= h
        fd = (fidelity(ap) - fidelity(am)) / (2 * h)
        assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(fd))


def test_lambda_monotone_sparsity():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    rng = np.random.default_rng(29)
    a_true = np.zeros((12, 12, 2))
    for r, c, k in [(2, 2, 0), (6, 8, 1), (9, 3, 0)]:
        a_true[r, c, k] = 2.0
    d_obs = forward(a_true, bank) + 0.02 * rng.standard_normal((12, 12))
    counts = []
    for lam in [0.02, 0.04, 0.08]:
        res = apg_solve(d_obs, np.ones((12, 12)), bank, SolverConfig(lam=lam, max_iters=3000))
        counts.append(int(np.sum(group_norm_image(res.a_opt) > 1e-9)))
    assert counts[0] >= counts[1] >= counts[2]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0, momentum="bogus")
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0, momentum=CHAMBOLLE,
                     chambolle_a=2.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(lam=0.0, max_iters=0)
    for bad in [dict(lam=np.nan), dict(rel_tol=np.nan),
                dict(momentum=CHAMBOLLE, chambolle_a=np.nan)]:
        with pytest.raises(ValueError):
            SolverConfig(**{"lam": 0.0, **bad})
    # A relative change below float64's epsilon may never come: 5e-324 is refused.
    with pytest.raises(ValueError, match="^rel_tol must be >= 2.22"):
        SolverConfig(lam=0.0, rel_tol=5e-324)
    SolverConfig(lam=0.0, rel_tol=np.finfo(np.float64).eps)


def test_progress_callback_called():
    bank = build_kernel_bank(make_scale_grid(1.0, 1))
    seen = []
    apg_solve(
        np.ones((4, 4)), np.ones((4, 4)), bank, SolverConfig(lam=0.01, max_iters=5),
        progress=lambda i, rel, a: seen.append(i),
    )
    assert seen == [1, 2, 3, 4, 5]


def test_progress_gets_accepted_iterate():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    a_true = np.zeros((8, 8, 2))
    a_true[4, 4, 0] = 2.0
    last = {}
    res = apg_solve(
        forward(a_true, bank), np.ones((8, 8)), bank, SolverConfig(lam=0.05, max_iters=40),
        progress=lambda i, rel, a: last.update(i=i, a=a.copy()),
    )
    assert last["i"] == res.iterations
    np.testing.assert_array_equal(last["a"], res.a_opt)


def test_solve_volume_layouts():
    bank = build_kernel_bank(make_scale_grid(1.5, 3))
    rng = np.random.default_rng(30)
    d_obs = rng.uniform(0, 1, size=(9, 7))
    shapes = []
    res = apg_solve(d_obs, np.ones((9, 7)), bank, SolverConfig(lam=0.05, max_iters=5),
                    progress=lambda i, rel, a: shapes.append(a.shape))
    assert shapes == [(9, 7, 3)] * 5
    assert res.a_opt.shape == (9, 7, 3) and res.a_opt.flags.c_contiguous


def _random_problem(seed, shape=(9, 8), depth=2):
    rng = np.random.default_rng(seed)
    bank = build_kernel_bank(make_scale_grid(float(rng.uniform(1.0, 2.0)), depth))
    a_true = np.zeros(shape + (depth,))
    for _ in range(3):
        a_true[tuple(rng.integers(0, s) for s in a_true.shape)] = rng.uniform(1.0, 3.0)
    d_obs = forward(a_true, bank) + 0.05 * rng.standard_normal(shape)
    return bank, d_obs, rng.uniform(0.5, 1.5, size=shape), float(rng.uniform(0.01, 0.2))


@pytest.mark.parametrize("momentum", [BECK, CHAMBOLLE])
@pytest.mark.parametrize("seed", range(5))
def test_restart_reaches_ista_objective(seed, momentum):
    bank, d_obs, w, lam = _random_problem(seed)
    objs = []
    for scheme in [momentum, NO_MOMENTUM]:
        cfg = SolverConfig(lam=lam, momentum=scheme, max_iters=20000, rel_tol=1e-10)
        res = apg_solve(d_obs, w, bank, cfg)
        assert res.iterations < cfg.max_iters
        objs.append(objective(res.a_opt, d_obs, w, bank, lam))
    assert objs[0] == pytest.approx(objs[1], rel=1e-8)


@pytest.mark.parametrize("momentum", [BECK, CHAMBOLLE, NO_MOMENTUM])
@pytest.mark.parametrize("seed", range(3))
def test_solve_matches_textbook_fista(seed, momentum):
    # The loop carries step = b - a, takes ||a|| from the shrink and tests
    # restart from ||diff||^2; the oracle forms b and every norm directly.
    bank, d_obs, w, lam = _random_problem(40 + seed, shape=(14, 12), depth=3)
    cfg = SolverConfig(lam=lam, momentum=momentum, max_iters=500, rel_tol=1e-8)
    res = apg_solve(d_obs, w, bank, cfg)
    eta = step_size(bank.grid.sigma_max_pixels, w)
    a, iterations, restarts, objectives = reference_fista(
        d_obs, bank, w, lam, eta, momentum, cfg.max_iters, cfg.rel_tol)
    assert (res.iterations, res.restarts) == (iterations, restarts)
    assert momentum == NO_MOMENTUM or restarts > 0
    np.testing.assert_allclose(res.objectives, objectives, rtol=1e-12, atol=0)
    assert np.linalg.norm(res.a_opt - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("momentum", [BECK, CHAMBOLLE])
def test_restart_starts_the_momentum_again(monkeypatch, momentum):
    calls = []

    def recorded(scheme, i, state=None, chambolle_a=3.0):
        calls.append((i, state))
        return momentum_alpha(scheme, i, state, chambolle_a)

    monkeypatch.setattr(solver, "momentum_alpha", recorded)
    bank, d_obs, w, lam = _random_problem(7, shape=(16, 16))
    res = apg_solve(d_obs, w, bank, SolverConfig(lam=lam, momentum=momentum))
    assert res.restarts > 0
    assert len(calls) == res.iterations
    assert calls.count((1, None)) == res.restarts + 1


def test_no_momentum_never_restarts():
    bank, d_obs, w, lam = _random_problem(8)
    res = apg_solve(d_obs, w, bank, SolverConfig(lam=lam, momentum=NO_MOMENTUM, max_iters=300))
    assert res.restarts == 0


def test_objectives_match_objective_of_each_iterate():
    # On this problem the shrink's norms and group_norm_image() differ in
    # the last bit of the final objective.
    bank, d_obs, w, lam = _random_problem(14)
    want = []
    res = apg_solve(
        d_obs, w, bank, SolverConfig(lam=lam, max_iters=200),
        progress=lambda i, rel, a: want.append(objective(a, d_obs, w, bank, lam)),
    )
    assert res.restarts > 0
    assert len(res.objectives) == len(want) == res.iterations
    np.testing.assert_allclose(res.objectives, want, rtol=1e-12, atol=0)
    assert res.objectives[-1] == objective(res.a_opt, d_obs, w, bank, lam)


def test_progress_arrays_are_never_written():
    bank, d_obs, w, lam = _random_problem(12)
    seen = []
    res = apg_solve(d_obs, w, bank, SolverConfig(lam=lam, max_iters=300),
                    progress=lambda i, rel, a: seen.append((a, a.copy())))
    assert res.restarts > 0
    for handed, snapshot in seen:
        np.testing.assert_array_equal(handed, snapshot)


def test_one_forward_per_iteration(monkeypatch):
    # Exact counts: the solve goes through the public operator, which
    # perfbench's traced convolution.forward/adjoint metrics time.
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "forward", counted("forward", forward))
    monkeypatch.setattr(solver, "adjoint", counted("adjoint", adjoint))
    bank, d_obs, w, lam = _random_problem(10)
    res = apg_solve(d_obs, w, bank, SolverConfig(lam=lam, max_iters=60))
    assert calls == {"forward": res.iterations, "adjoint": res.iterations}


def test_peak_memory_at_most_six_volumes():
    bank = build_kernel_bank(make_scale_grid(1.5, 4))
    rng = np.random.default_rng(11)
    a_true = np.where(rng.uniform(size=(128, 128, 4)) < 0.002, 2.0, 0.0)
    d_obs = forward(a_true, bank)
    w = np.ones(d_obs.shape)
    cfg = SolverConfig(lam=0.05, max_iters=20)
    tracemalloc.start()
    try:
        apg_solve(d_obs, w, bank, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * a_true.nbytes


def test_diverging_solve_raises_divergence_whoever_calls():
    # At sigma_max 0.4 px and K = 8 the paper's step is outside FISTA's
    # guarantee and the iterate overflows. Called directly, under the suite's
    # error::RuntimeWarning filter, the solve raises its own divergence error,
    # not the numpy overflow warning of the first operation that overflows.
    d_obs = np.random.default_rng(0).random((8, 8))
    bank = build_kernel_bank(make_scale_grid(0.4, 8))
    with pytest.raises(FloatingPointError, match="^divergence: float64 overflow at iteration "):
        apg_solve(d_obs, np.ones((8, 8)), bank, SolverConfig(lam=0.0))


def test_one_plan_per_solve(monkeypatch):
    # The solve builds its operators' GEMM views once: every forward and
    # adjoint call of the loop reuses that plan instead of making its own.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return make_plan(*args, **kwargs)

    bank, d_obs, w, lam = _random_problem(10)
    monkeypatch.setattr(solver, "make_plan", counted)
    monkeypatch.setattr(convolution, "make_plan", counted)
    res = apg_solve(d_obs, w, bank, SolverConfig(lam=lam, max_iters=60))
    assert res.iterations > 1
    assert calls == [d_obs.shape]
