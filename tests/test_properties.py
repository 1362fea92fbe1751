import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spotdeconv.convolution import BLOCK, adjoint, forward, make_plan
from spotdeconv.detection import Detection, regional_maxima
from spotdeconv.evaluation import match, prf1, threshold_sweep
from spotdeconv.kernels import Kernel1D, KernelBank, build_kernel_bank, make_scale_grid
from spotdeconv.solver import (
    BECK, CHAMBOLLE, NO_MOMENTUM, SolverConfig, _shrink, apg_solve, prox_group,
)
from spotdeconv.tensors import group_norm_image

from oracles import (
    dense_conv2d,
    ndimage_conv2d,
    reference_match,
    reference_regional_maxima,
    reference_threshold_sweep,
)

@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_prf1_ranges(tp, fp, fn):
    precision, recall, f1 = prf1(tp, fp, fn)
    for v in (precision, recall, f1):
        assert 0.0 <= v <= 1.0
    if f1 > 0:
        # harmonic mean lies between precision and recall, up to rounding
        eps = 1e-12
        assert min(precision, recall) - eps <= f1 <= max(precision, recall) + eps


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
             min_size=1, max_size=8),
    st.floats(min_value=0, max_value=150, allow_nan=False),
)
def test_prox_group_norm_law(values, kappa):
    v = np.array(values).reshape(1, 1, -1)
    rho = group_norm_image(v)[0, 0]
    out = prox_group(v, kappa)
    out_norm = group_norm_image(out)[0, 0]
    assert abs(out_norm - max(0.0, rho - kappa)) <= 1e-9 * max(1.0, rho)
    # shrinkage never flips sign or exceeds the input
    assert np.all(out >= 0)
    assert np.all(out <= v + 1e-12)


# Zeros and entries far above underflow, so that every square is a normal double.
volumes = arrays(
    np.float64,
    array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
    elements=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100)),
)


@settings(max_examples=200, deadline=None)
@given(volumes, st.floats(min_value=0, max_value=150))
def test_shrink_returns_squared_norm_of_result(v, kappa):
    _, norm2 = _shrink(v, kappa)
    np.testing.assert_allclose(norm2, np.vdot(v, v), rtol=1e-12, atol=0)


# Zeros, tiny entries whose squares underflow (norms of 0 and subnormal
# norms) and ordinary ones, in one volume.
underflowing_volumes = arrays(
    np.float64,
    array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
    elements=st.one_of(st.just(0.0), st.floats(min_value=1e-200, max_value=1e-150),
                       st.floats(min_value=1e-3, max_value=100)),
)


@settings(max_examples=200, deadline=None)
@given(underflowing_volumes, st.one_of(st.just(0.0), st.floats(min_value=0, max_value=150)))
@example(np.zeros((2, 3, 3)), 0.0)
@example(np.full((2, 2, 2), 1e-170), 0.0)
def test_shrink_factor_equals_masked_quotient(v, kappa):
    # The factor (rho - kappa)_+ / rho, 0 where rho is 0, as a masked divide.
    rho = np.sqrt(np.einsum("kmn,kmn->mn", v, v))
    shrunk = np.maximum(rho - kappa, 0.0)
    want = v * np.divide(shrunk, rho, out=np.zeros_like(rho), where=rho > 0.0)
    got = v.copy()
    _shrink(got, kappa)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([BECK, CHAMBOLLE, NO_MOMENTUM]),
       st.floats(min_value=0, max_value=0.5))
def test_progress_rel_change_is_relative_step(seed, momentum, lam):
    # The loop divides by the norm its shrink returned; recompute both norms
    # from copies of consecutive iterates (the zero start comes first).
    rng = np.random.default_rng(seed)
    bank = build_kernel_bank(make_scale_grid(float(rng.uniform(1.0, 2.5)), 2))
    d_obs = rng.uniform(0.0, 2.0, size=(7, 6))
    w = rng.uniform(0.5, 1.5, size=d_obs.shape)
    cfg = SolverConfig(lam=lam, momentum=momentum, max_iters=30)
    seen = []
    apg_solve(d_obs, w, bank, cfg, progress=lambda i, rel, a: seen.append((rel, a.copy())))
    prev = np.zeros_like(seen[0][1])
    for rel, a in seen:
        want = np.linalg.norm(a - prev) / max(np.linalg.norm(prev), 1e-12)
        np.testing.assert_allclose(rel, want, rtol=1e-12, atol=0)
        prev = a


# Integer grid positions and a few p values make tied likelihoods,
# duplicate positions and equidistant ground truth common.
grid = st.integers(min_value=0, max_value=6).map(float)
detections = st.lists(
    st.builds(Detection, row=grid, col=grid,
              pseudo_likelihood=st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])),
    max_size=12,
)
ground_truth = st.lists(st.tuples(grid, grid), max_size=6)
tolerance = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300)
@given(detections, ground_truth, tolerance)
def test_one_pass_sweep_equals_reference(dets, gt, tol):
    sweep = threshold_sweep(dets, gt, tol)
    assert [(r.threshold, r.tp, r.fp, r.fn) for r in sweep] == \
        reference_threshold_sweep(dets, gt, tol)
    for r in sweep:
        assert (r.precision, r.recall, r.f1) == prf1(r.tp, r.fp, r.fn)


@settings(max_examples=300)
@given(detections, ground_truth, tolerance)
def test_match_equals_reference_in_scoring_order(dets, gt, tol):
    order = sorted(range(len(dets)), key=lambda i: (
        -dets[i].pseudo_likelihood, dets[i].row, dets[i].col))
    tp, fp, fn, pairing = reference_match([dets[i] for i in order], gt, tol)
    assert match(dets, gt, tol) == (
        tp, fp, fn, {order[k]: gi for k, gi in pairing.items()})


# Off-grid and negative coordinates over +-100 px, a small pool that makes
# duplicate positions common, and a few far ones: only some detections lie
# within tol of a source, so the near-source pre-filter decides the rest.
spread = st.one_of(
    st.floats(min_value=-100, max_value=100),
    st.sampled_from([-3.5, -0.0, 0.25, 2.0, 5.0, 7.75]),
    st.sampled_from([1e17, 1e300, -1e300]),
)
spread_detections = st.lists(
    st.builds(Detection, row=spread, col=spread,
              pseudo_likelihood=st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_size=16,
)
spread_ground_truth = st.lists(st.tuples(spread, spread), max_size=8)
spread_tolerance = st.sampled_from([0.0, 5e-324, 1e-3, 1.0, 3.0, 1e300])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(spread_detections, spread_ground_truth, spread_tolerance)
# 2 * tol overflows: the row window's edges are infinite, so the loop decides.
@example([Detection(1.7e308, 0.0, 1.0)], [(1.75e308, 0.0)], 1e308)
def test_sweep_and_match_equal_reference_off_grid(dets, gt, tol):
    assert [(r.threshold, r.tp, r.fp, r.fn) for r in threshold_sweep(dets, gt, tol)] == \
        reference_threshold_sweep(dets, gt, tol)
    order = sorted(range(len(dets)), key=lambda i: (
        -dets[i].pseudo_likelihood, dets[i].row, dets[i].col))
    tp, fp, fn, pairing = reference_match([dets[i] for i in order], gt, tol)
    assert match(dets, gt, tol) == (
        tp, fp, fn, {order[k]: gi for k, gi in pairing.items()})


# Few levels make plateaus, ties and plateaus split by a higher pixel common.
level_images = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
)


def _ring_around_centre():
    """7x7: a one-pixel plateau inside a ring plateau of the same value and
    centroid, split from it by a lower ring: two equal detections."""
    p = np.full((7, 7), 0.5)
    p[1:6, 1:6] = 2.0
    p[2:5, 2:5] = 1.0
    p[3, 3] = 2.0
    return p


def _serpentine():
    """9x9: one plateau winding through four rows, joined at alternate ends,
    so that labelling has to merge along a long path."""
    p = np.full((9, 9), 1.0)
    p[1:8:2, 1:8] = 3.0
    p[2, 7] = p[4, 1] = p[6, 7] = 3.0
    return p


@settings(max_examples=500)
@given(level_images)
@example(np.array([[2.0]]))
@example(np.array([[0.0, 1.0, 1.0, 0.5, 2.0, 2.0]]))
@example(np.array([[1.0], [3.0], [3.0], [0.0], [0.5]]))
@example(np.zeros((4, 5)))
@example(np.full((3, 4), 0.5))
# The only equal-valued non-candidate neighbor is diagonal, or on the border.
@example(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]]))
@example(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
@example(_ring_around_centre())
@example(_serpentine())
def test_regional_maxima_equals_reference(p):
    assert regional_maxima(p) == reference_regional_maxima(p)


# Image sides on both sides of one and two GEMM blocks, and anything up to 70;
# radii reaching past the neighbouring block.
sides = st.one_of(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]),
                  st.integers(1, 70))
radii = st.integers(0, 2 * BLOCK + 1)


def _taps(rng, radius, symmetric):
    taps = rng.uniform(-1.0, 1.0, 2 * radius + 1)
    return 0.5 * (taps + taps[::-1]) if symmetric else taps


@settings(max_examples=150, deadline=None)
@given(sides, sides, radii, st.booleans(), st.integers(0, 2**32 - 1))
@example(2, 2, 11, False, 0)  # image smaller than the radius
@example(1, 2 * BLOCK + 1, 5, False, 1)
@example(2 * BLOCK + 1, 1, 5, True, 2)
@example(BLOCK + 1, 2 * BLOCK, 11, False, 3)
@example(BLOCK, BLOCK - 1, 0, False, 4)
@example(2 * BLOCK, 2 * BLOCK + 1, 8, True, 5)
@example(2 * BLOCK + 5, 3 * BLOCK - 3, BLOCK + 3, False, 6)  # the band outreaches a block
@example(3 * BLOCK + 7, 2 * BLOCK + 3, 2 * BLOCK + 1, True, 7)  # ... and two
def test_banded_pass_matches_reference(rows, cols, radius, symmetric, seed):
    rng = np.random.default_rng(seed)
    taps = _taps(rng, radius, symmetric)
    bank = KernelBank(grid=make_scale_grid(1.0, 1), factors=(Kernel1D(taps),))
    vol = rng.standard_normal((rows, cols, 3))[:, :, 1:2]  # a strided one-slice volume
    img = vol[:, :, 0]
    scale = np.sum(np.abs(taps)) ** 2 * np.max(np.abs(img))
    conv, corr = forward(vol, bank), adjoint(img, bank)[:, :, 0]
    refs = [(conv, ndimage_conv2d(img, taps)), (corr, ndimage_conv2d(img, taps, correlate=True))]
    if rows * cols <= 300:
        refs += [(conv, dense_conv2d(img, taps)), (corr, dense_conv2d(img, taps[::-1]))]
    for got, ref in refs:
        assert got.shape == img.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(sides, sides, st.lists(radii, min_size=4, max_size=4), st.integers(0, 2**32 - 1))
@example(2 * BLOCK + 1, BLOCK + 1, [0, 4, 7, 11], 0)
@example(1, 2 * BLOCK + 1, [11, 0, 5, 2], 1)
@example(2 * BLOCK + 1, 1, [2, 11, 0, 5], 2)
@example(BLOCK + 1, 2 * BLOCK, [11, 11, 1, 0], 3)
@example(2, 3, [11, 0, 1, 6], 4)  # the widest kernel outreaches the image
@example(2 * BLOCK + 5, 3 * BLOCK - 3, [BLOCK + 3, 0, 2 * BLOCK + 1, 5], 5)  # past a block
def test_forward_adjoint_inner_product(rows, cols, radii, seed):
    # Kernels of mixed radii share one band width; each still acts as itself.
    rng = np.random.default_rng(seed)
    factors = tuple(Kernel1D(_taps(rng, radius, symmetric=False)) for radius in radii)
    bank = KernelBank(grid=make_scale_grid(3.0, len(factors)), factors=factors)
    a = np.moveaxis(rng.standard_normal((4, rows, cols)), 0, 2)  # slice-major, as in the solver
    r = rng.standard_normal((rows, cols))
    fa, ar = forward(a, bank), adjoint(r, bank)
    lhs = np.vdot(fa, r)
    rhs = np.vdot(a, ar)
    mass = [np.sum(np.abs(f.taps)) ** 2 for f in factors]
    norm = sum(mass)  # bounds the operator norm
    assert abs(lhs - rhs) <= 1e-12 * norm * np.linalg.norm(a) * np.linalg.norm(r)
    want = sum(ndimage_conv2d(a[:, :, k], f.taps) for k, f in enumerate(factors))
    assert np.max(np.abs(fa - want)) <= 1e-12 * norm * np.max(np.abs(a))
    for k, f in enumerate(factors):
        want = ndimage_conv2d(r, f.taps, correlate=True)
        assert np.max(np.abs(ar[:, :, k] - want)) <= 1e-12 * mass[k] * np.max(np.abs(r))
    # Whatever the plan's workspace holds on entry never reaches the result.
    plan = make_plan(bank, (rows, cols))
    plan.workspace.fill(np.nan)
    np.testing.assert_array_equal(forward(a, bank, plan=plan), fa)
    plan.workspace.fill(np.nan)
    np.testing.assert_array_equal(adjoint(r, bank, plan=plan), ar)
