import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spotdeconv.convolution import adjoint, conv_same_2d, corr_same_2d, forward
from spotdeconv.detection import Detection, regional_maxima
from spotdeconv.evaluation import match, prf1, threshold_sweep
from spotdeconv.kernels import Kernel1D, KernelBank, make_scale_grid
from spotdeconv.solver import prox_group
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


# Few levels make plateaus, ties and plateaus split by a higher pixel common.
level_images = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
)


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
def test_regional_maxima_equals_reference(p):
    assert regional_maxima(p) == reference_regional_maxima(p)


# Image sides on both sides of the 32-row GEMM block, and anything up to 70.
sides = st.one_of(st.sampled_from([1, 2, 31, 32, 33, 64, 65]), st.integers(1, 70))


def _taps(rng, radius, symmetric):
    taps = rng.uniform(-1.0, 1.0, 2 * radius + 1)
    return 0.5 * (taps + taps[::-1]) if symmetric else taps


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.integers(0, 11), st.booleans(), st.integers(0, 2**32 - 1))
@example(2, 2, 11, False, 0)  # image smaller than the radius
@example(1, 65, 5, False, 1)
@example(65, 1, 5, True, 2)
@example(33, 64, 11, False, 3)
@example(32, 31, 0, False, 4)
@example(64, 65, 8, True, 5)
def test_banded_pass_matches_reference(rows, cols, radius, symmetric, seed):
    rng = np.random.default_rng(seed)
    taps = _taps(rng, radius, symmetric)
    factor = Kernel1D(taps)
    img = rng.standard_normal((rows, cols, 3))[:, :, 1]  # a strided slice, as forward() passes
    scale = np.sum(np.abs(taps)) ** 2 * np.max(np.abs(img))
    conv, corr = conv_same_2d(img, factor), corr_same_2d(img, factor)
    refs = [(conv, ndimage_conv2d(img, taps)), (corr, ndimage_conv2d(img, taps, correlate=True))]
    if rows * cols <= 300:
        refs += [(conv, dense_conv2d(img, taps)), (corr, dense_conv2d(img, taps[::-1]))]
    for got, ref in refs:
        assert got.shape == img.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
def test_forward_adjoint_inner_product(radii, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(Kernel1D(_taps(rng, radius, symmetric=False)) for radius in radii)
    bank = KernelBank(grid=make_scale_grid(3.0, len(factors)), factors=factors)
    a = rng.standard_normal((65, 33, 4))
    r = rng.standard_normal((65, 33))
    lhs = np.vdot(forward(a, bank), r)
    rhs = np.vdot(a, adjoint(r, bank))
    norm = sum(np.sum(np.abs(f.taps)) ** 2 for f in factors)  # bounds the operator norm
    assert abs(lhs - rhs) <= 1e-12 * norm * np.linalg.norm(a) * np.linalg.norm(r)
