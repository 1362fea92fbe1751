import tracemalloc

import numpy as np
import pytest

from spotdeconv.convolution import BLOCK, adjoint, forward, make_plan
from spotdeconv.kernels import Kernel1D, KernelBank, build_kernel_bank, make_scale_grid

from oracles import dense_conv2d, ndimage_conv2d, operator_matrix


def _near_delta_bank(depth=1):
    return build_kernel_bank(make_scale_grid(0.1 * depth, depth))


def _conv(img, taps):
    """forward() of the one kernel taps x taps on the image img."""
    bank = KernelBank(grid=make_scale_grid(1.0, 1), factors=(Kernel1D(np.asarray(taps, float)),))
    return forward(img[:, :, None], bank)


# On a 1 x 3 image the vertical pass sees only the centre tap, so
# forward() reduces to the 1-D convolution along the row.
def test_conv1d_identity_kernel():
    sig = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_array_equal(_conv(sig, [1.0]), sig)


def test_conv1d_box_zero_padding():
    out = _conv(np.array([[1.0, 2.0, 3.0]]), np.ones(3))
    np.testing.assert_allclose(out, [[3.0, 6.0, 5.0]])


def test_conv2d_kernel_larger_than_image():
    bank = build_kernel_bank(make_scale_grid(3.0, 1))
    assert bank.factors[0].radius > 2
    out = forward(np.ones((2, 2, 1)), bank)
    assert out.shape == (2, 2)
    want = dense_conv2d(np.ones((2, 2)), bank.factors[0].taps)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_separable_matches_dense():
    rng = np.random.default_rng(10)
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    for factor in bank.factors:
        img = rng.standard_normal((9, 9))
        np.testing.assert_allclose(
            _conv(img, factor.taps), dense_conv2d(img, factor.taps), atol=1e-12
        )


def test_forward_zero_and_depth_mismatch():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    assert np.all(forward(np.zeros((5, 5, 3)), bank) == 0)
    with pytest.raises(ValueError):
        forward(np.zeros((5, 5, 2)), bank)


def test_forward_near_identity():
    bank = _near_delta_bank()
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6, 1))
    np.testing.assert_allclose(forward(a, bank), a[:, :, 0], atol=1e-9)


def test_forward_impulse_places_kernel():
    bank = build_kernel_bank(make_scale_grid(2.0, 2))
    a = np.zeros((15, 15, 2))
    a[7, 7, 1] = 1.0
    out = forward(a, bank)
    factor = bank.factors[1]
    radius = factor.radius
    expected = np.outer(factor.taps, factor.taps)
    np.testing.assert_allclose(
        out[7 - radius : 7 + radius + 1, 7 - radius : 7 + radius + 1],
        expected,
        atol=1e-14,
    )


def test_forward_linearity():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 8, 3))
    b = rng.standard_normal((8, 8, 3))
    lhs = forward(1.7 * a - 0.3 * b, bank)
    rhs = 1.7 * forward(a, bank) - 0.3 * forward(b, bank)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adjoint_zero_and_near_delta():
    bank = build_kernel_bank(make_scale_grid(2.0, 2))
    assert np.all(adjoint(np.zeros((4, 4)), bank) == 0)
    rng = np.random.default_rng(13)
    r = rng.standard_normal((6, 6))
    out = adjoint(r, _near_delta_bank())
    np.testing.assert_allclose(out[:, :, 0], r, atol=1e-9)


def test_adjoint_inner_product_identity():
    bank = build_kernel_bank(make_scale_grid(3.0, 3))
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rng.standard_normal((16, 16, 3))
        r = rng.standard_normal((16, 16))
        lhs = np.vdot(forward(a, bank), r)
        rhs = np.vdot(a, adjoint(r, bank))
        assert abs(lhs - rhs) / (np.linalg.norm(a) * np.linalg.norm(r)) <= 1e-9


def test_matches_dense_operator_matrix():
    bank = build_kernel_bank(make_scale_grid(1.5, 2))
    mat = operator_matrix(bank, 8, 8)
    rng = np.random.default_rng(15)
    a = rng.standard_normal((8, 8, 2))
    r = rng.standard_normal((8, 8))
    np.testing.assert_allclose(
        forward(a, bank).ravel(), mat @ a.ravel(), atol=1e-12
    )
    np.testing.assert_allclose(
        adjoint(r, bank).ravel(), mat.T @ r.ravel(), atol=1e-12
    )


def test_adjoint_equals_convolution_by_symmetry():
    # palindromic taps make correlation equal convolution; this validates
    # reusing the same stencil for the transpose step
    bank = build_kernel_bank(make_scale_grid(2.5, 3))
    rng = np.random.default_rng(16)
    r = rng.standard_normal((12, 12))
    vol = adjoint(r, bank)
    for k, factor in enumerate(bank.factors):
        np.testing.assert_allclose(vol[:, :, k], _conv(r, factor.taps), atol=1e-12)
        np.testing.assert_allclose(vol[:, :, k], ndimage_conv2d(r, factor.taps), atol=1e-12)


def test_correlation_is_true_adjoint_for_asymmetric_taps():
    # structural check with a deliberately non-palindromic kernel
    taps = np.array([0.1, 0.5, 0.2])
    bank = KernelBank(grid=make_scale_grid(1.0, 1), factors=(Kernel1D(taps),))
    rng = np.random.default_rng(17)
    img = rng.standard_normal((7, 7))
    r = rng.standard_normal((7, 7))
    corr = adjoint(r, bank)[:, :, 0]
    np.testing.assert_allclose(corr, ndimage_conv2d(r, taps, correlate=True), atol=1e-12)
    lhs = np.vdot(forward(img[:, :, None], bank), r)
    rhs = np.vdot(img, corr)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_forward_does_not_depend_on_volume_layout():
    # 40 x 37 spans two row and two column blocks of the GEMM passes.
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    rng = np.random.default_rng(18)
    big = rng.standard_normal((80, 41, 5))
    strided = big[::2, 2:39, 1:4]  # not contiguous in any axis order
    c_order = np.ascontiguousarray(strided)
    slice_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(strided, 2, 0)), 0, 2)
    want = forward(c_order, bank)
    np.testing.assert_array_equal(forward(slice_major, bank), want)
    np.testing.assert_array_equal(forward(strided, bank), want)


def test_adjoint_slices_are_contiguous_correlations():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    r = np.random.default_rng(19).standard_normal((40, 37))
    vol = adjoint(r, bank)
    assert vol.shape == (40, 37, 3)
    assert np.moveaxis(vol, 2, 0).flags.c_contiguous
    for k, factor in enumerate(bank.factors):
        np.testing.assert_allclose(
            vol[:, :, k], ndimage_conv2d(r, factor.taps, correlate=True), atol=1e-12)


def test_bands_follow_the_image_not_the_truncation():
    # On a 16 x 16 image no tap further than 15 px from the centre meets a
    # pixel: the bands are clipped there, so the operators give the same bits
    # at both truncations, and one call's bands stay small (unclipped, the
    # widest kernel's band alone would take ~27 MB per stack at 20,000).
    grid = make_scale_grid(3.0, 4)
    banks = [build_kernel_bank(grid, truncation) for truncation in (4000.0, 20000.0)]
    rng = np.random.default_rng(20)
    a = rng.standard_normal((16, 16, 4))
    r = rng.standard_normal((16, 16))
    for op, arg in ((forward, a), (adjoint, r)):
        tracemalloc.start()
        try:
            got = op(arg, banks[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        np.testing.assert_array_equal(got, op(arg, banks[0]))


def test_no_band_outlives_its_plan():
    # The operators keep no state between calls: a call's plan, bands and
    # workspace are freed when it returns, however many banks came before.
    banks = [build_kernel_bank(make_scale_grid(2.0 + 0.05 * i, 4)) for i in range(20)]
    rng = np.random.default_rng(22)
    a = rng.standard_normal((40, 40, 4))
    r = rng.standard_normal((40, 40))
    tracemalloc.start()
    try:
        for bank in banks:
            forward(a, bank)
            adjoint(r, bank)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 2**10


@pytest.mark.parametrize("rows, cols, depth, sigma_max, clips", [
    (40, 37, 3, 2.0, False),  # M != N, neither side a multiple of BLOCK
    (2 * BLOCK + 1, 4 * BLOCK, 4, 2.0, False),  # one side a multiple of BLOCK
    (5, 23, 2, 1.5, False),  # both sides below BLOCK
    (3, 4, 3, 3.0, True),  # the extent clips the radius
    (33, 9, 1, 2.0, False),  # K = 1
    (2 * BLOCK + 5, 3 * BLOCK - 3, 3, BLOCK / 2, False),  # R_max > BLOCK
])
def test_shared_plan_matches_a_plan_per_call(rows, cols, depth, sigma_max, clips):
    # One plan serves any number of forward and adjoint calls in any order,
    # its workspace overwritten by each: every result is bit-identical to
    # the call that makes its own plan.
    bank = build_kernel_bank(make_scale_grid(sigma_max, depth))
    assert (max(f.radius for f in bank.factors) > max(rows, cols) - 1) == clips
    rng = np.random.default_rng(21)
    workspace = np.full(depth * rows * cols, np.nan)
    plan = make_plan(bank, (rows, cols), workspace)
    for _ in range(2):
        a = np.moveaxis(rng.standard_normal((depth, rows, cols)), 0, 2)
        r = rng.standard_normal((rows, cols))
        np.testing.assert_array_equal(adjoint(r, bank, plan=plan), adjoint(r, bank))
        np.testing.assert_array_equal(forward(a, bank, plan=plan), forward(a, bank))
        np.testing.assert_array_equal(forward(np.ascontiguousarray(a), bank, plan=plan),
                                      forward(a, bank))


def test_plan_misuse_is_refused():
    bank = build_kernel_bank(make_scale_grid(2.0, 3))
    plan = make_plan(bank, (8, 9))
    with pytest.raises(ValueError, match="plan"):
        forward(np.zeros((9, 8, 3)), bank, plan=plan)
    with pytest.raises(ValueError, match="plan"):
        adjoint(np.zeros((9, 8)), bank, plan=plan)
    # matmul would round into a float32 workspace; make_plan refuses it.
    with pytest.raises(ValueError, match="float64"):
        make_plan(bank, (8, 9), np.empty(3 * 8 * 9, dtype=np.float32))
