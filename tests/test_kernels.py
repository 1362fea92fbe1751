import math

import numpy as np
import pytest
from scipy.special import erf

from spotdeconv import kernels
from spotdeconv.kernels import (
    ERF_REACH,
    SIGMA_MIN,
    build_kernel_bank,
    gaussian_factor_1d,
    make_scale_grid,
)
from spotdeconv.tensors import BoundError

# Center tap for sigma = 1: integral of the unit Gaussian pdf over [-1/2, 1/2],
# frozen from 60-digit quadrature.
CENTER_TAP_SIGMA1 = 0.38292492254802620728


@pytest.mark.parametrize("sigma_max, num_bins", [(3.0, 4), (3.0, 12)])  # the demo grid; K=12
def test_taps_match_scipy_erf(sigma_max, num_bins):
    # The taps take math.erf; scipy's erf (cephes) differs from it by a few ulp.
    grid = make_scale_grid(sigma_max, num_bins)
    for k in range(num_bins):
        factor = gaussian_factor_1d(grid, k)
        sigma = max(grid.midpoint(k), SIGMA_MIN)
        j = np.arange(-factor.radius, factor.radius + 1)
        scale = 1.0 / (np.sqrt(2.0) * sigma)
        want = 0.5 * (erf((j + 0.5) * scale) - erf((j - 0.5) * scale))
        np.testing.assert_allclose(factor.taps, want, rtol=0, atol=1e-15)


def test_scale_grid_uniform():
    np.testing.assert_allclose(make_scale_grid(4.0, 4).edges, [0, 1, 2, 3, 4])
    np.testing.assert_allclose(make_scale_grid(1.0, 1).edges, [0, 1])
    np.testing.assert_allclose(
        make_scale_grid(2.5, 5).edges, [0, 0.5, 1.0, 1.5, 2.0, 2.5]
    )


def test_scale_grid_invalid():
    with pytest.raises(ValueError):
        make_scale_grid(0.0, 3)
    with pytest.raises(ValueError):
        make_scale_grid(2.0, 0)
    for sigma in [np.nan, np.inf]:
        with pytest.raises(ValueError):
            make_scale_grid(sigma, 3)


def test_scale_grid_rules_name_the_parameter():
    # The step scales with 1/sigma_max_pixels: a subnormal sigma, whose
    # reciprocal overflows, is refused with K; a huge K is checked without
    # making its edges.
    with pytest.raises(BoundError, match="^sigma_max_pixels must be finite and > 0 with a "
                                         "finite reciprocal, got 1e-310$") as caught:
        make_scale_grid(1e-310, 3)
    assert (caught.value.name, caught.value.value) == ("sigma_max_pixels", 1e-310)
    with pytest.raises(BoundError, match="^num_bins must be >= 1, got 0$"):
        make_scale_grid(2.0, 0)
    assert make_scale_grid(2.0, 2**53).num_bins == 2**53


def test_near_delta_factor():
    # first bin of a fine grid: midpoint clamps to SIGMA_MIN, nearly all mass
    # lands on the center tap
    grid = make_scale_grid(0.4, 8)
    assert max(grid.midpoint(0), SIGMA_MIN) == SIGMA_MIN
    factor = gaussian_factor_1d(grid, 0)
    center = factor.taps[factor.radius]
    assert center >= 1 - 1e-10
    others = np.delete(factor.taps, factor.radius)
    assert np.all(others <= 1e-10)


def test_clamped_bin_takes_sigma_min_taps():
    # sigma_max 0.08, K 1: the midpoint 0.04 is below the clamp, so the bin
    # takes the taps of sigma = 0.05, at radius ceil(4 * 0.05) = 1.
    factor = gaussian_factor_1d(make_scale_grid(0.08, 1), 0)
    scale = 1.0 / (math.sqrt(2.0) * 0.05)
    want = [0.5 * (math.erf((j + 0.5) * scale) - math.erf((j - 0.5) * scale)) for j in (-1, 0, 1)]
    np.testing.assert_array_equal(factor.taps, want)


def test_center_tap_sigma1():
    # grid with a bin whose midpoint is exactly 1.0
    grid = make_scale_grid(2.0, 1)
    factor = gaussian_factor_1d(grid, 0, truncation=4.0)
    assert factor.taps[factor.radius] == pytest.approx(CENTER_TAP_SIGMA1, abs=1e-12)


def test_tap_mass_and_truncation_limit():
    grid = make_scale_grid(3.0, 4)
    for k in range(4):
        s = gaussian_factor_1d(grid, k).taps.sum()
        assert 0 < s <= 1 + 1e-9
    # mass approaches 1 as the truncation radius grows
    loose = gaussian_factor_1d(grid, 3, truncation=2.0).taps.sum()
    tight = gaussian_factor_1d(grid, 3, truncation=8.0).taps.sum()
    assert loose < tight
    assert tight == pytest.approx(1.0, abs=1e-12)


def test_palindromic_taps():
    grid = make_scale_grid(3.0, 5)
    for k in range(5):
        taps = gaussian_factor_1d(grid, k).taps
        np.testing.assert_array_equal(taps, taps[::-1])
        assert len(taps) % 2 == 1
        assert np.all(taps >= 0)


def test_bank_radii_monotone():
    bank = build_kernel_bank(make_scale_grid(3.0, 6))
    radii = [f.radius for f in bank.factors]
    assert radii == sorted(radii)


def test_demo_bank_radii():
    # The radius is ceil(4 * sigma) at the demo grid's midpoints 0.375,
    # 1.125, 1.875 and 2.625: ceil of 1.5, 4.5, 7.5 and 10.5.
    bank = build_kernel_bank(make_scale_grid(3.0, 4))
    assert [f.radius for f in bank.factors] == [2, 5, 8, 11]


def test_taps_stop_where_erf_does(monkeypatch):
    # Past ERF_REACH sigmas math.erf is 1.0 at both edges of a tap, so every
    # tap that the cap drops is exactly 0.0: at truncation 30 the factor is the
    # centre of the uncapped one bit for bit, from SIGMA_MIN to ~380 px.
    for num_bins in (1, 2, 5, 12):
        for sigma_max in np.geomspace(0.08, 400.0, 24):
            grid = make_scale_grid(sigma_max, num_bins)
            capped = [gaussian_factor_1d(grid, k, 30.0) for k in range(num_bins)]
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "ERF_REACH", math.inf)
                uncapped = [gaussian_factor_1d(grid, k, 30.0) for k in range(num_bins)]
            for k, (factor, full) in enumerate(zip(capped, uncapped)):
                sigma = max(grid.midpoint(k), SIGMA_MIN)
                reach = math.ceil(ERF_REACH * sigma)
                assert factor.radius == reach and full.radius == math.ceil(30.0 * sigma)
                centre = slice(full.radius - reach, full.radius + reach + 1)
                assert not np.delete(full.taps, centre).any()
                assert factor.taps.tobytes() == full.taps[centre].tobytes()


def test_bank_deterministic():
    b1 = build_kernel_bank(make_scale_grid(2.7, 3))
    b2 = build_kernel_bank(make_scale_grid(2.7, 3))
    for f1, f2 in zip(b1.factors, b2.factors):
        assert f1.taps.tobytes() == f2.taps.tobytes()


def test_bad_bin_or_truncation():
    grid = make_scale_grid(1.0, 2)
    with pytest.raises(ValueError):
        gaussian_factor_1d(grid, 2)
    with pytest.raises(ValueError):
        gaussian_factor_1d(grid, 0, truncation=0.0)
    for truncation in [np.nan, np.inf]:
        with pytest.raises(ValueError):
            gaussian_factor_1d(grid, 0, truncation=truncation)
