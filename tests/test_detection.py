import numpy as np
import pytest

from spotdeconv.detection import Detection, detect, regional_maxima
from spotdeconv.tensors import group_norm_image


def test_map_single_slice_impulse():
    a = np.zeros((3, 3, 2))
    a[1, 1, 0] = 5.0
    assert group_norm_image(a)[1, 1] == pytest.approx(5.0)


def test_map_colocated_slices():
    a = np.zeros((3, 3, 2))
    a[1, 1] = [3.0, 4.0]
    assert group_norm_image(a)[1, 1] == pytest.approx(5.0)


def test_isolated_peak():
    p = np.array([[0, 0, 0], [0, 5, 0], [0, 0, 0]], dtype=float)
    dets = regional_maxima(p)
    assert dets == [Detection(row=1.0, col=1.0, pseudo_likelihood=5.0)]


def test_two_pixel_plateau_centroid():
    p = np.array([[1, 1], [0, 0]], dtype=float)
    dets = regional_maxima(p)
    assert dets == [Detection(row=0.0, col=0.5, pseudo_likelihood=1.0)]


def test_constant_image_single_plateau():
    dets = regional_maxima(np.full((3, 5), 2.0))
    assert dets == [Detection(row=1.0, col=2.0, pseudo_likelihood=2.0)]


def test_zero_background_not_detected():
    assert regional_maxima(np.zeros((4, 4))) == []


def test_non_maximal_plateau_excluded():
    p = np.array([[2, 2, 0], [0, 3, 0], [0, 0, 0]], dtype=float)
    dets = regional_maxima(p)
    assert len(dets) == 1
    assert dets[0].pseudo_likelihood == 3.0


def test_diagonal_plateau_not_split():
    # 8-connectivity joins diagonal equal pixels into one plateau
    p = np.zeros((4, 4))
    p[1, 1] = p[2, 2] = 4.0
    dets = regional_maxima(p)
    assert dets == [Detection(row=1.5, col=1.5, pseudo_likelihood=4.0)]


def test_plateau_split_by_greater_pixel_excluded():
    # The 3 leaves two candidate runs of 2s at either end of the top row;
    # they are one plateau with a strictly greater neighbor, so no maximum.
    p = np.array([[2, 2, 2, 2, 2], [0, 0, 3, 0, 0]], dtype=float)
    assert regional_maxima(p) == [Detection(row=1.0, col=2.0, pseudo_likelihood=3.0)]


def test_border_maximum_detected():
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    assert regional_maxima(p) == [Detection(row=0.0, col=0.0, pseudo_likelihood=1.0)]


def test_detect_zero_volume():
    assert detect(np.zeros((5, 5, 2))) == []


def test_detect_sorted_by_likelihood():
    a = np.zeros((9, 9, 1))
    a[1, 1, 0] = 3.0
    a[7, 7, 0] = 7.0
    dets = detect(a)
    assert [d.pseudo_likelihood for d in dets] == [7.0, 3.0]


def test_detect_tie_break_row_col():
    a = np.zeros((9, 9, 1))
    a[1, 6, 0] = 2.0
    a[1, 2, 0] = 2.0
    a[5, 1, 0] = 2.0
    dets = detect(a)
    assert [(d.row, d.col) for d in dets] == [(1.0, 2.0), (1.0, 6.0), (5.0, 1.0)]


def test_plateaus_disjoint_and_values_consistent():
    rng = np.random.default_rng(40)
    p = np.round(rng.uniform(0, 3, size=(12, 12)), 1)
    dets = regional_maxima(p)
    positions = {(d.row, d.col) for d in dets}
    assert len(positions) == len(dets)
    for d in dets:
        # centroid of an equal-value plateau: map value at the nearest
        # plateau pixel equals the reported pseudo-likelihood
        r, c = int(round(d.row)), int(round(d.col))
        assert p[r, c] <= d.pseudo_likelihood + 1e-12


def test_locality_under_background_perturbation():
    p = np.zeros((7, 7))
    p[2, 2] = 5.0
    p[5, 5] = 3.0
    base = regional_maxima(p)
    perturbed = p - 1e-6
    perturbed[2, 2] = 5.0
    perturbed[5, 5] = 3.0
    perturbed = np.maximum(perturbed, 0)
    assert [(d.row, d.col) for d in regional_maxima(perturbed)] == [
        (d.row, d.col) for d in base
    ]


def test_monotone_relabel_preserves_positions():
    rng = np.random.default_rng(41)
    p = np.round(rng.uniform(0, 2, size=(10, 10)), 1)
    base = regional_maxima(p)
    relabeled = regional_maxima(np.sqrt(p))  # strictly increasing, f(0)=0
    assert [(d.row, d.col) for d in base] == [(d.row, d.col) for d in relabeled]
    for b, r in zip(base, relabeled):
        assert r.pseudo_likelihood == pytest.approx(np.sqrt(b.pseudo_likelihood))
