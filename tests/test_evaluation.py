import numpy as np
import pytest

from spotdeconv.detection import Detection
from spotdeconv.evaluation import (
    best_threshold,
    evaluate_at,
    match,
    prf1,
    threshold_sweep,
)


def _det(r, c, p):
    return Detection(row=float(r), col=float(c), pseudo_likelihood=float(p))


MIXED_DETS = [_det(0, 0, 0.9), _det(5, 5, 0.8), _det(10, 10, 0.7)]
MIXED_GT = [(1.0, 1.0), (5.0, 9.0)]


def test_match_mixed_example():
    # (0,0) matches (1,1) at sqrt(2); (5,5) is 4 > 3 from (5,9); (10,10) far
    tp, fp, fn, pairing = match(MIXED_DETS, MIXED_GT, tol=3.0)
    assert (tp, fp, fn) == (1, 2, 1)
    assert pairing == {0: 0}


def test_match_empty_detections():
    tp, fp, fn, _ = match([], MIXED_GT, tol=3.0)
    assert (tp, fp, fn) == (0, 0, 2)


def test_match_perfect():
    dets = [_det(r, c, 0.5) for r, c in MIXED_GT]
    tp, fp, fn, _ = match(dets, MIXED_GT, tol=3.0)
    assert (tp, fp, fn) == (2, 0, 0)


def test_match_nearest_unmatched_preference():
    # higher-likelihood detection grabs the nearest gt; the second detection
    # must settle for the remaining one
    dets = [_det(0, 0, 0.9), _det(0, 1, 0.8)]
    gt = [(0.0, 0.0), (0.0, 2.0)]
    tp, fp, fn, pairing = match(dets, gt, tol=3.0)
    assert (tp, fp, fn) == (2, 0, 0)
    assert pairing == {0: 0, 1: 1}


def test_match_distance_tie_breaks_by_gt_index():
    dets = [_det(0, 1, 0.9)]
    gt = [(0.0, 0.0), (0.0, 2.0)]  # both at distance 1
    _, _, _, pairing = match(dets, gt, tol=3.0)
    assert pairing == {0: 0}


def test_prf1_examples():
    assert prf1(2, 1, 1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    assert prf1(0, 0, 0) == (0.0, 0.0, 0.0)
    assert prf1(1, 2, 1) == pytest.approx((1 / 3, 1 / 2, 0.4))


def test_best_threshold_mixed_example():
    report = best_threshold(MIXED_DETS, MIXED_GT, tol=3.0)
    assert report.threshold == pytest.approx(0.9)
    assert report.f1 == pytest.approx(2 / 3)


def test_best_threshold_all_correct():
    dets = [_det(r, c, 0.2 + 0.1 * i) for i, (r, c) in enumerate(MIXED_GT)]
    report = best_threshold(dets, MIXED_GT, tol=3.0)
    assert report.f1 == 1.0
    assert report.threshold == pytest.approx(0.2)


def test_best_threshold_empty_gt():
    report = best_threshold(MIXED_DETS, [], tol=3.0)
    assert report.threshold == np.inf
    assert report.f1 == 0.0


def test_monotone_tolerance():
    rng = np.random.default_rng(50)
    dets = [_det(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0, 1))
            for _ in range(15)]
    dets.sort(key=lambda d: -d.pseudo_likelihood)
    gt = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(10)]
    prev_tp = -1
    for tol in [0.5, 1.0, 2.0, 4.0, 8.0]:
        tp, _, _, _ = match(dets, gt, tol)
        assert tp >= prev_tp
        prev_tp = tp


def test_scale_invariance_of_counts():
    report = best_threshold(MIXED_DETS, MIXED_GT, tol=3.0)
    scaled = [_det(d.row, d.col, 10.0 * d.pseudo_likelihood) for d in MIXED_DETS]
    report2 = best_threshold(scaled, MIXED_GT, tol=3.0)
    assert (report2.tp, report2.fp, report2.fn) == (report.tp, report.fp, report.fn)
    assert report2.threshold == pytest.approx(10.0 * report.threshold)


def test_count_identities_random():
    rng = np.random.default_rng(51)
    for _ in range(200):
        n_det = int(rng.integers(0, 10))
        n_gt = int(rng.integers(0, 8))
        dets = [_det(rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 1))
                for _ in range(n_det)]
        dets.sort(key=lambda d: (-d.pseudo_likelihood, d.row, d.col))
        gt = [(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n_gt)]
        thr = float(rng.uniform(0, 1))
        report = evaluate_at(dets, gt, thr, tol=3.0)
        kept = [d for d in dets if d.pseudo_likelihood >= thr]
        assert report.tp + report.fn == len(gt)
        assert report.tp + report.fp == len(kept)
        assert report.tp <= min(len(gt), len(kept))


def test_best_threshold_equals_enumeration():
    rng = np.random.default_rng(52)
    for _ in range(50):
        n_det = int(rng.integers(0, 8))
        dets = [_det(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 1))
                for _ in range(n_det)]
        dets.sort(key=lambda d: (-d.pseudo_likelihood, d.row, d.col))
        gt = [(rng.uniform(0, 10), rng.uniform(0, 10))
              for _ in range(int(rng.integers(0, 6)))]
        best = best_threshold(dets, gt, tol=3.0)
        sweep = threshold_sweep(dets, gt, tol=3.0)
        assert best.f1 == max(rep.f1 for rep in sweep)
        # tie rule: no sweep report with the same F1 has a larger threshold
        for rep in sweep:
            if rep.f1 == best.f1:
                assert rep.threshold <= best.threshold


def test_match_scores_in_likelihood_order_whatever_the_input_order():
    # the 0.9 detection is scored first and takes the nearer gt point even
    # though it comes second; pairing keys index the list as passed
    dets = [_det(0, 1, 0.8), _det(0, 0, 0.9)]
    gt = [(0.0, 0.0), (0.0, 2.0)]
    assert match(dets, gt, tol=3.0) == (2, 0, 0, {1: 0, 0: 1})
    assert evaluate_at(dets, gt, 0.85, tol=3.0).tp == 1


def test_shuffled_detections_give_same_sweep_and_best():
    rng = np.random.default_rng(53)
    for _ in range(50):
        dets = [_det(rng.integers(0, 6), rng.integers(0, 6), rng.choice([0.2, 0.5, 0.9]))
                for _ in range(int(rng.integers(0, 12)))]
        gt = [(float(rng.integers(0, 6)), float(rng.integers(0, 6)))
              for _ in range(int(rng.integers(0, 6)))]
        shuffled = [dets[i] for i in rng.permutation(len(dets))]
        assert threshold_sweep(shuffled, gt, tol=3.0) == threshold_sweep(dets, gt, tol=3.0)
        assert best_threshold(shuffled, gt, tol=3.0) == best_threshold(dets, gt, tol=3.0)


def test_sweep_equals_evaluate_at_each_distinct_threshold():
    # Tied values give one report each, in descending order after +inf.
    rng = np.random.default_rng(54)
    for _ in range(50):
        dets = [_det(rng.integers(0, 8), rng.integers(0, 8), rng.choice([0.2, 0.5, 0.9]))
                for _ in range(int(rng.integers(0, 12)))]
        gt = [(float(rng.integers(0, 8)), float(rng.integers(0, 8)))
              for _ in range(int(rng.integers(0, 6)))]
        thresholds = [np.inf] + sorted({d.pseudo_likelihood for d in dets}, reverse=True)
        assert threshold_sweep(dets, gt) == [evaluate_at(dets, gt, thr) for thr in thresholds]
