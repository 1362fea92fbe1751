"""Greedy detection/ground-truth matching and F1-based threshold selection.

Detections are scored in (-p, row, col) order whatever order the caller
passes them in, each matched to its nearest unmatched ground-truth point
within a Euclidean tolerance (default DEFAULT_TOL, in pixels). best_threshold
sweeps every detection value plus +inf and keeps the report with maximal
F1, breaking ties toward the largest threshold.

Greedy matching in that order is prefix-stable: lowering the threshold only
appends detections, and earlier matches never change. So the whole sweep is
one matching pass that emits a report after each run of equal p.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 3.0  # matching tolerance in pixels, also the CLI's --tol default


@dataclass(frozen=True)
class EvalReport:
    threshold: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def _greedy_pass(dets, gt, tol):
    """Match detections in (-p, row, col) order; returns (index, gt index or
    None) pairs in that order, indices into the caller's lists.

    Each detection takes the nearest unmatched ground-truth point within
    tol; distance ties go to the lower ground-truth index.
    """
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].pseudo_likelihood, dets[i].row, dets[i].col),
    )
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    unmatched = np.ones(len(gt), dtype=bool)
    steps = []
    for di in order:
        d = dets[di]
        dist = np.hypot(d.row - gt[:, 0], d.col - gt[:, 1])
        candidates = np.flatnonzero(unmatched & (dist <= tol))
        best = None
        if len(candidates):
            best = int(candidates[np.argmin(dist[candidates])])
            unmatched[best] = False
        steps.append((di, best))
    return steps


def match(dets, gt, tol=DEFAULT_TOL):
    """Greedy matching; returns (TP, FP, FN, pairing).

    pairing maps detection index (into dets as passed) -> ground-truth
    index for each true positive.
    """
    pairing = {di: gi for di, gi in _greedy_pass(dets, gt, tol) if gi is not None}
    tp = len(pairing)
    return tp, len(dets) - tp, len(gt) - tp, pairing


def prf1(tp, fp, fn):
    """Precision, recall and F1 with the 0/0 -> 0 convention."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def _report(threshold, tp, fp, fn):
    precision, recall, f1 = prf1(tp, fp, fn)
    return EvalReport(
        threshold=threshold, tp=tp, fp=fp, fn=fn,
        precision=precision, recall=recall, f1=f1,
    )


def evaluate_at(dets, gt, threshold, tol=DEFAULT_TOL):
    kept = [d for d in dets if d.pseudo_likelihood >= threshold]
    tp, fp, fn, _ = match(kept, gt, tol)
    return _report(threshold, tp, fp, fn)


def threshold_sweep(dets, gt, tol=DEFAULT_TOL):
    """One EvalReport per candidate threshold ({p_l} union {+inf}),
    in descending threshold order, from a single matching pass."""
    reports = [_report(np.inf, 0, 0, len(gt))]
    tp = 0
    for scored, (di, gi) in enumerate(_greedy_pass(dets, gt, tol), start=1):
        tp += gi is not None
        p = dets[di].pseudo_likelihood
        if reports[-1].threshold == p:  # a tie: this report replaces the last
            reports.pop()
        reports.append(_report(p, tp, scored - tp, len(gt) - tp))
    return reports


def best_report(sweep):
    """Report with the best F1 in a sweep; ties keep the largest threshold
    (fewest detections), i.e. the earliest report."""
    return max(sweep, key=lambda report: report.f1)


def best_threshold(dets, gt, tol=DEFAULT_TOL):
    """best_report of the threshold sweep."""
    return best_report(threshold_sweep(dets, gt, tol))
