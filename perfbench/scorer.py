"""Best-F1 scorer that shares no code with spotdeconv.evaluation.

Greedy matching in decreasing pseudo-likelihood order is prefix-stable:
lowering the threshold only appends detections and never changes earlier
matches. So one pass over the detections, sorted by (-p, row, col), yields
the TP/FP/FN counts at every threshold of the library's sweep.
"""

import math

import numpy as np


def _prf1(tp, fp, fn):
    # Same expression as the paper's definition (0/0 -> 0), so F1 ties
    # between thresholds resolve exactly as in the library.
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def best_f1(dets, gt, tol=3.0):
    """dets: (row, col, p) triples; gt: (row, col) pairs.

    Each detection goes to the nearest unmatched ground-truth point within
    `tol` (ties to the lower index). Thresholds are +inf and every distinct
    p; the best F1 wins, ties going to the larger threshold.
    """
    order = sorted(dets, key=lambda d: (-d[2], d[0], d[1]))
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    unmatched = np.ones(len(gt), dtype=bool)
    tp = fp = 0
    best = {"threshold": math.inf, "TP": 0, "FP": 0, "FN": len(gt), "f1": _prf1(0, 0, len(gt))}
    i = 0
    while i < len(order):
        threshold = order[i][2]
        while i < len(order) and order[i][2] == threshold:
            row, col, _ = order[i]
            dist = np.hypot(row - gt[:, 0], col - gt[:, 1])
            candidates = np.flatnonzero(unmatched & (dist <= tol))
            if len(candidates):
                unmatched[candidates[np.argmin(dist[candidates])]] = False
                tp += 1
            else:
                fp += 1
            i += 1
        f1 = _prf1(tp, fp, len(gt) - tp)
        if f1 > best["f1"]:
            best = {"threshold": threshold, "TP": tp, "FP": fp, "FN": len(gt) - tp, "f1": f1}
    return best
