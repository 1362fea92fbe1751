"""Greedy detection/ground-truth matching and F1-based threshold selection.

Detections, a (D, 3) array or a list of (row, col, p) rows, are scored in
(-p, row, col) order whatever order the caller passes them in, each matched
to its nearest unmatched ground-truth point within a Euclidean tolerance
(default DEFAULT_TOL, in pixels). best_threshold sweeps every detection
value plus +inf and keeps the report with maximal F1, breaking ties toward
the largest threshold.

Greedy matching in that order is prefix-stable: lowering the threshold only
appends detections, and earlier matches never change. So the whole sweep is
one matching pass, whose running TP count gives a report at the last
detection of each run of equal p.

A detection can take only a ground-truth point within tol, so detections
are matched through the (detection, source) pairs within tol: the sources
in each detection's row window, found by a search over the sources sorted
by row, each pair tested once. The greedy loop walks only those pairs, a
detection with none is a false positive at its place in the order, and the
pass stops once every source is taken. So its cost follows the detections
near a source, not the detection count.
"""

from itertools import repeat
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 3.0  # matching tolerance in pixels, also the CLI's --tol default


class EvalReport(NamedTuple):
    """One row of the sweep CSV; equal to the tuple of its fields."""

    threshold: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


PAIR_CHUNK = 1 << 16  # candidate (detection, source) pairs tested at once


def _greedy_pass(dets, gt, tol):
    """Match detections in (-p, row, col) order; returns (order, p, took):
    the detection indices into the caller's rows in that order, their p, and
    a dict from each matching position in that order, ascending, to the
    ground-truth index it took.

    Each detection takes the nearest untaken ground-truth point within tol;
    distance ties go to the lower ground-truth index. A distance that
    overflows float64 is inf, beyond any finite tol.

    A detection's candidates are the sources in the row window
    [row - 2 tol, row + 2 tol], found in the sources sorted by row, or every
    source where an edge of that window is not finite. The test
    hypot(row - gt_row, ...) <= tol passes only where the exact
    |row - gt_row| <= tol (1 + 2**-52) (hypot is never below either leg), and
    rounding is monotone, so the window holds every source that can pass.
    Each candidate pair takes that test once, PAIR_CHUNK pairs at a time
    (more only for one detection whose window alone holds more), so memory
    stays O(D + G + PAIR_CHUNK). The pairs that pass, ordered by (detection,
    distance, source), are walked in plain Python: a detection takes its
    first pair whose source is still free. Chunks cover the detections in
    order and never split one's pairs, so the walk goes chunk by chunk, and
    it stops once every source is taken.
    """
    # The (D, 3) detections, or a list of (row, col, p) rows; no copy for a float64 array.
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    # A p of -0.0 goes after an equal 0.0, so a run's last p does not depend on input order.
    order = np.lexsort((np.signbit(dets[:, 2]), dets[:, 1], dets[:, 0], -dets[:, 2]))
    rows, cols, p = dets[order].T
    gt_row, gt_col = np.asarray(gt, dtype=np.float64).reshape(-1, 2).T
    by_row = np.argsort(gt_row, kind="stable")
    sorted_row = gt_row[by_row]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan edges take every source
        reach = 2 * tol
        lo_edge, hi_edge = rows - reach, rows + reach
    placed = np.isfinite(lo_edge) & np.isfinite(hi_edge)
    lo = np.where(placed, np.searchsorted(sorted_row, lo_edge, side="left"), 0)
    hi = np.where(placed, np.searchsorted(sorted_row, hi_edge, side="right"), len(gt_row))
    width = np.maximum(hi - lo, 0)  # a tol below 0 inverts the window: no pairs
    first = np.cumsum(width) - width  # each detection's first pair in the whole list
    # Each chunk starts at the first detection whose pairs start at or after a
    # multiple of PAIR_CHUNK; a span that straddles one stays in the chunk before.
    starts = np.searchsorted(first, np.arange(PAIR_CHUNK, width.sum(), PAIR_CHUNK))
    bounds = np.unique(np.r_[0, starts, len(rows)]).tolist()
    took, taken = {}, set()
    for a, b in zip(bounds[:-1], bounds[1:]):
        if len(taken) == len(gt_row):
            break  # no later pair can match
        det = np.repeat(np.arange(a, b), width[a:b])
        src = by_row[np.arange(first[a], first[b - 1] + width[b - 1])
                     - np.repeat(first[a:b] - lo[a:b], width[a:b])]
        with np.errstate(over="ignore"):  # an overflowing distance is inf
            dist = np.hypot(rows[det] - gt_row[src], cols[det] - gt_col[src])
        keep = dist <= tol
        det, src, dist = det[keep], src[keep], dist[keep]
        walk = np.lexsort((src, dist, det))
        for k, g in zip(det[walk].tolist(), src[walk].tolist()):
            if k not in took and g not in taken:
                took[k] = g
                taken.add(g)
    return order, p, took


def match(dets, gt, tol=DEFAULT_TOL):
    """Greedy matching; returns (TP, FP, FN, pairing).

    pairing maps detection index (into dets as passed) -> ground-truth
    index for each true positive.
    """
    order, _, took = _greedy_pass(dets, gt, tol)
    pairing = dict(zip(order[list(took)].tolist(), took.values()))
    tp = len(pairing)
    return tp, len(dets) - tp, len(gt) - tp, pairing


def _ratio(num, den):
    """num / den, and 0.0 where den is 0 (counts are never negative)."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den > 0)


def prf1(tp, fp, fn):
    """Precision, recall and F1 with the 0/0 -> 0 convention: floats for
    scalar counts, lists elementwise for arrays of counts."""
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return precision.tolist(), recall.tolist(), f1.tolist()


def evaluate_at(dets, gt, threshold, tol=DEFAULT_TOL):
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    tp, fp, fn, _ = match(dets[dets[:, 2] >= threshold], gt, tol)
    return EvalReport(threshold, tp, fp, fn, *prf1(tp, fp, fn))


def threshold_sweep(dets, gt, tol=DEFAULT_TOL):
    """One EvalReport per candidate threshold ({p_l} union {+inf}),
    in descending threshold order, from a single matching pass."""
    _, p, took = _greedy_pass(dets, gt, tol)
    ends = np.flatnonzero(p != np.append(p[1:], np.nan))  # where a run of equal p ends
    tp = np.append(0, np.searchsorted(list(took), ends, side="right"))
    fp = np.append(0, ends + 1) - tp
    fn = len(gt) - tp
    columns = np.append(np.inf, p[ends]).tolist(), tp.tolist(), fp.tolist(), fn.tolist()
    # tuple.__new__ builds each row in C, without _make's Python frame per row.
    return list(map(tuple.__new__, repeat(EvalReport), zip(*columns, *prf1(tp, fp, fn))))


def best_report(sweep):
    """Report with the best F1 in a sweep; ties keep the largest threshold
    (fewest detections), i.e. the earliest report."""
    return max(sweep, key=lambda report: report.f1)


def best_threshold(dets, gt, tol=DEFAULT_TOL):
    """best_report of the threshold sweep."""
    return best_report(threshold_sweep(dets, gt, tol))
