"""Greedy detection/ground-truth matching and F1-based threshold selection.

Detections are scored in (-p, row, col) order whatever order the caller
passes them in, each matched to its nearest unmatched ground-truth point
within a Euclidean tolerance (default DEFAULT_TOL, in pixels). best_threshold
sweeps every detection value plus +inf and keeps the report with maximal
F1, breaking ties toward the largest threshold.

Greedy matching in that order is prefix-stable: lowering the threshold only
appends detections, and earlier matches never change. So the whole sweep is
one matching pass, whose running TP count gives a report at the last
detection of each run of equal p.

A detection with no ground-truth point within tol can take none, so only
the detections within tol of a source enter the greedy loop, found by a
search over the sources sorted by row; every other one is a false positive
at its place in the order. So the loop's cost follows the detections near a
source, not the detection count.
"""

from itertools import chain, repeat
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


def _near_source(rows, cols, gt_row, gt_col, tol):
    """Mask of the detections the greedy loop must visit: each one with a
    ground-truth point within tol by the loop's own test, and each one the
    row search cannot place (a non-finite row window edge).

    A detection's candidates are the sources in the row window
    [row - 2 tol, row + 2 tol], found in the sources sorted by row. The loop's
    test, hypot(row - gt_row, ...) <= tol, passes only where the exact
    |row - gt_row| <= tol (1 + 2**-52) (hypot is never below either leg), and
    rounding is monotone, so the computed window holds every source that can
    pass. Each candidate pair then takes the loop's test itself. The
    pairs are tested PAIR_CHUNK at a time (more only for one detection whose
    window alone holds more), so memory stays O(D + G + PAIR_CHUNK).
    """
    by_row = np.argsort(gt_row, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan edges go to the loop
        reach = 2 * tol
        lo_edge, hi_edge = rows - reach, rows + reach
    placed = np.isfinite(lo_edge) & np.isfinite(hi_edge)
    sorted_row = gt_row[by_row]
    lo = np.searchsorted(sorted_row, lo_edge, side="left")
    width = np.searchsorted(sorted_row, hi_edge, side="right") - lo
    near = ~placed
    todo = np.flatnonzero(placed & (width > 0))
    lo, width = lo[todo], width[todo]
    first = np.cumsum(width) - width  # each detection's first pair in the whole list
    # Each chunk starts at the first detection whose pairs start at or after a
    # multiple of PAIR_CHUNK; a span that straddles one stays in the chunk before.
    starts = np.searchsorted(first, np.arange(PAIR_CHUNK, width.sum(), PAIR_CHUNK))
    bounds = np.unique(np.r_[0, starts, len(todo)]).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        det = np.repeat(todo[a:b], width[a:b])
        src = by_row[np.arange(first[a], first[b - 1] + width[b - 1])
                     - np.repeat(first[a:b] - lo[a:b], width[a:b])]
        with np.errstate(over="ignore"):  # an overflowing distance is inf, as in the loop
            dist = np.hypot(rows[det] - gt_row[src], cols[det] - gt_col[src])
        near[det[dist <= tol]] = True
    return near


def _greedy_pass(dets, gt, tol):
    """Match detections in (-p, row, col) order; returns (order, p, took):
    the detection indices into the caller's list in that order, their p, and
    for each the ground-truth index it took, or -1.

    Each detection takes the nearest unmatched ground-truth point within
    tol; distance ties go to the lower ground-truth index. A distance that
    overflows float64 is inf, beyond any finite tol. Only the detections
    _near_source marks enter the loop; no other one can take a point.
    """
    # The Detection rows (row, col, p); fromiter is ~5x faster than asarray on tuples.
    dets = np.fromiter(chain.from_iterable(dets), np.float64).reshape(-1, 3)
    # A p of -0.0 goes after an equal 0.0, so a run's last p does not depend on input order.
    order = np.lexsort((np.signbit(dets[:, 2]), dets[:, 1], dets[:, 0], -dets[:, 2]))
    rows, cols, p = dets[order].T
    gt_row, gt_col = np.asarray(gt, dtype=np.float64).reshape(-1, 2).T
    unmatched = np.ones(len(gt_row), dtype=bool)
    took = np.full(len(order), -1)
    visit = np.flatnonzero(_near_source(rows, cols, gt_row, gt_col, tol))
    with np.errstate(over="ignore"):
        for k, row, col in zip(visit.tolist(), rows[visit].tolist(), cols[visit].tolist()):
            dist = np.hypot(row - gt_row, col - gt_col)
            candidates = np.flatnonzero(unmatched & (dist <= tol))
            if len(candidates):
                took[k] = best = candidates[np.argmin(dist[candidates])]
                unmatched[best] = False
    return order, p, took


def match(dets, gt, tol=DEFAULT_TOL):
    """Greedy matching; returns (TP, FP, FN, pairing).

    pairing maps detection index (into dets as passed) -> ground-truth
    index for each true positive.
    """
    order, _, took = _greedy_pass(dets, gt, tol)
    hit = took >= 0
    pairing = dict(zip(order[hit].tolist(), took[hit].tolist()))
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
    kept = [d for d in dets if d.pseudo_likelihood >= threshold]
    tp, fp, fn, _ = match(kept, gt, tol)
    return EvalReport(threshold, tp, fp, fn, *prf1(tp, fp, fn))


def threshold_sweep(dets, gt, tol=DEFAULT_TOL):
    """One EvalReport per candidate threshold ({p_l} union {+inf}),
    in descending threshold order, from a single matching pass."""
    _, p, took = _greedy_pass(dets, gt, tol)
    ends = np.flatnonzero(p != np.append(p[1:], np.nan))  # where a run of equal p ends
    tp = np.append(0, np.cumsum(took >= 0)[ends])
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
