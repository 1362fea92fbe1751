"""Extract detections from a reconstructed volume.

The per-pixel group norm of the volume acts as a pseudo-likelihood map; its
regional maxima (8-connected plateaus of equal value strictly above every
in-image neighbor) become detections. A multi-pixel plateau yields a single
detection at its centroid. Zero-valued plateaus are background, never
detections.

Maxima are found in O(M*N) array passes: a 3x3 max filter marks the pixels
that are >= every neighbor, 8-connected labelling groups them, a component
is dropped when it touches an unmarked pixel of its own value (the rest of
its plateau rises above it somewhere), and centroids come from bincount.
The map must be finite; `spotdeconv detect` rejects a volume that is not.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .tensors import group_norm_image

_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_CONNECTIVITY = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Detection:
    row: float
    col: float
    pseudo_likelihood: float


def regional_maxima(p):
    """Detections at the centroids of 8-connected regional-maximum plateaus.

    A plateau is a maximal connected set of equal value v > 0; it is a
    regional maximum when every in-image pixel adjacent to it has value < v.
    Out-of-image neighbors are ignored, so border plateaus can qualify.
    Returned sorted by pseudo-likelihood descending, ties by (row, col).
    """
    p = np.asarray(p, dtype=np.float64)
    m, n = p.shape
    peak = ndimage.maximum_filter(p, size=3, mode="constant", cval=-np.inf)
    # Adjacent candidates are each >= the other, so a component is flat.
    candidate = (p >= peak) & (p > 0.0)
    labels, count = ndimage.label(candidate, structure=_CONNECTIVITY)

    # A non-candidate neighbor of equal value is more of the same plateau,
    # and it has a strictly greater neighbor: the plateau is no maximum.
    padded = np.pad(p, 1, constant_values=np.nan)
    padded_candidate = np.pad(candidate, 1)
    spills = np.zeros_like(candidate)
    for dr, dc in _NEIGHBORS:
        window = (slice(1 + dr, m + 1 + dr), slice(1 + dc, n + 1 + dc))
        spills |= (padded[window] == p) & ~padded_candidate[window]

    # Per candidate pixel, in raster order: its component id 0..count-1.
    ids = labels[candidate] - 1
    rows, cols = np.nonzero(candidate)
    sizes = np.bincount(ids)
    # Integer coordinate sums are exact, so these equal np.mean per plateau.
    row_c = np.bincount(ids, weights=rows) / sizes
    col_c = np.bincount(ids, weights=cols) / sizes
    value = np.empty(count)
    value[ids] = p[candidate]
    keep = np.ones(count, dtype=bool)
    keep[ids[spills[candidate]]] = False

    row_c, col_c, value = row_c[keep], col_c[keep], value[keep]
    order = np.lexsort((col_c, row_c, -value))
    return [
        Detection(row=r, col=c, pseudo_likelihood=v)
        for r, c, v in zip(row_c[order].tolist(), col_c[order].tolist(), value[order].tolist())
    ]


def detect(a):
    """Full detector: group-norm map, then regional maxima."""
    return regional_maxima(group_norm_image(a))
