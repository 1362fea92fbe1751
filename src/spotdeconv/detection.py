"""Extract detections from a reconstructed volume.

The per-pixel group norm of the volume acts as a pseudo-likelihood map; its
regional maxima (8-connected plateaus of equal value strictly above every
in-image neighbor) become detections. A multi-pixel plateau yields a single
detection at its centroid. Zero-valued plateaus are background, never
detections.

Maxima are found in O(M*N) array passes: a 3x3 max filter marks the pixels
that are >= every neighbor, 8-connected labelling groups them, a second one
over the unmarked pixels drops a component that touches an unmarked pixel
of its own value (the rest of its plateau rises above it somewhere), and
centroids come from bincount. The map must be finite: detect() rejects a
volume whose group norms overflow.
"""

from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .tensors import group_norm_image

_CONNECTIVITY = np.ones((3, 3), dtype=bool)


class Detection(NamedTuple):
    """One row of the detections CSV; equal to the tuple of its fields."""

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
    peak = ndimage.maximum_filter(p, size=3, mode="constant", cval=-np.inf)
    # Adjacent candidates are each >= the other, so a component is flat.
    candidate = (p >= peak) & (p > 0.0)
    labels, count = ndimage.label(candidate, structure=_CONNECTIVITY)

    # A non-candidate neighbor of equal value is more of the same plateau, and
    # it has a strictly greater neighbor: the plateau is no maximum. As a
    # candidate is >= every neighbor, its largest non-candidate one shows it.
    rim = ndimage.maximum_filter(np.where(candidate, -np.inf, p), size=3,
                                 mode="constant", cval=-np.inf)
    spills = candidate & (rim == p)

    # Per candidate pixel, in raster order: its component id 0..count-1.
    ids = labels[candidate] - 1
    rows, cols = np.nonzero(candidate)
    sizes = np.bincount(ids)
    # Integer coordinate sums are exact, so these equal np.mean per plateau.
    row_c = np.bincount(ids, weights=rows) / sizes
    col_c = np.bincount(ids, weights=cols) / sizes
    value = np.empty(count)
    value[ids] = p[candidate]
    keep = np.bincount(labels[spills], minlength=count + 1)[1:] == 0

    row_c, col_c, value = row_c[keep], col_c[keep], value[keep]
    order = np.lexsort((col_c, row_c, -value))
    return list(map(Detection, row_c[order].tolist(), col_c[order].tolist(),
                    value[order].tolist()))


def detect(a):
    """Full detector: group-norm map, then regional maxima. ValueError if not finite."""
    with np.errstate(over="ignore"):
        p = group_norm_image(a)
    if not np.all(np.isfinite(p)):
        raise ValueError("a group norm is not finite: a value is, or its square overflows float64")
    return regional_maxima(p)
