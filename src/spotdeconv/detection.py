"""Extract detections from a reconstructed volume.

The per-pixel group norm of the volume acts as a pseudo-likelihood map; its
regional maxima (8-connected plateaus of equal value strictly above every
in-image neighbor) become detections. A multi-pixel plateau yields a single
detection at its centroid. Zero-valued plateaus are background, never
detections.

Maxima are found with numpy array passes over the image padded with -inf,
no Python loop over pixels: a 3x3 max filter (three row shifts, then three
column shifts) marks the pixels that are >= every neighbor, a union-find
over adjacent marked pairs groups them into 8-connected plateaus, a
component that has an unmarked neighbor of its own value is dropped (the
rest of its plateau rises above it somewhere), and centroids come from
bincount. The map must be finite: detect() rejects a volume whose group
norms overflow.
"""

from typing import NamedTuple

import numpy as np

from .tensors import group_norm_image


class Detection(NamedTuple):
    """One row of the detections CSV; equal to the tuple of its fields."""

    row: float
    col: float
    pseudo_likelihood: float


def _max3x3(padded):
    """3x3 max filter of the interior of a -inf padded image (out-of-image
    neighbors ignored): three row shifts, then three column shifts."""
    rows = np.maximum(padded[:-2], padded[1:-1])
    np.maximum(rows, padded[2:], out=rows)
    out = np.maximum(rows[:, :-2], rows[:, 1:-1])
    return np.maximum(out, rows[:, 2:], out=out)


def _components(marked, width):
    """8-connected components of the marked pixels of a padded image
    `width` wide, given as its flat mask `marked`.

    Returns (ids, count): per marked pixel in raster order, its component
    number; components are numbered by first pixel in raster order. A
    union-find over the adjacent pairs, found at the four forward offsets:
    each round hooks the larger root of a pair onto the smaller, then
    pointer jumping flattens the trees, so parent[i] <= i throughout and a
    root is the first pixel of its component.
    """
    pos = np.flatnonzero(marked)
    index = np.cumsum(marked) - 1  # at a marked pixel, its rank in raster order
    u, v = [], []  # the pairs (u[i], v[i]) of touching marked pixels, u < v
    for offset in (1, width - 1, width, width + 1):
        touch = np.flatnonzero(marked[pos + offset])
        u.append(touch)
        v.append(index[pos[touch] + offset])
    u, v = np.concatenate(u), np.concatenate(v)
    parent = np.arange(pos.size)
    while True:
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    root = parent == np.arange(pos.size)
    return (np.cumsum(root) - 1)[parent], int(np.count_nonzero(root))


def regional_maxima(p):
    """Detections at the centroids of 8-connected regional-maximum plateaus.

    A plateau is a maximal connected set of equal value v > 0; it is a
    regional maximum when every in-image pixel adjacent to it has value < v.
    Out-of-image neighbors are ignored, so border plateaus can qualify.
    Returned sorted by pseudo-likelihood descending, ties by (row, col).
    """
    p = np.asarray(p, dtype=np.float64)
    m, n = p.shape
    width = n + 2
    padded = np.full((m + 2, width), -np.inf)
    padded[1:-1, 1:-1] = p
    # Adjacent candidates are each >= the other, so a component is flat.
    candidate = (p >= _max3x3(padded)) & (p > 0.0)

    # A non-candidate neighbor of equal value is more of the same plateau, and
    # it has a strictly greater neighbor: the plateau is no maximum. As a
    # candidate is >= every neighbor, its largest non-candidate one shows it.
    marked = np.zeros((m + 2, width), dtype=bool)
    marked[1:-1, 1:-1] = candidate
    padded[marked] = -np.inf
    spills = (_max3x3(padded) == p)[candidate]

    ids, count = _components(marked.ravel(), width)
    rows, cols = np.nonzero(candidate)
    sizes = np.bincount(ids)
    # Integer coordinate sums are exact, so these equal np.mean per plateau.
    row_c = np.bincount(ids, weights=rows) / sizes
    col_c = np.bincount(ids, weights=cols) / sizes
    value = np.empty(count)
    value[ids] = p[candidate]
    keep = np.bincount(ids[spills], minlength=count) == 0

    row_c, col_c, value = row_c[keep], col_c[keep], value[keep]
    order = np.lexsort((col_c, row_c, -value))
    return list(map(Detection._make, zip(row_c[order].tolist(), col_c[order].tolist(),
                                         value[order].tolist())))


def detect(a):
    """Full detector: group-norm map, then regional maxima. ValueError if not finite."""
    with np.errstate(over="ignore"):
        p = group_norm_image(a)
    if not np.all(np.isfinite(p)):
        raise ValueError("a group norm is not finite: a value is, or its square overflows float64")
    return regional_maxima(p)
