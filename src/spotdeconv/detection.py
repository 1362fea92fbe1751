"""Extract detections from a reconstructed volume.

The per-pixel group norm of the volume acts as a pseudo-likelihood map; its
regional maxima (8-connected plateaus of equal value strictly above every
in-image neighbor) become detections. A multi-pixel plateau yields a single
detection at its centroid. Zero-valued plateaus are background, never
detections. The detections are one (D, 3) float64 array whose rows are
(row, col, pseudo_likelihood), the rows of the detections CSV.

Maxima are found with numpy array passes, no Python loop over pixels. The
nodes are the positive pixels of the map padded with zeros; a neighbor equal
to or above a node is itself a node. One comparison of each node with its
neighbor at each of the four forward offsets gives every touching equal pair,
which a union-find joins into plateaus, and every node that lies below a
neighbor, in either direction. A plateau with no node below a neighbor is a
maximum, and centroids come from bincount. The map must be finite: detect()
rejects a volume whose group norms overflow.
"""

import numpy as np

from .tensors import group_norm_image


def _plateaus(u, v, size):
    """Connected components of `size` nodes joined by the pairs (u[i], v[i]).

    Returns (ids, count): per node, its component number; components are
    numbered by first node. A union-find: each round hooks the larger root of
    a pair onto the smaller, then pointer jumping flattens the trees, so
    parent[i] <= i throughout and a root is the first node of its component.
    """
    parent = np.arange(size)
    ru, rv = u, v  # the roots of each pair's ends: at first, each node is a root
    while ru.size:
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
    root = parent == np.arange(size)
    return (np.cumsum(root) - 1)[parent], int(np.count_nonzero(root))


def regional_maxima(p):
    """The (D, 3) detections at the centroids of 8-connected regional-maximum plateaus.

    A plateau is a maximal connected set of equal value v > 0; it is a
    regional maximum when every in-image pixel adjacent to it has value < v.
    Out-of-image neighbors are ignored, so border plateaus can qualify.
    Returned sorted by pseudo-likelihood descending, ties by (row, col).
    """
    p = np.asarray(p, dtype=np.float64)
    m, n = p.shape
    width = n + 2
    padded = np.zeros((m + 2, width))
    padded[1:-1, 1:-1] = p
    flat = padded.ravel()
    node = flat > 0.0
    pos = np.flatnonzero(node)
    index = np.cumsum(node) - 1  # at a node, its rank in raster order
    level = flat[pos]
    below = np.zeros(pos.size, dtype=bool)  # the node lies below a neighbor
    u, v = [], []  # the pairs (u[i], v[i]) of touching equal nodes, u < v
    for offset in (1, width - 1, width, width + 1):
        there = pos + offset
        other = flat[there]
        touch = np.flatnonzero(other == level)
        u.append(touch)
        v.append(index[there[touch]])
        below |= level < other
        below[index[there[(other < level) & (other > 0.0)]]] = True
    ids, count = _plateaus(np.concatenate(u), np.concatenate(v), pos.size)

    rows, cols = np.nonzero(node.reshape(padded.shape)[1:-1, 1:-1])
    sizes = np.bincount(ids)
    # Integer coordinate sums are exact, so these equal np.mean per plateau.
    row_c = np.bincount(ids, weights=rows) / sizes
    col_c = np.bincount(ids, weights=cols) / sizes
    value = np.empty(count)
    value[ids] = level
    keep = np.bincount(ids[below], minlength=count) == 0

    row_c, col_c, value = row_c[keep], col_c[keep], value[keep]
    order = np.lexsort((col_c, row_c, -value))
    return np.column_stack((row_c[order], col_c[order], value[order]))


def detect(a):
    """Full detector: group-norm map, then regional maxima. ValueError if not finite."""
    with np.errstate(over="ignore"):
        p = group_norm_image(a)
    if not np.all(np.isfinite(p)):
        raise ValueError("a group norm is not finite: a value is, or its square overflows float64")
    return regional_maxima(p)
