"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's separable/vectorized code paths:
dense nested-loop convolution, scipy.ndimage 1-D passes in place of the
library's band-block GEMMs, an explicitly constructed operator matrix,
a scalar-by-scalar objective, grid/ternary minimizers, a textbook
FISTA-with-restart loop that materializes the extrapolated point, a threshold
sweep that re-matches from scratch at every threshold, and a per-pixel
flood-fill regional-maxima detector.
"""

import math
from collections import deque
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d, correlate1d

from spotdeconv.convolution import adjoint, forward
from spotdeconv.detection import Detection


def dense_conv2d(img, taps):
    """Direct O(M*N*(2R+1)^2) zero-padded convolution with taps x taps."""
    img = np.asarray(img, dtype=np.float64)
    flat = _dense_conv2d_flat(img.ravel().tolist(), [float(t) for t in taps], *img.shape)
    return np.array(flat, dtype=np.float64).reshape(img.shape)


def ndimage_conv2d(img, taps, correlate=False):
    """Zero-padded separable convolution (correlation if `correlate`) with
    taps x taps by two scipy.ndimage 1-D passes: tap-by-tap sums, no GEMM."""
    pass_1d = correlate1d if correlate else convolve1d
    out = pass_1d(img, taps, axis=0, mode="constant", cval=0.0)
    return pass_1d(out, taps, axis=1, mode="constant", cval=0.0)


@lru_cache(maxsize=16)
def _conv_terms(taps, rows, cols):
    """Per output pixel, in raster order, the (taps[u] * taps[v], raster
    index of pixel (m - u, n - v)) pairs of the taps that land inside the
    image, u-major and v ascending, as a full loop with a bounds check
    visits them."""
    radius = (len(taps) - 1) // 2
    return [
        [
            (taps[u + radius] * taps[v + radius], (m - u) * cols + (n - v))
            for u in range(max(-radius, m - rows + 1), min(radius, m) + 1)
            for v in range(max(-radius, n - cols + 1), min(radius, n) + 1)
        ]
        for m in range(rows)
        for n in range(cols)
    ]


def _dense_conv2d_flat(pix, taps, rows, cols):
    """dense_conv2d on a raster-order list of floats; returns one too.

    Pixel (m, n) is the sum of taps[u] * taps[v] times pixel (m - u, n - v),
    added one term at a time in the order _conv_terms lists them.
    """
    out = []
    for terms in _conv_terms(tuple(taps), rows, cols):
        acc = 0.0
        for weight, index in terms:
            acc += weight * pix[index]
        out.append(acc)
    return out


def operator_matrix(bank, rows, cols):
    """Explicit dense matrix of the forward operator on (rows, cols, K)
    volumes, columns indexed by flattened (m', n', k) with k fastest."""
    depth = bank.num_kernels
    mat = np.zeros((rows * cols, rows * cols * depth))
    for k, factor in enumerate(bank.factors):
        taps = factor.taps
        radius = factor.radius
        for m in range(rows):
            for n in range(cols):
                for mp_ in range(rows):
                    for np_ in range(cols):
                        u, v = m - mp_, n - np_
                        if abs(u) <= radius and abs(v) <= radius:
                            col = (mp_ * cols + np_) * depth + k
                            mat[m * cols + n, col] = taps[u + radius] * taps[v + radius]
    return mat


def naive_objective(a, d_obs, w, bank, lam):
    """Scalar-by-scalar recomputation of the solver objective.

    The arrays become raster-order lists of Python floats once, so each
    term is a float operation rather than a numpy scalar one; the terms and
    their order are those of the per-pixel formula.
    """
    rows, cols, depth = a.shape
    vol = np.asarray(a, dtype=np.float64).reshape(rows * cols, depth).tolist()
    fwd = [0.0] * (rows * cols)
    for k in range(depth):
        taps = [float(t) for t in bank.factors[k].taps]
        conv = _dense_conv2d_flat([v[k] for v in vol], taps, rows, cols)
        fwd = [f + c for f, c in zip(fwd, conv)]
    fidelity = 0.0
    for wi, di, fi in zip(np.ravel(w).tolist(), np.ravel(d_obs).tolist(), fwd):
        fidelity += (wi * (di - fi)) ** 2
    group = 0.0
    for values in vol:
        sq = 0.0
        for x in values:
            sq += x**2
        group += math.sqrt(sq)
    return fidelity + lam * group


def prox_group_pixel_oracle(v, kappa, iters=200):
    """Minimize 0.5*||x - v||^2 + kappa*||x||_2 over x >= 0 for v >= 0 by
    ternary search on the scaling factor t in [0, 1] (x = t*v)."""
    v = np.asarray(v, dtype=np.float64)
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return np.zeros_like(v)

    def cost(t):
        return 0.5 * np.sum((t * v - v) ** 2) + kappa * t * norm_v

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if cost(m1) <= cost(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi) * v


def reference_fista(d_obs, bank, w, lam, eta, momentum, max_iters, rel_tol, chambolle_a=3.0):
    """FISTA with gradient adaptive restart, as the textbook writes it.

    Each iteration steps from the materialized extrapolated point b:
    a_new = prox_group(max(b - eta * adjoint(w^2 (forward(b) - d_obs)), 0),
    eta * lam / 2); it restarts the momentum when <b - a_new, a_new - a> > 0,
    then sets b = a_new + alpha * (a_new - a). Norms come from
    np.linalg.norm and each objective from forward(a_new). Stops when
    ||a_new - a|| / max(||a||, 1e-12) <= rel_tol. Returns (a, iterations,
    restarts, objectives) for (M, N, K) volumes.
    """
    a = np.zeros(d_obs.shape + (bank.num_kernels,))
    b = a.copy()
    t, j = 1.0, 0  # Beck's t and the iterations since the last (re)start
    restarts, objectives = 0, []
    for i in range(1, max_iters + 1):
        z = np.maximum(b - eta * adjoint(w**2 * (forward(b, bank) - d_obs), bank), 0.0)
        rho = np.linalg.norm(z, axis=2, keepdims=True)
        a_new = z * np.maximum(1.0 - 0.5 * eta * lam / np.where(rho > 0, rho, 1.0), 0.0)
        rel_change = np.linalg.norm(a_new - a) / max(np.linalg.norm(a), 1e-12)
        if np.vdot(b - a_new, a_new - a) > 0:
            restarts, t, j = restarts + 1, 1.0, 0
        j += 1
        if momentum == "beck":
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            alpha, t = (t - 1.0) / t_next, t_next
        elif momentum == "chambolle":
            alpha = (j - 1.0) / (j + chambolle_a - 1.0)
        else:
            alpha = 0.0
        b = a_new + alpha * (a_new - a)
        fidelity = np.sum((w * (d_obs - forward(a_new, bank))) ** 2)
        objectives.append(float(fidelity + lam * np.sum(np.linalg.norm(a_new, axis=2))))
        a = a_new
        if rel_change <= rel_tol:
            break
    return a, i, restarts, objectives


def grid_refine_minimize(cost, lo, hi, levels=30, points=41):
    """Global grid search on a box, repeatedly zooming around the best point.

    cost takes a 1-D point of len(lo); returns (best_point, best_value).
    Suited to low dimension (here <= 2) with a coarse-to-fine schedule.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    dim = len(lo)
    best_x, best_f = None, np.inf
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        for x in pts:
            f = cost(x)
            if f < best_f:
                best_f, best_x = f, x.copy()
        span = (hi - lo) / (points - 1)
        lo = np.maximum(lo - 0 * span, best_x - 2 * span)
        hi = best_x + 2 * span
        lo = np.maximum(lo, 0.0)
    return best_x, best_f


def coordinate_descent_minimize(cost_of_vec, x0, upper, sweeps=20, points=21):
    """Cyclic per-coordinate grid+ternary minimization over the box
    [0, upper]^n; an independent oracle for small smooth-on-the-box
    convex problems."""
    x = np.array(x0, dtype=np.float64)
    for _ in range(sweeps):
        for i in range(len(x)):

            def cost_i(t):
                x[i] = t
                return cost_of_vec(x)

            grid = np.linspace(0.0, upper, points)
            vals = [cost_i(t) for t in grid]
            j = int(np.argmin(vals))
            lo = grid[max(j - 1, 0)]
            hi = grid[min(j + 1, points - 1)]
            for _ in range(50):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if cost_i(m1) <= cost_i(m2):
                    hi = m2
                else:
                    lo = m1
            x[i] = 0.5 * (lo + hi)
    return x, cost_of_vec(x)


def reference_match(dets, gt, tol=3.0):
    """Greedy matching in the order given; returns (TP, FP, FN, pairing).

    Each detection takes the nearest unmatched ground-truth point within
    tol (strict <, so distance ties keep the lower ground-truth index).
    """
    gt = [(float(r), float(c)) for r, c in gt]
    matched = [False] * len(gt)
    pairing = {}
    for di, d in enumerate(dets):
        best = None
        best_dist = None
        for gi, (gr, gc) in enumerate(gt):
            if matched[gi]:
                continue
            dist = np.hypot(d.row - gr, d.col - gc)
            if dist <= tol and (best_dist is None or dist < best_dist):
                best, best_dist = gi, dist
        if best is not None:
            matched[best] = True
            pairing[di] = best
    tp = len(pairing)
    return tp, len(dets) - tp, len(gt) - tp, pairing


def reference_threshold_sweep(dets, gt, tol=3.0):
    """(threshold, TP, FP, FN) per candidate threshold ({p_l} union {+inf}),
    descending, each from a fresh reference_match of the detections with
    p >= threshold taken in (-p, row, col) order."""
    dets = sorted(dets, key=lambda d: (-d.pseudo_likelihood, d.row, d.col))
    thresholds = [np.inf] + sorted({d.pseudo_likelihood for d in dets}, reverse=True)
    rows = []
    for thr in thresholds:
        kept = [d for d in dets if d.pseudo_likelihood >= thr]
        tp, fp, fn, _ = reference_match(kept, gt, tol)
        rows.append((thr, tp, fp, fn))
    return rows


_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def reference_regional_maxima(p):
    """Regional maxima by breadth-first flood fill of every plateau.

    Each plateau of equal value v > 0 is filled from its first pixel in
    raster order; it is a maximum when no in-image neighbor exceeds v, and
    then yields one detection at the mean of its pixel coordinates.
    Sorted by (-p, row, col).
    """
    p = np.asarray(p, dtype=np.float64)
    m, n = p.shape
    visited = np.zeros((m, n), dtype=bool)
    detections = []

    for r0 in range(m):
        for c0 in range(n):
            if visited[r0, c0] or p[r0, c0] <= 0.0:
                continue
            value = p[r0, c0]
            plateau = []
            is_max = True
            queue = deque([(r0, c0)])
            visited[r0, c0] = True
            while queue:
                r, c = queue.popleft()
                plateau.append((r, c))
                for dr, dc in _NEIGHBORS:
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < m and 0 <= cc < n):
                        continue
                    if p[rr, cc] == value:
                        if not visited[rr, cc]:
                            visited[rr, cc] = True
                            queue.append((rr, cc))
                    elif p[rr, cc] > value:
                        is_max = False
            if is_max:
                rows = [rc[0] for rc in plateau]
                cols = [rc[1] for rc in plateau]
                detections.append(
                    Detection(
                        row=float(np.mean(rows)),
                        col=float(np.mean(cols)),
                        pseudo_likelihood=float(value),
                    )
                )

    detections.sort(key=lambda d: (-d.pseudo_likelihood, d.row, d.col))
    return detections
