"""Size-preserving zero-padded separable convolution and its exact adjoint.

forward() maps a (M, N, K) volume to an (M, N) image by convolving each
slice with its rank-1 kernel and summing over k. adjoint() is implemented
as correlation (the true adjoint of zero-padded convolution) even though
the symmetric taps make it numerically equal to convolution.

Each 1-D pass is a product with the banded Toeplitz matrix of the taps:
one GEMM per BLOCK rows with a BLOCK x (BLOCK + 2R) band block, its
columns clipped to the image (the zero padding). The K kernels share one
width: each kernel's taps sit centred in a band of radius R =
min(R_max, max(M, N) - 1), zero-padded, so one K-batched np.matmul per
block serves every scale. A tap further than max(M, N) - 1 from the
centre meets no pixel, so the clip is exact and the bands follow the
image, not the truncation. A pass over the volume costs
O(M * N * K * (BLOCK + 2R)) flops.

adjoint() runs both passes K-batched on the correlation bands: the row
pass of the shared r into a (K, M, N) workspace, the column pass from it
into a fresh C-order (K, M, N) buffer, of which it returns the (M, N, K)
view, so np.moveaxis(adjoint(r, bank), 2, 0) is that buffer's layout
again. forward() runs the K-batched row pass on the convolution bands
into an interleaved (N, K, M) workspace, then one GEMM per column block
against the interleaved (BLOCK, K * (BLOCK + 2R)) band whose column
j * K + k is kernel k's column j: the sum over k happens inside the
GEMM. forward() reads each slice in place when the volume holds it
contiguously, as the (M, N, K) view np.moveaxis(v, 0, 2) of a C-order
(K, M, N) array does; any other layout costs one gather of the volume.

Both take `work`, a float64 buffer of K * M * N elements that the call
overwrites (a fresh one when None); its contents never reach the result.

A band holds its taps in order, which makes it a correlation; a
convolution is the correlation with the reversed taps, the exact
transpose, so adjoint() stays the true adjoint for asymmetric taps too.
GEMM adds a tap-by-tap sum's products in another order, so the two
differ by round-off only.
"""

from functools import lru_cache

import numpy as np

# Rows per GEMM. Of 16, 32, 64 and 128, 32 gave the fastest forward + adjoint
# at 64^2 and 128^2 on a 2-core host, and tied with 16 and 64 at 256^2.
BLOCK = 32


@lru_cache(maxsize=16)
def _stacks(taps_key, radius):
    """Band blocks of the K tap vectors in `taps_key`, built once per tap set:
    the (K, BLOCK, BLOCK + 2*radius) correlation and convolution stacks, row r
    of block k holding kernel k's taps (reversed for convolution) centred on
    column r + radius, and the convolution stack interleaved to
    (BLOCK, K * (BLOCK + 2*radius)), column j*K + k holding block k's column j."""
    bands = np.zeros((2, len(taps_key), BLOCK, BLOCK + 2 * radius))
    for k, taps_bytes in enumerate(taps_key):
        taps = np.frombuffer(taps_bytes)
        start = radius - (len(taps) - 1) // 2
        for r in range(BLOCK):
            bands[0, k, r, start + r : start + r + len(taps)] = taps
            bands[1, k, r, start + r : start + r + len(taps)] = taps[::-1]
    interleaved = np.ascontiguousarray(bands[1].transpose(1, 2, 0)).reshape(BLOCK, -1)
    for arr in (bands, interleaved):
        arr.flags.writeable = False  # shared by every caller through the cache
    return bands[0], bands[1], interleaved


def _bands(bank, extent):
    """The common radius of the bank's bands on an image of longest side
    `extent`, then _stacks() of its taps clipped to that radius."""
    radius = min(max(f.radius for f in bank.factors), extent - 1)
    clipped = (np.asarray(f.taps, dtype=np.float64)[max(f.radius - radius, 0) :][: 2 * radius + 1]
               for f in bank.factors)
    return (radius,) + _stacks(tuple(taps.tobytes() for taps in clipped), radius)


def _blocks(size, radius):
    """The GEMMs of one pass along an axis of `size`: for each BLOCK of output
    rows, (output rows, input rows, block height b, band columns c0:c1)."""
    for i0 in range(0, size, BLOCK):
        b = min(BLOCK, size - i0)
        lo, hi = max(i0 - radius, 0), min(i0 + b + radius, size)
        yield slice(i0, i0 + b), slice(lo, hi), b, lo - i0 + radius, hi - i0 + radius


def _workspace(work, shape):
    return np.empty(shape) if work is None else work.reshape(shape)


def forward(a, bank, *, work=None):
    """Sum over k of slice-wise convolution: the observation operator."""
    if a.ndim != 3 or a.shape[2] != bank.num_kernels:
        raise ValueError(
            f"volume depth {a.shape[2] if a.ndim == 3 else None} does not match "
            f"kernel bank size {bank.num_kernels}"
        )
    m, n, depth = a.shape
    radius, _, conv, interleaved = _bands(bank, max(m, n))
    x = np.moveaxis(np.asarray(a, dtype=np.float64), 2, 0)
    if not x[0].flags.c_contiguous:
        x = np.ascontiguousarray(x)
    rows_done = _workspace(work, (n, depth, m))
    slices_done = rows_done.transpose(1, 2, 0)  # its (K, M, N) view
    for rows, src, b, c0, c1 in _blocks(m, radius):
        np.matmul(conv[:, :b, c0:c1], x[:, src], out=slices_done[:, rows])
    stacked = rows_done.reshape(n * depth, m)
    out = np.empty((m, n))
    for cols, src, b, c0, c1 in _blocks(n, radius):
        np.matmul(interleaved[:b, c0 * depth : c1 * depth],
                  stacked[src.start * depth : src.stop * depth], out=out.T[cols])
    return out


def adjoint(r, bank, *, work=None):
    """Adjoint of forward(): slice k is the correlation of r with kernel k.
    Returns the (M, N, K) view of a fresh C-contiguous (K, M, N) array."""
    x = np.ascontiguousarray(r, dtype=np.float64)
    m, n = x.shape
    radius, corr, _, _ = _bands(bank, max(m, n))
    shape = (bank.num_kernels, m, n)
    rows_done = _workspace(work, shape)
    for rows, src, b, c0, c1 in _blocks(m, radius):
        np.matmul(corr[:, :b, c0:c1], x[src], out=rows_done[:, rows])
    out = np.empty(shape)
    corr_t = corr.transpose(0, 2, 1)
    for cols, src, b, c0, c1 in _blocks(n, radius):
        np.matmul(rows_done[:, :, src], corr_t[:, c0:c1, :b], out=out[:, :, cols])
    return np.moveaxis(out, 0, 2)
