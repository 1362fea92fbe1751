"""Size-preserving zero-padded separable convolution and its exact adjoint.

forward() maps a (M, N, K) volume to an (M, N) image by convolving each
slice with its rank-1 kernel and summing over k in fixed order. adjoint()
is implemented as correlation (the true adjoint of zero-padded convolution)
even though the symmetric taps make it numerically equal to convolution.

Both work one contiguous (M, N) slice at a time. forward() copies a slice
only when the volume does not hold it contiguously: a C-order (M, N, K)
volume costs K gathers, the (M, N, K) view np.moveaxis(v, 0, 2) of a
C-order (K, M, N) array costs none. adjoint() writes slice k straight into
plane k of a C-order (K, M, N) buffer and returns the (M, N, K) view of
it, so np.moveaxis(adjoint(r, bank), 2, 0) is that buffer's layout again.

Each 1-D pass is a product with the n x n banded Toeplitz matrix of the
taps (radius R). Every block of BLOCK rows of that matrix holds the same
BLOCK x (BLOCK + 2R) band block, so the pass is one BLAS GEMM per row
block, with the band's columns clipped to the image: the clipping is the
zero padding. A pass over an M x N image costs O(M * N * (BLOCK + 2R))
flops. The correlation band holds the reversed taps, i.e. it is the exact
transpose, so adjoint() stays the true adjoint for asymmetric taps too.
Outputs differ from a direct tap-by-tap sum only by round-off, because
GEMM adds the same products in another order.
"""

from functools import lru_cache

import numpy as np

# Rows per GEMM. Of 16, 32, 64 and 128, 32 gave the fastest forward + adjoint
# at 64^2 and 128^2 on a 2-core host, and tied with 16 and 64 at 256^2.
BLOCK = 32


@lru_cache(maxsize=64)
def _band(taps_bytes, correlate):
    """BLOCK x (BLOCK + 2R) band block: row r holds the taps (reversed for
    convolution) in columns r .. r + 2R. Built once per tap vector."""
    taps = np.frombuffer(taps_bytes)
    if not correlate:
        taps = taps[::-1]
    band = np.zeros((BLOCK, BLOCK + len(taps) - 1))
    for r in range(BLOCK):
        band[r, r : r + len(taps)] = taps
    band.flags.writeable = False  # shared by every caller through the cache
    return band


def _separable(img, taps, correlate, out=None):
    """Zero-padded 1-D pass along axis 0, then along axis 1, as GEMMs.
    The second pass writes into `out`, a C-contiguous image, if given."""
    band = _band(np.asarray(taps, dtype=np.float64).tobytes(), correlate)
    radius = (len(taps) - 1) // 2
    x = np.ascontiguousarray(img, dtype=np.float64)
    tmp = np.empty_like(x)
    if out is None:
        out = np.empty_like(x)
    rows, cols = x.shape
    for i0 in range(0, rows, BLOCK):
        b = min(BLOCK, rows - i0)
        lo, hi = max(i0 - radius, 0), min(i0 + b + radius, rows)
        np.matmul(band[:b, lo - i0 + radius : hi - i0 + radius], x[lo:hi], out=tmp[i0 : i0 + b])
    # The same product on transposed views: out.T = T @ tmp.T.
    for j0 in range(0, cols, BLOCK):
        b = min(BLOCK, cols - j0)
        lo, hi = max(j0 - radius, 0), min(j0 + b + radius, cols)
        np.matmul(tmp[:, lo:hi], band[:b, lo - j0 + radius : hi - j0 + radius].T, out=out[:, j0 : j0 + b])
    return out


def conv_same_2d(img, factor):
    """Separable 2-D convolution with the rank-1 kernel factor x factor."""
    return _separable(img, factor.taps, correlate=False)


def corr_same_2d(img, factor):
    """Separable 2-D correlation; adjoint of conv_same_2d under zero padding."""
    return _separable(img, factor.taps, correlate=True)


def forward(a, bank):
    """Sum over k of slice-wise convolution: the observation operator."""
    if a.ndim != 3 or a.shape[2] != bank.num_kernels:
        raise ValueError(
            f"volume depth {a.shape[2] if a.ndim == 3 else None} does not match "
            f"kernel bank size {bank.num_kernels}"
        )
    out = np.zeros(a.shape[:2])
    for k, factor in enumerate(bank.factors):
        out += conv_same_2d(a[:, :, k], factor)
    return out


def adjoint(r, bank):
    """Adjoint of forward(): slice k is the correlation of r with kernel k.
    Returns the (M, N, K) view of a C-contiguous (K, M, N) array."""
    out = np.empty((bank.num_kernels,) + r.shape)
    for k, factor in enumerate(bank.factors):
        _separable(r, factor.taps, correlate=True, out=out[k])
    return np.moveaxis(out, 0, 2)
