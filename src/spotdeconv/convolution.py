"""Size-preserving zero-padded separable convolution and its exact adjoint.

forward() maps a (M, N, K) volume to an (M, N) image by convolving each
slice with its rank-1 kernel and summing over k. adjoint() is correlation,
the true adjoint of zero-padded convolution, even where symmetric taps
make the two equal.

Each 1-D pass is a product with the banded Toeplitz matrix of the taps:
one GEMM per BLOCK rows with a BLOCK x (BLOCK + 2R) band block, its
columns clipped to the image (the zero padding). The K kernels' taps sit
centred and zero-padded in bands of one radius R = min(R_max,
max(M, N) - 1), so one K-batched np.matmul per block serves every scale;
a tap further out meets no pixel, so the clip is exact. A pass costs
O(M * N * K * (BLOCK + 2R)) flops.

Every GEMM takes its band block as the left operand. adjoint() runs both
passes K-batched on the correlation bands: the row pass of the shared r
into the transposed view of a (K, N, M) workspace, then the column pass
on windows of that workspace's rows into the transposed view of a fresh
C-order (K, M, N) buffer; it returns the buffer's (M, N, K) view.
forward() runs the K-batched row pass on the convolution bands into an
interleaved (N, K, M) workspace, then one GEMM per column block against
the interleaved (BLOCK, K * (BLOCK + 2R)) band whose column j * K + k is
kernel k's column j, so the sum over k happens inside the GEMM. It reads
the volume in place when it is the (M, N, K) view v.transpose(1, 2, 0)
of a C-order (K, M, N) array v, as the solver's volumes are; any other
layout costs one gather.

make_plan() builds the bands, their blocks and the workspace views, which
depend only on the bank and (M, N), once: a Plan of (band block, input,
output) triples over one workspace of K * M * N float64; no band state
outlives it. Both operators take it as `plan`; without one, a call makes
its own over a fresh workspace. The solver makes one Plan per solve, so
a call only slices its input and fresh output and runs the GEMMs.

A band holds its taps in order, which makes it a correlation; convolution
is correlation with the reversed taps, the exact transpose, so adjoint()
stays the true adjoint for asymmetric taps too. GEMM sums the products in
another order than a tap-by-tap loop: the two differ by round-off only.
"""

from typing import NamedTuple

import numpy as np

# Rows per GEMM. Full solves, median ms of 21 in two runs at 1 BLAS thread on a
# 2-core host, 256^2 capped at 50 iterations; at 2 threads 16 was within 9% of best:
#   BLOCK     8        12       16       24       32
#   256^2  275/307  285/304  284/301  306/328  307/341
#   128^2  248/231  237/237  229/235  249/251  240/270
#   64^2    39/35    36/37    34/33    31/36    36/36
BLOCK = 16


def _bands(bank, extent):
    """The common radius R of the bank's bands on an image of longest side
    `extent`, the (K, BLOCK, BLOCK + 2R) correlation and convolution stacks,
    row r of block k holding kernel k's taps, clipped to R, centred on column
    r + R (reversed for convolution), and the convolution stack interleaved
    to (BLOCK, K * (BLOCK + 2R)), column j*K + k holding block k's column j."""
    radius = min(max(f.radius for f in bank.factors), extent - 1)
    width = BLOCK + 2 * radius
    rows = np.zeros((bank.num_kernels, BLOCK - 1 + width))  # taps centred on BLOCK - 1 + R
    for row, f in zip(rows, bank.factors):
        r = min(f.radius, radius)
        row[BLOCK - 1 + radius - r : BLOCK + radius + r] = f.taps[f.radius - r : f.radius + r + 1]
    # Band row r is the window of `width` columns from BLOCK - 1 - r.
    corr = np.take(rows, BLOCK - 1 + np.arange(width) - np.arange(BLOCK)[:, None], axis=1)
    conv = np.ascontiguousarray(corr[:, ::-1, ::-1])
    interleaved = np.ascontiguousarray(conv.transpose(1, 2, 0)).reshape(BLOCK, -1)
    return radius, corr, conv, interleaved


def _blocks(size, radius):
    """The GEMMs of one pass along an axis of `size`: for each BLOCK of output
    rows, (output rows, input rows, block height b, band columns c0:c1)."""
    for i0 in range(0, size, BLOCK):
        b = min(BLOCK, size - i0)
        lo, hi = max(i0 - radius, 0), min(i0 + b + radius, size)
        yield slice(i0, i0 + b), slice(lo, hi), b, lo - i0 + radius, hi - i0 + radius


class Plan(NamedTuple):
    """Every GEMM of forward() and adjoint() for one bank on one (M, N) image,
    prebuilt over one workspace of K * M * N float64. Each GEMM is a triple
    whose views are fixed; the index slices the array the call supplies."""

    shape: tuple  # (K, M, N)
    forward_rows: tuple  # (band block, input index, workspace view) per row block
    forward_cols: tuple  # (band block, workspace view, index into out.T) per column block
    adjoint_rows: tuple  # (band block, input index, workspace view) per row block
    adjoint_cols: tuple  # (band block, workspace view, index into out.transpose(0, 2, 1))


def make_plan(bank, shape, workspace=None):
    """The Plan of `bank` on an image of `shape` (M, N), its views laid over
    `workspace` (any array of K * M * N float64, reshaped without a copy when
    it is contiguous; a fresh one when None). The operators overwrite the
    workspace, so it must not overlap their input; its contents never reach
    their results."""
    m, n = shape
    depth = bank.num_kernels
    radius, corr, conv, interleaved = _bands(bank, max(m, n))
    buf = np.empty(depth * m * n) if workspace is None else workspace
    if buf.dtype != np.float64:  # GEMMs would round into it without a word
        raise ValueError(f"workspace dtype {buf.dtype}, not float64")
    rows_done = buf.reshape(n, depth, m)  # forward's interleaved (N, K, M) layout
    slices_done = rows_done.transpose(1, 2, 0)  # its (K, M, N) view
    stacked = rows_done.reshape(n * depth, m)
    cols_first = buf.reshape(depth, n, m)  # adjoint's (K, N, M) layout
    row_blocks, col_blocks = tuple(_blocks(m, radius)), tuple(_blocks(n, radius))
    return Plan(
        shape=(depth, m, n),
        forward_rows=tuple((conv[:, :b, c0:c1], (slice(None), src), slices_done[:, rows])
                           for rows, src, b, c0, c1 in row_blocks),
        forward_cols=tuple((interleaved[:b, c0 * depth : c1 * depth],
                            stacked[src.start * depth : src.stop * depth], cols)
                           for cols, src, b, c0, c1 in col_blocks),
        adjoint_rows=tuple((corr[:, :b, c0:c1], src, cols_first.transpose(0, 2, 1)[:, rows])
                           for rows, src, b, c0, c1 in row_blocks),
        adjoint_cols=tuple((corr[:, :b, c0:c1], cols_first[:, src], (slice(None), cols))
                           for cols, src, b, c0, c1 in col_blocks),
    )


def _plan_for(plan, bank, shape):
    if plan is None:
        return make_plan(bank, shape[1:])
    if plan.shape != shape:
        raise ValueError(f"plan for (K, M, N) = {plan.shape} used on {shape}")
    return plan


def forward(a, bank, *, plan=None):
    """Sum over k of slice-wise convolution: the observation operator."""
    if a.ndim != 3 or a.shape[2] != bank.num_kernels:
        raise ValueError(
            f"volume depth {a.shape[2] if a.ndim == 3 else None} does not match "
            f"kernel bank size {bank.num_kernels}"
        )
    m, n, depth = a.shape
    plan = _plan_for(plan, bank, (depth, m, n))
    x = np.ascontiguousarray(a.transpose(2, 0, 1), dtype=np.float64)
    for band, src, dst in plan.forward_rows:
        np.matmul(band, x[src], out=dst)
    out = np.empty((m, n))
    out_t = out.T
    for band, src, cols in plan.forward_cols:
        np.matmul(band, src, out=out_t[cols])
    return out


def adjoint(r, bank, *, plan=None):
    """Adjoint of forward(): slice k is the correlation of r with kernel k.
    Returns the (M, N, K) view of a fresh C-contiguous (K, M, N) array."""
    x = np.ascontiguousarray(r, dtype=np.float64)
    plan = _plan_for(plan, bank, (bank.num_kernels,) + x.shape)
    for band, src, dst in plan.adjoint_rows:
        np.matmul(band, x[src], out=dst)
    out = np.empty(plan.shape)
    out_t = out.transpose(0, 2, 1)
    for band, src, cols in plan.adjoint_cols:
        np.matmul(band, src, out=out_t[cols])
    return out.transpose(1, 2, 0)
