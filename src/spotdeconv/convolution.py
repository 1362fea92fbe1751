"""Size-preserving zero-padded separable convolution and its exact adjoint.

forward() maps a (M, N, K) volume to an (M, N) image by convolving each
slice with its rank-1 kernel and summing over k in fixed order. adjoint()
is implemented as correlation (the true adjoint of zero-padded convolution)
even though the symmetric taps make it numerically equal to convolution.
"""

import numpy as np
from scipy.ndimage import convolve1d, correlate1d


def conv_same_2d(img, factor):
    """Separable 2-D convolution with the rank-1 kernel factor x factor."""
    out = convolve1d(img, factor.taps, axis=0, mode="constant", cval=0.0)
    return convolve1d(out, factor.taps, axis=1, mode="constant", cval=0.0)


def corr_same_2d(img, factor):
    """Separable 2-D correlation; adjoint of conv_same_2d under zero padding."""
    out = correlate1d(img, factor.taps, axis=0, mode="constant", cval=0.0)
    return correlate1d(out, factor.taps, axis=1, mode="constant", cval=0.0)


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
    """Adjoint of forward(): slice k is the correlation of r with kernel k."""
    out = np.empty(r.shape + (bank.num_kernels,))
    for k, factor in enumerate(bank.factors):
        out[:, :, k] = corr_same_2d(r, factor)
    return out
