"""Separable Gaussian-derived convolution kernels on a scale grid.

Each scale bin [s_{k-1}, s_k] gets one rank-1 kernel: a 1-D factor of
pixel-integrated Gaussian taps at the bin midpoint scale, so the 2-D kernel
is the outer product of that factor with itself. Taps are truncated at
radius ceil(c * sigma_k) and deliberately not renormalized, which keeps the
total 2-D kernel mass <= 1. The taps are differences of the standard
library's math.erf at the pixel edges, so the package needs numpy alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensors import require

# Midpoint scales are clamped below this to avoid a degenerate sigma=0 bin.
SIGMA_MIN = 0.05

DEFAULT_TRUNCATION = 4.0


@dataclass(frozen=True)
class ScaleGrid:
    """Uniform partition of [0, sigma_max_pixels] into K bins; edges made on use, O(1) to check."""

    sigma_max_pixels: float
    num_bins: int

    @functools.cached_property
    def edges(self):  # K+1 strictly increasing values, edges[0]=0
        return np.linspace(0.0, self.sigma_max_pixels, self.num_bins + 1)

    def midpoint(self, k):
        return 0.5 * (self.edges[k] + self.edges[k + 1])


@dataclass(frozen=True)
class Kernel1D:
    """Odd-length tap vector for one scale bin. The bank's taps are symmetric,
    but the operators take any odd-length taps: the property tests use
    asymmetric ones."""

    taps: np.ndarray

    @property
    def radius(self):
        return (len(self.taps) - 1) // 2


@dataclass(frozen=True)
class KernelBank:
    grid: ScaleGrid
    factors: tuple  # one Kernel1D per bin

    @property
    def num_kernels(self):
        return len(self.factors)


def make_scale_grid(sigma_max_pixels, num_bins):
    """A ScaleGrid; 1/sigma_max_pixels scales solver.step_size, so it is finite too."""
    require(0 < sigma_max_pixels < np.inf and 1.0 / float(sigma_max_pixels) < np.inf,
            "sigma_max_pixels", "finite and > 0 with a finite reciprocal", sigma_max_pixels)
    require(num_bins >= 1, "num_bins", ">= 1", num_bins)
    return ScaleGrid(sigma_max_pixels=float(sigma_max_pixels), num_bins=num_bins)


def check_truncation(truncation):
    """The bank's rule for the tap radius ceil(truncation * sigma) of every bin."""
    require(0 < truncation < np.inf, "truncation", "finite and > 0", truncation)
    return truncation


def gaussian_factor_1d(grid, k, truncation=DEFAULT_TRUNCATION):
    """Pixel-integrated Gaussian taps for bin k at the (clamped) midpoint scale.

    taps[R+j] = 0.5 * (erf((j+0.5)/(sqrt(2) s)) - erf((j-0.5)/(sqrt(2) s)))

    erf is evaluated once at each of the 2R+2 pixel edges: the edge j+0.5
    of tap j is the same double as the edge (j+1)-0.5 of tap j+1.
    """
    if not 0 <= k < grid.num_bins:
        raise ValueError(f"bin index {k} out of range [0, {grid.num_bins})")
    check_truncation(truncation)
    sigma = max(grid.midpoint(k), SIGMA_MIN)
    radius = int(np.ceil(truncation * sigma))
    scale = 1.0 / (np.sqrt(2.0) * sigma)
    edges = (np.arange(-radius, radius + 2) - 0.5) * scale
    cdf = np.array([math.erf(x) for x in edges.tolist()])
    return Kernel1D(taps=0.5 * np.diff(cdf))


def build_kernel_bank(grid, truncation=DEFAULT_TRUNCATION):
    factors = tuple(
        gaussian_factor_1d(grid, k, truncation) for k in range(grid.num_bins)
    )
    return KernelBank(grid=grid, factors=factors)
