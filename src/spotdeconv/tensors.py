"""Dense 2-D/3-D array helpers.

Images are (M, N) float64 arrays, volumes are (M, N, K) float64 arrays.
Files and a_opt store k as the fastest-varying axis; the solver's loop
holds its volumes slice-major (see solver). Constructor-style validators
check finiteness once; the numeric kernels below assume validated inputs.
The library constructor that uses a value checks its bound once, by require().
"""

import numpy as np


class BoundError(ValueError):
    """A parameter outside its bound: `name must be rule, got value`."""

    def __init__(self, name, rule, value):
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.name, self.rule, self.value = name, rule, value


def require(ok, name, rule, value):
    """Raise BoundError(name, rule, value) unless `ok`."""
    if not ok:
        raise BoundError(name, rule, value)


def as_image(arr):
    """Validate and return a finite 2-D float64 array."""
    img = np.asarray(arr, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be 2-D with positive dims, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite entries")
    return img


def as_volume(arr):
    """Validate and return a finite 3-D (M, N, K) float64 array."""
    vol = np.asarray(arr, dtype=np.float64)
    if vol.ndim != 3 or min(vol.shape) < 1:
        raise ValueError(f"volume must be 3-D with positive dims, got shape {vol.shape}")
    if not np.all(np.isfinite(vol)):
        raise ValueError("volume contains non-finite entries")
    return vol


def group_norm_image(v):
    """Per-pixel Euclidean norm across the scale axis: out[m,n] = ||v[m,n,:]||_2."""
    return np.sqrt(np.einsum("mnk,mnk->mn", v, v))
