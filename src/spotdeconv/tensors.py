"""Dense 2-D/3-D array helpers and the bound rule.

Images are (M, N) float64 arrays, volumes are (M, N, K) float64 arrays.
Files and a_opt store k as the fastest-varying axis; the solver's loop
holds its volumes slice-major (see solver). The library constructor that
uses a value checks its bound once, by require().
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


def group_norm_image(v):
    """Per-pixel Euclidean norm across the scale axis: out[m,n] = ||v[m,n,:]||_2."""
    return np.sqrt(np.einsum("mnk,mnk->mn", v, v))
