"""Synthetic scenes: pixel-sparse source volumes, their ground truth, and noise.

Stands in for real assay data. Sources are placed by rejection sampling
with a minimum pairwise separation; each source deposits its amplitude in
one scale slice (or a given per-slice profile); the ground truth is their
(row, col) as one (G, 2) float64 array. Nothing here renders: cli.run_synth
makes the observation, forward then add_noise. All randomness comes from
numpy's PCG64 generator seeded explicitly, so scenes are reproducible.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensors import require

GENERATOR_NAME = "numpy-pcg64"

_PLACEMENT_RETRY_CAP = 10000  # attempts, or one per pixel on a larger image


def _packing_bound(rows, cols, sep):
    """(n, q): placement admits one source per q x q pixel block, q the largest
    side <= max(rows, cols) with hypot(q - 1, q - 1) < sep, so at most
    n = ceil(rows / q) * ceil(cols / q) sources fit rows x cols."""
    side = max(rows, cols)
    d = int(min(sep / np.sqrt(2), side - 1))  # q - 1, up to round-off
    d += int(d < side - 1 and np.hypot(d + 1, d + 1) < sep) - int(np.hypot(d, d) >= sep)
    return -(-rows // (d + 1)) * -(-cols // (d + 1)), d + 1


@dataclass(frozen=True)
class SceneSpec:
    rows: int
    cols: int
    depth: int
    n_sources: int
    min_separation: float
    amplitude_lo: float
    amplitude_hi: float
    noise_sigma: float
    seed: int
    scale_profile: Optional[Sequence[float]] = None  # default: single random k
    noise_sigma_rel: Optional[float] = None  # if set: noise std / clean image max

    def __post_init__(self):
        require(self.rows >= 1, "rows", ">= 1", self.rows)
        require(self.cols >= 1, "cols", ">= 1", self.cols)
        require(self.n_sources >= 0, "n_sources", ">= 0", self.n_sources)
        require(self.min_separation >= 1, "min_separation", ">= 1", self.min_separation)
        fit, q = _packing_bound(self.rows, self.cols, self.min_separation)
        require(self.n_sources <= fit, "n_sources", f"<= {fit}, one per {q}x{q} pixel "
                f"block at min_separation {self.min_separation}", self.n_sources)
        require(0 < self.amplitude_lo <= self.amplitude_hi, "amplitude",
                "[lo, hi] with 0 < lo <= hi", [self.amplitude_lo, self.amplitude_hi])
        require(self.noise_sigma >= 0, "noise_sigma", ">= 0", self.noise_sigma)
        require(self.noise_sigma_rel is None or self.noise_sigma_rel >= 0, "noise_sigma_rel",
                ">= 0", self.noise_sigma_rel)
        require(self.seed >= 0, "seed", ">= 0", self.seed)
        if self.scale_profile is not None:
            profile = np.asarray(self.scale_profile, dtype=np.float64)
            require(profile.shape == (self.depth,) and np.all(np.isfinite(profile))
                    and np.all(profile >= 0) and np.any(profile > 0), "scale_profile",
                    f"a list of {self.depth} finite values >= 0 with one > 0",
                    list(self.scale_profile))


def generate_scene(spec):
    """Place n_sources pixel-sparse groups; returns (a_true, (n_sources, 2) ground truth).

    Raises RuntimeError if the separation constraint cannot be met within
    max(10000, rows * cols) attempts; at once when a placement leaves too
    little room for the sources left, so that every further draw would be
    refused or wasted.
    """
    rng = np.random.default_rng(spec.seed)
    a_true = np.zeros((spec.rows, spec.cols, spec.depth))
    # free[r, c]: (r, c) lies >= min_separation from every placed source. Each
    # placement ANDs into its window the stamp of the offsets that stay free;
    # an offset beyond the stamp is beyond the separation or the image.
    hr, hc = (int(min(spec.min_separation, side - 1)) for side in (spec.rows, spec.cols))
    dr, dc = np.ogrid[-hr : hr + 1, -hc : hc + 1]
    stamp = np.hypot(dr, dc) >= spec.min_separation
    free = np.ones((spec.rows, spec.cols), dtype=bool)
    positions = []
    attempts, cap = 0, max(_PLACEMENT_RETRY_CAP, spec.rows * spec.cols)
    while len(positions) < spec.n_sources and attempts < cap:
        attempts += 1
        r = int(rng.integers(0, spec.rows))
        c = int(rng.integers(0, spec.cols))
        if free[r, c]:
            positions.append((r, c))
            free[max(r - hr, 0) : r + hr + 1, max(c - hc, 0) : c + hc + 1] &= stamp[
                max(hr - r, 0) : hr + spec.rows - r, max(hc - c, 0) : hc + spec.cols - c]
            left = spec.n_sources - len(positions)
            if left and _room(free, spec.min_separation) < left:
                break  # no placement of the sources left exists
    if len(positions) < spec.n_sources:
        raise RuntimeError(
            f"could not place {spec.n_sources} sources at separation "
            f">= {spec.min_separation} within {cap} attempts"
        )

    profile = None if spec.scale_profile is None else np.array(spec.scale_profile, float)
    for r, c in positions:
        amplitude = rng.uniform(spec.amplitude_lo, spec.amplitude_hi)
        if profile is None:
            k = int(rng.integers(0, spec.depth))
            a_true[r, c, k] += amplitude
        else:
            a_true[r, c, :] += amplitude * profile

    return a_true, np.array(positions, dtype=np.float64).reshape(-1, 2)


def _room(free, separation):
    """The packing bound of the free pixels' bounding box: the most sources
    that could still be placed."""
    rows, cols = np.flatnonzero(free.any(1)), np.flatnonzero(free.any(0))
    if rows.size == 0:
        return 0
    return _packing_bound(int(rows[-1] - rows[0]) + 1, int(cols[-1] - cols[0]) + 1,
                          separation)[0]


def add_noise(clean, noise_sigma, seed):
    """`clean` plus i.i.d. Gaussian noise of std `noise_sigma` (not clamped at 0)."""
    rng = np.random.default_rng(seed)
    return clean + noise_sigma * rng.standard_normal(clean.shape)
