"""Synthetic scenes: pixel-sparse source volumes and noisy observations.

Stands in for real assay data. Sources are placed by rejection sampling
with a minimum pairwise separation; each source deposits its amplitude in
one scale slice (or a given per-slice profile). All randomness comes from
numpy's PCG64 generator seeded explicitly, so scenes are reproducible.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convolution import forward
from .tensors import require

GENERATOR_NAME = "numpy-pcg64"

_PLACEMENT_RETRY_CAP = 10000


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
        # Placement admits one source per q x q pixel block if hypot(q - 1, q - 1) < sep.
        sep, side = self.min_separation, max(self.rows, self.cols)
        d = int(min(sep / np.sqrt(2), side - 1))  # q - 1, largest q <= side, up to round-off
        d += int(d < side - 1 and np.hypot(d + 1, d + 1) < sep) - int(np.hypot(d, d) >= sep)
        fit = -(-self.rows // (d + 1)) * -(-self.cols // (d + 1))
        require(self.n_sources <= fit, "n_sources", f"<= {fit}, one per {d + 1}x{d + 1} pixel "
                f"block at min_separation {sep}", self.n_sources)
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
    """Place n_sources pixel-sparse groups; returns (a_true, ground_truth).

    Raises RuntimeError if the separation constraint cannot be met within
    the retry cap.
    """
    rng = np.random.default_rng(spec.seed)
    a_true = np.zeros((spec.rows, spec.cols, spec.depth))
    placed = np.empty((spec.n_sources, 2), dtype=np.int64)
    count = attempts = 0
    while count < spec.n_sources:
        if attempts >= _PLACEMENT_RETRY_CAP:
            raise RuntimeError(
                f"could not place {spec.n_sources} sources at separation "
                f">= {spec.min_separation} within {_PLACEMENT_RETRY_CAP} attempts"
            )
        attempts += 1
        r = int(rng.integers(0, spec.rows))
        c = int(rng.integers(0, spec.cols))
        if (np.hypot(r - placed[:count, 0], c - placed[:count, 1]) >= spec.min_separation).all():
            placed[count] = r, c
            count += 1
    positions = placed.tolist()

    profile = None if spec.scale_profile is None else np.array(spec.scale_profile, float)
    for r, c in positions:
        amplitude = rng.uniform(spec.amplitude_lo, spec.amplitude_hi)
        if profile is None:
            k = int(rng.integers(0, spec.depth))
            a_true[r, c, k] += amplitude
        else:
            a_true[r, c, :] += amplitude * profile

    gt = [(float(r), float(c)) for r, c in positions]
    return a_true, gt


def add_noise(clean, noise_sigma, seed):
    """`clean` plus i.i.d. Gaussian noise of std `noise_sigma` (not clamped at 0)."""
    rng = np.random.default_rng(seed)
    return clean + noise_sigma * rng.standard_normal(clean.shape)


def render_observation(a_true, bank, noise_sigma, seed):
    """Clean forward image plus i.i.d. Gaussian noise (not clamped at 0)."""
    return add_noise(forward(a_true, bank), noise_sigma, seed)
