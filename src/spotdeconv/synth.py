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

    def __post_init__(self):
        if not (self.rows >= 1 and self.cols >= 1):
            raise ValueError(f"rows and cols must be >= 1, got ({self.rows}, {self.cols})")
        if not self.n_sources >= 0:
            raise ValueError(f"n_sources must be >= 0, got {self.n_sources}")
        if not self.min_separation >= 1:
            raise ValueError(f"min_separation must be >= 1, got {self.min_separation}")
        if not 0 < self.amplitude_lo <= self.amplitude_hi:
            raise ValueError(
                f"need 0 < amplitude_lo <= amplitude_hi, got "
                f"({self.amplitude_lo}, {self.amplitude_hi})"
            )
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.scale_profile is not None:
            profile = np.asarray(self.scale_profile, dtype=np.float64)
            if profile.shape != (self.depth,) or not np.all(np.isfinite(profile)):
                raise ValueError(f"scale_profile must hold {self.depth} finite values")
            if not (np.all(profile >= 0) and np.any(profile > 0)):
                raise ValueError(f"scale_profile must be >= 0 with an entry > 0, "
                                 f"got {list(self.scale_profile)}")


def generate_scene(spec):
    """Place n_sources pixel-sparse groups; returns (a_true, ground_truth).

    Raises RuntimeError if the separation constraint cannot be met within
    the retry cap.
    """
    rng = np.random.default_rng(spec.seed)
    a_true = np.zeros((spec.rows, spec.cols, spec.depth))
    positions = []
    attempts = 0
    while len(positions) < spec.n_sources:
        if attempts >= _PLACEMENT_RETRY_CAP:
            raise RuntimeError(
                f"could not place {spec.n_sources} sources at separation "
                f">= {spec.min_separation} within {_PLACEMENT_RETRY_CAP} attempts"
            )
        attempts += 1
        r = int(rng.integers(0, spec.rows))
        c = int(rng.integers(0, spec.cols))
        if all(
            np.hypot(r - pr, c - pc) >= spec.min_separation for pr, pc in positions
        ):
            positions.append((r, c))

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
