"""Group-sparse, non-negative multi-kernel deconvolution of immunoassay
images, with accelerated proximal gradient solving and spot detection."""

from .convolution import adjoint, conv_same_2d, forward
from .detection import Detection, detect, regional_maxima
from .evaluation import EvalReport, best_threshold, match, prf1
from .kernels import KernelBank, build_kernel_bank, make_scale_grid
from .solver import SolveResult, SolverConfig, apg_solve, objective, prox_group, step_size
from .synth import SceneSpec, generate_scene, render_observation
from .tensors import group_norm_image

__all__ = [
    "Detection",
    "EvalReport",
    "KernelBank",
    "SceneSpec",
    "SolveResult",
    "SolverConfig",
    "adjoint",
    "apg_solve",
    "best_threshold",
    "build_kernel_bank",
    "conv_same_2d",
    "detect",
    "forward",
    "generate_scene",
    "group_norm_image",
    "make_scale_grid",
    "match",
    "objective",
    "prf1",
    "prox_group",
    "regional_maxima",
    "render_observation",
    "step_size",
]

__version__ = "0.1.0"
