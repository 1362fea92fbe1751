"""Accelerated proximal gradient solver for the group-sparse deconvolution.

Minimizes  ||w . (d_obs - sum_k g_k * a_k)||_2^2 + lambda * sum_{m,n} ||a_{m,n}||_2
over a >= 0 by fixed-step FISTA (Beck & Teboulle 2009) with the gradient
adaptive restart of O'Donoghue & Candes 2015. Each iteration takes four
steps from the extrapolated point b:

1. a gradient step on the fidelity term,
2. a projection onto a >= 0,
3. a per-pixel group shrinkage (the prox of the regularizer),
4. a momentum extrapolation b = a_new + alpha * (a_new - a), with
   alpha = 0 on a restart, i.e. when <b - a_new, a_new - a> > 0.

The loop starts from a = 0, so A.a = 0. forward() is linear, so the loop
carries A.a and forms A.b from it: one forward() and one adjoint() per
iteration. That forward() and the group norms of the shrink also give
the objective of each iterate, which lands in SolveResult.objectives at
no extra convolution. The last value is computed as objective() computes
it, so it equals objective(a_opt).

The loop holds its volumes slice-major, as C-contiguous (K, M, N) arrays,
because forward() and adjoint() batch their GEMMs over contiguous scale
slices: it hands forward() the (M, N, K) view a.transpose(1, 2, 0), whose
slices need no copy, and takes adjoint()'s (K, M, N) buffer as the next
iterate. The shrink then sums K contiguous planes. Four volumes are alive
in the loop: a, a_new (adjoint()'s fresh buffer), step and diff, both
refilled in place. diff is a view of the workspace of the one convolution
Plan that the solve makes and passes to every call, so no call rebuilds
its GEMM views. progress() sees (M, N, K) views, and a_opt is a
C-contiguous (M, N, K) copy made once per solve. The image-sized steps
run in place too: forward(b) in fb, and one image that holds the scaled
residual for adjoint(), then the weighted residual of the fidelity.

The loop's dot products (||diff||^2, <step, diff> and the shrink's
||a_new||^2) are einsum reductions, in numpy's own single-threaded loop,
not BLAS ddot calls: OpenBLAS splits a ddot over more than 10,000 values
across its threads, which changes the sum's rounding. So no thread count
changes a scalar that the loop decides on. Only forward() and adjoint()
still call BLAS, for their GEMMs.

The one other exit is overflow: a non-finite objective or relative change
raises FloatingPointError, with numpy's warnings off whoever calls. A
non-finite iterate makes its group norm, and so the objective, non-finite:
one scalar check per iteration catches it. Diagnostics use `progress`.

Bookkeeping note: the gradient step uses eta times adjoint(w^2 . residual),
i.e. without the factor 2 from differentiating the squared norm, and the
shrinkage threshold is (eta/2)*lambda. Together this equals proximal
gradient with step eta/2 on the objective above; fixed-point and oracle
tests rely on that correspondence. The loop pre-scales the image-sized
residual by -eta*w^2, so adjoint() returns the gradient step itself. It
never forms b: it keeps step = b - a = alpha*(a - a_prev), and a_new
starts as that gradient step + a + step. The shrink returns ||a_new||^2
next to the regularizer, for the next rel_change to divide by. The
restart test <b - a_new, diff> > 0 (diff = a_new - a) is computed as
<step, diff> - ||diff||^2, from the ||diff||^2 of rel_change. These sums
associate differently from the textbook loop, so the two agree to
round-off, not bit for bit (tests/oracles.py holds the textbook loop).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convolution import adjoint, forward, make_plan
from .tensors import group_norm_image, require

BECK = "beck"
CHAMBOLLE = "chambolle"
NO_MOMENTUM = "none"

_LEAST_POSITIVE = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    momentum: str = BECK
    chambolle_a: float = 3.0
    max_iters: int = 5000
    rel_tol: float = 1e-6

    def __post_init__(self):
        require(self.lam >= 0, "lambda", ">= 0", self.lam)
        require(self.momentum in (BECK, CHAMBOLLE, NO_MOMENTUM), "momentum",
                "one of beck/chambolle/none", self.momentum)
        require(self.momentum != CHAMBOLLE or self.chambolle_a > 2, "chambolle_a", "> 2",
                self.chambolle_a)
        eps = np.finfo(np.float64).eps  # a smaller relative change may never be reached
        require(self.rel_tol >= eps, "rel_tol", f">= {eps} (float64's epsilon)", self.rel_tol)
        require(self.max_iters >= 1, "max_iters", ">= 1", self.max_iters)


@dataclass
class SolveResult:
    a_opt: np.ndarray
    iterations: int
    final_rel_change: float
    objectives: list[float]  # objectives[i - 1] = objective(iterate after iteration i)
    restarts: int  # momentum restarts (gradient scheme)
    converged: bool  # final_rel_change <= rel_tol; False when max_iters stopped the run


def step_size(sigma_max_pixels, w):
    """Fixed step eta = (1 / sigma_max_pixels) / max|w|^2, for a ScaleGrid's sigma_max_pixels."""
    wmax = np.max(np.abs(w))
    with np.errstate(divide="ignore", over="ignore"):
        eta = np.float64(1.0 / sigma_max_pixels) / np.square(wmax)
    require(0.0 < eta < np.inf, "weights", "non-degenerate, max|w| giving a finite step > 0 "
            f"(degenerate weights give step {float(eta)!r})", float(wmax))
    return float(eta)


def check_weights_shape(w, shape):
    """The weights' shape rule: w has the observation's `shape`. Returns w."""
    if w.shape != shape:
        raise ValueError(f"weights shape {w.shape} does not match observation {shape}")
    return w


def momentum_alpha(scheme, i, state=None, chambolle_a=3.0):
    """Extrapolation coefficient alpha(i) for iteration i >= 1.

    Beck: t_1 = 1, t_{i+1} = (1 + sqrt(1 + 4 t_i^2)) / 2, alpha = (t_i - 1)/t_{i+1}.
    Chambolle: alpha = (i - 1) / (i + a - 1).  None: alpha = 0.
    Returns (alpha, state); state carries t_i across calls for Beck.
    """
    if i < 1:
        raise ValueError(f"iteration index must be >= 1, got {i}")
    if scheme == BECK:
        t = 1.0 if state is None else state
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        return (t - 1.0) / t_next, t_next
    if scheme == CHAMBOLLE:
        return (i - 1.0) / (i + chambolle_a - 1.0), None
    if scheme == NO_MOMENTUM:
        return 0.0, None
    raise ValueError(f"unknown momentum scheme {scheme!r}")


def _shrink(v, kappa):
    """prox_group in place on a (K, M, N) volume v. Returns the regularizer
    sum_{m,n} ||v[:,m,n]|| of the result and its squared Frobenius norm
    ||v||^2, i.e. the sums of max(rho - kappa, 0) and of its square over
    the input norms rho."""
    rho = np.sqrt(np.einsum("kmn,kmn->mn", v, v))
    shrunk = np.maximum(rho - kappa, 0.0)
    sums = float(shrunk.sum()), float(np.einsum("mn,mn->", shrunk, shrunk))
    # shrunk is 0 wherever rho is 0 (kappa >= 0): dividing by rho raised to the
    # least positive double gives the masked quotient (0 there) bit for bit.
    shrunk /= np.maximum(rho, _LEAST_POSITIVE, out=rho)
    v *= shrunk
    return sums


def prox_group(v, kappa):
    """Per-pixel group shrinkage: scale v[m,n,:] by (1 - kappa/||v[m,n,:]||)_+.

    Zero-norm pixels map to zero (the limit of the clamped expression).
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    out = np.array(v, dtype=np.float64)
    _shrink(np.moveaxis(out, 2, 0), kappa)
    return out


def objective(a, d_obs, w, bank, lam):
    """Weighted squared fidelity (not halved) plus lambda * group norm."""
    check_weights_shape(w, d_obs.shape)
    if a.shape[:2] != d_obs.shape:
        raise ValueError(f"volume shape {a.shape} does not match observation {d_obs.shape}")
    residual = w * (d_obs - forward(a, bank))
    return float(np.sum(residual * residual) + lam * np.sum(group_norm_image(a)))


def apg_solve(d_obs, w, bank, cfg, progress: Optional[Callable] = None):
    """Minimize objective(a, d_obs, w, bank, cfg.lam) over a >= 0: run the
    accelerated proximal gradient iteration until the relative Frobenius
    change of the iterate drops below cfg.rel_tol or max_iters hits.

    progress(i, rel_change, a), if given, is called after each iteration i
    with the accepted iterate a, an (M, N, K) view of the loop's (K, M, N)
    array, which it must not modify. The result holds the objective after
    each iteration, the number of momentum restarts and whether the run
    converged or hit max_iters.
    """
    eta = step_size(bank.grid.sigma_max_pixels, check_weights_shape(w, d_obs.shape))
    kappa = 0.5 * eta * cfg.lam

    a = np.zeros((bank.num_kernels, *d_obs.shape))
    step = np.zeros_like(a)  # b - a; the loop writes it in place, never a
    plan = make_plan(bank, d_obs.shape)
    # a_new - a, refilled each iteration. It shares the operators' workspace, which is
    # free for it: adjoint() runs before diff is refilled, forward() after step used it.
    diff = plan.workspace.reshape(a.shape)
    norm2_a = 0.0  # ||a||^2
    fa, fb = np.zeros(d_obs.shape), np.zeros(d_obs.shape)  # forward(a), forward(b) at a = 0
    res = np.empty(d_obs.shape)  # the scaled residual, then the weighted fidelity residual
    scale = -eta * np.square(w)  # the residual's factor in the gradient step

    objectives = []
    restarts = start = 0
    mom_state = None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported once, below
        for i in range(1, cfg.max_iters + 1):
            # Steps 1-3 in place on the volume that adjoint() returns.
            np.subtract(fb, d_obs, out=res)
            res *= scale
            a_new = adjoint(res, bank, plan=plan).transpose(2, 0, 1)
            a_new += a
            a_new += step
            np.maximum(a_new, 0.0, out=a_new)
            regularizer, norm2_new = _shrink(a_new, kappa)

            np.subtract(a_new, a, out=diff)
            norm2_diff = float(np.einsum("kmn,kmn->", diff, diff))
            rel_change = math.sqrt(norm2_diff) / max(math.sqrt(norm2_a), 1e-12)
            # Restart when <b - a_new, diff> > 0.
            if np.einsum("kmn,kmn->", step, diff) - norm2_diff > 0:
                restarts, start, mom_state = restarts + 1, i - 1, None
            alpha, mom_state = momentum_alpha(cfg.momentum, i - start, mom_state, cfg.chambolle_a)
            np.multiply(diff, alpha, out=step)

            fa_new = forward(a_new.transpose(1, 2, 0), bank, plan=plan)
            np.subtract(fa_new, fa, out=fb)  # forward(b), by linearity
            fb *= alpha
            fb += fa_new
            np.subtract(d_obs, fa_new, out=res)
            res *= w
            fidelity = np.sum(np.square(res, out=res))
            objectives.append(float(fidelity + cfg.lam * regularizer))
            if not (math.isfinite(objectives[-1]) and math.isfinite(rel_change)):
                raise FloatingPointError(
                    f"divergence: float64 overflow at iteration {i} "
                    f"(objective {objectives[-1]!r}): the step is too large for the kernels, "
                    "or the data too large for float64")
            # The hook comes after the extrapolation, which writes only step:
            # it gets a_new, and the loop never writes a_new (then a) again.
            if progress is not None:
                progress(i, rel_change, a_new.transpose(1, 2, 0))
            a, fa, norm2_a = a_new, fa_new, norm2_new
            if rel_change <= cfg.rel_tol:
                break

        del step, diff, plan  # group_norm_image(a_opt) below squares a whole volume
        a_opt = a.transpose(1, 2, 0).copy()  # C order
        # The reported final objective sums the same group norms as objective().
        objectives[-1] = float(fidelity + cfg.lam * np.sum(group_norm_image(a_opt)))
    return SolveResult(a_opt=a_opt, iterations=i, final_rel_change=float(rel_change),
                       objectives=objectives, restarts=restarts,
                       converged=bool(rel_change <= cfg.rel_tol))
