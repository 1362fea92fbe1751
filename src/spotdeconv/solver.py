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
because forward() and adjoint() work one scale slice at a time: it hands
forward() the (M, N, K) view np.moveaxis(a, 0, 2), whose slices need no
copy, and takes adjoint()'s (K, M, N) buffer as the next iterate. The
shrink then sums K contiguous planes. progress() sees (M, N, K) views,
and a_opt is a C-contiguous (M, N, K) copy made once per solve.

The one other exit is overflow: a non-finite objective or relative change
raises FloatingPointError. A non-finite iterate entry makes its group
norm, and so the objective, non-finite, so this one scalar check per
iteration catches it. Diagnostics come from the `progress` hook.

Bookkeeping note: the gradient step uses eta times adjoint(w^2 . residual),
i.e. without the factor 2 from differentiating the squared norm, and the
shrinkage threshold is (eta/2)*lambda. Together this equals proximal
gradient with step eta/2 on the objective above; fixed-point and oracle
tests rely on that correspondence.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convolution import adjoint, forward
from .tensors import frobenius_norm, group_norm_image

BECK = "beck"
CHAMBOLLE = "chambolle"
NO_MOMENTUM = "none"


@dataclass
class SolverConfig:
    lam: float
    weights: np.ndarray
    momentum: str = BECK
    chambolle_a: float = 3.0
    max_iters: int = 5000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.momentum not in (BECK, CHAMBOLLE, NO_MOMENTUM):
            raise ValueError(f"unknown momentum scheme {self.momentum!r}")
        if self.momentum == CHAMBOLLE and not self.chambolle_a > 2:
            raise ValueError(f"Chambolle parameter must be > 2, got {self.chambolle_a}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolveResult:
    a_opt: np.ndarray
    iterations: int
    final_rel_change: float
    objectives: list[float]  # objectives[i - 1] = objective(iterate after iteration i)
    restarts: int  # momentum restarts (gradient scheme)
    converged: bool  # final_rel_change <= rel_tol; False when max_iters stopped the run


def step_size(sigma_max_pixels, w):
    """Fixed step eta = (1 / sigma_max_pixels) / max|w|^2."""
    if sigma_max_pixels <= 0:
        raise ValueError(f"sigma_max_pixels must be > 0, got {sigma_max_pixels}")
    wmax = np.max(np.abs(w))
    with np.errstate(divide="ignore", over="ignore"):
        eta = np.float64(1.0 / sigma_max_pixels) / np.square(wmax)
    if not 0.0 < eta < np.inf:
        raise ValueError(f"degenerate weights: max|w| = {float(wmax)!r} gives step {float(eta)!r}")
    return float(eta)


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
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        return (t - 1.0) / t_next, t_next
    if scheme == CHAMBOLLE:
        return (i - 1.0) / (i + chambolle_a - 1.0), None
    if scheme == NO_MOMENTUM:
        return 0.0, None
    raise ValueError(f"unknown momentum scheme {scheme!r}")


def _shrink(v, kappa):
    """prox_group in place on a (K, M, N) volume v. Returns the regularizer
    sum_{m,n} ||v[:,m,n]|| of the result, which is sum max(rho - kappa, 0)
    over the input norms rho."""
    rho = np.sqrt(np.einsum("kmn,kmn->mn", v, v))
    shrunk = np.maximum(rho - kappa, 0.0)
    v *= np.divide(shrunk, rho, out=np.zeros_like(rho), where=rho > 0.0)
    return float(shrunk.sum())


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
    if a.shape[:2] != d_obs.shape or d_obs.shape != w.shape:
        raise ValueError(
            f"shape mismatch: volume {a.shape}, observation {d_obs.shape}, weights {w.shape}"
        )
    residual = w * (d_obs - forward(a, bank))
    return float(np.sum(residual * residual) + lam * np.sum(group_norm_image(a)))


def apg_solve(d_obs, bank, cfg, progress: Optional[Callable] = None):
    """Run the accelerated proximal gradient iteration until the relative
    Frobenius change of the iterate drops below cfg.rel_tol or max_iters hits.

    progress(i, rel_change, a), if given, is called after each iteration i
    with the accepted iterate a, an (M, N, K) view of the loop's (K, M, N)
    array, which it must not modify. The result holds the objective after
    each iteration, the number of momentum restarts and whether the run
    converged or hit max_iters.
    """
    m, n = d_obs.shape
    if cfg.weights.shape != d_obs.shape:
        raise ValueError(
            f"weights shape {cfg.weights.shape} does not match observation {d_obs.shape}"
        )
    eta = step_size(bank.grid.sigma_max_pixels, cfg.weights)
    w2 = cfg.weights * cfg.weights
    kappa = 0.5 * eta * cfg.lam

    a = np.zeros((bank.num_kernels, m, n))
    b = a.copy()  # its own buffer: the loop writes b in place, never a
    fa = fb = np.zeros((m, n))  # forward(a) of the zero start

    objectives = []
    restarts = start = 0
    mom_state = None
    for i in range(1, cfg.max_iters + 1):
        # Steps 1-3 in place on the volume that adjoint() returns.
        a_new = np.moveaxis(adjoint(w2 * (fb - d_obs), bank), 2, 0)
        a_new *= -eta
        a_new += b
        np.maximum(a_new, 0.0, out=a_new)
        regularizer = _shrink(a_new, kappa)

        diff = a_new - a
        rel_change = frobenius_norm(diff) / max(frobenius_norm(a), 1e-12)
        b -= a_new
        if np.vdot(b, diff) > 0:  # the step went uphill: restart the momentum
            restarts, start, mom_state = restarts + 1, i - 1, None
        alpha, mom_state = momentum_alpha(cfg.momentum, i - start, mom_state, cfg.chambolle_a)
        np.multiply(diff, alpha, out=b)
        b += a_new
        del diff  # before forward(): at most four volumes are alive, a, b, a_new, diff

        fa_new = forward(np.moveaxis(a_new, 0, 2), bank)
        fb = fa_new + alpha * (fa_new - fa)  # forward(b), by linearity
        fidelity = np.sum(np.square(cfg.weights * (d_obs - fa_new)))
        objectives.append(float(fidelity + cfg.lam * regularizer))
        if not (np.isfinite(objectives[-1]) and np.isfinite(rel_change)):
            raise FloatingPointError(
                f"divergence: float64 overflow at iteration {i} (objective {objectives[-1]!r}): "
                "the step is too large for the kernels, or the data too large for float64"
            )
        # The hook comes after the extrapolation, which writes only b: it
        # gets a_new, and the loop never writes a_new (then a) again.
        if progress is not None:
            progress(i, rel_change, np.moveaxis(a_new, 0, 2))
        a, fa = a_new, fa_new
        if rel_change <= cfg.rel_tol:
            break

    del b  # group_norm_image(a_opt) below squares a whole volume
    a_opt = np.moveaxis(a, 0, 2).copy()  # C order
    # The reported final objective sums the same group norms as objective().
    objectives[-1] = float(fidelity + cfg.lam * np.sum(group_norm_image(a_opt)))
    return SolveResult(a_opt=a_opt, iterations=i, final_rel_change=float(rel_change),
                       objectives=objectives, restarts=restarts,
                       converged=bool(rel_change <= cfg.rel_tol))
