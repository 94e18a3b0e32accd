"""Training noise, the noise schedule and the probability-flow ODE sampler.

Sampling integrates dx/dsigma = (x - D(x; sigma)) / sigma from high noise
down to zero along a rho-spaced sigma grid.  The multistep update fits a
polynomial through the most recent derivatives and integrates it exactly
over [sigma_i, sigma_{i+1}]; with order 1 it reduces to the Euler method.
The grid's default bounds follow the training noise (noise_bounds).

The denoiser enters as a plain callable (x, sigma) -> x_hat; see
network.as_denoiser for the standard preconditioned network wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Denoiser = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class TrainNoiseConfig:
    """Log-normal over training noise levels: ln sigma ~ N(p_mean, p_std^2).
    Its noise_bounds must make a schedule, the default that score uses."""

    p_mean: float = -1.2
    p_std: float = 1.2

    def __post_init__(self):
        if not np.isfinite(self.p_mean) or not np.isfinite(self.p_std) or self.p_std <= 0:
            raise ValueError(f"need finite p_mean and p_std > 0, got ({self.p_mean}, {self.p_std})")
        try:
            ScheduleConfig(*noise_bounds(self))
        except ValueError as e:
            raise ValueError(f"p_mean {self.p_mean} and p_std {self.p_std} give no schedule: "
                             f"{e}") from None


def noise_bounds(cfg: TrainNoiseConfig) -> tuple[float, float]:
    """(sigma_min, sigma_max) spanning five log-normal standard deviations
    around the training noise distribution: e^(p_mean -+ 5 p_std).
    """
    with np.errstate(over="ignore"):  # an overflow is inf, which ScheduleConfig rejects
        return (
            float(np.exp(cfg.p_mean - 5.0 * cfg.p_std)),
            float(np.exp(cfg.p_mean + 5.0 * cfg.p_std)),
        )


# The longest schedule, ten times DDPM's 1000-step chain.  Checked before
# any allocation: the grid holds steps + 1 values, and sweep by default
# scores one cell per index.
MAX_STEPS = 10_000


@dataclass(frozen=True)
class ScheduleConfig:
    sigma_min: float = 0.02
    sigma_max: float = 80.0
    rho: float = 7.0
    steps: int = 10

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError(
                f"need 0 < sigma_min < sigma_max, got ({self.sigma_min}, {self.sigma_max})"
            )
        if not np.isfinite(self.sigma_max):
            raise ValueError("sigma_max must be finite")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not np.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        with np.errstate(over="ignore"):  # karras_schedule's largest power
            if not np.isfinite(np.float64(self.sigma_max) ** (1.0 / self.rho)):
                raise ValueError(f"rho {self.rho} is too small: sigma_max ** (1 / rho) overflows")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps}")


def karras_schedule(cfg: ScheduleConfig) -> np.ndarray:
    """Decreasing sigma grid of length steps + 1, ending at exactly 0.

    The first and last nonzero entries are pinned to sigma_max and
    sigma_min so downstream code can rely on exact endpoints.
    """
    t = cfg.steps
    inv_rho = 1.0 / cfg.rho
    ramp = np.arange(t, dtype=np.float64) / (t - 1)
    lo, hi = cfg.sigma_min**inv_rho, cfg.sigma_max**inv_rho
    sigmas = (hi + ramp * (lo - hi)) ** cfg.rho
    sigmas[0] = cfg.sigma_max
    sigmas[-1] = cfg.sigma_min
    return np.append(sigmas, 0.0)


def multistep_coeff(sigmas, i: int, j: int, cur_order: int) -> float:
    """Integral over [sigmas[i], sigmas[i+1]] of the Lagrange basis polynomial
    that is 1 at node sigmas[i - j] and 0 at the other cur_order - 1 nodes
    sigmas[i - k].  Built and integrated in closed form; for cur_order 1
    this is exactly sigmas[i+1] - sigmas[i].
    """
    if not 0 <= j < cur_order:
        raise ValueError(f"j must lie in [0, {cur_order}), got {j}")
    coef = [1.0]  # ascending powers of sigma
    xj = sigmas[i - j]
    for k in range(cur_order):
        if k == j:
            continue
        xk = sigmas[i - k]
        # times (sigma - xk) / (xj - xk)
        coef = [(lo - hi * xk) / (xj - xk) for lo, hi in zip([0.0] + coef, coef + [0.0])]
    # Horner on the antiderivative, whose sigma^(m + 1) coefficient is coef[m] / (m + 1)
    a, b = sigmas[i], sigmas[i + 1]
    fa = fb = 0.0
    for m in reversed(range(len(coef))):
        c = coef[m] / (m + 1)
        fa, fb = fa * a + c, fb * b + c
    return float(fb * b - fa * a)


def lms_sample(denoiser: Denoiser, x: np.ndarray, sigmas: np.ndarray,
               order: int = 4, start_index: int = 0) -> np.ndarray:
    """Integrate the ODE from sigmas[start_index] down to the final 0.

    `x` must already be at noise level sigmas[start_index].  With
    start_index == len(sigmas) - 1 (the zero entry) the input is returned
    unchanged.  Each step's derivative is (x - D(x; sigma)) / sigma, i.e.
    -sigma times the score, so every sigma stepped from must be > 0.
    Derivative history grows from 1 up to `order` entries, so the first
    step is exactly an Euler step.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    n_steps = len(sigmas) - 1
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0 <= start_index <= n_steps:
        raise ValueError(f"start_index {start_index} outside [0, {n_steps}]")
    if not (sigmas[start_index:n_steps] > 0).all():
        raise ValueError(f"sigmas stepped from must be > 0, got {sigmas[start_index:n_steps]}")
    x = np.array(x, copy=True)
    history: list[np.ndarray] = []
    for i in range(start_index, n_steps):
        sigma = float(sigmas[i])
        history.append((x - denoiser(x, sigma)) / sigma)
        if len(history) > order:
            history.pop(0)
        cur_order = len(history)
        coeffs = [multistep_coeff(sigmas, i, j, cur_order) for j in range(cur_order)]
        for coeff, deriv in zip(coeffs, reversed(history)):
            x = x + coeff * deriv
    return x
