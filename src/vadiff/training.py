"""Denoising score-matching training loop.

Each step draws per-row noise levels from a log-normal, corrupts the batch
additively, and regresses the preconditioned network output back onto the
clean features under the weighting (sigma^2 + sigma_data^2) / (sigma *
sigma_data)^2, which keeps the effective loss scale flat across noise
levels.  Optimization is Adam with decoupled weight decay, an inverse
time-decay learning rate, and an exponential moving average of the
weights kept alongside the raw ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import make_batches
from .network import DenoiserParams, Preconditioner, fourier_embed, forward_raw, scalings
from .rng import Rng
from .sampling import TrainNoiseConfig, noise_bounds  # noise_bounds: kept importable from here


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8192
    base_lr: float = 2e-4
    weight_decay: float = 1e-4
    ema_decay: float = 0.999

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0 <= self.ema_decay < 1:
            raise ValueError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")


def sample_train_sigma(rng: Rng, cfg: TrainNoiseConfig, n: int) -> np.ndarray:
    """n log-normal noise levels, one per batch row."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = rng.standard_normal(n, dtype=np.float64)
    return np.exp(cfg.p_mean + cfg.p_std * z)


def loss_weight(p: Preconditioner, sigma):
    """(sigma^2 + sigma_data^2) / (sigma * sigma_data)^2.

    Exactly cancels c_out^2, so every noise level contributes at unit
    scale to the training objective.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    sd = p.sigma_data
    return (sigma**2 + sd**2) / (sigma * sd) ** 2


def dsm_loss(params: DenoiserParams, p: Preconditioner, x: np.ndarray,
             sigma: np.ndarray, rng: Rng):
    """Weighted reconstruction loss on one batch, plus parameter gradients.

    Returns (loss, grads): the loss reduced in float64, and gradients in
    params.dtype, aligned with params.trainable().  The corruption eps is
    drawn from rng inside, one standard-normal row per instance.  The
    gradients are the closed-form backward of the forward pass, run
    through the activations forward_raw caches: four rows x width arrays
    per hidden layer (input, pre-activation, sigmoid, FiLM scale).  The
    backward overwrites them in place and frees each one, and the head
    input, right after its last read.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty 2-D batch, got shape {x.shape}")
    n, d = x.shape
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (n,):
        raise ValueError(f"sigma must have shape ({n},), got {sigma.shape}")

    dt = params.dtype
    eps = rng.standard_normal(x.shape, dtype=np.float64)
    noised = x.astype(np.float64) + eps * sigma[:, None]

    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    lam = loss_weight(p, sigma)
    emb = fourier_embed(params, c_noise)

    cache = []
    f = forward_raw(params, (c_in[:, None] * noised).astype(dt), None,
                    embedding=emb, cache=cache)
    denoised = f * c_out[:, None].astype(dt)
    denoised += (c_skip[:, None] * noised).astype(dt)
    resid = denoised.astype(np.float64) - x.astype(np.float64)
    reported = float(np.sum(np.sum(resid**2, axis=1) * lam) / (n * d))

    # dL/dF = 2 lam c_out (D - x) / (n d), per row
    g = denoised - x.astype(dt)
    g *= (2.0 * lam * c_out / (n * d))[:, None].astype(dt)
    grads = [cache.pop().T @ g, g.sum(axis=0)]  # the head input, freed once read
    g = g @ params.out_w.T
    for i in reversed(range(len(params.layers))):
        h, a, s, gamma = cache.pop()
        # out = gamma * silu(a) + beta; g is dL/d(out).  u = silu(a) as the
        # forward formed it, in a's buffer: a is not read again
        u = np.multiply(a, s, out=a)
        g_gamma = g * u
        layer_grads = [emb.T @ g_gamma, g_gamma.sum(axis=0), emb.T @ g, g.sum(axis=0)]
        # silu'(a) = s (1 + a (1 - s)) = s + u (1 - s), built in u's buffer
        g *= gamma
        u *= np.subtract(1.0, s, out=g_gamma)
        u += s
        g *= u
        del a, s, gamma, u, g_gamma  # dead: freed before the weight gradient is allocated
        grads[:0] = [h.T @ g, g.sum(axis=0)] + layer_grads
        del h
        if i:
            g = g @ params.layers[i].w.T
    return reported, grads


# Adam's moment decays and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# inverse time decay of the learning rate
_INV_GAMMA = 20000.0
_POWER = 1.0


@dataclass
class OptimizerState:
    """Adam moments, the EMA copy and the step count, under one TrainConfig."""

    m: list
    v: list
    ema: DenoiserParams
    cfg: TrainConfig
    step: int = 0

    @classmethod
    def init(cls, params: DenoiserParams, cfg: TrainConfig) -> "OptimizerState":
        tensors = params.trainable()
        return cls(m=[np.zeros_like(t) for t in tensors], v=[np.zeros_like(t) for t in tensors],
                   ema=params.copy(), cfg=cfg)


def inverse_lr(state: OptimizerState) -> float:
    """base_lr / (1 + step / _INV_GAMMA)^_POWER; equals base_lr at step 0."""
    if state.step < 0:
        raise ValueError(f"step must be >= 0, got {state.step}")
    return state.cfg.base_lr / (1.0 + state.step / _INV_GAMMA) ** _POWER


def adam_step(state: OptimizerState, params: DenoiserParams, grads) -> DenoiserParams:
    """One in-place Adam update with decoupled weight decay (lr * wd * p)."""
    tensors = params.trainable()
    if len(grads) != len(state.m) or len(tensors) != len(state.m):
        raise ValueError("tensor, gradient, and state counts must match")
    for p_, g in zip(tensors, grads):
        if p_.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p_.shape}")
    lr = inverse_lr(state)
    state.step += 1
    bc1 = 1.0 - _BETA1**state.step
    bc2 = 1.0 - _BETA2**state.step
    wd = state.cfg.weight_decay
    for p_, g, m, v in zip(tensors, grads, state.m, state.v):
        g = g.astype(p_.dtype, copy=False)
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p_ -= (lr / bc1) * m / (np.sqrt(v / bc2) + _EPS)
        if wd:
            p_ -= (lr * wd) * p_
    return params


def ema_update(state: OptimizerState, params: DenoiserParams) -> DenoiserParams:
    """ema <- decay * ema + (1 - decay) * params, trainable tensors only."""
    d = state.cfg.ema_decay
    for e, p_ in zip(state.ema.trainable(), params.trainable()):
        e *= d
        e += (1.0 - d) * p_
    return state.ema


@dataclass
class EpochLog:
    epoch: int
    step: int
    lr: float
    mean_loss: float


def fit(dataset, params: DenoiserParams, p: Preconditioner, cfg: TrainConfig,
        noise_cfg: TrainNoiseConfig, rng: Rng,
        on_epoch=None) -> tuple[DenoiserParams, list[EpochLog]]:
    """Train params in place on the dataset's feature rows.

    `dataset` is a FeatureSet or a plain (n, dim) array; only the feature
    matrix is ever touched, so labels cannot influence the result.  Each
    batch is centred by p.center, if set, as it is sliced.  The final
    short batch of an epoch is used, not dropped.  Returns the EMA
    weights and one log entry per epoch: (epoch index, total optimizer
    steps completed, learning rate at the epoch start, mean batch loss).
    Raises FloatingPointError as soon as a batch loss stops being finite.
    """
    x = np.asarray(getattr(dataset, "features", dataset))
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty 2-D feature array, got shape {x.shape}")
    n = x.shape[0]

    shuffle_rng = rng.split("shuffle")
    noise_rng = rng.split("train-noise")
    state = OptimizerState.init(params, cfg)
    history: list[EpochLog] = []
    for epoch in range(cfg.epochs):
        lr_epoch = inverse_lr(state)
        losses = []
        for idx in make_batches(n, cfg.batch_size, shuffle=True, rng=shuffle_rng):
            batch = x[idx] if p.center is None else x[idx] - p.center
            sigma = sample_train_sigma(noise_rng, noise_cfg, batch.shape[0])
            loss, grads = dsm_loss(params, p, batch, sigma, noise_rng)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss {loss} at epoch {epoch}, step {state.step}"
                )
            adam_step(state, params, grads)
            ema_update(state, params)
            losses.append(loss)
        entry = EpochLog(epoch, state.step, lr_epoch, float(np.mean(losses)))
        history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return state.ema, history
