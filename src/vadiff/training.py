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

from .network import (_CHUNK, DenoiserParams, Preconditioner, _affine, _flat_views,
                      _hidden_layer, _reserve, _silu, _view, fourier_embed, scalings)
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
            raise ValueError(f"epochs and batch_size must be >= 1, "
                             f"got ({self.epochs}, {self.batch_size})")
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
             sigma: np.ndarray, rng: Rng, *, work=None, sink=None):
    """Weighted reconstruction loss on one batch, plus parameter gradients.

    Returns (loss, grads): the loss reduced in float64, and gradients in
    params.dtype, aligned with params.trainable().  The corruption eps is
    drawn from rng inside, one standard-normal row per instance.  The
    step's forward runs each hidden layer through forward_raw's function,
    _hidden_layer, keeping two arrays per layer (its input and its
    pre-activation); the closed-form backward recomputes sigmoid, SiLU and
    the FiLM scale from them through the same functions, whole, and gets
    the bits the forward formed piece by piece.

    The backward hands each trainable tensor's gradient, as it forms it,
    to sink(k, a, b, free), k the tensor's index in params.trainable():
    the gradient is a.T @ b for a weight and b summed over rows for a bias
    (a is None); a and b are overwritten after the call.  free is a flat
    part of the step's scratch, dead at that call, that the sink may
    overwrite: the whole scratch for the hidden layers' own weights and
    the head's, its first half (the sigmoid's, the FiLM scale's) for the
    FiLM weights.  The default sink writes each gradient into its view of
    one flat gradient vector, in the layout of params.trainable_flat, and
    grads are those views; with a caller's sink, grads is None.

    The list `work` keeps the step's buffers between calls: the gradient
    vector (default sink only; a caller may pass the list holding only
    its own vector), then one rows x 2*sum(widths) buffer holding each
    layer's pre-activation and output, the next layer's input, and one
    scratch buffer of 2 x rows x widest values.  In the forward its halves
    hold the FiLM scale and shift, and each piece's sigmoid forms in the
    layer's output; in the backward they hold the sigmoid, then the FiLM
    scale, and the SiLU.  The scratch is floored at 4 x
    max(widest, _CHUNK) and at 2 x dim values, so that any free part has
    room for a _CHUNK-value temporary beside at least _CHUNK values and a
    whole row of the gradient.  The propagated gradient overwrites a
    cached layer input once that input's weight gradient is handed on.  A
    call with fewer rows than an earlier one uses the leading part of the
    activations and the whole scratch.  Without `work`, each call gets
    fresh buffers.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty 2-D batch, got shape {x.shape}")
    n, d = x.shape
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (n,):
        raise ValueError(f"sigma must have shape ({n},), got {sigma.shape}")

    dt = params.dtype
    widths = params.config.hidden_widths
    sizes = [2 * n * sum(widths), 2 * max(n * max(widths), 2 * max(*widths, _CHUNK), d)]
    if sink is None:
        sizes.insert(0, params.trainable_flat.size)
    work = _reserve([] if work is None else work, sizes, dt)
    acts, scratch = work[len(sizes) - 2 : len(sizes)]
    half = scratch.size // 2
    grads = None
    if sink is None:
        grads = _flat_views(params.config, work[0], first=1)

        def sink(k, a, b, free):
            if a is None:
                b.sum(axis=0, out=grads[k])
            else:
                np.matmul(a.T, b, out=grads[k])

    noised = rng.standard_normal(x.shape, dtype=np.float64)  # eps, then x + eps sigma
    noised *= sigma[:, None]
    noised += x

    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    lam = loss_weight(p, sigma)
    # c_in x and c_skip x in float64, each cast once formed; the second
    # overwrites noised, whose last read it is
    h = (c_in[:, None] * noised).astype(dt)
    skip = np.multiply(noised, c_skip[:, None], out=noised).astype(dt)
    del noised
    emb = fourier_embed(params, c_noise)

    cache, at = [], 0  # (input, pre-activation) per layer; how much of acts is taken
    for lay in params.layers:
        shape = (n,) + lay.b.shape
        a = _view(acts, at, shape)
        scale, shift = _view(scratch, 0, shape), _view(scratch, half, shape)
        cache.append((h, a))
        h = _hidden_layer(lay, h, emb, a, _view(acts, at + a.size, shape), None, scale, shift)
        at += 2 * a.size
    denoised = _affine(h, params.out_w, params.out_b)
    denoised *= c_out[:, None].astype(dt)
    denoised += skip
    del skip
    resid = denoised.astype(np.float64)
    resid -= x
    resid *= resid
    reported = float(np.sum(np.sum(resid, axis=1) * lam) / (n * d))
    del resid

    # dL/dF = 2 lam c_out (D - x) / (n d), per row
    g = np.subtract(denoised, x, out=denoised, dtype=dt)
    g *= (2.0 * lam * c_out / (n * d))[:, None].astype(dt)
    k = 6 * len(widths)  # the head's weight
    sink(k, h, g, scratch)
    sink(k + 1, None, g, scratch)
    g = np.matmul(g, params.out_w.T, out=h)  # the head input is dead
    for i in reversed(range(len(params.layers))):
        h, a = cache.pop()
        lay, k = params.layers[i], 6 * i
        # out = gamma * silu(a) + beta; g is dL/d(out).  s and u = silu(a)
        # as the forward formed them; a is dead once they are.
        # silu'(a) = s (1 + a (1 - s)) = s + u (1 - s), built in a's buffer;
        # then s is dead, and u's buffer takes g u
        s, u = _silu(a, _view(scratch, 0, a.shape), _view(scratch, half, a.shape))
        d_silu = np.subtract(1.0, s, out=a)
        d_silu *= u
        d_silu += s
        g_gamma = np.multiply(g, u, out=u)
        sink(k + 2, emb, g_gamma, scratch[:half])
        sink(k + 3, None, g_gamma, scratch[:half])
        sink(k + 4, emb, g, scratch[:half])
        sink(k + 5, None, g, scratch[:half])
        g *= _affine(emb, lay.gamma_w, lay.gamma_b, out=s)
        g *= d_silu
        sink(k, h, g, scratch)
        sink(k + 1, None, g, scratch)
        if i:
            g = np.matmul(g, lay.w.T, out=h)  # h is dead once its gradient is handed on
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
    """Adam moments, the EMA copy and the step count, under one
    TrainConfig.  m and v are flat vectors in the layout of
    DenoiserParams.trainable_flat."""

    m: np.ndarray
    v: np.ndarray
    ema: DenoiserParams
    cfg: TrainConfig
    step: int = 0

    @classmethod
    def init(cls, params: DenoiserParams, cfg: TrainConfig) -> "OptimizerState":
        flat = params.trainable_flat
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat), ema=params.copy(), cfg=cfg)


def inverse_lr(state: OptimizerState) -> float:
    """base_lr / (1 + step / _INV_GAMMA)^_POWER; equals base_lr at step 0."""
    if state.step < 0:
        raise ValueError(f"step must be >= 0, got {state.step}")
    return state.cfg.base_lr / (1.0 + state.step / _INV_GAMMA) ** _POWER


def _fold(g, m, v, t):
    """Fold g, a contiguous piece of the gradient, into the same pieces of
    Adam's moments m and v, in place, in pieces of the flat scratch t's
    size, so that each stays in cache through every op on it."""
    g, m, v = (z.reshape(-1) for z in (g, m, v))
    for lo in range(0, g.size, t.size):
        gp, mp, vp = (z[lo : lo + t.size] for z in (g, m, v))
        tp = t[: gp.size]
        # per element, the ops of the whole-tensor expressions, in their order
        mp *= _BETA1
        mp += np.multiply(gp, 1.0 - _BETA1, out=tp)
        vp *= _BETA2
        np.multiply(gp, gp, out=tp)
        tp *= 1.0 - _BETA2
        vp += tp


def _moment_sink(state: OptimizerState, cfg):
    """A dsm_loss sink that folds each gradient into state.m and state.v as
    the backward hands it on.  It forms the gradient in the dead scratch
    dsm_loss lends with it, before a temporary of _CHUNK values at the
    scratch's end: whole when it fits there, else in blocks of as many
    whole rows as fit, and folds each as soon as it is formed, _CHUNK
    values at a time.  So no gradient vector exists, and the sink
    allocates no array."""
    ms, vs = (_flat_views(cfg, vec, first=1) for vec in (state.m, state.v))

    def fold(k, a, b, free):
        m, v, t = ms[k], vs[k], free[free.size - _CHUNK :]
        if a is None:
            _fold(b.sum(axis=0, out=free[: m.size]), m, v, t)
            return
        rows = (free.size - _CHUNK) // m.shape[1]
        for r0 in range(0, m.shape[0], rows):
            mb, vb = m[r0 : r0 + rows], v[r0 : r0 + rows]
            # rows r0: of a.T @ b, with the whole product's bits
            g = np.matmul(a[:, r0 : r0 + rows].T, b, out=_view(free, 0, mb.shape))
            _fold(g, mb, vb, t)

    return fold


def _step(state: OptimizerState, params: DenoiserParams) -> None:
    """One Adam+EMA update, in place, from moments that already hold this
    step's gradient: Adam's parameter step with decoupled weight decay (lr
    * wd * p), then ema <- decay * ema + (1 - decay) * params on the
    updated weights.  One pass over _CHUNK-element pieces of the weights,
    m, v and the EMA, with two scratch pieces; counts the step."""
    lr = inverse_lr(state)
    state.step += 1
    bc1 = 1.0 - _BETA1**state.step
    bc2 = 1.0 - _BETA2**state.step
    wd, d = state.cfg.weight_decay, state.cfg.ema_decay
    vectors = (params.trainable_flat, state.m, state.v, state.ema.trainable_flat)
    scratch = np.empty((2, _CHUNK), params.dtype)
    for lo in range(0, vectors[0].size, _CHUNK):
        p_, m, v, e = (vec[lo : lo + _CHUNK] for vec in vectors)
        t, u = scratch[:, : p_.size]
        np.multiply(m, lr / bc1, out=t)  # / (sqrt(v / bc2) + eps), formed in u
        np.sqrt(np.divide(v, bc2, out=u), out=u)
        u += _EPS
        t /= u
        p_ -= t
        if wd:
            p_ -= np.multiply(p_, lr * wd, out=t)
        e *= d
        e += np.multiply(p_, 1.0 - d, out=t)


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
    matrix is ever touched, so labels cannot influence the result.  An
    epoch's batches are slices of one permutation of the rows, each centred
    by p.center, if set, as it is gathered; the final short one is used, not
    dropped.  Returns the EMA weights and one log entry per epoch: (epoch
    index, total optimizer steps completed, learning rate at the epoch
    start, mean batch loss).  Raises FloatingPointError as soon as a batch
    loss stops being finite.  The check follows that step's backward, which
    has already folded the step's gradient into Adam's moments, so m and v
    may hold it; the raw weights, the EMA and the step count are still those
    of the step before.  No loss checks the last step's update, so fit
    raises FloatingPointError too if, after it, a raw or EMA weight is not
    finite.

    fit holds four weight sets (the raw weights, the EMA, and Adam's m
    and v, all flat) and the step's workspace, and nothing else: no
    gradient vector.  The backward hands each gradient to _moment_sink,
    which forms it in the workspace's dead scratch and folds it into m
    and v, and then one pass over the four flat vectors (_step) takes
    Adam's parameter step and moves the EMA toward the updated weights.
    The workspace is laid out on the first step and reused by every later
    one.
    """
    x = np.asarray(getattr(dataset, "features", dataset))
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty 2-D feature array, got shape {x.shape}")
    n = x.shape[0]

    shuffle_rng = rng.split("shuffle")
    noise_rng = rng.split("train-noise")
    state = OptimizerState.init(params, cfg)
    fold, work = _moment_sink(state, params.config), []
    history: list[EpochLog] = []
    for epoch in range(cfg.epochs):
        lr_epoch = inverse_lr(state)
        losses = []
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            batch = x[idx] if p.center is None else x[idx] - p.center
            sigma = sample_train_sigma(noise_rng, noise_cfg, batch.shape[0])
            loss, _ = dsm_loss(params, p, batch, sigma, noise_rng, work=work, sink=fold)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss {loss} at epoch {epoch}, step {state.step}"
                )
            _step(state, params)
            losses.append(loss)
        entry = EpochLog(epoch, state.step, lr_epoch, float(np.mean(losses)))
        history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    # a float64 sum of float32 values is finite exactly when they all are,
    # and takes no weight-sized temporary
    for name, weights in (("raw", params), ("EMA", state.ema)):
        if not math.isfinite(weights.flat.sum(dtype=np.float64)):
            raise FloatingPointError(f"non-finite {name} weights after step {state.step}")
    return state.ema, history
