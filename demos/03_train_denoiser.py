"""Train the denoiser on a toy feature set and watch the loss.

The training data here is deliberately structured (two tight clusters):
for a single isotropic Gaussian whose scale matches sigma_data, the
freshly initialized network is already the optimal denoiser and no
learning would be visible.
"""

import numpy as np

from vadiff import (
    FeatureSet,
    NetworkConfig,
    Rng,
    TrainConfig,
    TrainNoiseConfig,
    VideoRecord,
    denoise,
    estimate_sigma_data,
    fit,
    init_params,
)

# 1. two clusters at +-1 with small jitter, wrapped as a one-video set
rng = Rng(11)
dim = 8
half = 96
rows = np.concatenate([
    1.0 + 0.05 * rng.standard_normal((half, dim)),
    -1.0 + 0.05 * rng.standard_normal((half, dim)),
]).astype(np.float32)
fs = FeatureSet(
    features=rows,
    manifest=[VideoRecord(video_id="toy", frame_count=2 * half * 16,
                          segment_offset=0, segment_count=2 * half)],
)

p = estimate_sigma_data(fs)
print(f"estimated sigma_data: {p.sigma_data:.4f}")

# 2. fit for a few epochs; the per-epoch mean of the weighted loss is
#    returned so convergence is easy to inspect
cfg = NetworkConfig(input_dim=dim, encoder_widths=(32, 16), decoder_widths=(16, 32))
params = init_params(cfg, Rng(0))
ema, history = fit(
    fs, params, p,
    TrainConfig(epochs=60, batch_size=32, base_lr=3e-3, ema_decay=0.9),
    TrainNoiseConfig(p_mean=-0.6, p_std=1.0),
    Rng(5),
)
for log in history[::12] + history[-1:]:
    print(f"epoch {log.epoch:>3d}  step {log.step:>4d}  lr {log.lr:.2e}  loss {log.mean_loss:.4f}")

# 3. the learned denoiser should now pull a noisy point toward its cluster;
#    `params` was updated in place, `ema` is the averaged copy
x = np.full((1, dim), 1.0)
noisy = x + 0.6 * Rng(9).standard_normal((1, dim))
for label, ps in (("raw", params), ("ema", ema)):
    rec = denoise(ps, p, noisy, 0.6)
    print(f"{label}: |noisy - x| = {np.abs(noisy - x).mean():.3f}"
          f"  ->  |D(noisy) - x| = {np.abs(rec - x).mean():.3f}")
