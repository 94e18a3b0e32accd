import numpy as np
import pytest

from vadiff import (
    FeatureSet,
    NetworkConfig,
    OptimizerState,
    Preconditioner,
    Rng,
    TrainConfig,
    TrainNoiseConfig,
    VideoRecord,
    adam_step,
    denoise,
    dsm_loss,
    ema_update,
    fit,
    forward_raw,
    init_params,
    inverse_lr,
    loss_weight,
    param_count,
    sample_train_sigma,
    scalings,
)


def tiny_params(dim=6, seed=1, dtype=np.float64):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(8, 4), decoder_widths=(4, 8),
                        embed_dim=8)
    return init_params(cfg, Rng(seed), dtype=dtype)


# --- loss weighting -------------------------------------------------------------

def test_loss_weight_examples():
    assert loss_weight(Preconditioner(1.0), 1.0) == 2.0
    # (80^2 + 0.5^2) / (80 * 0.5)^2
    assert abs(loss_weight(Preconditioner(0.5), 80.0) - 4.00015625) <= 1e-12


def test_weight_cancels_output_scaling():
    # the weighting is exactly 1 / c_out(sigma)^2, so their product is 1
    for sigma_data in (0.25, 0.5, 1.0, 2.0):
        p = Preconditioner(sigma_data)
        for sigma in np.logspace(-4, 3, 1000):
            _, c_out, _, _ = scalings(p, float(sigma))
            assert abs(loss_weight(p, float(sigma)) * c_out**2 - 1.0) <= 1e-12


# --- noise-level sampling ---------------------------------------------------------

def test_train_sigma_log_moments():
    cfg = TrainNoiseConfig(p_mean=-1.2, p_std=1.2)
    sig = sample_train_sigma(Rng(0).split("train-noise"), cfg, 1_000_000)
    assert np.all(sig > 0)
    log = np.log(sig)
    assert -1.206 <= log.mean() <= -1.194
    assert abs(log.std() - 1.2) <= 0.01


def test_train_sigma_determinism_and_count():
    cfg = TrainNoiseConfig()
    a = sample_train_sigma(Rng(5), cfg, 100)
    b = sample_train_sigma(Rng(5), cfg, 100)
    assert a.shape == (100,)
    assert np.array_equal(a, b)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        TrainNoiseConfig(p_std=0.0)
    with pytest.raises(ValueError):
        TrainNoiseConfig(p_mean=float("nan"))


@pytest.mark.parametrize("bad", [-1e-4, float("nan"), float("inf")])
def test_train_config_rejects_bad_weight_decay(bad):
    with pytest.raises(ValueError, match="weight_decay"):
        TrainConfig(weight_decay=bad)
    TrainConfig(weight_decay=0.0)  # no decay is allowed


# --- DSM loss --------------------------------------------------------------------

def test_dsm_loss_single_row_compositional_oracle():
    params = tiny_params()
    params.out_w = Rng(50).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.9)
    x = Rng(51).standard_normal((1, 6))
    sigma = np.array([0.8])
    loss, _ = dsm_loss(params, p, x, sigma, Rng(52))

    # recompute by hand: same rng stream gives the same epsilon
    eps = Rng(52).standard_normal((1, 6))
    noised = x + eps * sigma[:, None]
    den = denoise(params, p, noised, sigma)
    want = loss_weight(p, float(sigma[0])) * float(np.sum((den - x) ** 2)) / 6.0
    assert abs(loss - want) <= 1e-10


def test_dsm_loss_zero_for_perfect_denoiser():
    # all-constant data equal to out_b reconstruction: zero every weight and
    # put the data point into the output bias, making D(x_t) == x for any t
    params = tiny_params()
    for lay in params.layers:
        for t in (lay.w, lay.b, lay.gamma_w, lay.gamma_b, lay.beta_w, lay.beta_b):
            t[:] = 0.0
    target = np.full(6, 1.7)
    x = np.tile(target, (16, 1))
    p = Preconditioner(1.0)

    # D = c_skip*x_t + c_out*F; choosing F = (x - c_skip*x_t)/c_out is not
    # reachable with constants, so check the opposite direction instead: the
    # loss of the best constant predictor is strictly positive while the loss
    # evaluated against its own reconstruction target is zero by construction
    sigma = np.full(16, 0.5)
    loss, grads = dsm_loss(params, p, x, sigma, Rng(3))
    assert loss > 0.0
    assert any(np.abs(g).max() > 0 for g in grads)


def test_dsm_loss_reported_in_float64():
    params = tiny_params(dtype=np.float32)
    x = Rng(60).standard_normal((4, 6)).astype(np.float32)
    sigma = sample_train_sigma(Rng(61), TrainNoiseConfig(), 4)
    loss, grads = dsm_loss(params, Preconditioner(1.0), x, sigma, Rng(62))
    assert isinstance(loss, float)
    assert np.isfinite(loss)
    assert all(g.dtype == np.float32 for g in grads)


def test_dsm_loss_gradient_matches_finite_differences():
    params = tiny_params()
    params.out_w = Rng(70).standard_normal(params.out_w.shape) * 0.2
    params.out_b = Rng(71).standard_normal(params.out_b.shape) * 0.1
    p = Preconditioner(1.0)
    x = Rng(72).standard_normal((3, 6))
    sigma = np.array([0.3, 1.0, 2.5])

    _, grads = dsm_loss(params, p, x, sigma, Rng(73))
    tensors = params.trainable()
    worst = 0.0
    for t_idx in (0, 3, len(tensors) - 2, len(tensors) - 1):
        tensor = tensors[t_idx]
        flat = tensor.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 3)):
            old = flat[k]
            h = 1e-6
            flat[k] = old + h
            up, _ = dsm_loss(params, p, x, sigma, Rng(73))
            flat[k] = old - h
            down, _ = dsm_loss(params, p, x, sigma, Rng(73))
            flat[k] = old
            fd = (up - down) / (2 * h)
            got = grads[t_idx].reshape(-1)[k]
            denom = max(abs(fd), abs(got), 1e-8)
            worst = max(worst, abs(fd - got) / denom)
    assert worst <= 1e-4


def test_dsm_loss_float32_gradients_match_float64():
    p64 = tiny_params()
    p64.out_w = Rng(80).standard_normal(p64.out_w.shape) * 0.3
    p64.out_b = Rng(81).standard_normal(p64.out_b.shape) * 0.1
    p32 = p64.astype(np.float32)
    p64 = p32.astype(np.float64)  # same weights, exactly representable in both
    x = Rng(82).standard_normal((16, 6)).astype(np.float32)
    sigma = sample_train_sigma(Rng(83), TrainNoiseConfig(), 16)
    _, g32 = dsm_loss(p32, Preconditioner(1.0), x, sigma, Rng(84))
    _, g64 = dsm_loss(p64, Preconditioner(1.0), x, sigma, Rng(84))
    assert len(g32) == len(g64) == len(p64.trainable())
    for a, b in zip(g32, g64):
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.abs(a - b).max() <= 1e-3 * np.abs(b).max()


def test_dsm_loss_peak_heap_is_four_cached_arrays_per_layer(peak_heap):
    """One step of the default network holds, at its peak, the cache (input,
    pre-activation, sigmoid and FiLM scale per hidden layer, plus the network
    input), two rows x widest working arrays and one gradient set."""
    cfg = NetworkConfig(input_dim=64)
    params = init_params(cfg, Rng(0))
    n = 2048
    x = Rng(1).standard_normal((n, 64)).astype(np.float32)
    sigma = sample_train_sigma(Rng(2), TrainNoiseConfig(), n)
    bound = 4 * (n * (4 * sum(cfg.hidden_widths) + 64) + 2 * n * max(cfg.hidden_widths)
                 + param_count(cfg))
    _, peak = peak_heap(lambda: dsm_loss(params, Preconditioner(1.0), x, sigma, Rng(3)))
    # a fifth cached array per layer, silu(a), would add 28 MiB to the 138 MiB bound
    assert peak < bound, (peak / 2**20, bound / 2**20)


# --- dsm_loss backward: the head's gradients and the SiLU derivative -------------

def head_gradient_oracle_inputs():
    """dsm_loss's head gradients and, from the same noise draw, dL/dF by hand."""
    params = tiny_params()
    params.out_w = Rng(77).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.8)
    x = Rng(78).standard_normal((5, 6))
    sigma = np.array([0.2, 0.5, 1.0, 3.0, 9.0])
    _, grads = dsm_loss(params, p, x, sigma, Rng(79))

    noised = x + Rng(79).standard_normal(x.shape) * sigma[:, None]
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    cache = []
    f = forward_raw(params, c_in[:, None] * noised, c_noise, cache=cache)
    den = c_skip[:, None] * noised + c_out[:, None] * f
    g = 2.0 * (loss_weight(p, sigma) * c_out)[:, None] * (den - x) / x.size
    return grads, cache[-1], g


def test_affine_mse_gradient_matches_closed_form():
    grads, head_in, g = head_gradient_oracle_inputs()
    want_w = np.zeros((head_in.shape[1], g.shape[1]))
    for i in range(head_in.shape[1]):
        for j in range(g.shape[1]):
            for r in range(g.shape[0]):
                want_w[i, j] += head_in[r, i] * g[r, j]
    assert np.abs(grads[-2] - want_w).max() <= 1e-12


def test_broadcast_bias_gradient_sums_over_rows():
    grads, _, g = head_gradient_oracle_inputs()
    want_b = np.zeros(g.shape[1])
    for r in range(g.shape[0]):
        want_b += g[r]
    assert np.abs(grads[-1] - want_b).max() <= 1e-12


def test_silu_gradient_matches_finite_differences():
    # large weights spread the pre-activations over the SiLU's curved range and
    # both tails; every hidden bias gradient passes through the SiLU derivative
    params = tiny_params()
    for i, lay in enumerate(params.layers):
        lay.w *= 6.0
        lay.b[:] = Rng(110 + i).standard_normal(lay.b.shape) * 3.0
    params.out_w = Rng(74).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(1.0)
    x = Rng(75).standard_normal((4, 6))
    sigma = np.array([0.1, 0.6, 1.8, 7.0])

    _, grads = dsm_loss(params, p, x, sigma, Rng(76))
    h = 1e-6
    for i, lay in enumerate(params.layers):
        fd = np.zeros(lay.b.size)
        for k in range(lay.b.size):
            old = lay.b[k]
            lay.b[k] = old + h
            up, _ = dsm_loss(params, p, x, sigma, Rng(76))
            lay.b[k] = old - h
            down, _ = dsm_loss(params, p, x, sigma, Rng(76))
            lay.b[k] = old
            fd[k] = (up - down) / (2 * h)
        got = grads[6 * i + 1]
        assert np.abs(fd - got).max() <= 1e-5 * np.abs(got).max(), f"layer {i}"


# --- optimizer -------------------------------------------------------------------

def test_inverse_lr_examples():
    params = tiny_params()
    state = OptimizerState.init(params, TrainConfig())
    assert inverse_lr(state) == 2e-4
    state.step = 20000
    assert abs(inverse_lr(state) - 1e-4) <= 1e-19
    state.step = 60000
    assert abs(inverse_lr(state) - 5e-5) <= 1e-19


def test_adam_zero_gradients_leave_weights_near_still():
    params = tiny_params()
    cfg = TrainConfig(weight_decay=0.0)
    state = OptimizerState.init(params, cfg)
    before = [t.copy() for t in params.trainable()]
    grads = [np.zeros_like(t) for t in params.trainable()]
    adam_step(state, params, grads)
    for b, t in zip(before, params.trainable()):
        assert np.array_equal(b, t)
    assert state.step == 1


def test_adam_first_step_size_is_lr_in_gradient_direction():
    params = tiny_params()
    cfg = TrainConfig(base_lr=1e-3, weight_decay=0.0)
    state = OptimizerState.init(params, cfg)
    before = [t.copy() for t in params.trainable()]
    grads = [Rng(80 + i).standard_normal(t.shape) for i, t in enumerate(params.trainable())]
    adam_step(state, params, grads)
    for b, t, g in zip(before, params.trainable(), grads):
        step = t - b
        # first Adam step is -lr * g/(|g| + eps') elementwise, magnitude ~= lr
        assert np.abs(np.abs(step) - 1e-3).max() <= 1e-5
        assert np.all(np.sign(step[g != 0]) == -np.sign(g[g != 0]))


def test_adam_decoupled_weight_decay_shrinks_weights():
    params = tiny_params()
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.1)
    state = OptimizerState.init(params, cfg)
    w = params.layers[0].w
    w[:] = 1.0
    grads = [np.zeros_like(t) for t in params.trainable()]
    adam_step(state, params, grads)
    assert np.abs(w - (1.0 - 1e-2 * 0.1)).max() <= 1e-12


def test_adam_determinism():
    def run():
        params = tiny_params()
        state = OptimizerState.init(params, TrainConfig())
        for s in range(3):
            grads = [Rng(90 + s).standard_normal(t.shape) for t in params.trainable()]
            adam_step(state, params, grads)
        return params

    a, b = run(), run()
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_adam_shape_mismatch_rejected():
    params = tiny_params()
    state = OptimizerState.init(params, TrainConfig())
    grads = [np.zeros_like(t) for t in params.trainable()]
    grads[0] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        adam_step(state, params, grads)


def test_ema_geometric_decay_oracle():
    params = tiny_params()
    cfg = TrainConfig(ema_decay=0.9)
    state = OptimizerState.init(params, cfg)
    w = params.layers[0].w
    e = state.ema.layers[0].w
    start = e.copy()
    w[:] = 5.0
    for _ in range(3):
        ema_update(state, params)
    # after n updates against a frozen target: d^n * start + (1 - d^n) * target
    want = 0.9**3 * start + (1 - 0.9**3) * 5.0
    assert np.abs(e - want).max() <= 1e-12


def test_ema_untouched_by_adam_and_vice_versa():
    params = tiny_params()
    state = OptimizerState.init(params, TrainConfig())
    snap = [t.copy() for t in state.ema.tensors()]
    grads = [Rng(7).standard_normal(t.shape) for t in params.trainable()]
    adam_step(state, params, grads)
    for s, t in zip(snap, state.ema.tensors()):
        assert np.array_equal(s, t)


# --- the fit loop ----------------------------------------------------------------

def small_dataset(n=64, dim=6, seed=0):
    # two tight clusters at +-1: learnable structure, unlike an isotropic
    # Gaussian for which the freshly initialized network is already optimal
    rng = Rng(seed)
    signs = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)[:, None]
    feats = (signs + 0.05 * rng.standard_normal((n, dim))).astype(np.float32)
    manifest = [VideoRecord("v0", 16 * n, 0, n)]
    return FeatureSet(feats, manifest)


def test_fit_loss_decreases():
    fs = small_dataset()
    params = tiny_params(dtype=np.float32)
    cfg = TrainConfig(epochs=30, batch_size=32, base_lr=1e-2, ema_decay=0.5)
    ema, history = fit(fs, params, Preconditioner(1.0), cfg, TrainNoiseConfig(), Rng(0))
    assert len(history) == 30
    first = np.mean([h.mean_loss for h in history[:5]])
    last = np.mean([h.mean_loss for h in history[-5:]])
    assert last < first
    assert history[0].lr == 1e-2  # first epoch logs the undecayed base rate


def test_fit_returns_ema_distinct_from_raw():
    fs = small_dataset()
    params = tiny_params(dtype=np.float32)
    cfg = TrainConfig(epochs=2, batch_size=32, ema_decay=0.999)
    ema, _ = fit(fs, params, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(0))
    assert ema is not params
    diffs = [np.abs(a - b).max() for a, b in zip(ema.trainable(), params.trainable())]
    assert max(diffs) > 0


def test_fit_seed_determinism():
    def run():
        fs = small_dataset()
        params = tiny_params(dtype=np.float32)
        cfg = TrainConfig(epochs=3, batch_size=32)
        ema, history = fit(fs, params, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(9))
        return ema, history

    (ea, ha), (eb, hb) = run(), run()
    for ta, tb in zip(ea.tensors(), eb.tensors()):
        assert np.array_equal(ta, tb)
    assert [h.mean_loss for h in ha] == [h.mean_loss for h in hb]


def test_fit_ignores_labels_entirely():
    feats = (Rng(1).standard_normal((64, 6)) * 0.5).astype(np.float32)
    labeled = FeatureSet(
        feats.copy(),
        [VideoRecord("v0", 16 * 64, 0, 64, labels=[0, 1] * 512)],
    )
    bare = FeatureSet(feats.copy(), [VideoRecord("v0", 16 * 64, 0, 64)])
    cfg = TrainConfig(epochs=2, batch_size=32)

    pa = tiny_params(dtype=np.float32)
    ea, _ = fit(labeled, pa, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(4))
    pb = tiny_params(dtype=np.float32)
    eb, _ = fit(bare, pb, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(4))
    for ta, tb in zip(ea.tensors(), eb.tensors()):
        assert np.array_equal(ta, tb)
    for ta, tb in zip(pa.tensors(), pb.tensors()):
        assert np.array_equal(ta, tb)


def test_fit_centres_each_batch_as_pre_centred_rows():
    """Centring by the record's float32 center as each batch is sliced trains
    to the same bits as rows centred beforehand."""
    fs = small_dataset()
    fs.features += np.linspace(-2.0, 3.0, 6, dtype=np.float32)
    center = fs.features.astype(np.float64).mean(axis=0)  # the record keeps it as float32
    centred = FeatureSet(fs.features - center.astype(np.float32), fs.manifest)
    cfg = TrainConfig(epochs=2, batch_size=24)

    def ema_bytes(data, p):
        ema, _ = fit(data, tiny_params(dtype=np.float32), p, cfg, TrainNoiseConfig(), Rng(5))
        return b"".join(t.tobytes() for t in ema.tensors())

    got = ema_bytes(fs, Preconditioner(0.5, center))
    assert got == ema_bytes(centred, Preconditioner(0.5))
    assert got != ema_bytes(fs, Preconditioner(0.5))


def test_fit_epoch_log_fields():
    fs = small_dataset(n=40)
    params = tiny_params(dtype=np.float32)
    cfg = TrainConfig(epochs=2, batch_size=16)
    _, history = fit(fs, params, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(0))
    assert [h.epoch for h in history] == [0, 1]
    # 40 rows at batch 16 -> 3 steps per epoch including the short tail
    assert [h.step for h in history] == [3, 6]
    assert all(np.isfinite(h.mean_loss) for h in history)
