import tracemalloc

import numpy as np
import pytest

from vadiff import network, training
from vadiff import (
    FeatureSet,
    NetworkConfig,
    OptimizerState,
    Preconditioner,
    Rng,
    TrainConfig,
    TrainNoiseConfig,
    VideoRecord,
    denoise,
    dsm_loss,
    fit,
    init_params,
    inverse_lr,
    loss_weight,
    param_count,
    sample_train_sigma,
    scalings,
)

from conftest import reference_forward


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
    params.out_w[...] = Rng(50).standard_normal(params.out_w.shape) * 0.3
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
    params.out_w[...] = Rng(70).standard_normal(params.out_w.shape) * 0.2
    params.out_b[...] = Rng(71).standard_normal(params.out_b.shape) * 0.1
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
    p64.out_w[...] = Rng(80).standard_normal(p64.out_w.shape) * 0.3
    p64.out_b[...] = Rng(81).standard_normal(p64.out_b.shape) * 0.1
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


def test_dsm_loss_sink_receives_each_gradient_once():
    """With a sink, the backward hands every trainable tensor's gradient on
    once, as (a, b) forming the default path's bits, and makes no vector.
    The scratch it lends holds a _CHUNK-value temporary beside at least
    _CHUNK values and a gradient row, and is dead: NaN written over it
    changes no gradient and not the loss."""
    params = tiny_params(dtype=np.float32)
    params.out_w[...] = Rng(37).standard_normal(params.out_w.shape) * 0.3
    x = Rng(38).standard_normal((9, 6)).astype(np.float32)
    sigma = sample_train_sigma(Rng(39), TrainNoiseConfig(), 9)
    formed = {}

    def sink(k, a, b, free):
        assert k not in formed
        assert free.dtype == b.dtype
        assert free.size >= training._CHUNK + max(training._CHUNK, b.shape[1])
        assert not np.shares_memory(free, b) and (a is None or not np.shares_memory(free, a))
        formed[k] = b.sum(axis=0) if a is None else a.T @ b
        free[...] = np.nan

    loss, none = dsm_loss(params, Preconditioner(0.7), x, sigma, Rng(40), sink=sink)
    want_loss, want = dsm_loss(params, Preconditioner(0.7), x, sigma, Rng(40))
    assert none is None and loss == want_loss
    assert sorted(formed) == list(range(len(want)))
    for k, g in enumerate(want):
        assert np.array_equal(formed[k], g), k


def step_ledger(cfg, rows):
    """Bytes of one step's workspace: two cached arrays per hidden layer
    (input, pre-activation) plus the head input and the network input, and
    two rows x widest scratch arrays, all float32."""
    widths = cfg.hidden_widths
    return 4 * rows * (2 * sum(widths) + cfg.input_dim + 2 * max(widths))


def test_dsm_loss_peak_heap_is_two_cached_arrays_per_layer(peak_heap):
    """One step of the default network holds, at its peak, its ledger: the
    workspace, one gradient vector, the Fourier embedding and the float32
    output, and beyond it one float64 rows x dim array (the residual) and
    a few per-row values.  At 2048 rows that is 84.44 MiB against an 84.54
    bound, where the noised batch kept beside two float64 products and the
    embedding's cos and sin halves took 86.38."""
    cfg = NetworkConfig(input_dim=64)
    params = init_params(cfg, Rng(0))
    n = 2048
    x = Rng(1).standard_normal((n, 64)).astype(np.float32)
    sigma = sample_train_sigma(Rng(2), TrainNoiseConfig(), n)
    ledger = step_ledger(cfg, n) + 4 * param_count(cfg) + 4 * n * (cfg.embed_dim + 64)
    bound = ledger + 8 * n * 64 + 8 * n * 16
    _, peak = peak_heap(lambda: dsm_loss(params, Preconditioner(1.0), x, sigma, Rng(3)))
    # caching sigmoid(a) again would add 14 MiB to the 84.5 MiB bound
    assert peak < bound, (peak / 2**20, bound / 2**20)


def pipeline_fit(on_epoch=None):
    """fit at the benchmark pipeline's shape: 2100 x 64 rows, 512-row batches
    (the last of each epoch 52 rows), 2 epochs, the default network."""
    x = Rng(40).standard_normal((2100, 64)).astype(np.float32)
    params = init_params(NetworkConfig(input_dim=64), Rng(41))
    return fit(x, params, Preconditioner(1.0), TrainConfig(epochs=2, batch_size=512),
               TrainNoiseConfig(), Rng(42), on_epoch=on_epoch)


def test_fit_peak_heap_at_pipeline_shape(peak_heap):
    """Four weight sets (raw, EMA, Adam's m and v), one 512-row workspace, a
    few chunk-sized scratch blocks, the features and a few float64 batch
    arrays: 57 MiB, where a gradient vector beside them took 66 MiB."""
    cfg = NetworkConfig(input_dim=64)
    bound = (4 * 4 * param_count(cfg) + step_ledger(cfg, 512) + 4 * 4 * training._CHUNK
             + 4 * 2100 * 64 + 8 * 8 * 512 * 64)
    _, peak = peak_heap(pipeline_fit)
    assert peak < bound < 61 * 2**20, (peak / 2**20, bound / 2**20)


def test_fit_steps_after_the_first_allocate_no_step_sized_memory():
    """No page churn: once the first step has sized the workspace, a step
    allocates only a few rows x dim arrays and the update's two scratch
    chunks, not a gradient set or a cache."""
    held = []

    def on_epoch(entry):
        if entry.epoch == 0:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        pipeline_fit(on_epoch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < 6 * 512 * 64 * 8 + 2 * 4 * training._CHUNK, (peak - held[0]) / 2**20


# --- dsm_loss backward: the head's gradients and the SiLU derivative -------------

def head_gradient_oracle_inputs():
    """dsm_loss's head gradients and, from the same noise draw, dL/dF by hand."""
    params = tiny_params()
    params.out_w[...] = Rng(77).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.8)
    x = Rng(78).standard_normal((5, 6))
    sigma = np.array([0.2, 0.5, 1.0, 3.0, 9.0])
    _, grads = dsm_loss(params, p, x, sigma, Rng(79))

    noised = x + Rng(79).standard_normal(x.shape) * sigma[:, None]
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    f, cache, _ = reference_forward(params.tensors(), c_in[:, None] * noised, c_noise)
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
    params.out_w[...] = Rng(74).standard_normal(params.out_w.shape) * 0.3
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


def adam_ema_step(state, params, grad):
    """One training update from a whole flat gradient vector: fold it into
    Adam's moments, then the fused Adam+EMA step over the flat vectors."""
    training._fold(grad, state.m, state.v, np.empty_like(grad))
    training._step(state, params)


def test_adam_zero_gradients_leave_weights_near_still():
    params = tiny_params()
    cfg = TrainConfig(weight_decay=0.0)
    state = OptimizerState.init(params, cfg)
    before = params.trainable_flat.copy()
    adam_ema_step(state, params, np.zeros_like(before))
    assert np.array_equal(before, params.trainable_flat)
    assert state.step == 1


def test_adam_first_step_size_is_lr_in_gradient_direction():
    params = tiny_params()
    cfg = TrainConfig(base_lr=1e-3, weight_decay=0.0)
    state = OptimizerState.init(params, cfg)
    before = params.trainable_flat.copy()
    g = Rng(80).standard_normal(before.shape)
    adam_ema_step(state, params, g)
    step = params.trainable_flat - before
    # first Adam step is -lr * g/(|g| + eps') elementwise, magnitude ~= lr
    assert np.abs(np.abs(step) - 1e-3).max() <= 1e-5
    assert np.all(np.sign(step[g != 0]) == -np.sign(g[g != 0]))


def test_adam_decoupled_weight_decay_shrinks_weights():
    params = tiny_params()
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.1)
    state = OptimizerState.init(params, cfg)
    w = params.layers[0].w
    w[:] = 1.0
    adam_ema_step(state, params, np.zeros_like(params.trainable_flat))
    assert np.abs(w - (1.0 - 1e-2 * 0.1)).max() <= 1e-12


def test_adam_determinism():
    def run():
        params = tiny_params()
        state = OptimizerState.init(params, TrainConfig())
        for s in range(3):
            adam_ema_step(state, params,
                          Rng(90 + s).standard_normal(params.trainable_flat.shape))
        return params

    a, b = run(), run()
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_ema_geometric_decay_oracle():
    # zero gradients and no weight decay hold the weights still (see above),
    # so the EMA moves toward a frozen target
    params = tiny_params()
    cfg = TrainConfig(ema_decay=0.9, weight_decay=0.0)
    state = OptimizerState.init(params, cfg)
    w = params.layers[0].w
    e = state.ema.layers[0].w
    start = e.copy()
    w[:] = 5.0
    for _ in range(3):
        adam_ema_step(state, params, np.zeros_like(params.trainable_flat))
    # after n updates against a frozen target: d^n * start + (1 - d^n) * target
    want = 0.9**3 * start + (1 - 0.9**3) * 5.0
    assert np.abs(e - want).max() <= 1e-12


def test_ema_untouched_by_adam_and_vice_versa():
    """Folding a gradient into Adam's moments leaves the EMA as it was, and
    the step's new weights and moments do not depend on the EMA's value."""
    params = tiny_params()
    state = OptimizerState.init(params, TrainConfig())
    snap = [t.copy() for t in state.ema.tensors()]
    g = Rng(7).standard_normal(params.trainable_flat.shape)
    training._fold(g, state.m, state.v, np.empty_like(g))
    for s, t in zip(snap, state.ema.tensors()):
        assert np.array_equal(s, t)

    after = []
    for ema_start in (0.0, 1e3):
        p_, st = params.copy(), OptimizerState(state.m.copy(), state.v.copy(),
                                              state.ema.copy(), state.cfg)
        st.ema.trainable_flat[...] = ema_start
        training._step(st, p_)
        after.append((p_.flat, st.m, st.v))
    for a, b in zip(*after):
        assert np.array_equal(a, b)


def test_fused_step_ema_reads_the_post_step_weights():
    """One chunked pass gives, bit for bit, the two passes it replaces:
    Adam's parameter step over the whole flat vectors, then the EMA of the
    weights that step left."""
    params = tiny_params(dtype=np.float32)
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.1, ema_decay=0.9)
    state = OptimizerState.init(params, cfg)
    state.ema.trainable_flat[...] = Rng(8).standard_normal(state.m.shape)
    for s in range(2):  # step 2 has a smaller rate and a moving EMA
        g = Rng(9 + s).standard_normal(state.m.shape).astype(np.float32)
        training._fold(g, state.m, state.v, np.empty_like(g))
        lr, step = inverse_lr(state), state.step + 1
        p_, e = params.trainable_flat.copy(), state.ema.trainable_flat.copy()
        stale = e * cfg.ema_decay + (1.0 - cfg.ema_decay) * p_  # the EMA of the old weights
        # pass 1, Adam
        bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
        p_ -= (lr / bc1) * state.m / (np.sqrt(state.v / bc2) + 1e-8)
        p_ -= (lr * cfg.weight_decay) * p_
        # pass 2, the EMA of the updated weights
        e *= cfg.ema_decay
        e += (1.0 - cfg.ema_decay) * p_

        training._step(state, params)
        assert state.step == step
        assert np.array_equal(params.trainable_flat, p_)
        assert np.array_equal(state.ema.trainable_flat, e)
        assert not np.array_equal(state.ema.trainable_flat, stale)


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


# --- bit-exactness oracle: the list-based training step, one array per tensor ----

def ref_dsm_loss(ts, p, x, sigma, rng):
    """dsm_loss as a plain list-based reference: ts lists every tensor in
    _tensor_shapes order; the forward is reference_forward, whose cache
    keeps (h, a, sigmoid(a), gamma) per layer."""
    n, d = x.shape
    dt = ts[0].dtype
    eps = rng.standard_normal(x.shape, dtype=np.float64)
    noised = x.astype(np.float64) + eps * sigma[:, None]
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    lam = loss_weight(p, sigma)
    f, cache, emb = reference_forward(ts, (c_in[:, None] * noised).astype(dt), c_noise)
    h = cache.pop()
    denoised = f * c_out[:, None].astype(dt)
    denoised += (c_skip[:, None] * noised).astype(dt)
    resid = denoised.astype(np.float64) - x.astype(np.float64)
    loss = float(np.sum(np.sum(resid**2, axis=1) * lam) / (n * d))

    g = denoised - x.astype(dt)
    g *= (2.0 * lam * c_out / (n * d))[:, None].astype(dt)
    grads = [h.T @ g, g.sum(axis=0)]
    g = g @ ts[-2].T
    for i in reversed(range(len(cache))):
        h, a, s, gamma = cache[i]
        u = a * s
        g_gamma = g * u
        layer_grads = [emb.T @ g_gamma, g_gamma.sum(axis=0), emb.T @ g, g.sum(axis=0)]
        g *= gamma
        u *= 1.0 - s
        u += s
        g *= u
        grads[:0] = [h.T @ g, g.sum(axis=0)] + layer_grads
        g = g @ ts[1 + 6 * i].T
    return loss, grads


def ref_fit(x, ts, p, cfg, noise_cfg, rng):
    """fit with per-tensor Adam and EMA; returns (params, ema, m, v) as lists."""
    shuffle_rng, noise_rng = rng.split("shuffle"), rng.split("train-noise")
    ts = [t.copy() for t in ts]
    ema = [t.copy() for t in ts]
    m, v = [np.zeros_like(t) for t in ts[1:]], [np.zeros_like(t) for t in ts[1:]]
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(x.shape[0])
        for lo in range(0, x.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            sigma = sample_train_sigma(noise_rng, noise_cfg, idx.size)
            _, grads = ref_dsm_loss(ts, p, x[idx], sigma, noise_rng)
            lr = cfg.base_lr / (1.0 + step / 20000.0)
            step += 1
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for p_, g, m_, v_ in zip(ts[1:], grads, m, v):
                m_ *= 0.9
                m_ += (1.0 - 0.9) * g
                v_ *= 0.999
                v_ += (1.0 - 0.999) * (g * g)
                p_ -= (lr / bc1) * m_ / (np.sqrt(v_ / bc2) + 1e-8)
                p_ -= (lr * cfg.weight_decay) * p_
            for e, p_ in zip(ema[1:], ts[1:]):
                e *= cfg.ema_decay
                e += (1.0 - cfg.ema_decay) * p_
    return ts, ema, m, v


TINY = NetworkConfig(input_dim=6, encoder_widths=(8, 4), decoder_widths=(4, 8), embed_dim=8)
DEFAULT_64 = NetworkConfig(input_dim=64)


def assert_fit_matches_reference(monkeypatch, cfg, rows, batch):
    """Three steps, the last on a short batch: the flat weights, the EMA and
    Adam's moments equal a per-tensor reference's in every bit."""
    x = (Rng(20).standard_normal((rows, cfg.input_dim)) * 0.7).astype(np.float32)
    params = init_params(cfg, Rng(21))
    params.out_w[...] = Rng(22).standard_normal(params.out_w.shape) * 0.1
    train_cfg = TrainConfig(epochs=1, batch_size=batch, ema_decay=0.9)
    want = ref_fit(x, params.tensors(), Preconditioner(0.8), train_cfg, TrainNoiseConfig(),
                   Rng(23))
    states = []
    init = OptimizerState.init
    monkeypatch.setattr(OptimizerState, "init",
                        lambda *a: states.append(init(*a)) or states[-1])
    ema, history = fit(x, params, Preconditioner(0.8), train_cfg, TrainNoiseConfig(), Rng(23))
    assert history[-1].step == 3 and rows % batch
    (state,) = states
    got = [params.tensors(), ema.tensors(), state.m, state.v]
    flat = [np.concatenate([t.ravel() for t in ts]) for ts in want]
    for name, a, b in zip(("params", "ema", "m", "v"), got, flat):
        a = np.concatenate([t.ravel() for t in a]) if isinstance(a, list) else a
        assert a.dtype == np.float32 and np.array_equal(a, b), name


@pytest.mark.parametrize("cfg, rows, batch", [(TINY, 40, 16), (DEFAULT_64, 100, 48)],
                         ids=["tiny", "default-dim64"])
def test_fit_matches_list_based_reference_bit_for_bit(monkeypatch, cfg, rows, batch):
    assert_fit_matches_reference(monkeypatch, cfg, rows, batch)


@pytest.mark.parametrize("cfg, rows, batch, chunk", [
    (TINY, 40, 16, 3),  # every gradient whole in the scratch
    (TINY, 37, 16, 7),  # the 5-row tail reuses the 16-row layout
    (DEFAULT_64, 100, 48, 255),  # every hidden weight in row blocks
    (DEFAULT_64, 100, 48, 1023),
], ids=["tiny-3", "tiny-7", "default-dim64-255", "default-dim64-1023"])
def test_fit_matches_reference_across_chunk_boundaries(monkeypatch, cfg, rows, batch, chunk):
    """fit forms each weight gradient in the step's dead scratch, whole where
    it fits and else in row blocks sized to that scratch, and folds each
    into Adam's moments.  A small _CHUNK leaves the scratch at 2 x rows x
    widest, which holds the tiny network's gradients whole and blocks the
    default one's hidden weights: either way gives the bits of the
    whole-tensor reference.  Each last, short batch (8 rows of 40, 5 of 37,
    4 of 100) runs in the layout its full batches laid out."""
    monkeypatch.setattr(training, "_CHUNK", chunk)
    assert_fit_matches_reference(monkeypatch, cfg, rows, batch)


WIDE = NetworkConfig(input_dim=6, encoder_widths=(16, 8), decoder_widths=(8, 16), embed_dim=8)


@pytest.mark.parametrize("chunk, batches, blocked", [
    (training._CHUNK, [9], False),  # the floor holds every gradient beside its temporary
    (1, [3], True),  # 2 x 3 x 16 values of scratch, below a 16 x 8 weight
    (1, [20, 3], False),  # 3 rows in the scratch that 20 laid out
], ids=["whole", "blocked", "short-after-long"])
def test_moment_sink_folds_the_default_gradients_bit_for_bit(monkeypatch, chunk, batches,
                                                            blocked):
    """fit's sink leaves Adam's m and v with the bits of folding the default
    sink's flat gradient vector, however its scratch makes it block."""
    monkeypatch.setattr(training, "_CHUNK", chunk)
    params = init_params(WIDE, Rng(50), dtype=np.float32)
    params.out_w[...] = Rng(51).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.7)
    state = OptimizerState.init(params, TrainConfig())
    state.m[...] = Rng(52).standard_normal(state.m.size) * 1e-3
    state.v[...] = Rng(53).uniform(0.0, 1e-6, state.v.size)
    m, v = state.m.copy(), state.v.copy()
    fold, work = training._moment_sink(state, WIDE), []
    for i, n in enumerate(batches):
        x = Rng(54 + i).standard_normal((n, 6)).astype(np.float32)
        sigma = sample_train_sigma(Rng(56 + i), TrainNoiseConfig(), n)
        loss, _ = dsm_loss(params, p, x, sigma, Rng(58 + i), work=work, sink=fold)
        want_loss, grads = dsm_loss(params, p, x, sigma, Rng(58 + i))
        flat = np.concatenate([g.ravel() for g in grads])
        training._fold(flat, m, v, np.empty_like(flat))
        assert loss == want_loss
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v), n
    largest = max(t.size for t in params.trainable())
    assert (work[-1].size < largest) == blocked
    assert blocked or work[-1].size // 2 - training._CHUNK >= largest


def test_moment_sink_allocates_no_array():
    """fit's sink forms and folds every gradient in the scratch it is lent:
    no call grows the heap by more than a few array views, where the
    gradient of a weight is at least 128 KiB."""
    params = init_params(DEFAULT_64, Rng(60))
    state = OptimizerState.init(params, TrainConfig())
    fold, work, grown = training._moment_sink(state, DEFAULT_64), [], []
    x = Rng(61).standard_normal((48, 64)).astype(np.float32)
    sigma = sample_train_sigma(Rng(62), TrainNoiseConfig(), 48)
    dsm_loss(params, Preconditioner(1.0), x, sigma, Rng(63), work=work, sink=fold)

    def traced(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fold(*args)
        grown.append(tracemalloc.get_traced_memory()[1] - held)

    tracemalloc.start()
    try:
        dsm_loss(params, Preconditioner(1.0), x, sigma, Rng(64), work=work, sink=traced)
    finally:
        tracemalloc.stop()
    assert len(grown) == len(params.trainable()) and max(grown) < 4096, max(grown)


def test_fit_non_finite_loss_leaves_weights_and_ema_of_the_step_before(monkeypatch):
    """A NaN noise level in the third step makes its loss NaN: fit raises
    FloatingPointError, and the raw weights, the EMA and the step count
    are those after two steps (Adam's moments may hold the third step's
    gradient, which the backward folded in before the check)."""
    def run(params, epochs):
        cfg = TrainConfig(epochs=epochs, batch_size=32, ema_decay=0.9)
        return fit(small_dataset(), params, Preconditioner(0.5), cfg, TrainNoiseConfig(), Rng(6))

    before = tiny_params(dtype=np.float32)
    ema, _ = run(before, epochs=1)  # 64 rows: two steps
    draw, calls = training.sample_train_sigma, []

    def poisoned(*a):
        calls.append(1)
        sigma = draw(*a)
        if len(calls) == 3:
            sigma[0] = np.nan
        return sigma

    monkeypatch.setattr(training, "sample_train_sigma", poisoned)
    states = []
    init = OptimizerState.init
    monkeypatch.setattr(OptimizerState, "init",
                        lambda *a: states.append(init(*a)) or states[-1])
    params = tiny_params(dtype=np.float32)
    with pytest.raises(FloatingPointError, match="step 2"):
        run(params, epochs=2)
    (state,) = states
    assert state.step == 2
    assert np.array_equal(params.flat, before.flat)
    assert np.array_equal(state.ema.flat, ema.flat)


def test_dsm_loss_reused_work_gives_the_same_gradients():
    """A reused workspace, after a call with more rows, gives the gradients a
    fresh one does, and both equal the list-based reference's bits."""
    params = tiny_params(dtype=np.float32)
    params.out_w[...] = Rng(30).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.7)
    work = []
    big = Rng(31).standard_normal((20, 6)).astype(np.float32)
    dsm_loss(params, p, big, sample_train_sigma(Rng(32), TrainNoiseConfig(), 20), Rng(33),
             work=work)
    x = Rng(34).standard_normal((7, 6)).astype(np.float32)
    sigma = sample_train_sigma(Rng(35), TrainNoiseConfig(), 7)
    loss, reused = dsm_loss(params, p, x, sigma, Rng(36), work=work)
    fresh_loss, fresh = dsm_loss(params, p, x, sigma, Rng(36))
    ref_loss, ref = ref_dsm_loss(params.tensors(), p, x, sigma, Rng(36))
    assert loss == fresh_loss == ref_loss
    assert len(reused) == len(fresh) == len(ref) == len(params.trainable())
    for a, b, c in zip(reused, fresh, ref):
        assert np.array_equal(a, c) and np.array_equal(b, c)
    assert np.shares_memory(reused[0], work[0]) and not np.shares_memory(fresh[0], work[0])


@pytest.mark.parametrize("rows", [1, 2, 7, 65])
@pytest.mark.parametrize("dtypes", [(np.float32,) * 2, (np.float64,) * 2,
                                    (np.float32, np.float64)], ids=["f32", "f64", "mixed"])
def test_dsm_loss_pieces_give_the_reference_bits(monkeypatch, rows, dtypes):
    """However the piece size cuts the rows of each hidden layer's bias,
    sigmoid, SiLU and FiLM, dsm_loss gives the loss and gradients of the
    list-based reference, in every bit, with float32 and float64 weights
    and with float64 rows on float32 weights."""
    weights, inputs = dtypes
    params = tiny_params(dtype=weights)
    params.out_w[...] = Rng(rows).standard_normal(params.out_w.shape) * 0.3
    p = Preconditioner(0.7)
    x = Rng(rows + 1).standard_normal((rows, 6)).astype(inputs)
    sigma = sample_train_sigma(Rng(rows + 2), TrainNoiseConfig(), rows)
    ref_loss, ref = ref_dsm_loss(params.tensors(), p, x, sigma, Rng(rows + 3))
    for chunk in (1, 20, 27, network._CHUNK):
        monkeypatch.setattr(network, "_CHUNK", chunk)
        loss, grads = dsm_loss(params, p, x, sigma, Rng(rows + 3))
        assert loss == ref_loss, chunk
        for k, (a, b) in enumerate(zip(grads, ref)):
            assert a.dtype == weights and np.array_equal(a, b), (chunk, k)
