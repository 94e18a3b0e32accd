import numpy as np
import pytest

from vadiff import (
    CheckpointError,
    NetworkConfig,
    Preconditioner,
    Rng,
    as_denoiser,
    denoise,
    film,
    forward_raw,
    fourier_embed,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    scalings,
    silu,
)
from vadiff import network
from vadiff.network import _tensor_shapes


def tiny_config(dim=6):
    return NetworkConfig(input_dim=dim, encoder_widths=(8, 4), decoder_widths=(4, 8),
                         embed_dim=8)


def tiny_params(dim=6, seed=1, dtype=np.float64, randomize_output=True):
    params = init_params(tiny_config(dim), Rng(seed), dtype=dtype)
    if randomize_output:
        params.out_w = Rng(seed + 100).standard_normal(params.out_w.shape).astype(dtype) * 0.3
        params.out_b = Rng(seed + 200).standard_normal(params.out_b.shape).astype(dtype) * 0.1
    return params


# --- preconditioning scalings ------------------------------------------------

def test_scalings_unit_point():
    c_skip, c_out, c_in, c_noise = scalings(Preconditioner(1.0), 1.0)
    assert c_skip == 0.5
    assert abs(c_out - 1.0 / np.sqrt(2.0)) <= 1e-15
    assert abs(c_in - 1.0 / np.sqrt(2.0)) <= 1e-15
    assert c_noise == 0.0


def test_scalings_small_sigma_limit():
    c_skip, c_out, _, _ = scalings(Preconditioner(1.0), 1e-9)
    assert abs(c_skip - 1.0) <= 1e-12
    assert c_out <= 1e-8


def test_scalings_high_precision_point():
    # independent high-precision evaluation of sigma_d^2 / (sigma^2 + sigma_d^2)
    # at sigma_d = 0.5, sigma = 80
    c_skip, _, _, _ = scalings(Preconditioner(0.5), 80.0)
    assert abs(c_skip - 3.906097418069607e-05) <= 1e-15


def test_scalings_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        scalings(Preconditioner(1.0), 0.0)
    with pytest.raises(ValueError):
        scalings(Preconditioner(1.0), -1.0)


def test_preconditioner_requires_positive_sigma_data():
    with pytest.raises(ValueError):
        Preconditioner(0.0)
    with pytest.raises(ValueError):
        Preconditioner(float("nan"))


def test_scalings_vectorized_matches_scalar():
    p = Preconditioner(0.7)
    sig = np.array([0.01, 1.0, 55.0])
    vec = scalings(p, sig)
    for i, s in enumerate(sig):
        scal = scalings(p, float(s))
        for a, b in zip(vec, scal):
            assert abs(a[i] - b) <= 1e-15


# --- Fourier embedding and FiLM ----------------------------------------------

def test_fourier_embed_at_zero():
    params = tiny_params()
    emb = fourier_embed(params, 0.0)
    half = params.config.embed_dim // 2
    assert np.array_equal(emb[:half], np.ones(half))
    assert np.array_equal(emb[half:], np.zeros(half))


def test_fourier_embed_pythagorean_pairs():
    params = tiny_params()
    emb = fourier_embed(params, 0.37)
    half = params.config.embed_dim // 2
    pair_norms = emb[:half] ** 2 + emb[half:] ** 2
    assert np.abs(pair_norms - 1.0).max() <= 1e-12


def test_fourier_embed_distinct_inputs_distinct_outputs():
    params = tiny_params()
    a = fourier_embed(params, 0.1)
    b = fourier_embed(params, 0.2)
    assert not np.array_equal(a, b)


def test_fourier_embed_batched_rows():
    params = tiny_params()
    c = np.array([0.1, 0.2, 0.3])
    batch = fourier_embed(params, c)
    assert batch.shape == (3, params.config.embed_dim)
    for i, ci in enumerate(c):
        assert np.array_equal(batch[i], fourier_embed(params, float(ci)))


def test_film_identity_and_constant():
    h = Rng(3).standard_normal((4, 5))
    assert np.array_equal(film(h, np.ones(5), np.zeros(5)), h)
    const = film(h, np.zeros(5), np.full(5, 2.5))
    assert np.array_equal(const, np.full((4, 5), 2.5))


def test_film_matches_elementwise_loop():
    rng = Rng(8)
    h = rng.standard_normal((3, 4))
    gamma = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    got = film(h, gamma, beta)
    want = np.empty_like(h)
    for i in range(3):
        for j in range(4):
            want[i, j] = gamma[j] * h[i, j] + beta[j]
    assert np.abs(got - want).max() <= 1e-12


def test_film_width_mismatch():
    with pytest.raises(ValueError):
        film(np.ones((2, 3)), np.ones(4), np.zeros(4))


# --- SiLU ---------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_does_not_overflow(dtype):
    x = np.array([-1e4, -50.0, 50.0, 1e4], dtype=dtype)
    with np.errstate(all="raise"):
        got = silu(x)
    assert got.dtype == dtype
    assert np.abs(got[:2]).max() <= 1e-18
    assert np.array_equal(got[2:], [50.0, 1e4])


# --- raw forward and the preconditioned denoiser -------------------------------

def test_forward_cache_leaves_output_unchanged():
    params = tiny_params()
    x = Rng(14).standard_normal((4, 6))
    c_noise = np.array([0.1, -0.3, 0.7, 0.2])
    assert np.array_equal(forward_raw(params, x, c_noise, cache=[]),
                          forward_raw(params, x, c_noise))


def test_forward_shape_contract():
    params = tiny_params()
    for n in (1, 2, 7):
        x = Rng(n).standard_normal((n, 6))
        out = forward_raw(params, x, 0.3)
        assert np.asarray(out).shape == (n, 6)


def test_forward_zero_network_gives_zero():
    params = tiny_params(randomize_output=False)
    for lay in params.layers:
        lay.w[:] = 0.0
        lay.b[:] = 0.0
        lay.gamma_b[:] = 0.0  # silence the FiLM identity scale too
        lay.gamma_w[:] = 0.0
        lay.beta_w[:] = 0.0
        lay.beta_b[:] = 0.0
    x = Rng(2).standard_normal((3, 6))
    out = np.asarray(forward_raw(params, x, 0.5))
    assert np.array_equal(out, np.zeros((3, 6)))


def test_forward_deterministic():
    params = tiny_params()
    x = Rng(5).standard_normal((4, 6))
    a = np.asarray(forward_raw(params, x, 0.2))
    b = np.asarray(forward_raw(params, x, 0.2))
    assert np.array_equal(a, b)


def test_denoise_matches_manual_composition():
    params = tiny_params()
    p = Preconditioner(0.8)
    x = Rng(6).standard_normal((5, 6))
    sigma = 1.7
    got = denoise(params, p, x, sigma)
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    f = np.asarray(forward_raw(params, c_in * x, np.full(5, c_noise)))
    want = c_skip * x + c_out * f
    assert np.abs(got - want).max() <= 1e-12


def test_denoise_per_row_sigma_matches_scalar_calls():
    params = tiny_params()
    p = Preconditioner(1.1)
    x = Rng(7).standard_normal((3, 6))
    sig = np.array([0.5, 2.0, 11.0])
    got = denoise(params, p, x, sig)
    for i in range(3):
        row = denoise(params, p, x[i : i + 1], float(sig[i]))
        assert np.abs(got[i] - row[0]).max() <= 1e-12


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_forward_scalar_c_noise_matches_per_row_embedding():
    params = tiny_params(dtype=np.float32)
    x = Rng(15).standard_normal((5, 6)).astype(np.float32)
    shared = forward_raw(params, x, 0.4)
    per_row = forward_raw(params, x, np.full(5, 0.4))
    assert shared.dtype == np.float32
    assert _rel_err(shared, per_row) <= 1e-6


def test_denoise_runs_network_in_weight_dtype_keeps_input_dtype():
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(0.8)
    x = Rng(16).standard_normal((7, 6))
    got = denoise(params, p, x, 1.3)
    assert got.dtype == np.float64
    want = denoise(params.astype(np.float64), p, x, 1.3)
    assert _rel_err(got, want) <= 1e-5
    got32 = denoise(params, p, x.astype(np.float32), 1.3)
    assert got32.dtype == np.float32


def test_denoise_feeds_forward_weight_dtype_and_one_noise_level(monkeypatch):
    seen = []

    def spy(params, x_scaled, c_noise, **kwargs):
        seen.append((x_scaled.dtype, np.shape(c_noise)))
        return forward_raw(params, x_scaled, c_noise, **kwargs)

    monkeypatch.setattr(network, "forward_raw", spy)
    params = tiny_params(dtype=np.float32)
    x = Rng(18).standard_normal((5, 6))
    denoise(params, Preconditioner(1.0), x, 0.7)
    denoise(params, Preconditioner(1.0), x, np.full(5, 0.7))
    assert seen == [(np.float32, ()), (np.float32, (5,))]


def test_denoise_float32_scalar_sigma_matches_per_row_sigma():
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(1.1)
    x = Rng(17).standard_normal((6, 6))
    scalar = denoise(params, p, x, 2.5)
    per_row = denoise(params, p, x, np.full(6, 2.5))
    assert _rel_err(scalar, per_row) <= 1e-6


def test_denoise_identity_limit_small_sigma():
    params = tiny_params()
    p = Preconditioner(1.0)
    x = Rng(9).standard_normal((8, 6))
    sigma = 1e-6 * p.sigma_data
    out = denoise(params, p, x, sigma)
    assert np.abs(out - x).max() <= 1e-3 * np.abs(x).max()


def test_denoise_zeroed_network_is_pure_skip_scaling():
    params = tiny_params(randomize_output=False)  # zero output layer
    p = Preconditioner(0.9)
    x = Rng(4).standard_normal((4, 6))
    sigma = 2.0
    c_skip, _, _, _ = scalings(p, sigma)
    got = denoise(params, p, x, sigma)
    assert np.abs(got - c_skip * x).max() <= 1e-12


def test_batch_equivariance_under_permutation():
    params = tiny_params()
    p = Preconditioner(1.0)
    x = Rng(11).standard_normal((6, 6))
    perm = Rng(12).permutation(6)
    a = denoise(params, p, x, 0.9)[perm]
    b = denoise(params, p, x[perm], 0.9)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_forward_in_place_equals_cached_path_bitwise(dtype, per_row):
    # the widths 8, 4, 4, 8 make each layer use a different prefix of the buffers
    params = tiny_params(dtype=dtype)
    x = Rng(19).standard_normal((9, 6)).astype(dtype)
    c_noise = np.linspace(-0.5, 0.8, 9) if per_row else 0.3
    cached = forward_raw(params, x, c_noise, cache=[])
    work = []
    assert np.array_equal(forward_raw(params, x, c_noise), cached)
    assert np.array_equal(forward_raw(params, x, c_noise, work=work), cached)
    assert len(work) == 2 and all(buf.dtype == dtype for buf in work)
    assert np.array_equal(forward_raw(params, x, c_noise, work=work), cached)


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_denoiser_closure_reuse_matches_fresh_denoise(per_row):
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(0.9)
    den = as_denoiser(params, p)
    previous = None
    # the buffers shrink to a prefix, serve the full row count again, then grow
    for step, rows in enumerate((840, 2, 840, 1000)):
        x = Rng(30 + step).standard_normal((rows, 6))
        sigma = np.geomspace(0.05, 40.0, rows) if per_row else 1.7
        got = den(x, sigma)
        assert np.array_equal(got, denoise(params, p, x, sigma))
        if previous is not None:
            # a returned result never aliases the reused buffers
            assert np.array_equal(previous[0], previous[1])
        previous = (got, got.copy())


def test_denoise_rejects_nonpositive_sigma():
    params = tiny_params()
    with pytest.raises(ValueError):
        denoise(params, Preconditioner(1.0), np.ones((2, 6)), 0.0)


# --- parameters and checkpoints -----------------------------------------------

def test_param_count_matches_actual_tensors():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    total = sum(t.size for t in params.tensors())
    assert param_count(cfg) == total


def test_freqs_not_in_trainable_set():
    params = tiny_params()
    assert len(params.trainable()) == len(params.tensors()) - 1
    assert params.tensors()[0] is params.freqs


def test_init_is_seed_deterministic():
    a = init_params(tiny_config(), Rng(42))
    b = init_params(tiny_config(), Rng(42))
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_film_starts_as_identity():
    params = init_params(tiny_config(), Rng(0))
    for lay in params.layers:
        assert np.array_equal(lay.gamma_b, np.ones_like(lay.gamma_b))
        assert np.array_equal(lay.beta_b, np.zeros_like(lay.beta_b))
    assert np.array_equal(params.out_w, np.zeros_like(params.out_w))
    assert np.array_equal(params.out_b, np.zeros_like(params.out_b))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = tiny_params(dtype=np.float32)
    ema = tiny_params(seed=77, dtype=np.float32)
    center = Rng(5).standard_normal(6).astype(np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, ema, sigma_data=1.25, center=center)
    p2, e2, sd, c2 = load_checkpoint(path)
    assert sd == 1.25
    assert np.array_equal(c2, center)
    for a, b in zip(params.tensors(), p2.tensors()):
        assert np.array_equal(a, b)
    for a, b in zip(ema.tensors(), e2.tensors()):
        assert np.array_equal(a, b)
    assert p2.config == params.config


def test_checkpoint_without_center(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), sigma_data=0.5, center=None)
    _, _, sd, center = load_checkpoint(path)
    assert sd == 0.5
    assert center is None


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), sigma_data=1.0)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_tensor_shapes_match_init_params():
    cfg = tiny_config()
    want = [t.shape for t in init_params(cfg, Rng(0)).tensors()]
    assert [shape for _, shape in _tensor_shapes(cfg)] == want


def test_checkpoint_tensor_shape_checked_against_config(tmp_path):
    params = tiny_params(dtype=np.float32)
    bad = params.copy()
    bad.layers[0].w = np.zeros((4, 5), dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, bad, params, sigma_data=1.0)
    with pytest.raises(CheckpointError, match=r"layers\[0\]\.w has shape \(4, 5\), config implies \(6, 8\)"):
        load_checkpoint(path)


def test_checkpoint_non_ascii_activation(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params, sigma_data=1.0)
    path.write_bytes(path.read_bytes().replace(b"silu", b"sil\xe9", 1))
    with pytest.raises(CheckpointError, match="not ASCII"):
        load_checkpoint(path)
