import io

import numpy as np
import pytest

from vadiff import (
    CheckpointError,
    NetworkConfig,
    Preconditioner,
    Rng,
    TrainNoiseConfig,
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
)
from vadiff import network
from vadiff.network import _tensor_shapes

from conftest import map_of, reference_forward


def tiny_config(dim=6):
    return NetworkConfig(input_dim=dim, encoder_widths=(8, 4), decoder_widths=(4, 8),
                         embed_dim=8)


def tiny_params(dim=6, seed=1, dtype=np.float64, randomize_output=True):
    params = init_params(tiny_config(dim), Rng(seed), dtype=dtype)
    if randomize_output:
        params.out_w[...] = Rng(seed + 100).standard_normal(params.out_w.shape).astype(dtype) * 0.3
        params.out_b[...] = Rng(seed + 200).standard_normal(params.out_b.shape).astype(dtype) * 0.1
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
        got = x * network._sigmoid(x)
    assert got.dtype == dtype
    assert np.abs(got[:2]).max() <= 1e-18
    assert np.array_equal(got[2:], [50.0, 1e4])


def test_silu_on_plain_arrays():
    x = np.array([0.0, 1.0, -1.0])
    got = x * network._sigmoid(x)
    want = x / (1.0 + np.exp(-x))
    assert np.allclose(got, want, atol=1e-15)
    assert got[0] == 0.0


# --- the affines inside forward_raw, against loops -----------------------------
# forward_raw keeps no activations, so each layer's affine is read from the
# reference forward, after checking that forward_raw gives its output bits

def one_layer_params(dim, width):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(width,), decoder_widths=(dim,),
                        embed_dim=2)
    return init_params(cfg, Rng(0), dtype=np.float64)


def first_preactivation(params, x):
    f, cache, _ = reference_forward(params.tensors(), x, 0.0)
    assert np.array_equal(forward_raw(params, x, 0.0), f)
    return cache[0][1]


def matmul_loop_oracle(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_matches_triple_loop_oracle():
    params = tiny_params()
    x = Rng(13).standard_normal((5, 6))
    f = forward_raw(params, x, 0.4)
    want, cache, _ = reference_forward(params.tensors(), x, 0.4)
    assert np.array_equal(f, want)
    assert len(cache) == len(params.layers) + 1
    for lay, (h, a, _, _) in zip(params.layers, cache):
        assert np.abs(a - (matmul_loop_oracle(h, lay.w) + lay.b)).max() <= 1e-12
    assert np.array_equal(cache[0][0], x)
    assert np.abs(f - (matmul_loop_oracle(cache[-1], params.out_w) + params.out_b)).max() <= 1e-12


def test_affine_identity():
    params = one_layer_params(2, 2)
    params.layers[0].w[...] = np.eye(2)
    params.layers[0].b[...] = np.zeros(2)
    assert np.array_equal(first_preactivation(params, np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_affine_hand_arithmetic():
    params = one_layer_params(2, 1)
    params.layers[0].w[...] = np.array([[2.0], [3.0]])
    params.layers[0].b[...] = np.array([1.0])
    assert np.array_equal(first_preactivation(params, np.array([[1.0, 1.0]])), [[6.0]])


def test_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_raw(tiny_params(), np.ones((2, 5)), 0.1)


# --- raw forward and the preconditioned denoiser -------------------------------

def test_forward_cache_leaves_output_unchanged():
    """forward_raw, which keeps no activation, gives the bits of the
    reference forward, which caches every layer's."""
    params = tiny_params()
    x = Rng(14).standard_normal((4, 6))
    c_noise = np.array([0.1, -0.3, 0.7, 0.2])
    assert np.array_equal(reference_forward(params.tensors(), x, c_noise)[0],
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_denoise_float64_input_gives_the_float64_expression_bits(dtype, per_row):
    """On float64 x every scaling is the float64 product of the plain
    expression c_skip * x + c_out * F(c_in * x), whatever the weights' dtype."""
    params = tiny_params(dtype=dtype)
    p = Preconditioner(0.8)
    x = Rng(21).standard_normal((9, 6))
    sigma = np.geomspace(0.05, 40.0, 9) if per_row else 1.7
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    if per_row:
        c_skip, c_out, c_in = c_skip[:, None], c_out[:, None], c_in[:, None]
    want = c_skip * x + c_out * forward_raw(params, (c_in * x).astype(dtype), c_noise)
    got = denoise(params, p, x, sigma)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_denoise_about_a_base_keeps_a_small_displacement_precise(per_row):
    """With base, a float32 displacement 1e-3 beside rows of scale 6 gives
    D(base + x) - base within 1e-6 of its float64 value, the network fed
    the same float32 input: without base, a float32 x = base + displacement
    carries float32's spacing at 6, far beyond that."""
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(0.8)
    base = (Rng(23).standard_normal((9, 6)) + 6.0).astype(np.float32)
    x = (Rng(24).standard_normal((9, 6)) * 1e-3).astype(np.float32)
    sigma = np.geomspace(7e-4, 2e-3, 9) if per_row else 7e-4
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    if per_row:
        c_skip, c_out, c_in = c_skip[:, None], c_out[:, None], c_in[:, None]
    f = forward_raw(params, c_in.astype(np.float32) * (base + x), c_noise).astype(np.float64)
    want = c_skip * (base + x.astype(np.float64)) + c_out * f - base
    got = denoise(params, p, x, sigma, base=base)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    plain = denoise(params, p, base + x, sigma) - base.astype(np.float64)
    assert np.abs(plain - want).max() > 1e-4 * np.abs(want).max()


def test_denoise_about_a_zero_base_gives_the_plain_bits():
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(0.8)
    x = Rng(25).standard_normal((9, 6)).astype(np.float32)
    got = denoise(params, p, x, 0.3, base=np.zeros(6, np.float32))
    assert got.tobytes() == denoise(params, p, x, 0.3).tobytes()


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_denoise_float32_input_scales_in_float32(per_row):
    """On float32 x each scaling is cast to float32 before its product, so
    no product, and not the skip path, is formed in float64."""
    params = tiny_params(dtype=np.float32)
    p = Preconditioner(0.8)
    x = Rng(22).standard_normal((9, 6)).astype(np.float32)
    sigma = np.geomspace(0.05, 40.0, 9) if per_row else 1.7
    c_skip, c_out, c_in, c_noise = (np.asarray(c, np.float32) for c in scalings(p, sigma))
    if per_row:
        c_skip, c_out, c_in = c_skip[:, None], c_out[:, None], c_in[:, None]
    want = c_skip * x + c_out * forward_raw(params, c_in * x, scalings(p, sigma)[3])
    got = denoise(params, p, x, sigma)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


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
    """A reused `work` gives the bits of a fresh one and of the cached
    path, the reference forward."""
    # the widths 8, 4, 4, 8 put each layer's output at the buffer's other end
    params = tiny_params(dtype=dtype)
    x = Rng(19).standard_normal((9, 6)).astype(dtype)
    c_noise = np.linspace(-0.5, 0.8, 9) if per_row else 0.3
    cached, _, _ = reference_forward(params.tensors(), x, c_noise)
    work = []
    assert np.array_equal(forward_raw(params, x, c_noise), cached)
    assert np.array_equal(forward_raw(params, x, c_noise, work=work), cached)
    assert len(work) == 1 and work[0].dtype == dtype
    assert np.array_equal(forward_raw(params, x, c_noise, work=work), cached)


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_forward_mixed_dtypes_run_in_one_buffer_of_the_result_dtype(per_row):
    """A float64 input on float32 weights runs through the same one
    buffer, in float64, and gives the reference forward's bits."""
    params = tiny_params(dtype=np.float32)
    x = Rng(20).standard_normal((9, 6))
    c_noise = np.linspace(-0.5, 0.8, 9) if per_row else 0.3
    want, _, _ = reference_forward(params.tensors(), x, c_noise)
    work = []
    got = forward_raw(params, x, c_noise, work=work)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert len(work) == 1 and work[0].dtype == np.float64
    assert np.array_equal(forward_raw(params, x, c_noise, work=work), want)


ODD = NetworkConfig(input_dim=5, encoder_widths=(7, 3), decoder_widths=(5, 9), embed_dim=8)


@pytest.mark.parametrize("rows", [1, 2, 7, 65])
@pytest.mark.parametrize("dtypes", [(np.float32,) * 2, (np.float64,) * 2,
                                    (np.float32, np.float64)], ids=["f32", "f64", "mixed"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_forward_pieces_give_the_reference_bits(monkeypatch, rows, dtypes, per_row):
    """However the piece size cuts the rows, into pieces of one row, of a
    few rows with a short last one, or of all of them, forward_raw gives
    the bits of the whole-array reference forward; the odd widths put the
    pieces at odd flat offsets."""
    (weights, inputs), want = dtypes, np.result_type(*dtypes)
    for cfg in (tiny_config(), ODD):
        params = init_params(cfg, Rng(rows), dtype=weights)
        params.out_w[...] = Rng(rows + 1).standard_normal(params.out_w.shape) * 0.3
        x = Rng(rows + 2).standard_normal((rows, cfg.input_dim)).astype(inputs)
        c_noise = np.linspace(-0.5, 0.8, rows) if per_row else 0.3
        ref, _, _ = reference_forward(params.tensors(), x, c_noise)
        for chunk in (1, 20, 27, network._CHUNK):
            monkeypatch.setattr(network, "_CHUNK", chunk)
            got = forward_raw(params, x, c_noise)
            assert got.dtype == want and np.array_equal(got, ref), (cfg, chunk)


@pytest.mark.parametrize("rows, size", [(1, 2 * 8), (2, 2 * 12), (9, 9 * 12)])
def test_forward_work_is_one_buffer_of_the_documented_size(rows, size):
    """rows x the largest of the first width and every adjacent pair's sum
    (8, 12, 8, 12 for the widths 8, 4, 4, 8), floored at rows + 1 rows of
    the widest, so that a one-row piece's sigmoid fits beside any output."""
    params = tiny_params(dtype=np.float32)
    work = []
    forward_raw(params, np.ones((rows, 6), np.float32), 0.3, work=work)
    assert [(buf.size, buf.dtype) for buf in work] == [(size, np.float32)]


def test_forward_peak_heap_is_one_activation_buffer(peak_heap):
    """At 420 x 64 (one scoring block of score-deep's 840-row batch) with
    the default widths, forward_raw's heap peaks at its one 420 x 1536
    buffer, its 420 x 64 output and less than 64 KiB beside them, where two
    420 x 1024 buffers took 3.42 MiB."""
    params = init_params(NetworkConfig(input_dim=64), Rng(0))
    x = Rng(1).standard_normal((420, 64)).astype(np.float32)
    _, peak = peak_heap(lambda: forward_raw(params, x, 0.3))
    bound = 4 * 420 * (1536 + 64) + 2**16
    assert peak < bound, (peak / 2**20, bound / 2**20)


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
    save_checkpoint(path, params, ema, Preconditioner(1.25, center), TrainNoiseConfig(0.5, 0.8))
    p2, e2, pre, noise = load_checkpoint(path)
    assert pre.sigma_data == 1.25
    assert np.array_equal(pre.center, center) and pre.center.dtype == np.float32
    assert noise == TrainNoiseConfig(0.5, 0.8)
    for a, b in zip(params.tensors(), p2.tensors()):
        assert np.array_equal(a, b)
    for a, b in zip(ema.tensors(), e2.tensors()):
        assert np.array_equal(a, b)
    assert p2.config == params.config


def test_checkpoint_records_hold_no_heap_memory(tmp_path, held_heap):
    """Every raw tensor, EMA tensor and the center is a read-only, aligned
    view of one map of the file, the payload starting on a 64-byte
    boundary; what load_checkpoint returns holds no weight set on the
    heap (9.3 MiB each at the default network)."""
    cfg = NetworkConfig(input_dim=64)
    params = init_params(cfg, Rng(0))
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), Preconditioner(1.0, np.zeros(64)),
                    TrainNoiseConfig())
    del params
    (raw, ema, pre, _), held = held_heap(lambda: load_checkpoint(path))
    assert held < 64 * 2**10, held
    the_map = map_of(pre.center)
    assert all(map_of(t) is the_map for t in raw.tensors() + ema.tensors())
    assert map_of(raw.flat) is map_of(ema.flat) is the_map
    assert pre.center.ctypes.data % 64 == 0


def test_load_checkpoint_peak_heap_does_not_grow_with_the_payload(tmp_path, peak_heap):
    """Loading a 6.7 kB and an 18.6 MB checkpoint of the same tensor count
    peaks at the same few kB of heap: the record objects, not the payload."""
    peaks = []
    for cfg in (NetworkConfig(8, (16, 8, 4), (4, 8, 16), 8), NetworkConfig(64)):
        params = init_params(cfg, Rng(0))
        path = tmp_path / f"model{cfg.input_dim}.bin"
        save_checkpoint(path, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
        del params
        load_checkpoint(path)  # first-call imports and caches out of the measurement
        peaks.append(peak_heap(lambda: load_checkpoint(path))[1])
    assert peaks[1] < peaks[0] + 2**10 and peaks[1] < 64 * 2**10, peaks


def test_loaded_checkpoint_keeps_its_values_when_the_path_is_rewritten(tmp_path):
    """save_checkpoint replaces the file whole, so weights loaded from the
    old file, which view its map, do not change."""
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), Preconditioner(1.0, np.ones(6)),
                    TrainNoiseConfig())
    raw, ema, pre, _ = load_checkpoint(path)
    other = tiny_params(seed=9, dtype=np.float32)
    save_checkpoint(path, other, other.copy(), Preconditioner(2.0, np.zeros(6)),
                    TrainNoiseConfig())
    assert np.array_equal(raw.flat, params.flat) and np.array_equal(ema.flat, params.flat)
    assert np.array_equal(pre.center, np.ones(6))
    assert np.array_equal(load_checkpoint(path)[0].flat, other.flat)


def test_failed_checkpoint_save_leaves_the_old_file(tmp_path, disk_full_after):
    """A save that fails part way through the payload leaves the old file's
    bytes as they were and no temporary file behind."""
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
    before = path.read_bytes()
    disk_full_after(2)  # the header and the raw weights; then the EMA weights fail
    other = tiny_params(seed=9, dtype=np.float32)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, other, other.copy(), Preconditioner(1.0), TrainNoiseConfig())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_checkpoint_without_center(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), Preconditioner(0.5), TrainNoiseConfig())
    _, _, pre, noise = load_checkpoint(path)
    assert pre.sigma_data == 0.5
    assert pre.center is None
    assert noise == TrainNoiseConfig()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
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
    other = init_params(NetworkConfig(input_dim=6, encoder_widths=(8, 5), decoder_widths=(4, 8),
                                      embed_dim=8), Rng(0))
    path = tmp_path / "model.bin"
    for pair, center, fragment in [
        ((other, params), None, r"raw weights are for .*\(8, 5\).*, EMA weights for .*\(8, 4\)"),
        ((params, other), None, r"raw weights are for .*\(8, 4\).*, EMA weights for .*\(8, 5\)"),
        ((params, params), np.zeros(5), r"tensor center has shape \(5,\), config implies \(6,\)"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            save_checkpoint(path, *pair, Preconditioner(1.0, center), TrainNoiseConfig())
        assert not path.exists()


def test_weight_tensors_are_views_into_one_flat_vector():
    """Every tensor is a view into `flat`, and assigning a named tensor
    writes into it: no tensor can be rebound to an array outside it."""
    params = tiny_params(dtype=np.float32, randomize_output=False)
    assert all(np.shares_memory(t, params.flat) for t in params.tensors())
    assert sum(t.size for t in params.tensors()) == params.flat.size
    params.out_b = np.arange(6)
    assert np.array_equal(params.flat[-6:], np.arange(6, dtype=np.float32))
    params.layers[1].b = 7.0
    assert np.count_nonzero(params.flat == 7.0) == 4
    with pytest.raises(ValueError):
        params.layers[0].w = np.zeros((6, 9), dtype=np.float32)
    with pytest.raises(ValueError, match="flat weights"):
        network.DenoiserParams(params.config, params.flat[1:])
    for twin in (params.copy(), params.astype(np.float64)):
        assert not np.shares_memory(twin.flat, params.flat)
        assert np.array_equal(twin.flat, params.flat)


def test_checkpoint_layout_is_header_then_flat_float32_payload(tmp_path):
    """A version 1.0 .npy header of one record, padded to byte 320 (a
    multiple of 64), then the center, the raw and the EMA tensors as flat
    float32, then input_dim, the widths and embed_dim as int64, and
    sigma_data, p_mean and p_std as float64."""
    params = tiny_params(dtype=np.float32)
    ema = tiny_params(seed=77, dtype=np.float32)
    center = np.arange(6, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, ema, Preconditioner(1.25, center), TrainNoiseConfig(0.5, 0.8))
    raw = path.read_bytes()
    fh = io.BytesIO(raw)
    assert np.lib.format.read_magic(fh) == (1, 0)
    shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    n = param_count(params.config)
    assert (shape, fortran, fh.tell()) == ((), False, 320)
    assert dtype.descr == [
        ("center", "<f4", (6,)), ("raw", "<f4", (n,)), ("ema", "<f4", (n,)),
        ("input_dim", "<i8"), ("encoder_widths", "<i8", (2,)), ("decoder_widths", "<i8", (2,)),
        ("embed_dim", "<i8"), ("sigma_data", "<f8"), ("p_mean", "<f8"), ("p_std", "<f8")]
    payload = np.concatenate([center] + [t.ravel() for t in params.tensors() + ema.tensors()])
    meta = (np.array([6, 8, 4, 4, 8, 8], "<i8").tobytes()
            + np.array([1.25, 0.5, 0.8], "<f8").tobytes())
    assert raw[320:] == payload.astype("<f4").tobytes() + meta
    assert len(payload) == 6 + 2 * n


def test_np_load_reads_the_checkpoint_record(tmp_path):
    """np.load maps a checkpoint as one record whose fields are the saved
    config, sigma_data, training noise and tensors."""
    params = tiny_params(dtype=np.float32)
    ema = tiny_params(seed=77, dtype=np.float32)
    center = Rng(5).standard_normal(6).astype(np.float32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, ema, Preconditioner(1.25, center), TrainNoiseConfig(0.5, 0.8))
    record = np.load(path, mmap_mode="r")
    assert isinstance(record, np.memmap) and record.shape == ()
    cfg = params.config
    assert record["input_dim"] == cfg.input_dim and record["embed_dim"] == cfg.embed_dim
    assert tuple(record["encoder_widths"]) == cfg.encoder_widths
    assert tuple(record["decoder_widths"]) == cfg.decoder_widths
    assert (record["sigma_data"], record["p_mean"], record["p_std"]) == (1.25, 0.5, 0.8)
    assert np.array_equal(record["center"], center)
    assert np.array_equal(record["raw"], params.flat)
    assert np.array_equal(record["ema"], ema.flat)
