import csv
import warnings

import numpy as np
import pytest

from vadiff import (
    DatasetScores,
    DataError,
    FeatureSet,
    NetworkConfig,
    Preconditioner,
    Rng,
    ScheduleConfig,
    ScoringConfig,
    TrainNoiseConfig,
    VideoRecord,
    as_denoiser,
    batch_threshold,
    denoise,
    init_params,
    join_scores,
    karras_schedule,
    lms_sample,
    noise_bounds,
    read_scores_csv,
    score_dataset,
    write_scores_csv,
)
from vadiff import scoring


def small_model(dim=4, seed=2):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(seed)).astype(np.float64)  # float64 head, as drawn
    params.out_w[...] = Rng(seed + 1).standard_normal(params.out_w.shape) * 0.1
    return params, Preconditioner(1.0)


def short_schedule():
    return karras_schedule(ScheduleConfig(sigma_min=0.05, sigma_max=5.0, rho=7.0, steps=5))


# --- batch threshold -----------------------------------------------------------

def test_threshold_hand_example():
    losses = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    mu, sigma, l_th = batch_threshold(losses, 1.0)
    assert mu == 4.0
    assert abs(sigma - np.sqrt(10.0)) <= 1e-12
    assert abs(l_th - (4.0 + np.sqrt(10.0))) <= 1e-12
    flags = losses > l_th
    assert list(np.nonzero(flags)[0]) == [4]


def test_threshold_k_zero_flags_strictly_above_mean():
    losses = np.array([1.0, 2.0, 3.0])
    _, _, l_th = batch_threshold(losses, 0.0)
    assert l_th == 2.0
    assert list(losses > l_th) == [False, False, True]


def test_threshold_degenerate_all_equal():
    losses = np.full(6, 3.5)  # exactly representable, so the mean is exact
    mu, sigma, l_th = batch_threshold(losses, 5.0)
    assert sigma == 0.0
    assert l_th == mu
    assert not np.any(losses > l_th)
    # a value with rounding residue still produces an empty flag set
    fuzzy = np.full(6, 3.3)
    _, _, l_th2 = batch_threshold(fuzzy, 2.0)
    assert not np.any(fuzzy > l_th2)


def test_threshold_needs_two_losses():
    with pytest.raises(ValueError):
        batch_threshold(np.array([1.0]), 1.0)


def test_threshold_population_not_sample_std():
    losses = np.array([0.0, 2.0])
    _, sigma, _ = batch_threshold(losses, 1.0)
    assert sigma == 1.0  # sample (n-1) std would be sqrt(2)


def test_gaussian_tail_fraction():
    losses = Rng(3).standard_normal(100_000)
    _, _, l_th = batch_threshold(losses, 1.0)
    frac = float(np.mean(losses > l_th))
    assert abs(frac - 0.1587) <= 0.01


def test_threshold_linearity_and_shift_invariance():
    losses = np.abs(Rng(4).standard_normal(256)) + 0.1
    mu, sigma, l_th = batch_threshold(losses, 0.7)
    base_flags = losses > l_th

    mu2, sigma2, l2 = batch_threshold(3.5 * losses, 0.7)
    assert abs(mu2 - 3.5 * mu) <= 1e-12
    assert abs(sigma2 - 3.5 * sigma) <= 1e-12
    assert abs(l2 - 3.5 * l_th) <= 1e-12
    assert np.array_equal(3.5 * losses > l2, base_flags)

    _, _, l3 = batch_threshold(losses + 11.0, 0.7)
    assert np.array_equal(losses + 11.0 > l3, base_flags)


def test_flag_monotonicity_in_k():
    losses = Rng(5).standard_normal(512) ** 2
    prev = None
    for k in (0.1, 0.3, 0.5, 0.7, 1.0):
        _, _, l_th = batch_threshold(losses, k)
        flags = set(np.nonzero(losses > l_th)[0].tolist())
        if prev is not None:
            assert flags <= prev
        prev = flags


# --- batch scoring -------------------------------------------------------------

def test_duplicate_losses_get_identical_flags():
    # each row draws its own corruption noise, so duplicate feature rows give
    # statistically exchangeable (not equal) losses; equal losses, however,
    # must always land on the same side of the threshold
    losses = np.array([0.4, 0.9, 0.4, 2.0, 0.9, 2.0])
    _, _, l_th = batch_threshold(losses, 0.5)
    flags = losses > l_th
    assert flags[0] == flags[2]
    assert flags[1] == flags[4]
    assert flags[3] == flags[5]


def one_batch(batch):
    """The rows of `batch` as one video, which score_dataset scores as one batch."""
    n = len(batch)
    return FeatureSet(batch, [VideoRecord("v", n * 16, 0, n)])


def score_one_batch(params, p, sig, cfg, batch, rng):
    scores = score_dataset(params, p, sig, cfg, one_batch(batch), rng)
    assert len(scores.batch_stats) == 1
    return scores


def test_duplicate_rows_exchangeable_at_negligible_noise():
    params, p = small_model()
    sig = karras_schedule(ScheduleConfig(sigma_min=1e-9, sigma_max=5.0, rho=7.0, steps=5))
    row = Rng(6).standard_normal((1, 4))
    batch = np.repeat(row, 6, axis=0)
    # corruption at sigma_min ~ 1e-9 is far below the deterministic part
    scores = score_one_batch(params, p, sig, ScoringConfig(start_index=len(sig) - 2), batch,
                             Rng(7))
    assert np.abs(scores.mse - scores.mse[0]).max() <= 1e-12


def test_score_batch_decision_invariants():
    params, p = small_model()
    sig = short_schedule()
    batch = Rng(8).standard_normal((32, 4))
    k = 0.5
    scores = score_one_batch(params, p, sig, ScoringConfig(start_index=1, k=k), batch, Rng(9))
    [(mu_p, sigma_p)] = scores.batch_stats
    assert (mu_p, sigma_p) == batch_threshold(scores.mse, k)[:2]
    assert np.array_equal(scores.l_th, np.full(32, mu_p + k * sigma_p))
    assert np.array_equal(scores.flags, scores.mse > scores.l_th)
    assert scores.mse.shape == (32,)
    assert np.all(scores.mse >= 0)
    assert scores.batch_ids.tolist() == [0] * 32


def test_score_batch_scores_ignore_k():
    params, p = small_model()
    sig = short_schedule()
    batch = Rng(10).standard_normal((16, 4))
    a = score_one_batch(params, p, sig, ScoringConfig(start_index=1, k=0.1), batch, Rng(11))
    b = score_one_batch(params, p, sig, ScoringConfig(start_index=1, k=1.0), batch, Rng(11))
    assert np.array_equal(a.mse, b.mse)
    assert a.batch_stats == b.batch_stats
    assert a.flags.sum() >= b.flags.sum()


def test_score_batch_float32_weights_keep_float64_losses():
    cfg = NetworkConfig(input_dim=4, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(2))
    params.out_w[...] = Rng(3).standard_normal(params.out_w.shape) * 0.1
    p = Preconditioner(1.0)
    sig = short_schedule()
    batch = Rng(12).standard_normal((16, 4))
    scfg = ScoringConfig(start_index=0)
    got = score_one_batch(params, p, sig, scfg, batch, Rng(13))
    want = score_one_batch(params.astype(np.float64), p, sig, scfg, batch, Rng(13))
    assert got.mse.dtype == np.float64
    assert np.abs(got.mse - want.mse).max() <= 1e-5 * want.mse.max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_batch_ode_state_runs_in_the_weights_dtype(dtype, monkeypatch):
    """Every NFE sees the sampler's state in the weights' dtype, for either
    dtype the displacement from the block, about the block itself."""
    cfg = NetworkConfig(input_dim=4, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(2)).astype(dtype)
    seen = []

    def spying(params, p):
        den = as_denoiser(params, p)

        def spy(x, sigma, base=None):
            seen.append((x.dtype, base is not None and np.array_equal(base, batch)))
            return den(x, sigma, base=base)
        return spy

    monkeypatch.setattr(scoring, "as_denoiser", spying)
    sig = short_schedule()
    batch = Rng(14).standard_normal((16, 4)).astype(np.float32)
    score_one_batch(params, Preconditioner(1.0), sig, ScoringConfig(start_index=0), batch,
                    Rng(15))
    assert seen == [(np.dtype(dtype), True)] * (len(sig) - 1)


def test_score_batch_start_index_validated():
    params, p = small_model()
    sig = short_schedule()
    batch = np.ones((4, 4))
    for t in (len(sig) - 1, -1):
        with pytest.raises(ValueError, match=f"start_index must lie in \\[0, {len(sig) - 2}\\]"):
            score_one_batch(params, p, sig, ScoringConfig(start_index=t), batch, Rng(0))


# --- dataset scoring -----------------------------------------------------------

def one_video_set(n=12, dim=4, seed=13):
    return one_batch(Rng(seed).standard_normal((n, dim)).astype(np.float32))


def reference_losses(denoiser, x, noise, sigmas, t, dtype):
    """Per-row losses of the rows x as score_dataset forms them: eps drawn
    from `noise` in float64, the displacement eps * sigmas[t] cast to the
    weights' dtype and integrated about x, whose mean square is the loss."""
    shift = noise.standard_normal(x.shape, dtype=np.float64) * sigmas[t]
    err = lms_sample(lambda v, s: denoiser(v, s, base=x), shift.astype(dtype), sigmas,
                     start_index=t)
    return np.mean(err.astype(np.float64) ** 2, axis=1)


def test_dataset_batches_follow_manifest_order():
    params, p = small_model()
    sig = short_schedule()
    feats = Rng(15).standard_normal((10, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 64, 0, 4), VideoRecord("b", 96, 4, 6)])
    cfg = ScoringConfig(start_index=2, batch_size=4)
    scores = score_dataset(params, p, sig, cfg, fs, Rng(16))
    assert list(scores.batch_ids) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert len(scores.batch_stats) == 3
    # the short tail batch still computed its own threshold
    tail = batch_threshold(scores.mse[8:10], cfg.k)
    assert scores.batch_stats[2] == tail[:2]
    assert scores.l_th[8:].tolist() == [tail[2]] * 2


def test_dataset_short_tail_matches_fresh_denoiser_per_batch(monkeypatch):
    """With blocks of at most 8 rows, the 23 rows run as blocks of 8, 8 and
    a short 7 in the one denoiser's buffers, and each block scores as a
    fresh denoiser does on its rows, the blocks drawing from the one stream
    in turn; each batch of 8, 8 and 7 rows thresholds its own losses."""
    # uniform float32 weights, so every NFE runs in the reused buffers
    cfg_net = NetworkConfig(input_dim=4, encoder_widths=(16, 8), decoder_widths=(8, 16),
                            embed_dim=8)
    params = init_params(cfg_net, Rng(21), dtype=np.float32)
    params.out_w[...] = Rng(22).standard_normal(params.out_w.shape) * 0.1
    p = Preconditioner(1.0)
    sig = short_schedule()
    feats = Rng(23).standard_normal((23, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 23 * 16, 0, 23)])
    cfg = ScoringConfig(start_index=0, batch_size=8)  # batches of 8, 8 and 7 rows
    monkeypatch.setattr(scoring, "_BLOCK", 8)
    scores = score_dataset(params, p, sig, cfg, fs, Rng(24))
    assert scores.batch_ids.tolist() == [0] * 8 + [1] * 8 + [2] * 7
    noise = Rng(24).split("batch0")
    for lo in range(0, 23, 8):
        want = reference_losses(lambda v, s, base: denoise(params, p, v, s, base=base),
                                feats[lo : lo + 8], noise, sig, 0, params.dtype)
        assert np.array_equal(scores.mse[lo : lo + 8], want)
        assert scores.l_th[lo] == batch_threshold(want, cfg.k)[2]


def test_dataset_builds_one_denoiser_for_every_batch(tmp_path, monkeypatch):
    """score_dataset makes one denoiser, whose buffers serve every block
    (with blocks of at most 8 rows, 25 rows run as 7, 6, 6 and 6), and
    writes the score CSV a fresh buffer set per evaluation writes; the
    three batches (the last with the one-row tail joined) still threshold
    apart."""
    cfg_net = NetworkConfig(input_dim=4, encoder_widths=(16, 8), decoder_widths=(8, 16),
                            embed_dim=8)
    params = init_params(cfg_net, Rng(31), dtype=np.float32)
    params.out_w[...] = Rng(32).standard_normal(params.out_w.shape) * 0.1
    feats = Rng(33).standard_normal((25, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 10 * 16, 0, 10), VideoRecord("b", 15 * 16, 10, 15)])
    cfg = ScoringConfig(start_index=0, batch_size=8)  # batches of 8, 8 and 8 + 1 rows
    built = []

    def counted(params, p):
        built.append(1)
        return as_denoiser(params, p)

    def score_csv(name):
        path = tmp_path / name
        scores = score_dataset(params, Preconditioner(1.0), short_schedule(), cfg, fs, Rng(34))
        write_scores_csv(path, fs, scores)
        assert len(scores.batch_stats) == 3
        return path.read_bytes()

    monkeypatch.setattr(scoring, "_BLOCK", 8)
    monkeypatch.setattr(scoring, "as_denoiser", counted)
    once = score_csv("once.csv")
    assert len(built) == 1
    monkeypatch.setattr(scoring, "as_denoiser",
                        lambda params, p: lambda x, s, base=None: denoise(params, p, x, s,
                                                                          base=base))
    assert once == score_csv("fresh.csv")


def test_dataset_batches_are_views_of_the_features(monkeypatch):
    """Without a center, the rows reach the denoiser as its base, a slice
    of the features, not a copy: 9 rows run as one block, whatever the
    batch size; the one-row tail joins the batch before it."""
    params, p = small_model()
    feats = Rng(27).standard_normal((9, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("v", 9 * 16, 0, 9)])
    batches = []

    def recording(denoiser, x, sigmas, start_index):
        batches.append(denoiser.keywords["base"])
        return lms_sample(denoiser, x, sigmas, start_index=start_index)

    monkeypatch.setattr(scoring, "lms_sample", recording)
    scores = score_dataset(params, p, short_schedule(),
                           ScoringConfig(start_index=1, batch_size=4), fs, Rng(28))
    assert [b.shape[0] for b in batches] == [9]
    assert all(np.shares_memory(b, feats) for b in batches)
    assert scores.batch_ids.tolist() == [0] * 4 + [1] * 5


def test_dataset_determinism():
    params, p = small_model()
    sig = short_schedule()
    fs = one_video_set()
    cfg = ScoringConfig(start_index=1, batch_size=5)
    a = score_dataset(params, p, sig, cfg, fs, Rng(17))
    b = score_dataset(params, p, sig, cfg, fs, Rng(17))
    assert np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.flags, b.flags)


def test_dataset_centering_changes_scores():
    params, p = small_model()
    sig = short_schedule()
    fs = one_video_set()
    cfg = ScoringConfig(start_index=1)
    center = np.full(4, 0.5, dtype=np.float32)
    a = score_dataset(params, p, sig, cfg, fs, Rng(18))
    b = score_dataset(params, Preconditioner(p.sigma_data, center), sig, cfg, fs, Rng(18))
    assert not np.array_equal(a.mse, b.mse)


def test_dataset_centres_each_batch_as_pre_centred_rows():
    """Centring by the record's float32 center as each block is sliced gives
    the same bits as scoring rows centred beforehand."""
    params, _ = small_model()
    sig = short_schedule()
    feats = (Rng(25).standard_normal((10, 4)) + [3.0, -1.0, 0.5, 2.0]).astype(np.float32)
    center = feats.astype(np.float64).mean(axis=0)  # the record keeps it as float32
    fs = FeatureSet(feats, [VideoRecord("v", 160, 0, 10)])
    centred = FeatureSet(feats - center.astype(np.float32), fs.manifest)
    cfg = ScoringConfig(start_index=1, batch_size=4)  # batches of 4, 4 and 2
    a = score_dataset(params, Preconditioner(1.0, center), sig, cfg, fs, Rng(26))
    b = score_dataset(params, Preconditioner(1.0), sig, cfg, centred, Rng(26))
    assert a.mse.tobytes() == b.mse.tobytes()
    assert a.l_th.tobytes() == b.l_th.tobytes()
    assert a.batch_stats == b.batch_stats and len(a.batch_stats) == 3


# --- row blocks ------------------------------------------------------------------

def default_model(dim=64, seed=40):
    """The default widths in float32, as a checkpoint holds them, with a
    nonzero head, so that every hidden row reaches the output."""
    params = init_params(NetworkConfig(input_dim=dim), Rng(seed))
    params.out_w[...] = Rng(seed + 1).standard_normal(params.out_w.shape) * 0.01
    return params


def whole_batch_scores(params, p, sigmas, cfg, fs, rng):
    """(mse, flags, l_th) with all rows integrated in one lms_sample call on
    the one noise stream, and each batch thresholded on its slice."""
    t, x = cfg.start_index, fs.features
    bounds = [*range(0, len(x) - 1, cfg.batch_size), len(x)]
    rows = x if p.center is None else x - p.center
    mse = reference_losses(as_denoiser(params, p), rows, rng.split("batch0"), sigmas, t,
                           params.dtype)
    l_th = np.empty(len(x))
    for lo, hi in zip(bounds, bounds[1:]):
        l_th[lo:hi] = batch_threshold(mse[lo:hi], cfg.k)[2]
    return mse, mse > l_th, l_th


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("batch_size", [512, 700, 1100])
def test_dataset_row_blocks_give_the_whole_batch_bits(batch_size, center):
    """At every batch size the 2101 rows run as five blocks (421 + 4 x 420),
    and each row scores as one integration of all rows does; batches of
    512, 700 and 1100 rows (the 1100 tail 1001) each threshold their own."""
    params = default_model()
    sigmas = karras_schedule(ScheduleConfig(steps=5))  # 4 NFE from index 0, up to order 4
    feats = (Rng(42).standard_normal((2101, 64)) + 0.5).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("v", 2101 * 16, 0, 2101)])
    p = Preconditioner(1.0, feats.mean(axis=0) if center else None)
    cfg = ScoringConfig(start_index=0, batch_size=batch_size)
    got = score_dataset(params, p, sigmas, cfg, fs, Rng(43))
    mse, flags, l_th = whole_batch_scores(params, p, sigmas, cfg, fs, Rng(43))
    assert np.array_equal(got.mse, mse)
    assert np.array_equal(got.flags, flags)
    assert np.array_equal(got.l_th, l_th)


def test_dataset_mse_does_not_depend_on_the_batch_size():
    """Past 8192 rows, batch sizes 64, 1000 and 8192 give every segment the
    same mse bits; only the batch ids, thresholds and flags follow the
    batches, each batch thresholded on its own losses."""
    cfg_net = NetworkConfig(input_dim=4, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg_net, Rng(60))
    params.out_w[...] = Rng(61).standard_normal(params.out_w.shape) * 0.1
    n = 8300
    feats = Rng(62).standard_normal((n, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 5000 * 16, 0, 5000),
                            VideoRecord("b", 3300 * 16, 5000, 3300)])
    mses = []
    for batch_size in (64, 1000, 8192):
        cfg = ScoringConfig(start_index=0, batch_size=batch_size)
        got = score_dataset(params, Preconditioner(1.0), short_schedule(), cfg, fs, Rng(63))
        bounds = [*range(0, n - 1, batch_size), n]
        assert len(got.batch_stats) == len(bounds) - 1
        for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            mu_p, sigma_p, l_th = batch_threshold(got.mse[lo:hi], cfg.k)
            assert got.batch_stats[b] == (mu_p, sigma_p)
            assert (got.l_th[lo:hi] == l_th).all() and (got.batch_ids[lo:hi] == b).all()
        assert np.array_equal(got.flags, got.mse > got.l_th)
        mses.append(got.mse)
    assert all(m.tobytes() == mses[0].tobytes() for m in mses[1:])


@pytest.mark.parametrize("m", [2, 511, 512, 513, 1001, 1024, 1025, 1100, 1537, 4096, 8191])
def test_dataset_row_blocks_split_a_batch_evenly_larger_first(m, monkeypatch):
    sizes = []

    def recording(denoiser, x, sigmas, start_index):
        sizes.append(x.shape[0])
        return x

    monkeypatch.setattr(scoring, "lms_sample", recording)
    fs = one_batch(np.zeros((m, 2), dtype=np.float32))
    params, p = small_model(dim=2)
    score_dataset(params, p, short_schedule(), ScoringConfig(start_index=0, batch_size=m), fs,
                  Rng(0))
    assert sum(sizes) == m and len(sizes) == -(-m // 512)
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    assert sizes[0] <= 512 and (m <= 512 or sizes[-1] >= 256)
    if m == 1001:
        assert sizes == [501, 500]


def test_dataset_heap_does_not_grow_with_the_batch(peak_heap):
    """Scoring 4096 rows in one batch peaks at the heap of scoring 512
    rows plus the per-row outputs (mse, l_th, batch ids, flags): the
    sampler's state and the network's buffers stay sized by one block."""
    params = default_model()
    sigmas = karras_schedule(ScheduleConfig())
    cfg = ScoringConfig(start_index=len(sigmas) - 2)  # one NFE
    peaks = []
    for m in (4096, 512):
        fs = one_batch(Rng(44).standard_normal((m, 64)).astype(np.float32))
        scores, peak = peak_heap(lambda: score_dataset(params, Preconditioner(1.0), sigmas, cfg,
                                                       fs, Rng(45)))
        assert len(scores.batch_stats) == 1
        peaks.append(peak)
    outputs = (4096 - 512) * (3 * 8 + 1)
    assert peaks[0] - peaks[1] <= outputs + 2**16, peaks


@pytest.mark.parametrize("t", [0, 5, 9], ids=["start0", "start5", "default-start"])
def test_dataset_float32_state_scores_within_1e6_of_the_float64_state(t):
    """With the default widths and schedule, at start index 0 (10 NFE),
    5 and the default 9 (one NFE at sigma_min), each loss of the float32
    ODE state is within 1e-6 relative of the loss of a float64 state, the
    float32 network fed the float64 noised rows.  At index 9 the
    reconstruction error, about 7.6e-4, is some 1e4 times float32's spacing
    of the rows: a float32 state holding the noised rows themselves moved
    the losses there by up to 7.3e-5 relative."""
    params, p = default_model(), Preconditioner(1.0)
    sigmas = karras_schedule(ScheduleConfig(*noise_bounds(TrainNoiseConfig())))
    feats = (Rng(46).standard_normal((300, 64)) + 0.5).astype(np.float32)
    got = score_one_batch(params, p, sigmas, ScoringConfig(start_index=t), feats, Rng(47)).mse
    eps = Rng(47).split("batch0").standard_normal(feats.shape, dtype=np.float64)
    recon = lms_sample(as_denoiser(params, p), feats + eps * sigmas[t], sigmas, start_index=t)
    want = np.mean((recon - feats) ** 2, axis=1)
    assert np.abs(got / want - 1.0).max() <= 1e-6


@pytest.mark.parametrize("center", [False, True], ids=["plain", "centred"])
@pytest.mark.parametrize("t", [0, 5, 9], ids=["start0", "start5", "last-start"])
def test_dataset_float64_weights_score_the_noised_block_within_1e12(t, center):
    """Float64 weights integrate the displacement from the block like any
    other dtype.  Their losses stay within 1e-12 relative of integrating
    the float64 noised block x + eps * sigmas[t] and taking the float64
    mean square of its reconstruction's difference from x, with the same
    flags."""
    params = default_model().astype(np.float64)
    sigmas = karras_schedule(ScheduleConfig(*noise_bounds(TrainNoiseConfig())))
    feats = (Rng(52).standard_normal((840, 64)) + 0.5).astype(np.float32)
    p = Preconditioner(1.0, feats.mean(axis=0) if center else None)
    got = score_one_batch(params, p, sigmas, ScoringConfig(start_index=t), feats, Rng(53))
    x = feats if p.center is None else feats - p.center
    eps = Rng(53).split("batch0").standard_normal(x.shape, dtype=np.float64)
    recon = lms_sample(as_denoiser(params, p), x + eps * sigmas[t], sigmas, start_index=t)
    want = np.mean((recon - x) ** 2, axis=1)
    assert np.abs(got.mse / want - 1.0).max() <= 1e-12
    assert np.array_equal(got.flags, want > batch_threshold(want, 1.0)[2])


def test_dataset_float32_state_takes_at_most_0_6_of_the_float64_heap(peak_heap):
    """With 1024 dims and one 16-unit layer each way the sampler's state,
    not the network, fills the heap: float32 weights keep it in float32."""
    cfg = NetworkConfig(input_dim=1024, encoder_widths=(16,), decoder_widths=(16,))
    params = init_params(cfg, Rng(48))
    params.out_w[...] = Rng(49).standard_normal(params.out_w.shape) * 0.01
    fs = one_batch(Rng(50).standard_normal((512, 1024)).astype(np.float32))
    sigmas = karras_schedule(ScheduleConfig())
    peaks = {}
    for dtype in (np.float32, np.float64):
        weights = params.astype(dtype)
        _, peaks[dtype] = peak_heap(lambda: score_dataset(
            weights, Preconditioner(1.0), sigmas, ScoringConfig(start_index=0), fs, Rng(51)))
    assert peaks[np.float32] <= 0.6 * peaks[np.float64], peaks


# --- CSV round trip --------------------------------------------------------------

def test_scores_csv_round_trip(tmp_path):
    params, p = small_model()
    sig = short_schedule()
    feats = Rng(19).standard_normal((7, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 48, 0, 3), VideoRecord("b", 64, 3, 4)])
    scores = score_dataset(params, p, sig, ScoringConfig(start_index=2), fs, Rng(20))
    path = tmp_path / "scores.csv"
    write_scores_csv(path, fs, scores)

    header = path.read_text().splitlines()[0]
    assert header == "video_id,segment_index,mse,flagged,batch_id,l_th"
    ids, index, mse = read_scores_csv(path)
    assert ids.tolist() == ["a"] * 3 + ["b"] * 4
    assert index.tolist() == [0, 1, 2, 0, 1, 2, 3]
    assert np.array_equal(mse, scores.mse)
    assert np.array_equal(join_scores((ids, index, mse), fs.manifest), scores.mse)


def test_scores_csv_rejects_gapped_indices(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "video_id,segment_index,mse,flagged,batch_id,l_th\n"
        "a,0,0.5,0,0,1.0\n"
        "a,2,0.6,0,0,1.0\n"
    )
    with pytest.raises(DataError, match="video 'a': segment 1 scored 0 times"):
        join_scores(read_scores_csv(path), [VideoRecord("a", 48, 0, 3)])


def test_scores_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("video,idx,loss\na,0,0.5\n")
    with pytest.raises(ValueError):
        read_scores_csv(path)


@pytest.mark.parametrize("index, mse, field", [("x1", "0.5", "segment_index"),
                                                ("1", "abc", "mse"),
                                                ("1.5", "0.5", "segment_index"),
                                                ("1e0", "0.5", "segment_index"),
                                                # int and float read these, np.loadtxt does not
                                                ("99999999999999999999", "0.5", "segment_index"),
                                                ("9223372036854775808", "0.5", "segment_index"),
                                                ("-9223372036854775809", "0.5", "segment_index"),
                                                ("1_0", "0.5", "segment_index"),
                                                ("\u0663", "0.5", "segment_index"),
                                                ("1", "1_0", "mse"),
                                                ("1", "\u0663", "mse"),
                                                ("1", "\uff11", "mse")])
def test_scores_csv_non_numeric_field_names_the_line(tmp_path, index, mse, field):
    path = tmp_path / "scores.csv"
    path.write_text(
        "video_id,segment_index,mse,flagged,batch_id,l_th\n"
        "a,0,0.5,0,0,1.0\n"
        f"a,{index},{mse},0,0,1.0\n"
    )
    with pytest.raises(DataError, match=f"line 3: {field}"):
        read_scores_csv(path)


def test_scores_csv_videos_in_first_appearance_order(tmp_path):
    rows = [("b", 1, 0.25), ("c", 0, 0.5), ("a", 1, 0.75), ("b", 0, 1.0),
            ("a", 0, 1.25), ("b", 2, 1.5), ("c", 1, 1.75)]
    order = [3, 0, 6, 4, 1, 5, 2]  # a fixed shuffle: c is the first video seen
    path = tmp_path / "scores.csv"
    path.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n" + "".join(
        f"{rows[i][0]},{rows[i][1]},{rows[i][2]},0,0,1.0\n" for i in order))
    ids, index, mse = read_scores_csv(path)
    assert list(zip(ids, index, mse)) == [rows[i] for i in order]  # file order
    manifest = [VideoRecord("a", 32, 0, 2), VideoRecord("b", 48, 2, 3),
                VideoRecord("c", 32, 5, 2)]
    assert join_scores((ids, index, mse), manifest).tolist() == [
        1.25, 0.75, 1.0, 0.25, 1.5, 0.5, 1.75]


def test_scores_csv_quoted_ids_round_trip(tmp_path):
    # the last id puts an empty line inside quotes, which is no empty row
    ids = ['cam 1, door', 'say "hi"', 'two\n\nlines']
    fs = FeatureSet(np.zeros((4, 2), dtype=np.float32),
                    [VideoRecord(ids[0], 16, 0, 1), VideoRecord(ids[1], 32, 1, 2),
                     VideoRecord(ids[2], 3, 3, 1)])
    mse = np.array([0.5, 0.25, 2.0, 4.0])
    scores = DatasetScores(mse, mse > 1.0, np.zeros(4, dtype=np.int64), np.full(4, 1.0), [])
    path = tmp_path / "scores.csv"
    write_scores_csv(path, fs, scores)
    rows = read_scores_csv(path)
    assert rows[0].tolist() == [ids[0], ids[1], ids[1], ids[2]]
    assert join_scores(rows, fs.manifest).tolist() == mse.tolist()


def test_scores_csv_matches_row_by_row_writer(tmp_path):
    """write_scores_csv writes the bytes a csv.writer writes row by row,
    quoting an id with a comma and a quote, scores as their reprs."""
    ids = ['cam 1, "door"', "b", "c"]
    fs = FeatureSet(np.zeros((5, 2), dtype=np.float32),
                    [VideoRecord(ids[0], 32, 0, 2), VideoRecord(ids[1], 0, 2, 0),
                     VideoRecord(ids[2], 45, 2, 3)])
    mse = np.array([1e-300, 0.1, 2.5, 1 / 3, 7.0])
    l_th = np.array([0.05, 0.05, 2.0, 2.0, 2.0])
    scores = DatasetScores(mse, mse > l_th, np.array([0, 0, 1, 1, 1]), l_th, [])
    got = tmp_path / "scores.csv"
    write_scores_csv(got, fs, scores)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "segment_index", "mse", "flagged", "batch_id", "l_th"])
        for rec in fs.manifest:
            for i in range(rec.segment_count):
                g = rec.segment_offset + i
                writer.writerow([rec.video_id, i, repr(float(mse[g])), int(mse[g] > l_th[g]),
                                 int(scores.batch_ids[g]), repr(float(l_th[g]))])
    assert got.read_bytes() == want.read_bytes()
    assert b'"cam 1, ""door""",0,1e-300,0,0,0.05\r\n' in got.read_bytes()


def test_scores_csv_unread_fields_are_zero_width():
    dtype = scoring._CSV_DTYPE
    assert [dtype[name].itemsize for name in ("flagged", "batch_id", "l_th")] == [0, 0, 0]


def many_rows_csv(path, n_videos, per_video):
    """A score CSV of n_videos videos of per_video segments each, as
    write_scores_csv writes it; returns the manifest."""
    manifest = [VideoRecord(f"video{v:04d}", 16 * per_video, v * per_video, per_video)
                for v in range(n_videos)]
    n = n_videos * per_video
    mse = Rng(30).uniform(0.0, 4.0, n)
    scores = DatasetScores(mse, mse > 2.0, np.zeros(n, dtype=np.int64), np.full(n, 2.0), [])
    write_scores_csv(path, FeatureSet(np.zeros((n, 1), dtype=np.float32), manifest), scores)
    return manifest


def test_read_scores_csv_shares_one_id_per_video(tmp_path):
    path = tmp_path / "scores.csv"
    manifest = many_rows_csv(path, 7, 5)
    ids, _, _ = read_scores_csv(path)
    assert ids.tolist() == [rec.video_id for rec in manifest for _ in range(5)]
    assert len({id(s) for s in ids}) == len(manifest)


def test_read_scores_csv_peak_heap_per_row(tmp_path, peak_heap):
    """The file is mapped, never copied, and a row costs its three fields
    and the parse: the peak is 27.5 bytes of heap per 41-byte row, where
    the file's bytes took 41 and a decoded copy of the text beside its
    bytes, then one str per row, 84."""
    path = tmp_path / "scores.csv"
    many_rows_csv(path, 400, 100)
    rows, peak = peak_heap(lambda: read_scores_csv(path))
    n = rows[0].size
    assert n == 40_000
    assert peak < 35 * n, peak / n


def test_header_only_scores_csv_is_not_parsed(tmp_path, monkeypatch):
    """No body, no np.loadtxt call (which warns on an empty input)."""
    def no_parse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    path = tmp_path / "scores.csv"
    for text in ("video_id,segment_index,mse,flagged,batch_id,l_th",
                 "video_id,segment_index,mse,flagged,batch_id,l_th\n",
                 "video_id,segment_index,mse,flagged,batch_id,l_th\r\n"):
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, index, mse = read_scores_csv(path)
        assert (ids.size, index.size, mse.size) == (0, 0, 0)
        assert (index.dtype, mse.dtype) == (np.int64, np.float64)


@pytest.mark.parametrize("line", ["", "a,1,0.5,0,0", "a,1,0.5,0,0,1.0,7"],
                         ids=["blank", "five-columns", "seven-columns"])
def test_scores_csv_malformed_row_names_the_line(tmp_path, line):
    path = tmp_path / "scores.csv"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(["video_id,segment_index,mse,flagged,batch_id,l_th",
                                   "a,0,0.5,0,0,1.0", line, "a,1,0.6,0,0,1.0", ""]).encode())
        with pytest.raises(DataError, match="line 3: expected 6 fields"):
            read_scores_csv(path)


def test_scores_csv_rescan_accepts_what_loadtxt_reads(tmp_path):
    """A quoted line end leaves fewer rows than lines, so the file is
    rescanned; fields np.loadtxt reads, whitespace it skips and int64's
    ends included, pass the rescan too."""
    path = tmp_path / "scores.csv"
    path.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n"
                    '"two\nlines",\x1c-9223372036854775808,\u2003Infinity\u2003,0,0,1.0\n'
                    "a,\t9223372036854775807\xa0,+.5e-3,0,0,1.0\n", encoding="utf-8")
    ids, index, mse = read_scores_csv(path)
    assert ids.tolist() == ["two\nlines", "a"]
    assert index.tolist() == [-2**63, 2**63 - 1]
    assert mse.tolist() == [np.inf, 0.0005]


@pytest.mark.parametrize("scan", [1, 2, 3, 2**18])
def test_line_count_counts_each_line_end_once(monkeypatch, scan):
    """Each "\r\n", "\n" or lone "\r" ends one line, a "\r\n" split across
    two blocks included, and a last line without a line end counts."""
    monkeypatch.setattr(scoring, "_SCAN", scan)
    for text in [b"a", b"a\r\nb\r\n", b"a\rb\r", b"a\nb", b"a\r\rb\r", b"\r\n\r\n", b"\n\r",
                 b"a\r\n\nb\r\r\n", b"ab\r\ncd\re\n\nf"]:
        assert scoring._line_count(text, 0) == len(text.splitlines()), text


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("last", ["", "end"], ids=["no-last-end", "last-end"])
def test_well_formed_scores_csv_is_not_rescanned(tmp_path, monkeypatch, end, last):
    """A file whose every line is a row gives as many rows as lines, so the
    row-by-row rescan never runs, whatever its line ends."""
    def no_rescan(path):
        raise AssertionError("rescanned")

    monkeypatch.setattr(scoring, "_raise_first_fault", no_rescan)
    path = tmp_path / "scores.csv"
    path.write_bytes(end.join(["video_id,segment_index,mse,flagged,batch_id,l_th",
                               "a,0,0.5,0,0,1.0", "a,1,0.6,0,0,1.0"]).encode()
                     + (end.encode() if last else b""))
    assert read_scores_csv(path)[1].tolist() == [0, 1]
