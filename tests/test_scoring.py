import numpy as np
import pytest

from vadiff import (
    BatchDecision,
    DatasetScores,
    DataError,
    FeatureSet,
    NetworkConfig,
    Preconditioner,
    Rng,
    ScheduleConfig,
    ScoringConfig,
    VideoRecord,
    batch_threshold,
    denoise,
    init_params,
    karras_schedule,
    mse_per_instance,
    partial_reconstruct,
    read_scores_csv,
    score_batch,
    score_dataset,
    write_scores_csv,
)


def small_model(dim=4, seed=2):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(seed))
    params.out_w = Rng(seed + 1).standard_normal(params.out_w.shape) * 0.1
    return params, Preconditioner(1.0)


def short_schedule():
    return karras_schedule(ScheduleConfig(sigma_min=0.05, sigma_max=5.0, rho=7.0, steps=5))


# --- per-instance loss ---------------------------------------------------------

def test_mse_identity_is_zero():
    x = Rng(0).standard_normal((5, 3))
    assert np.array_equal(mse_per_instance(x, x.copy()), np.zeros(5))


def test_mse_single_row_example():
    got = mse_per_instance(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert got.shape == (1,)
    assert got[0] == 1.0


def test_mse_matches_loop_oracle():
    rng = Rng(1)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((7, 5))
    got = mse_per_instance(a, b)
    for i in range(7):
        want = sum((a[i, j] - b[i, j]) ** 2 for j in range(5)) / 5
        assert abs(got[i] - want) <= 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_per_instance(np.ones((2, 3)), np.ones((2, 4)))


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


def test_duplicate_rows_exchangeable_at_negligible_noise():
    params, p = small_model()
    sig = karras_schedule(ScheduleConfig(sigma_min=1e-9, sigma_max=5.0, rho=7.0, steps=5))
    row = Rng(6).standard_normal((1, 4))
    batch = np.repeat(row, 6, axis=0)
    # corruption at sigma_min ~ 1e-9 is far below the deterministic part
    dec = score_batch(params, p, sig, ScoringConfig(start_index=len(sig) - 2), batch, Rng(7))
    assert np.abs(dec.losses - dec.losses[0]).max() <= 1e-12


def test_score_batch_decision_invariants():
    params, p = small_model()
    sig = short_schedule()
    batch = Rng(8).standard_normal((32, 4))
    k = 0.5
    dec = score_batch(params, p, sig, ScoringConfig(start_index=1, k=k), batch, Rng(9))
    assert isinstance(dec, BatchDecision)
    assert abs(dec.l_th - (dec.mu_p + k * dec.sigma_p)) <= 1e-12
    assert np.array_equal(dec.flags, dec.losses > dec.l_th)
    assert dec.losses.shape == (32,)
    assert np.all(dec.losses >= 0)


def test_score_batch_scores_ignore_k():
    params, p = small_model()
    sig = short_schedule()
    batch = Rng(10).standard_normal((16, 4))
    a = score_batch(params, p, sig, ScoringConfig(start_index=1, k=0.1), batch, Rng(11))
    b = score_batch(params, p, sig, ScoringConfig(start_index=1, k=1.0), batch, Rng(11))
    assert np.array_equal(a.losses, b.losses)
    assert a.flags.sum() >= b.flags.sum()


def test_score_batch_float32_weights_keep_float64_losses():
    cfg = NetworkConfig(input_dim=4, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(2))
    params.out_w = (Rng(3).standard_normal(params.out_w.shape) * 0.1).astype(np.float32)
    p = Preconditioner(1.0)
    sig = short_schedule()
    batch = Rng(12).standard_normal((16, 4))
    scfg = ScoringConfig(start_index=0)
    got = score_batch(params, p, sig, scfg, batch, Rng(13))
    want = score_batch(params.astype(np.float64), p, sig, scfg, batch, Rng(13))
    assert got.losses.dtype == np.float64
    assert np.abs(got.losses - want.losses).max() <= 1e-5 * want.losses.max()


def test_score_batch_start_index_validated():
    params, p = small_model()
    sig = short_schedule()
    batch = np.ones((4, 4))
    with pytest.raises(ValueError):
        score_batch(params, p, sig, ScoringConfig(start_index=len(sig) - 1), batch, Rng(0))


# --- dataset scoring -----------------------------------------------------------

def one_video_set(n=12, dim=4, seed=13):
    feats = Rng(seed).standard_normal((n, dim)).astype(np.float32)
    return FeatureSet(feats, [VideoRecord("v", n * 16, 0, n)])


def test_dataset_single_batch_equals_score_batch():
    params, p = small_model()
    sig = short_schedule()
    fs = one_video_set()
    cfg = ScoringConfig(start_index=2, batch_size=64)
    scores = score_dataset(params, p, sig, cfg, fs, Rng(14))
    direct = score_batch(params, p, sig, cfg, fs.features.astype(np.float64), Rng(14).split("batch0"))
    assert np.array_equal(scores.mse, direct.losses)
    assert np.array_equal(scores.flags, direct.flags)
    assert scores.batch_ids.max() == 0


def test_dataset_batches_follow_manifest_order():
    params, p = small_model()
    sig = short_schedule()
    feats = Rng(15).standard_normal((10, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 64, 0, 4), VideoRecord("b", 96, 4, 6)])
    cfg = ScoringConfig(start_index=2, batch_size=4)
    scores = score_dataset(params, p, sig, cfg, fs, Rng(16))
    assert list(scores.batch_ids) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert len(scores.decisions) == 3
    # the short tail batch still computed its own threshold
    assert scores.decisions[2].losses.shape == (2,)


def test_dataset_short_tail_matches_fresh_denoiser_per_batch():
    # uniform float32 weights, so every NFE runs in the reused buffers
    cfg_net = NetworkConfig(input_dim=4, encoder_widths=(16, 8), decoder_widths=(8, 16),
                            embed_dim=8)
    params = init_params(cfg_net, Rng(21), dtype=np.float32)
    params.out_w = (Rng(22).standard_normal(params.out_w.shape) * 0.1).astype(np.float32)
    p = Preconditioner(1.0)
    sig = short_schedule()
    feats = Rng(23).standard_normal((23, 4)).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 23 * 16, 0, 23)])
    cfg = ScoringConfig(start_index=0, batch_size=8)  # batches of 8, 8 and 7 rows
    scores = score_dataset(params, p, sig, cfg, fs, Rng(24))
    assert scores.batch_ids.tolist() == [0] * 8 + [1] * 8 + [2] * 7
    for b, lo in enumerate(range(0, 23, 8)):
        x = feats[lo : lo + 8]
        recon = partial_reconstruct(lambda v, s: denoise(params, p, v, s), x, sig, 0,
                                    Rng(24).split(f"batch{b}"))
        assert np.array_equal(scores.mse[lo : lo + 8], mse_per_instance(x, recon))


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
    b = score_dataset(params, p, sig, cfg, fs, Rng(18), center=center)
    assert not np.array_equal(a.mse, b.mse)


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
    by_video = read_scores_csv(path)
    assert list(by_video) == ["a", "b"]
    assert np.array_equal(by_video["a"], scores.mse[:3])
    assert np.array_equal(by_video["b"], scores.mse[3:])


def test_scores_csv_rejects_gapped_indices(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "video_id,segment_index,mse,flagged,batch_id,l_th\n"
        "a,0,0.5,0,0,1.0\n"
        "a,2,0.6,0,0,1.0\n"
    )
    with pytest.raises(ValueError):
        read_scores_csv(path)


def test_scores_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("video,idx,loss\na,0,0.5\n")
    with pytest.raises(ValueError):
        read_scores_csv(path)


@pytest.mark.parametrize("index, mse, field", [("x1", "0.5", "segment_index"),
                                                ("1", "abc", "mse"),
                                                ("1.5", "0.5", "segment_index"),
                                                ("1e0", "0.5", "segment_index")])
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
    by_video = read_scores_csv(path)
    assert list(by_video) == ["b", "c", "a"]
    assert by_video["a"].tolist() == [1.25, 0.75]
    assert by_video["b"].tolist() == [1.0, 0.25, 1.5]
    assert by_video["c"].tolist() == [0.5, 1.75]


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
    by_video = read_scores_csv(path)
    assert list(by_video) == ids
    assert by_video[ids[0]].tolist() == [0.5]
    assert by_video[ids[1]].tolist() == [0.25, 2.0]
    assert by_video[ids[2]].tolist() == [4.0]


@pytest.mark.parametrize("line", ["", "a,1,0.5,0,0", "a,1,0.5,0,0,1.0,7"],
                         ids=["blank", "five-columns", "seven-columns"])
def test_scores_csv_malformed_row_names_the_line(tmp_path, line):
    path = tmp_path / "scores.csv"
    path.write_text(
        "video_id,segment_index,mse,flagged,batch_id,l_th\n"
        "a,0,0.5,0,0,1.0\n"
        f"{line}\n"
        "a,1,0.6,0,0,1.0\n"
    )
    with pytest.raises(DataError, match="line 3: expected 6 fields"):
        read_scores_csv(path)
