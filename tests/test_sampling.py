from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vadiff import (
    FeatureSet,
    NetworkConfig,
    Preconditioner,
    Rng,
    ScheduleConfig,
    ScoringConfig,
    TrainNoiseConfig,
    VideoRecord,
    as_denoiser,
    init_params,
    karras_schedule,
    lms_sample,
    noise_bounds,
    score_dataset,
)
from vadiff import scoring
from vadiff.sampling import multistep_coeff


def default_schedule():
    return karras_schedule(ScheduleConfig(sigma_min=0.02, sigma_max=80.0, rho=7.0, steps=10))


def identity_denoiser(x, sigma):
    return x


def zero_denoiser(x, sigma):
    return np.zeros_like(x)


# --- schedule ------------------------------------------------------------------

def test_schedule_exact_endpoints():
    sig = default_schedule()
    assert sig[0] == 80.0
    assert sig[-2] == 0.02
    assert sig[-1] == 0.0
    assert len(sig) == 11


def test_schedule_interior_value():
    # frozen high-precision evaluation of the rho-interpolation at i=5
    sig = default_schedule()
    assert abs(sig[5] - 2.641707405379053) <= 1e-10


def test_schedule_strictly_decreasing():
    for steps in (2, 3, 10, 50):
        for rho in (1.0, 3.0, 7.0):
            sig = karras_schedule(ScheduleConfig(0.01, 25.0, rho, steps))
            assert np.all(np.diff(sig) < 0)
            assert sig[0] == 25.0 and sig[-2] == 0.01 and sig[-1] == 0.0


def test_schedule_rejects_bad_config():
    with pytest.raises(ValueError):
        ScheduleConfig(sigma_min=0.0, sigma_max=80.0, rho=7.0, steps=10)
    with pytest.raises(ValueError):
        ScheduleConfig(sigma_min=2.0, sigma_max=1.0, rho=7.0, steps=10)
    with pytest.raises(ValueError):
        ScheduleConfig(sigma_min=0.02, sigma_max=80.0, rho=-1.0, steps=10)
    with pytest.raises(ValueError):
        ScheduleConfig(sigma_min=0.02, sigma_max=80.0, rho=7.0, steps=1)


# --- noise bounds from the training-noise distribution ---------------------------

def test_noise_bounds_documented_narrow_case():
    lo, hi = noise_bounds(TrainNoiseConfig(p_mean=0.0, p_std=0.2))
    assert abs(lo - 0.36787944117144233) <= 1e-15
    assert abs(hi - 2.718281828459045) <= 1e-15


def test_noise_bounds_default_parameters():
    # e^(-1.2 - 6) and e^(-1.2 + 6); intentionally unequal to the separate
    # (0.02, 80) sampler defaults, which stay available as explicit overrides
    lo, hi = noise_bounds(TrainNoiseConfig(p_mean=-1.2, p_std=1.2))
    assert abs(lo - 7.465858083766794e-04) <= 1e-18
    assert abs(hi - 121.51041751873488) <= 1e-11
    assert not np.isclose(lo, 0.02)
    assert not np.isclose(hi, 80.0)


def test_noise_bounds_log_symmetry():
    for p_mean, p_std in [(0.0, 0.2), (-1.2, 1.2), (0.7, 0.05)]:
        lo, hi = noise_bounds(TrainNoiseConfig(p_mean=p_mean, p_std=p_std))
        assert abs((np.log(hi) - p_mean) - 5.0 * p_std) <= 1e-12
        assert abs((p_mean - np.log(lo)) - 5.0 * p_std) <= 1e-12
        assert abs(lo * hi - np.exp(2.0 * p_mean)) <= 1e-12 * np.exp(2.0 * p_mean)


# --- probability-flow derivative, through one order-1 step ----------------------

def test_derivative_identity_denoiser_is_zero():
    x = Rng(0).standard_normal((4, 6))
    out = lms_sample(identity_denoiser, x, np.array([1.3, 0.0]), order=1)
    assert np.array_equal(out, x)


def test_derivative_zero_denoiser():
    # one Euler step moves x by exactly (sigma_next - sigma) * d, with d = x / sigma
    x = Rng(1).standard_normal((4, 6))
    out = lms_sample(zero_denoiser, x, np.array([2.5, 1.5]), order=1)
    assert np.array_equal(out, x + (1.5 - 2.5) * (x / 2.5))


def test_derivative_score_consistency_with_network():
    cfg = NetworkConfig(input_dim=6, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8)
    params = init_params(cfg, Rng(3)).astype(np.float64)  # float64 head, as drawn
    params.out_w[...] = Rng(4).standard_normal(params.out_w.shape) * 0.5
    p = Preconditioner(1.0)
    den = as_denoiser(params, p)
    x = Rng(5).standard_normal((5, 6))
    for sigma in (0.07, 1.0, 19.0):
        # a step from sigma to 0 moves x by -sigma * d
        out = lms_sample(den, x, np.array([sigma, 0.0]), order=1)
        residual = (x - out) * sigma + (den(x, sigma) - x) * sigma
        assert np.abs(residual).max() <= 1e-10


def test_derivative_rejects_nonpositive_sigma():
    # every sigma stepped from is checked before the first denoiser call
    calls = []

    def den(v, s):
        calls.append(s)
        return v

    for sig in ([0.0, 0.0], [1.0, 0.0, 0.0], [1.0, -0.5, 0.0]):
        with pytest.raises(ValueError, match="must be > 0"):
            lms_sample(den, np.ones((1, 2)), np.array(sig), order=1)
    assert calls == []


# --- linear multistep sampler -----------------------------------------------------

def test_multistep_order1_coefficient_is_exact_step():
    sig = default_schedule()
    for i in range(len(sig) - 1):
        c = multistep_coeff(sig, i, 0, 1)
        assert c == sig[i + 1] - sig[i]


def polynomial_coeff(sigmas, i, j, cur_order):
    """Oracle: the Lagrange basis polynomial built, integrated and evaluated
    with numpy's Polynomial class."""
    poly = Polynomial([1.0])
    xj = sigmas[i - j]
    for k in range(cur_order):
        if k != j:
            xk = sigmas[i - k]
            poly = poly * Polynomial([-xk, 1.0]) / (xj - xk)
    anti = poly.integ()
    return float(anti(sigmas[i + 1]) - anti(sigmas[i]))


@pytest.mark.parametrize("cfg", [ScheduleConfig(), ScheduleConfig(0.002, 80.0, 7.0, 40),
                                 ScheduleConfig(0.01, 25.0, 3.0, 50),
                                 ScheduleConfig(0.1, 10.0, 1.0, 20)],
                         ids=["default", "steps40", "rho3", "rho1"])
def test_multistep_coeff_equals_polynomial_oracle_exactly(cfg):
    sig = karras_schedule(cfg)
    for order in range(1, 7):
        for i in range(len(sig) - 1):
            cur_order = min(order, i + 1)
            for j in range(cur_order):
                assert multistep_coeff(sig, i, j, cur_order) == \
                    polynomial_coeff(sig, i, j, cur_order), (order, i, j)


def test_order1_matches_handwritten_euler_bitwise():
    sig = default_schedule()
    x = Rng(7).standard_normal((8, 6))

    def den(v, s):
        return np.tanh(v) * 0.5

    got = lms_sample(den, x, sig, order=1)
    ref = x.astype(np.float64).copy()
    for i in range(len(sig) - 1):
        d = (ref - den(ref, sig[i])) / sig[i]
        ref = ref + (sig[i + 1] - sig[i]) * d
    assert np.array_equal(got, ref)
    assert np.abs(got - ref).max() <= 1e-12


def test_start_at_final_index_is_identity_copy():
    sig = default_schedule()
    x = Rng(8).standard_normal((3, 6))
    out = lms_sample(identity_denoiser, x, sig, start_index=len(sig) - 1)
    assert np.array_equal(out, x)
    out[0, 0] = 999.0
    assert x[0, 0] != 999.0


def test_zero_denoiser_closed_form_trajectory():
    # with a zero denoiser the flow is dx/dsigma = x/sigma, solved by
    # x(sigma) = x0 * sigma / sigma_0; check every truncated endpoint
    sig = default_schedule()
    x0 = Rng(9).standard_normal((16, 6))
    for stop in range(1, len(sig) - 1):
        got = lms_sample(zero_denoiser, x0, sig[: stop + 1], order=4)
        want = x0 * (sig[stop] / sig[0])
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 0.01 * scale
    final = lms_sample(zero_denoiser, x0, sig, order=4)
    assert np.abs(final).max() <= 1e-12


def test_refining_steps_does_not_worsen_linear_ode():
    # Euler/LMS integrate d = x/sigma exactly (d is constant along each
    # trajectory), so both step counts sit at rounding level; the doubled
    # grid must stay there rather than strictly shrink
    x0 = Rng(10).standard_normal((4, 6))
    errs = {}
    for steps in (10, 20):
        sig = karras_schedule(ScheduleConfig(0.02, 80.0, 7.0, steps))
        out = lms_sample(zero_denoiser, x0, sig, order=4)
        errs[steps] = np.abs(out).max()
    assert errs[10] <= 1e-12
    assert errs[20] <= errs[10] or errs[20] <= 1e-12


def test_refining_steps_converges_on_curved_ode():
    # denoiser -sigma*x gives dx/dsigma = x*(1+sigma)/sigma with closed form
    # x(sigma) = x0*(sigma/sigma_0)*exp(sigma - sigma_0); truncation error is
    # genuinely nonzero here so halving the step size must pay off
    def den(v, s):
        return -s * v

    x0 = Rng(11).standard_normal((4, 6)) + 3.0
    errs = {}
    for steps in (10, 20):
        sig = karras_schedule(ScheduleConfig(0.05, 2.0, 7.0, steps))
        got = lms_sample(den, x0, sig[:-1], order=4)  # stop at sigma_min, not 0
        want = x0 * (sig[-2] / sig[0]) * np.exp(sig[-2] - sig[0])
        errs[steps] = np.abs(got - want).max()
    assert errs[20] < errs[10]
    assert errs[10] <= 0.01 * np.abs(x0).max()


def test_lms_rejects_out_of_range_start():
    sig = default_schedule()
    x = np.ones((1, 2))
    with pytest.raises(ValueError):
        lms_sample(identity_denoiser, x, sig, start_index=len(sig))
    with pytest.raises(ValueError):
        lms_sample(identity_denoiser, x, sig, start_index=-1)


# --- partial corruption + reconstruction, through score_dataset -------------------

def reconstruction_mse(monkeypatch, den, x, sig, t, seed):
    """Per-row MSE of score_dataset on `x` as one batch, with `den` as the
    network and the ODE state in float64: of the weights, score_dataset
    then reads only their dtype.  score_dataset integrates the displacement
    y from the block, so `den` is taken about it, as D(base + y) - base."""
    monkeypatch.setattr(scoring, "as_denoiser",
                        lambda params, p: lambda y, s, base: den(base + y, s) - base)
    fs = FeatureSet(x, [VideoRecord("v", len(x) * 16, 0, len(x))])
    cfg = ScoringConfig(start_index=t, batch_size=len(x))
    weights = SimpleNamespace(dtype=np.dtype(np.float64))
    return score_dataset(weights, Preconditioner(1.0), sig, cfg, fs, Rng(seed)).mse


def test_partial_corruption_rms_at_last_index(monkeypatch):
    sig = default_schedule()
    x = np.zeros((512, 64))
    # identity denoiser keeps the derivative at zero, so the output exposes
    # the corrupted point itself
    mse = reconstruction_mse(monkeypatch, identity_denoiser, x, sig, len(sig) - 2, 21)
    rms = float(np.sqrt(np.mean(mse)))
    assert 0.9 * 0.02 <= rms <= 1.1 * 0.02


def test_partial_reconstruct_tiny_sigma_returns_input(monkeypatch):
    sig = karras_schedule(ScheduleConfig(1e-6, 1.0, 7.0, 10))
    x = Rng(22).standard_normal((32, 8))
    mse = reconstruction_mse(monkeypatch, identity_denoiser, x, sig, len(sig) - 2, 23)
    assert float(np.mean(mse)) <= 1e-10


def test_partial_reconstruct_seed_determinism(monkeypatch):
    sig = default_schedule()
    x = Rng(24).standard_normal((8, 6))

    def den(v, s):
        return 0.3 * v

    a = reconstruction_mse(monkeypatch, den, x, sig, 4, 77)
    b = reconstruction_mse(monkeypatch, den, x, sig, 4, 77)
    c = reconstruction_mse(monkeypatch, den, x, sig, 4, 78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_partial_reconstruct_range_validation(monkeypatch):
    # the range is checked before any noise is drawn or the denoiser runs
    sig = default_schedule()
    x = np.ones((2, 3))

    def den(v, s):
        raise AssertionError("denoiser called")

    for t in (len(sig) - 1, -1):
        with pytest.raises(ValueError, match="start_index"):
            reconstruction_mse(monkeypatch, den, x, sig, t, 0)


def test_partial_reconstruct_more_noise_more_error(monkeypatch):
    # structured data pulled toward the origin by a shrinking denoiser:
    # corruption at a higher sigma loses more of the original signal
    sig = default_schedule()
    x = Rng(25).standard_normal((256, 16)) * 0.1 + 2.0

    def den(v, s):
        return v / (1.0 + s)

    mse_early = float(np.mean(reconstruction_mse(monkeypatch, den, x, sig, 2, 31)))
    mse_late = float(np.mean(reconstruction_mse(monkeypatch, den, x, sig, 7, 31)))
    assert mse_early >= mse_late
