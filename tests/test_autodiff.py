"""Oracles for the pieces the denoiser's gradients are built from.

The training step differentiates one fixed graph in closed form: an
affine, SiLU and FiLM per hidden layer, then an affine output head.
These tests check the affines inside `forward_raw` against loops, SiLU
against its definition, and the backward of `dsm_loss` against finite
differences, a loop over the head's weight gradient and the row sum of
its bias gradient.
"""

import numpy as np
import pytest

from vadiff import (
    NetworkConfig,
    Preconditioner,
    Rng,
    dsm_loss,
    forward_raw,
    init_params,
    loss_weight,
    scalings,
    silu,
)


def tiny_params(dim=6, seed=1, dtype=np.float64):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(8, 4), decoder_widths=(4, 8),
                        embed_dim=8)
    return init_params(cfg, Rng(seed), dtype=dtype)


def one_layer_params(dim, width):
    cfg = NetworkConfig(input_dim=dim, encoder_widths=(width,), decoder_widths=(dim,),
                        embed_dim=2)
    return init_params(cfg, Rng(0), dtype=np.float64)


def first_preactivation(params, x):
    cache = []
    forward_raw(params, x, 0.0, cache=cache)
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
    params.out_w = Rng(101).standard_normal(params.out_w.shape) * 0.3
    params.out_b = Rng(201).standard_normal(params.out_b.shape) * 0.1
    cache = []
    f = forward_raw(params, x, 0.4, cache=cache)
    assert len(cache) == len(params.layers) + 1
    for lay, (h, a, s, u, gamma) in zip(params.layers, cache):
        assert np.abs(a - (matmul_loop_oracle(h, lay.w) + lay.b)).max() <= 1e-12
        assert np.array_equal(u, silu(a))
    assert np.array_equal(cache[0][0], x)
    assert np.abs(f - (matmul_loop_oracle(cache[-1], params.out_w) + params.out_b)).max() <= 1e-12


def test_affine_identity():
    params = one_layer_params(2, 2)
    params.layers[0].w = np.eye(2)
    params.layers[0].b = np.zeros(2)
    assert np.array_equal(first_preactivation(params, np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_affine_hand_arithmetic():
    params = one_layer_params(2, 1)
    params.layers[0].w = np.array([[2.0], [3.0]])
    params.layers[0].b = np.array([1.0])
    assert np.array_equal(first_preactivation(params, np.array([[1.0, 1.0]])), [[6.0]])


def test_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_raw(tiny_params(), np.ones((2, 5)), 0.1)


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


def test_silu_on_plain_arrays():
    x = np.array([0.0, 1.0, -1.0])
    got = silu(x)
    want = x / (1.0 + np.exp(-x))
    assert np.allclose(got, want, atol=1e-15)
    assert got[0] == 0.0
