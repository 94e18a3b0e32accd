"""The denoiser network and its noise-dependent preconditioning.

The raw network is an encoder-decoder MLP.  The noise level enters as a
Fourier embedding of c_noise(sigma), injected after every hidden layer
through FiLM (per-unit scale and shift).  The trained network is wrapped
by sigma-dependent scalings so that the effective denoiser is

    D(x; sigma) = c_skip(sigma) * x + c_out(sigma) * F(c_in(sigma) * x; c_noise(sigma))

which behaves like the identity at low noise and like a full predictor
at high noise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import Rng

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    encoder_widths: tuple[int, ...] = (1024, 512, 256)
    decoder_widths: tuple[int, ...] = (256, 512, 1024)
    embed_dim: int = 128
    activation: str = "silu"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.embed_dim < 2 or self.embed_dim % 2 != 0:
            raise ValueError("embed_dim must be even (paired cos/sin features)")
        if not self.encoder_widths or not self.decoder_widths:
            raise ValueError("encoder and decoder need at least one layer each")
        if any(w < 1 for w in self.encoder_widths + self.decoder_widths):
            raise ValueError("layer widths must be positive")
        if self.activation != "silu":
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.encoder_widths + self.decoder_widths


@dataclass
class Preconditioner:
    """Holds sigma_data, the standard deviation of the clean features."""

    sigma_data: float

    def __post_init__(self):
        if not np.isfinite(self.sigma_data) or self.sigma_data <= 0:
            raise ValueError(f"sigma_data must be positive and finite, got {self.sigma_data}")


def scalings(p: Preconditioner, sigma):
    """(c_skip, c_out, c_in, c_noise) at noise level sigma.

    sigma may be a scalar or an array; outputs broadcast accordingly.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    sd2 = p.sigma_data * p.sigma_data
    total = sigma * sigma + sd2
    c_skip = sd2 / total
    c_out = sigma * p.sigma_data / np.sqrt(total)
    c_in = 1.0 / np.sqrt(total)
    c_noise = 0.25 * np.log(sigma)
    return c_skip, c_out, c_in, c_noise


@dataclass
class LayerParams:
    w: np.ndarray
    b: np.ndarray
    gamma_w: np.ndarray
    gamma_b: np.ndarray
    beta_w: np.ndarray
    beta_b: np.ndarray


@dataclass
class DenoiserParams:
    """All weights of the denoiser MLP plus the fixed Fourier frequencies.

    `freqs` is drawn once at initialization and never trained; everything
    else is.  Tensor declaration order (freqs, then per-layer tensors,
    then the output projection) is the checkpoint serialization order.
    """

    config: NetworkConfig
    freqs: np.ndarray
    layers: list[LayerParams]
    out_w: np.ndarray
    out_b: np.ndarray

    _TRAINABLE = ("w", "b", "gamma_w", "gamma_b", "beta_w", "beta_b")

    def tensors(self) -> list[np.ndarray]:
        """All tensors in declaration order, fixed frequencies included."""
        out = [self.freqs]
        for lay in self.layers:
            out.extend(getattr(lay, name) for name in self._TRAINABLE)
        out.extend([self.out_w, self.out_b])
        return out

    def trainable(self) -> list[np.ndarray]:
        return self.tensors()[1:]

    def copy(self) -> "DenoiserParams":
        return _params_from_tensors(self.config, [t.copy() for t in self.tensors()])

    @property
    def dtype(self):
        return self.out_w.dtype

    def astype(self, dtype) -> "DenoiserParams":
        return _params_from_tensors(self.config, [t.astype(dtype) for t in self.tensors()])


def _tensor_shapes(cfg: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor in declaration order."""
    out = [("freqs", (cfg.embed_dim // 2,))]
    prev = cfg.input_dim
    for i, w in enumerate(cfg.hidden_widths):
        shapes = ((prev, w), (w,),  # affine
                  (cfg.embed_dim, w), (w,), (cfg.embed_dim, w), (w,))  # FiLM gamma, beta
        out.extend((f"layers[{i}].{name}", shape)
                   for name, shape in zip(DenoiserParams._TRAINABLE, shapes))
        prev = w
    out.extend([("out_w", (prev, cfg.input_dim)), ("out_b", (cfg.input_dim,))])
    return out


def param_count(cfg: NetworkConfig) -> int:
    """Total tensor entry count; a pure function of the configuration."""
    return sum(math.prod(shape) for _, shape in _tensor_shapes(cfg))


def init_params(cfg: NetworkConfig, rng: Rng, dtype=np.float32) -> DenoiserParams:
    """Fan-in-scaled uniform init; zero output layer; FiLM starts near identity.

    Zeroing the output projection makes the initial denoiser exactly
    c_skip(sigma) * x, an identity-like starting point.
    """
    init_rng = rng.split("init")
    freq_rng = rng.split("fourier")
    freqs = freq_rng.standard_normal(cfg.embed_dim // 2).astype(dtype)

    def uniform(r, rows, cols, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        u = r.uniform(-lim, lim, size=(rows, cols) if cols else (rows,))
        return u.astype(dtype)

    layers = []
    prev = cfg.input_dim
    for width in cfg.hidden_widths:
        layers.append(
            LayerParams(
                w=uniform(init_rng, prev, width, prev),
                b=uniform(init_rng, width, 0, prev),
                gamma_w=uniform(init_rng, cfg.embed_dim, width, cfg.embed_dim),
                gamma_b=np.ones(width, dtype=dtype),
                beta_w=uniform(init_rng, cfg.embed_dim, width, cfg.embed_dim),
                beta_b=np.zeros(width, dtype=dtype),
            )
        )
        prev = width
    out_w = np.zeros((prev, cfg.input_dim), dtype=dtype)
    out_b = np.zeros(cfg.input_dim, dtype=dtype)
    return DenoiserParams(cfg, freqs, layers, out_w, out_b)


def fourier_embed(params: DenoiserParams, c_noise):
    """[cos(2 pi f_i c), ..., sin(2 pi f_i c), ...] over the fixed frequencies.

    Scalar c_noise gives a vector; an (n,) array gives an (n, embed_dim)
    matrix with one embedding per row.
    """
    c = np.asarray(c_noise, dtype=params.freqs.dtype)
    phase = _TWO_PI * (c[..., None] * params.freqs)
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=-1)


def _sigmoid(x, out=None):
    # tanh saturates instead of overflowing, at any magnitude and dtype
    s = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    s *= 0.5
    s += 0.5
    return s


def silu(x):
    """Sigmoid-weighted linear unit x * sigmoid(x)."""
    return x * _sigmoid(x)


def film(h, gamma, beta, out=None):
    """Per-unit scale and shift, broadcast over batch rows; into `out` if given."""
    if np.shape(gamma)[-1] != np.shape(h)[-1]:
        raise ValueError(f"FiLM width mismatch: hidden {np.shape(h)[-1]}, "
                         f"gamma {np.shape(gamma)[-1]}")
    out = np.multiply(gamma, h, out=out)
    out += beta
    return out


def forward_raw(params, x_scaled, c_noise, *, embedding=None, cache=None, work=None):
    """Raw network pass F(x_scaled; c_noise): encoder, decoder, output head.

    `embedding` overrides the Fourier embedding when the caller already
    computed it.  When `cache` is a list, each hidden layer appends the
    tuple (input, pre-activation a, sigmoid(a), silu(a), gamma) its
    backward needs, and the output head then appends its input.

    Without a cache, and with input, embedding and weights in one dtype
    (as denoise calls it), each hidden layer runs in place in two buffers
    of rows x widest layer that take turns: the affine product lands in
    one, the sigmoid in the other (its input is dead once multiplied),
    and SiLU and FiLM overwrite the affine product.  The list `work` keeps
    the buffers between calls.  Every path gives the same bits.
    """
    emb = fourier_embed(params, c_noise) if embedding is None else embedding
    h = np.asarray(x_scaled)
    inplace = cache is None and h.dtype == emb.dtype == params.dtype
    if inplace:
        work = [] if work is None else work
        room = h.size // h.shape[-1] * max(params.config.hidden_widths)
        if not work or work[0].size < room or work[0].dtype != h.dtype:
            work[:] = [np.empty(room, h.dtype), np.empty(room, h.dtype)]
    a_out = s_out = None
    for i, lay in enumerate(params.layers):
        if inplace:
            shape = h.shape[:-1] + lay.b.shape
            size = math.prod(shape)
            a_out = work[i % 2][:size].reshape(shape)
            s_out = work[1 - i % 2][:size].reshape(shape)
        # in-place bias adds: no second batch-sized buffer per affine
        a = np.matmul(h, lay.w, out=a_out)
        a += lay.b
        s = _sigmoid(a, out=s_out)
        u = np.multiply(a, s, out=a_out)
        gamma = emb @ lay.gamma_w
        gamma += lay.gamma_b
        beta = emb @ lay.beta_w
        beta += lay.beta_b
        if cache is not None:
            cache.append((h, a, s, u, gamma))
        h = film(u, gamma, beta, out=a_out)
    if cache is not None:
        cache.append(h)
    f = h @ params.out_w
    f += params.out_b
    return f


def denoise(params: DenoiserParams, p: Preconditioner, x: np.ndarray, sigma, *,
            work=None) -> np.ndarray:
    """Effective denoiser D(x; sigma) for inference, in x's float dtype.

    sigma is a scalar or per-row (n,) array; columns are feature dims.
    The network itself runs in the weights' dtype, in place in the
    buffers `work` keeps (see forward_raw).
    """
    x = np.asarray(x)
    c_skip, c_out, c_in, c_noise = scalings(p, sigma)
    if np.ndim(sigma) == 1:
        c_skip, c_out, c_in = c_skip[:, None], c_out[:, None], c_in[:, None]
    f = forward_raw(params, (c_in * x).astype(params.dtype), c_noise, work=work)
    dt = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    return (c_skip * x + c_out * f).astype(dt, copy=False)


def as_denoiser(params: DenoiserParams, p: Preconditioner):
    """The effective denoiser as a plain (x, sigma) -> x_hat callable,
    the form the ODE sampler consumes.  Its calls share one set of
    activation buffers, so a sampling chain allocates them once.
    """
    work = []
    return lambda x, sigma: denoise(params, p, x, sigma, work=work)


# --- checkpoint serialization (magic "VADW") --------------------------------

_MAGIC = b"VADW"
_VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_tensors(fh, tensors):
    fh.write(struct.pack("<Q", len(tensors)))
    for t in tensors:
        arr = np.ascontiguousarray(t, dtype="<f4")
        fh.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(arr.tobytes())


def _read_tensors(fh):
    (count,) = _read_struct(fh, "<Q")
    out = []
    for _ in range(count):
        (ndim,) = _read_struct(fh, "<B")
        shape = tuple(_read_struct(fh, "<" + "I" * ndim)) if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        raw = fh.read(4 * n)
        if len(raw) != 4 * n:
            raise CheckpointError("truncated checkpoint: tensor data missing")
        out.append(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
    return out


def _read_struct(fh, fmt):
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise CheckpointError("truncated checkpoint")
    return struct.unpack(fmt, raw)


def save_checkpoint(path, params: DenoiserParams, ema: DenoiserParams,
                    sigma_data: float, center=None) -> None:
    """Versioned binary checkpoint: config, data stats, params, EMA copy."""
    cfg = params.config
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<I", cfg.input_dim))
        fh.write(struct.pack("<B", len(cfg.encoder_widths)))
        for w in cfg.encoder_widths:
            fh.write(struct.pack("<I", w))
        fh.write(struct.pack("<B", len(cfg.decoder_widths)))
        for w in cfg.decoder_widths:
            fh.write(struct.pack("<I", w))
        fh.write(struct.pack("<I", cfg.embed_dim))
        act = cfg.activation.encode("ascii")
        fh.write(struct.pack("<B", len(act)))
        fh.write(act)
        fh.write(struct.pack("<d", float(sigma_data)))
        if center is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(np.ascontiguousarray(center, dtype="<f4").tobytes())
        _write_tensors(fh, params.tensors())
        _write_tensors(fh, ema.tensors())


def load_checkpoint(path):
    """Returns (params, ema, sigma_data, center-or-None)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        (version,) = _read_struct(fh, "<H")
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (input_dim,) = _read_struct(fh, "<I")
        (n_enc,) = _read_struct(fh, "<B")
        enc = tuple(_read_struct(fh, "<" + "I" * n_enc))
        (n_dec,) = _read_struct(fh, "<B")
        dec = tuple(_read_struct(fh, "<" + "I" * n_dec))
        (embed_dim,) = _read_struct(fh, "<I")
        (act_len,) = _read_struct(fh, "<B")
        raw_act = fh.read(act_len)
        try:
            act = raw_act.decode("ascii")
        except UnicodeDecodeError:
            raise CheckpointError(f"activation name {raw_act!r} is not ASCII") from None
        (sigma_data,) = _read_struct(fh, "<d")
        (has_center,) = _read_struct(fh, "<B")
        center = None
        if has_center:
            raw = fh.read(4 * input_dim)
            if len(raw) != 4 * input_dim:
                raise CheckpointError("truncated checkpoint: center vector")
            center = np.frombuffer(raw, dtype="<f4").copy()
        try:
            cfg = NetworkConfig(input_dim, enc, dec, embed_dim, act)
        except ValueError as e:
            raise CheckpointError(f"bad network config in checkpoint: {e}") from None
        params = _params_from_tensors(cfg, _read_tensors(fh), "raw weights")
        ema = _params_from_tensors(cfg, _read_tensors(fh), "EMA weights")
    return params, ema, sigma_data, center


def _params_from_tensors(cfg: NetworkConfig, tensors, what="weights") -> DenoiserParams:
    """Unflatten declaration-order tensors, checking each shape against cfg."""
    shapes = _tensor_shapes(cfg)
    if len(tensors) != len(shapes):
        raise CheckpointError(
            f"{what}: checkpoint holds {len(tensors)} tensors, config implies {len(shapes)}"
        )
    for t, (name, shape) in zip(tensors, shapes):
        if t.shape != shape:
            raise CheckpointError(
                f"{what}: tensor {name} has shape {t.shape}, config implies {shape}"
            )
    n_per_layer = len(DenoiserParams._TRAINABLE)
    freqs = tensors[0]
    layers = []
    i = 1
    for _ in cfg.hidden_widths:
        layers.append(LayerParams(*tensors[i : i + n_per_layer]))
        i += n_per_layer
    return DenoiserParams(cfg, freqs, layers, tensors[i], tensors[i + 1])
