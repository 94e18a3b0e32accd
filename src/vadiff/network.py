"""The denoiser network and its noise-dependent preconditioning.

The raw network is an encoder-decoder MLP.  The noise level enters as a
Fourier embedding of c_noise(sigma), injected after every hidden layer
through FiLM (per-unit scale and shift).  The trained network is wrapped
by sigma-dependent scalings so that the effective denoiser is

    D(x; sigma) = c_skip(sigma) * x + c_out(sigma) * F(c_in(sigma) * x; c_noise(sigma))

which behaves like the identity at low noise and like a full predictor
at high noise.  The Preconditioner record holds what training fixed of
the data; the checkpoint stores it with the weights and the training noise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .files import aligned, map_file, replacing
from .rng import Rng
from .sampling import ScheduleConfig, TrainNoiseConfig, noise_bounds

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    encoder_widths: tuple[int, ...] = (1024, 512, 256)
    decoder_widths: tuple[int, ...] = (256, 512, 1024)
    embed_dim: int = 128

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.embed_dim < 2 or self.embed_dim % 2 != 0:
            raise ValueError("embed_dim must be even (paired cos/sin features)")
        if not self.encoder_widths or not self.decoder_widths:
            raise ValueError("encoder and decoder need at least one layer each")
        if any(w < 1 for w in self.encoder_widths + self.decoder_widths):
            raise ValueError("layer widths must be positive")

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.encoder_widths + self.decoder_widths


@dataclass
class Preconditioner:
    """sigma_data, the standard deviation of the clean features, and the
    per-dimension means (float32) that fit and score_dataset subtract, if set."""

    sigma_data: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.sigma_data) or self.sigma_data <= 0:
            raise ValueError(f"sigma_data must be positive and finite, got {self.sigma_data}")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=np.float32)


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


def _named_tensor(i: int, doc: str):
    """Tensor i of the record's views; assigning to it writes into the view."""
    def put(self, value):
        self._tensors[i][...] = value
    return property(lambda self: self._tensors[i], put, doc=doc)


class Layer:
    """One hidden layer's six tensors, views into DenoiserParams.flat."""

    __slots__ = ("_tensors",)
    NAMES = ("w", "b", "gamma_w", "gamma_b", "beta_w", "beta_b")

    def __init__(self, tensors):
        self._tensors = tensors

    w = _named_tensor(0, "Affine weight (fan_in, width).")
    b = _named_tensor(1, "Affine bias.")
    gamma_w = _named_tensor(2, "FiLM scale weight (embed_dim, width).")
    gamma_b = _named_tensor(3, "FiLM scale bias.")
    beta_w = _named_tensor(4, "FiLM shift weight (embed_dim, width).")
    beta_b = _named_tensor(5, "FiLM shift bias.")


class DenoiserParams:
    """All weights of the denoiser MLP plus the fixed Fourier frequencies,
    held in one flat vector.

    `flat` lays every tensor out in _tensor_shapes order, the checkpoint
    serialization order: the frequencies (drawn once at initialization and
    never trained), each hidden layer's six tensors, then the output
    projection.  The named tensors are views into it, so the trainable
    tensors are one contiguous tail, `trainable_flat`; assigning to a named
    tensor (`params.out_w = ...`, `params.layers[0].b = ...`) writes into it.
    """

    def __init__(self, config: NetworkConfig, flat: np.ndarray):
        if flat.shape != (param_count(config),):
            raise ValueError(f"flat weights have shape {flat.shape}, "
                             f"config implies ({param_count(config)},)")
        self.config = config
        self.flat = flat
        self._tensors = _flat_views(config, flat)
        n = len(Layer.NAMES)
        self.layers = [Layer(self._tensors[i : i + n]) for i in range(1, len(self._tensors) - 2, n)]

    freqs = _named_tensor(0, "Fourier frequencies (never trained).")
    out_w = _named_tensor(-2, "Output projection matrix.")
    out_b = _named_tensor(-1, "Output projection bias.")

    def tensors(self) -> list[np.ndarray]:
        """All tensors in declaration order, fixed frequencies included."""
        return list(self._tensors)

    def trainable(self) -> list[np.ndarray]:
        return self._tensors[1:]

    @property
    def trainable_flat(self) -> np.ndarray:
        """The trainable tensors as one vector: `flat` after the frequencies."""
        return self.flat[self.freqs.size :]

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(self.config, self.flat.copy())

    @property
    def dtype(self):
        return self.flat.dtype

    def astype(self, dtype) -> "DenoiserParams":
        return DenoiserParams(self.config, self.flat.astype(dtype))


def _tensor_shapes(cfg: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor in declaration order."""
    out = [("freqs", (cfg.embed_dim // 2,))]
    prev = cfg.input_dim
    for i, w in enumerate(cfg.hidden_widths):
        shapes = ((prev, w), (w,),  # affine
                  (cfg.embed_dim, w), (w,), (cfg.embed_dim, w), (w,))  # FiLM gamma, beta
        out.extend((f"layers[{i}].{name}", shape)
                   for name, shape in zip(Layer.NAMES, shapes))
        prev = w
    out.extend([("out_w", (prev, cfg.input_dim)), ("out_b", (cfg.input_dim,))])
    return out


def param_count(cfg: NetworkConfig) -> int:
    """Total tensor entry count; a pure function of the configuration."""
    return sum(math.prod(shape) for _, shape in _tensor_shapes(cfg))


def init_params(cfg: NetworkConfig, rng: Rng, dtype=np.float32) -> DenoiserParams:
    """Fan-in-scaled uniform init; zero output layer; FiLM starts near identity.

    Weights and biases draw in declaration order from the "init" stream,
    the frequencies from the "fourier" stream.  Zeroing the output
    projection makes the initial denoiser exactly c_skip(sigma) * x, an
    identity-like starting point.
    """
    init_rng = rng.split("init")
    params = DenoiserParams(cfg, np.empty(param_count(cfg), dtype))
    for (name, shape), t in zip(_tensor_shapes(cfg), params.tensors()):
        field = name.rsplit(".", 1)[-1]
        if field == "freqs":
            t[...] = rng.split("fourier").standard_normal(shape)
        elif field in ("w", "b", "gamma_w", "beta_w"):
            if field != "b":  # a bias shares the fan-in of the matrix before it
                lim = 1.0 / np.sqrt(shape[0])
            t[...] = init_rng.uniform(-lim, lim, size=shape)
        else:
            t[...] = 1.0 if field == "gamma_b" else 0.0
    return params


def fourier_embed(params: DenoiserParams, c_noise):
    """[cos(2 pi f_i c), ..., sin(2 pi f_i c), ...] over the fixed frequencies.

    Scalar c_noise gives a vector; an (n,) array gives an (n, embed_dim)
    matrix with one embedding per row.
    """
    c = np.asarray(c_noise, dtype=params.freqs.dtype)
    phase = _TWO_PI * (c[..., None] * params.freqs)
    half = phase.shape[-1]
    emb = np.empty(phase.shape[:-1] + (2 * half,), phase.dtype)
    np.cos(phase, out=emb[..., :half])
    np.sin(phase, out=emb[..., half:])
    return emb


def _sigmoid(x, out=None):
    # tanh saturates instead of overflowing, at any magnitude and dtype
    s = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    s *= 0.5
    s += 0.5
    return s


def _view(buf, at, shape):
    """buf[at : at + prod(shape)] as an array of that shape."""
    return buf[at : at + math.prod(shape)].reshape(shape)


def _reserve(work, sizes, dtype):
    """The list `work` holding one flat buffer of dtype per size: a buffer
    kept from an earlier call is reused when it is large enough."""
    for k, size in enumerate(sizes):
        if k == len(work) or work[k].size < size or work[k].dtype != dtype:
            work[k : k + 1] = [np.empty(size, dtype)]
    return work


def film(h, gamma, beta, out=None):
    """Per-unit scale and shift, broadcast over batch rows; into `out` if given."""
    if np.shape(gamma)[-1] != np.shape(h)[-1]:
        raise ValueError(f"FiLM width mismatch: hidden {np.shape(h)[-1]}, "
                         f"gamma {np.shape(gamma)[-1]}")
    out = np.multiply(gamma, h, out=out)
    out += beta
    return out


def _affine(x, w, b, out=None):
    """x @ w + b, into `out` if given; the bias is added in place."""
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _silu(a, s, u):
    """(sigmoid(a), silu(a) = a * sigmoid(a)), formed in s and in u."""
    s = _sigmoid(a, out=s)
    return s, np.multiply(a, s, out=u)


def _hidden_layer(lay: Layer, h, emb, a, s, u, scale=None, shift=None):
    """One hidden layer, gamma * silu(h @ w + b) + beta with emb's FiLM scale
    gamma and shift beta, formed in the caller's buffers of its output
    shape: the pre-activation in a, the sigmoid in s, the SiLU and then the
    returned output in u (which may be a), gamma and beta in scale (which
    may be s) and shift, or, where None, in new arrays shaped by emb."""
    a = _affine(h, lay.w, lay.b, out=a)
    _, u = _silu(a, s, u)
    gamma = _affine(emb, lay.gamma_w, lay.gamma_b, out=scale)
    beta = _affine(emb, lay.beta_w, lay.beta_b, out=shift)
    return film(u, gamma, beta, out=u)


def forward_raw(params, x_scaled, c_noise, *, work=None):
    """Raw network pass F(x_scaled; c_noise) for inference: encoder,
    decoder, output head.

    Each hidden layer runs in place in two buffers of rows x widest layer
    that take turns, in np.result_type(x_scaled, weights): the affine
    product lands in one, the sigmoid in the other (its input is dead
    once multiplied), and SiLU and FiLM overwrite the affine product.  The
    list `work` keeps the two buffers between calls, grown only when a
    call needs more.
    """
    emb = fourier_embed(params, c_noise)
    h = np.asarray(x_scaled)
    size = h.size // h.shape[-1] * max(params.config.hidden_widths)
    work = _reserve([] if work is None else work, [size, size], np.result_type(h, params.dtype))
    for i, lay in enumerate(params.layers):
        shape = h.shape[:-1] + lay.b.shape
        a = _view(work[i % 2], 0, shape)
        h = _hidden_layer(lay, h, emb, a, _view(work[1 - i % 2], 0, shape), a)
    return _affine(h, params.out_w, params.out_b)


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
_VERSION = 4


class CheckpointError(ValueError):
    pass


def _read_struct(buf, at, fmt):
    """(the values of fmt unpacked from buf at offset `at`, the offset after them)."""
    end = at + struct.calcsize(fmt)
    if end > len(buf):
        raise CheckpointError("truncated checkpoint")
    return struct.unpack_from(fmt, buf, at), end


def save_checkpoint(path, params: DenoiserParams, ema: DenoiserParams, p: Preconditioner,
                    noise: TrainNoiseConfig) -> None:
    """Versioned binary checkpoint: a header holding the network config,
    sigma_data, whether a center follows, and the training noise (p_mean,
    p_std), zero-padded to a multiple of 64 bytes; then the center (if
    any), the raw tensors and the EMA tensors as one bare little-endian
    float32 payload in _tensor_shapes order.  The file replaces `path`
    whole (files.replacing), so a live map of an old checkpoint keeps its
    bytes.
    """
    cfg = params.config
    if ema.config != cfg:
        raise ValueError(f"raw weights are for {cfg}, EMA weights for {ema.config}")
    if p.center is not None and p.center.shape != (cfg.input_dim,):
        raise ValueError(f"tensor center has shape {p.center.shape}, "
                         f"config implies {(cfg.input_dim,)}")
    payload = [params.flat, ema.flat] if p.center is None else [p.center, params.flat, ema.flat]
    header = (_MAGIC + struct.pack("<HI", _VERSION, cfg.input_dim)
              + b"".join(struct.pack(f"<B{len(widths)}I", len(widths), *widths)
                         for widths in (cfg.encoder_widths, cfg.decoder_widths))
              + struct.pack("<IdBdd", cfg.embed_dim, float(p.sigma_data), p.center is not None,
                            float(noise.p_mean), float(noise.p_std)))
    with replacing(path) as fh:
        fh.write(header.ljust(aligned(len(header)), b"\0"))
        for t in payload:
            fh.write(np.ascontiguousarray(t, dtype="<f4"))


def load_checkpoint(path):
    """Returns (params, ema, preconditioner, training noise).

    Every header field, and the payload size against the header, is
    checked before any array is made.  The center, the raw weights and
    the EMA weights are then read-only float32 views of one map of the
    file, not copies: a caller holds no weight set on its heap, and the
    views stay valid however the path is later rewritten by
    save_checkpoint.
    """
    buf = map_file(path)
    magic = buf[: len(_MAGIC)]
    if magic != _MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    (version,), at = _read_struct(buf, len(_MAGIC), "<H")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (input_dim, n_enc), at = _read_struct(buf, at, "<IB")
    enc, at = _read_struct(buf, at, f"<{n_enc}I")
    (n_dec,), at = _read_struct(buf, at, "<B")
    dec, at = _read_struct(buf, at, f"<{n_dec}I")
    (embed_dim, sigma_data, has_center, p_mean, p_std), at = _read_struct(buf, at, "<IdBdd")
    try:
        cfg = NetworkConfig(input_dim, enc, dec, embed_dim)
        Preconditioner(sigma_data)
        noise = TrainNoiseConfig(p_mean, p_std)
        ScheduleConfig(*noise_bounds(noise))  # the default schedule must exist
    except ValueError as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    if has_center > 1:
        raise CheckpointError(f"bad center flag {has_center} in checkpoint")
    at = aligned(at)  # the payload starts after the header's zero padding
    if at > len(buf):
        raise CheckpointError("truncated checkpoint")
    n_center = input_dim if has_center else 0
    count = param_count(cfg)
    want = n_center + 2 * count
    left = len(buf) - at
    if left != 4 * want:
        raise CheckpointError(
            f"checkpoint payload holds {left} bytes ({left // 4} float32 values), "
            f"config implies {want} values"
        )
    payload = np.frombuffer(buf, "<f4", want, at)
    center, raw, ema = np.split(payload, [n_center, n_center + count])
    p = Preconditioner(sigma_data, center if has_center else None)
    return DenoiserParams(cfg, raw), DenoiserParams(cfg, ema), p, noise


def _flat_views(cfg: NetworkConfig, flat, first=0) -> list[np.ndarray]:
    """Views into one flat array holding the tensors of _tensor_shapes,
    from index `first` on (1: the trainable ones), in that order."""
    views, at = [], 0
    for _, shape in _tensor_shapes(cfg)[first:]:
        views.append(_view(flat, at, shape))
        at += views[-1].size
    return views
