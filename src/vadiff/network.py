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
from dataclasses import dataclass

import numpy as np

from .files import map_file, read_npy_header, replacing
from .rng import Rng
from .sampling import TrainNoiseConfig

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


# --- checkpoint serialization (a .npy record) --------------------------------

class CheckpointError(ValueError):
    pass


def _checkpoint_dtype(cfg: NetworkConfig, has_center: bool) -> np.dtype:
    """A checkpoint's record: the center (if any), the raw and the EMA weights,
    then the config, sigma_data and noise.  The first tensor starts on numpy's
    64-byte header boundary.  numpy holds a record's size in a C int, so a
    weight set holds at most about 2**28 values."""
    n = param_count(cfg)
    if 8 * n + 4 * cfg.input_dim >= 2**31 - 2**10:  # 2**10: room for the config fields
        raise ValueError(f"{cfg} has {n} weights, too many for one checkpoint record")
    return np.lib.format.descr_to_dtype([("center", "<f4", (cfg.input_dim,))] * has_center + [
        ("raw", "<f4", (n,)), ("ema", "<f4", (n,)), ("input_dim", "<i8"),
        ("encoder_widths", "<i8", (len(cfg.encoder_widths),)),
        ("decoder_widths", "<i8", (len(cfg.decoder_widths),)), ("embed_dim", "<i8"),
        ("sigma_data", "<f8"), ("p_mean", "<f8"), ("p_std", "<f8")])


def save_checkpoint(path, params: DenoiserParams, ema: DenoiserParams, p: Preconditioner,
                    noise: TrainNoiseConfig) -> None:
    """A version 1.0 .npy file of one _checkpoint_dtype record: each tensor
    written as float32 from its own array, with no record copy of the
    weights, then the config, sigma_data and noise.  The file replaces
    `path` whole (files.replacing): a live map of an old one keeps its bytes.
    """
    cfg = params.config
    if ema.config != cfg:
        raise ValueError(f"raw weights are for {cfg}, EMA weights for {ema.config}")
    if p.center is not None and p.center.shape != (cfg.input_dim,):
        raise ValueError(f"tensor center has shape {p.center.shape}, "
                         f"config implies {(cfg.input_dim,)}")
    descr = _checkpoint_dtype(cfg, p.center is not None).descr
    meta = np.array((cfg.input_dim, cfg.encoder_widths, cfg.decoder_widths, cfg.embed_dim,
                     p.sigma_data, noise.p_mean, noise.p_std), descr[-7:])  # the last 7 fields
    with replacing(path) as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": descr, "fortran_order": False,
                                                  "shape": ()})
        for t in [p.center] * (p.center is not None) + [params.flat, ema.flat]:
            fh.write(np.ascontiguousarray(t, dtype="<f4"))
        fh.write(meta)


def load_checkpoint(path):
    """Returns (params, ema, preconditioner, training noise).

    Before any weight array is made, the header must declare one record of
    _checkpoint_dtype's fields, base dtypes and ranks, which the file holds
    exactly, and its config, sigma_data and noise must be valid and imply
    that dtype.  The center, the raw weights and the EMA weights are
    read-only float32 views of one map of the file, not copies: a caller
    holds no weight set on its heap, and the views stay valid however the
    path is later rewritten by save_checkpoint.
    """
    buf = map_file(path)
    shape, fortran, dtype, at = read_npy_header(buf, CheckpointError, "checkpoint")
    # a record's field names, base dtypes and ranks, whatever its config
    ref = _checkpoint_dtype(NetworkConfig(1), (dtype.names or ("",))[0] == "center")
    if shape != () or fortran or dtype.names != ref.names or any(
            (dtype[n].base, dtype[n].ndim) != (ref[n].base, ref[n].ndim) for n in ref.names):
        raise CheckpointError(f"checkpoint holds a {'Fortran' if fortran else 'C'}-order "
                              f"{dtype} array of shape {shape}, not a checkpoint record")
    if len(buf) != at + dtype.itemsize:
        raise CheckpointError(f"checkpoint holds {len(buf) - at} bytes after its header, "
                              f"its record takes {dtype.itemsize}")
    record = np.frombuffer(buf, dtype, 1, at)
    f = {name: record[name][0] for name in ref.names}  # views of the map, not of a copy
    try:
        cfg = NetworkConfig(int(f["input_dim"]), tuple(f["encoder_widths"].tolist()),
                            tuple(f["decoder_widths"].tolist()), int(f["embed_dim"]))
        p = Preconditioner(float(f["sigma_data"]), f.get("center"))
        noise = TrainNoiseConfig(float(f["p_mean"]), float(f["p_std"]))
        want = _checkpoint_dtype(cfg, "center" in f)
    except ValueError as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    for name in ref.names:
        if dtype[name] != want[name]:
            raise CheckpointError(f"checkpoint field {name} is {dtype[name]}, "
                                  f"its config implies {want[name]}")
    return DenoiserParams(cfg, f["raw"]), DenoiserParams(cfg, f["ema"]), p, noise


def _flat_views(cfg: NetworkConfig, flat, first=0) -> list[np.ndarray]:
    """Views into one flat array holding the tensors of _tensor_shapes,
    from index `first` on (1: the trainable ones), in that order."""
    views, at = [], 0
    for _, shape in _tensor_shapes(cfg)[first:]:
        views.append(_view(flat, at, shape))
        at += views[-1].size
    return views
