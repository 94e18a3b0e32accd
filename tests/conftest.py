"""Shared test set-up: one deterministic hypothesis profile, the
`peak_heap` and `held_heap` fixtures the memory tests measure with, the
`disk_full_after` fixture and `map_of` for the file tests, and
`reference_forward`, the plain list-based network pass that the network
and training tests check the library against.

Every property test draws the same examples on every run (derandomized,
no example database), with no per-example deadline and a bounded
example count, so a failure reproduces and the suite's time stays fixed.
"""

import errno
import mmap
import tracemalloc

import numpy as np
import pytest

from vadiff import files

try:
    from hypothesis import settings
except ImportError:  # only the modules holding property tests need it
    pass
else:
    settings.register_profile("vadiff", derandomize=True, database=None, deadline=None,
                              max_examples=200)
    settings.load_profile("vadiff")


def _traced(fn):
    """(fn(), heap bytes still allocated when fn returned, peak heap bytes
    while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_heap():
    """The function peak_heap(fn) -> (fn(), peak heap bytes while it ran)."""
    def measure(fn):
        result, _, peak = _traced(fn)
        return result, peak
    return measure


@pytest.fixture
def held_heap():
    """The function held_heap(fn) -> (fn(), heap bytes fn left allocated,
    its result included)."""
    def measure(fn):
        result, held, _ = _traced(fn)
        return result, held
    return measure


def map_of(a: np.ndarray) -> mmap.mmap:
    """The file map whose memory `a` views; fails unless `a` is a plain,
    read-only, aligned ndarray that owns none of its memory."""
    assert type(a) is np.ndarray, type(a)
    assert not a.flags.writeable and a.flags.aligned and not a.flags.owndata
    while isinstance(a, np.ndarray):
        a = a.base
    assert isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap), type(a)
    return a.obj


class _DiskFull:
    """A file whose writes after the first `writes` fail part way, as on a full disk."""

    def __init__(self, fh, writes):
        self._fh, self._writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def write(self, data):
        if self._writes == 0:
            self._fh.write(memoryview(data).cast("B")[:16])
            raise OSError(errno.ENOSPC, "No space left on device")
        self._writes -= 1
        return self._fh.write(data)


@pytest.fixture
def disk_full_after(monkeypatch):
    """The function disk_full_after(n): from then on, each binary file that
    files.replacing opens takes n whole writes and fails in the next."""
    def arm(writes):
        monkeypatch.setattr(files, "open", lambda *a, **k: _DiskFull(open(*a, **k), writes),
                            raising=False)
    return arm


def reference_forward(params, x, c_noise):
    """The raw network pass written plainly, one fresh array per op, in
    the library's ops and order.  `params` lists every tensor in
    `_tensor_shapes` order (`DenoiserParams.tensors()`).  Returns (output,
    cache, embedding): the cache holds (input h, pre-activation a,
    sigmoid(a), FiLM scale gamma) per hidden layer, then the head input.
    """
    freqs, out_w, out_b = params[0], params[-2], params[-1]
    phase = 2.0 * np.pi * (np.asarray(c_noise, dtype=freqs.dtype)[..., None] * freqs)
    emb = np.concatenate([np.cos(phase), np.sin(phase)], axis=-1)
    h, cache = np.asarray(x), []
    for i in range(1, len(params) - 2, 6):
        w, b, gamma_w, gamma_b, beta_w, beta_b = params[i : i + 6]
        a = h @ w
        a += b
        s = np.tanh(a * 0.5)
        s *= 0.5
        s += 0.5
        u = a * s
        gamma = emb @ gamma_w
        gamma += gamma_b
        beta = emb @ beta_w
        beta += beta_b
        cache.append((h, a, s, gamma))
        h = gamma * u
        h += beta
    cache.append(h)
    f = h @ out_w
    f += out_b
    return f, cache, emb
