"""Seeded random number streams.

Every random draw in the pipeline flows through an `Rng`.  Streams are
split by purpose (data shuffling, training noise, sampling noise, ...)
from a single root seed, so adding or removing draws in one consumer
never perturbs the others.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

_U64 = (1 << 64) - 1


def _label_code(label: str) -> int:
    # Stable across processes (unlike hash()).
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Counter-based (Philox) generator with deterministic purpose-splitting.

    Identical seed and identical call sequence give an identical sample
    stream.  `split(label)` derives an independent stream from the root
    seed and the label only; it does not consume or depend on the state
    of this stream.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed) & _U64
        self._key = tuple(_key)
        ss = SeedSequence([self.seed, *self._key])
        self._gen = Generator(Philox(ss))

    def split(self, label: str) -> "Rng":
        """Independent stream for a named purpose."""
        return Rng(self.seed, self._key + (_label_code(label),))

    def standard_normal(self, shape, dtype=np.float64) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=dtype)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self._key})"

