"""Shared test set-up: one deterministic hypothesis profile, and the
`peak_heap` and `held_heap` fixtures the memory tests measure with.

Every property test draws the same examples on every run (derandomized,
no example database), with no per-example deadline and a bounded
example count, so a failure reproduces and the suite's time stays fixed.
"""

import tracemalloc

import pytest

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
