"""Shared test set-up: one deterministic hypothesis profile.

Every property test draws the same examples on every run (derandomized,
no example database), with no per-example deadline and a bounded
example count, so a failure reproduces and the suite's time stays fixed.
"""

try:
    from hypothesis import settings
except ImportError:  # only the modules holding property tests need it
    pass
else:
    settings.register_profile("vadiff", derandomize=True, database=None, deadline=None,
                              max_examples=200)
    settings.load_profile("vadiff")
