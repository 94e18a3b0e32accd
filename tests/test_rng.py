import numpy as np

from vadiff import Rng


def test_same_seed_same_draws():
    a = Rng(7).standard_normal((4, 3))
    b = Rng(7).standard_normal((4, 3))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = Rng(7).standard_normal((4, 3))
    b = Rng(8).standard_normal((4, 3))
    assert not np.array_equal(a, b)


def test_split_streams_are_independent_of_consumption_order():
    r1 = Rng(3)
    r1.standard_normal(100)  # consume the parent stream
    a = r1.split("noise").standard_normal(5)

    b = Rng(3).split("noise").standard_normal(5)
    assert np.array_equal(a, b)


def test_split_labels_give_distinct_streams():
    r = Rng(0)
    a = r.split("shuffle").standard_normal(8)
    b = r.split("train-noise").standard_normal(8)
    assert not np.array_equal(a, b)


def test_nested_splits_distinct():
    r = Rng(1)
    a = r.split("a").split("b").standard_normal(4)
    b = r.split("b").split("a").standard_normal(4)
    assert not np.array_equal(a, b)


def test_gaussian_moments_large_sample():
    # law of large numbers at 4 sigma tolerance
    x = Rng(123).standard_normal((1000, 1000))
    assert x.size == 10**6
    assert -0.01 <= x.mean() <= 0.01
    assert 0.99 <= x.var() <= 1.01


def test_gaussian_single_entry():
    x = Rng(5).standard_normal((1, 1))
    assert x.shape == (1, 1)
    assert np.isfinite(x).all()


def test_permutation_is_a_permutation():
    perm = Rng(9).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
