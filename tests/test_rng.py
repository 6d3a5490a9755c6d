"""Determinism and distribution sanity for the seeded generator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decaygraph.rng import SplitMix64

MASK64 = 0xFFFFFFFFFFFFFFFF


def test_splitmix64_known_answers():
    # the reference splitmix64 outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@given(state=st.integers(0, MASK64))
def test_next_u64_equals_inline_splitmix64_step(state):
    rng = SplitMix64(state)
    for _ in range(3):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        assert rng.next_u64() == z ^ (z >> 31)


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_fork_is_label_keyed_not_position_keyed():
    root = SplitMix64(7)
    child_before = root.fork("child")
    root.next_u64()  # consuming the parent stream must not move children
    child_after = SplitMix64(7).fork("child")
    assert [child_before.next_u64() for _ in range(5)] == \
           [child_after.next_u64() for _ in range(5)]


def test_forks_with_different_labels_are_independent():
    root = SplitMix64(7)
    a = [root.fork("a").next_u64() for _ in range(3)]
    b = [root.fork("b").next_u64() for _ in range(3)]
    assert a != b


def test_uniform_range_and_mean():
    rng = SplitMix64(5)
    draws = np.array([rng.uniform() for _ in range(20000)])
    assert np.all((draws >= 0.0) & (draws < 1.0))
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    scaled = np.array([rng.uniform(-3.0, 2.0) for _ in range(1000)])
    assert np.all((scaled >= -3.0) & (scaled < 2.0))


def test_normal_moments():
    rng = SplitMix64(6)
    draws = np.array([rng.normal(2.0, 3.0) for _ in range(20000)])
    assert draws.mean() == pytest.approx(2.0, abs=0.1)
    assert draws.std() == pytest.approx(3.0, abs=0.1)


def test_exponential_mean_and_positivity():
    rng = SplitMix64(8)
    draws = np.array([rng.exponential(0.5) for _ in range(20000)])
    assert np.all(draws > 0.0)
    assert draws.mean() == pytest.approx(2.0, abs=0.1)
    with pytest.raises(ValueError):
        rng.exponential(0.0)


def test_below_is_in_range_and_covers():
    rng = SplitMix64(9)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_shuffle_permutes_deterministically():
    items = list(range(30))
    a, b = items[:], items[:]
    SplitMix64(11).shuffle(a)
    SplitMix64(11).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be the identity


def test_array_helpers_shapes_and_bounds():
    rng = SplitMix64(12)
    u = rng.uniform_array((3, 4), -0.25, 0.25)
    assert u.shape == (3, 4)
    assert np.all((u >= -0.25) & (u < 0.25))


@given(seed=st.integers(0, MASK64), skip=st.integers(0, 3),
       shape=st.lists(st.integers(0, 5), max_size=3).map(tuple),
       bounds=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_uniform_array_equals_the_scalar_loop(seed, skip, shape, bounds):
    lo, hi = bounds
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(skip):
        fast.next_u64(), slow.next_u64()
    expected = np.array([slow.uniform(lo, hi) for _ in range(int(np.prod(shape)))],
                        dtype=np.float64).reshape(shape)
    drawn = fast.uniform_array(shape, lo, hi)
    assert drawn.shape == expected.shape and drawn.dtype == np.float64
    assert drawn.tobytes() == expected.tobytes()
    assert fast.next_u64() == slow.next_u64()
