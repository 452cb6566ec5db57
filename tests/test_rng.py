import hashlib
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isummary.rng import XorShift64Star, splitmix64

from conftest import oracle

MASK = (1 << 64) - 1


def test_splitmix_matches_reference():
    for value in (0, 1, 42, 2**63, MASK):
        assert splitmix64(value) == oracle._splitmix64(value)


def test_stream_is_reproducible_and_pinned():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    first = [a.next_u64() for _ in range(5)]
    assert first == [b.next_u64() for _ in range(5)]
    # frozen regression pin: the documented algorithm must never drift
    assert first[0] == XorShift64Star(42).next_u64()
    assert first == [3580622183945639842, 10378725325292465923, 8967075514996744559,
                     5001014893397904463, 14825054885549601002]
    assert XorShift64Star(0).next_u64() != XorShift64Star(1).next_u64()


# Literal outputs of the documented algorithm.  Each pin also checks the draw
# after the call, so the generator's state must be left where the per-draw
# method calls would leave it.
def test_shuffle_is_pinned():
    rng = XorShift64Star(11)
    xs = list(range(30))
    rng.shuffle_tail(xs, len(xs))
    assert xs == [14, 0, 2, 28, 4, 10, 24, 21, 19, 25, 29, 5, 23, 27, 20,
                  9, 18, 26, 16, 11, 3, 15, 8, 6, 12, 1, 13, 22, 17, 7]
    assert rng.next_u64() == 7639912611038368449


def test_sample_is_pinned():
    rng = XorShift64Star(13)
    assert rng.sample(range(20), 8) == [18, 11, 7, 5, 8, 12, 1, 0]
    assert rng.next_u64() == 5087454633537088705


def test_large_shuffle_is_pinned():
    # the size of the benchmark's evaluate fold shuffle
    rng = XorShift64Star(42)
    xs = list(range(50_000))
    rng.shuffle_tail(xs, len(xs))
    digest = hashlib.sha256(",".join(map(str, xs)).encode("ascii")).hexdigest()
    assert digest == "4a290871343179bff51025c59c691a103c5c1469eeafb2cf2798f500e2c2eba0"
    assert rng.next_u64() == 8051111360604353642


def test_large_shuffle_tail_is_pinned():
    # the benchmark's evaluate fold: the 10,000-id test part of 50,000 ids,
    # the same items and next draw as the full shuffle above leaves
    rng = XorShift64Star(42)
    xs = list(range(50_000))
    rng.shuffle_tail(xs, 10_000)
    digest = hashlib.sha256(",".join(map(str, xs[40_000:])).encode("ascii")).hexdigest()
    assert digest == "7c85a4e0e02b6ade3c3180bae9f02932bce2598b0eed8d1757e49b9a64610986"
    assert rng.next_u64() == 8051111360604353642


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=MASK), n=st.integers(min_value=0, max_value=300))
def test_shuffle_tail_matches_shuffle(seed, n):
    # the documented full shuffle, on the oracle's own stream: Fisher-Yates
    # from the highest index down with j = randrange(i + 1)
    stream = oracle.Stream(seed)
    xs = list(range(n))
    stream.shuffle(xs)
    for count in range(n + 1):
        rng = XorShift64Star(seed)
        ys = list(range(n))
        rng.shuffle_tail(ys, count)
        assert ys[n - count:] == xs[n - count:]
        assert sorted(ys) == list(range(n))
        assert rng._state == stream.state


# the draws run in lanes of 256 steps: tails that end just before, at and just
# after the first two lane boundaries, and the full shuffle
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=MASK), n=st.integers(min_value=0, max_value=3000))
@example(seed=11, n=257)   # the full shuffle's 256 draws fill one lane
@example(seed=11, n=258)
@example(seed=11, n=513)
@example(seed=11, n=514)
@example(seed=11, n=3000)
def test_shuffle_tail_matches_oracle_across_lane_boundaries(seed, n):
    stream = oracle.Stream(seed)
    xs = list(range(n))
    stream.shuffle(xs)
    after = stream.next_u64()
    for count in (255, 256, 257, 511, 512, 513, n):
        if count > n:
            continue
        rng = XorShift64Star(seed)
        ys = list(range(n))
        rng.shuffle_tail(ys, count)
        assert ys[n - count:] == xs[n - count:]
        assert rng.next_u64() == after


def test_shuffle_tail_size_out_of_range():
    for count in (-1, 4):
        with pytest.raises(ValueError):
            XorShift64Star(1).shuffle_tail([0, 1, 2], count)


def test_random_unit_interval():
    rng = XorShift64Star(7)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randrange_bounds():
    rng = XorShift64Star(3)
    assert all(0 <= rng.randrange(10) < 10 for _ in range(200))


def test_shuffle_is_permutation():
    rng = XorShift64Star(11)
    xs = list(range(30))
    shuffled = list(xs)
    rng.shuffle_tail(shuffled, len(shuffled))
    assert sorted(shuffled) == xs and shuffled != xs


def test_sample_without_replacement():
    rng = XorShift64Star(13)
    picked = rng.sample(range(20), 8)
    assert len(picked) == len(set(picked)) == 8
    assert set(picked) <= set(range(20))


def test_sample_roughly_uniform():
    rng = XorShift64Star(17)
    counts = Counter()
    for _ in range(4000):
        counts.update(rng.sample(range(8), 2))
    expected = 4000 * 2 / 8
    assert all(abs(c - expected) < expected * 0.2 for c in counts.values())
