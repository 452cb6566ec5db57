"""Deterministic 64-bit PRNG pinned for cross-implementation reproducibility.

The generator is xorshift64* seeded through one splitmix64 step, with every
derived operation specified bit-exactly:

* seeding: ``state = splitmix64(seed)`` (state forced to a fixed non-zero
  constant if the step yields zero);
* ``next_u64``: ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
  return x * 0x2545F4914F6CDD1D`` (all mod 2**64);
* ``random()``: ``(next_u64() >> 11) * 2**-53``;
* ``randrange(n)``: ``next_u64() % n``;
* ``shuffle_tail(xs, count)`` (``0 <= count <= n = len(xs)``): the steps of
  a Fisher-Yates shuffle from the highest index down, ``j = randrange(i+1)``,
  for ``i`` from ``n-1`` down to ``max(n-count, 1)`` only, then the state
  advanced past the ``max(n-count-1, 0)`` draws of the skipped steps.  The
  full shuffle is ``shuffle_tail(xs, len(xs))``.  Position ``i`` is final
  once step ``i`` has run, so the last ``count`` items and the state are
  exactly those the full shuffle leaves; the first ``n-count`` items are the
  rest, in the order the partial shuffle leaves them.  The xorshift step is
  linear over GF(2), so the skip costs one 64x64 bit-matrix application per
  set bit of the step count, not one step per draw;
* ``sample(xs, k)``: partial Fisher-Yates over a copy, first ``k`` items.
"""

from __future__ import annotations

import functools

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One splitmix64 output step for the given state value."""
    z = (value + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _xorshift(x: int) -> int:
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK64
    return x ^ (x >> 27)


def _apply(columns: tuple[int, ...], x: int) -> int:
    """The GF(2) matrix with the given column images applied to ``x``."""
    y = 0
    for column in columns:
        if x & 1:
            y ^= column
        x >>= 1
        if not x:
            break
    return y


@functools.cache
def _step_power(k: int) -> tuple[int, ...]:
    """The xorshift step applied ``2**k`` times, as the images of the 64 unit vectors."""
    if k == 0:
        return tuple(_xorshift(1 << i) for i in range(64))
    half = _step_power(k - 1)
    return tuple(_apply(half, column) for column in half)


def _skip(x: int, steps: int) -> int:
    """The state ``steps`` xorshift steps after ``x``."""
    k = 0
    while steps:
        if steps & 1:
            x = _apply(_step_power(k), x)
        steps >>= 1
        k += 1
    return x


class XorShift64Star:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = splitmix64(seed & _MASK64) or _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state = _xorshift(self._state)
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % n

    # shuffle_tail inlines the next_u64 step: a method call per draw costs more
    # than the step itself, and a fold shuffles thousands of ids

    def shuffle_tail(self, xs, count: int) -> None:
        """Shuffle so that the last ``count`` items of ``xs`` and the state are
        those the full shuffle ``shuffle_tail(xs, len(xs))`` leaves; see the
        module docstring."""
        n = len(xs)
        if count < 0 or count > n:
            raise ValueError("shuffle tail size out of range")
        skipped = max(n - count - 1, 0)
        x = self._state
        for i in range(n - 1, skipped, -1):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            j = ((x * 0x2545F4914F6CDD1D) & _MASK64) % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        self._state = _skip(x, skipped)

    def sample(self, xs, k: int) -> list:
        if k < 0 or k > len(xs):
            raise ValueError("sample size out of range")
        pool = list(xs)
        n = len(pool)
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
