"""Deterministic 64-bit PRNG pinned for cross-implementation reproducibility.

The generator is xorshift64* seeded through one splitmix64 step, with every
derived operation specified bit-exactly:

* seeding: ``state = splitmix64(seed)`` (state forced to a fixed non-zero
  constant if the step yields zero);
* ``next_u64``: ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
  return x * 0x2545F4914F6CDD1D`` (all mod 2**64);
* ``random()``: ``(next_u64() >> 11) * 2**-53``;
* ``randrange(n)``: ``next_u64() % n``;
* ``shuffle``: Fisher-Yates from the highest index down, ``j = randrange(i+1)``;
* ``sample(xs, k)``: partial Fisher-Yates over a copy, first ``k`` items.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One splitmix64 output step for the given state value."""
    z = (value + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class XorShift64Star:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = splitmix64(seed & _MASK64) or _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % n

    # shuffle and sample inline the next_u64 step: a method call per draw
    # costs more than the step itself, and a fold shuffles every query id

    def shuffle(self, xs) -> None:
        x = self._state
        for i in range(len(xs) - 1, 0, -1):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            j = ((x * 0x2545F4914F6CDD1D) & _MASK64) % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        self._state = x

    def sample(self, xs, k: int) -> list:
        if k < 0 or k > len(xs):
            raise ValueError("sample size out of range")
        pool = list(xs)
        n = len(pool)
        x = self._state
        for i in range(k):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            j = i + ((x * 0x2545F4914F6CDD1D) & _MASK64) % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        self._state = x
        return pool[:k]
