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

That specification is the contract; ``shuffle_tail`` computes it another
way.  Its draws scramble the states after 1, 2, … steps, and it steps them
in lanes of 256 (``_outputs``): lane ``m`` starts 256·m steps on, one
application of the step matrix's 256th power after lane ``m - 1``, and
every lane is a 128-bit field of one Python int, so one masked shift-xor
steps them all and one multiplication scrambles them all (the xorshift
step is linear over GF(2): Vigna, "An experimental exploration of
Marsaglia's xorshift generators, scrambled", ACM TOMS 42(4), 2016).  The
picks and swaps then follow in draw order, so the items and the state are
bit-exact those of the specification.
"""

from __future__ import annotations

import array
import functools
import operator
import sys

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


# a lane's steps; _step_power(_LANE_POWER) jumps from one lane's start to the next
_LANE_POWER = 8
_LANE = 1 << _LANE_POWER
_MULTIPLIER = 0x2545F4914F6CDD1D


def _lanes(field: int, lanes: int) -> int:
    """``lanes`` copies of ``field`` in 128-bit lanes, packed little-endian in one int."""
    return int.from_bytes(field.to_bytes(16, "little") * lanes, "little")


def _outputs(x: int, draws: int) -> tuple[array.array, int]:
    """The ``next_u64`` outputs of the ``draws > 0`` steps after state ``x``,
    in order, and the state after the last.

    Lane ``m`` takes draws ``m * _LANE + 1`` on, from ``_LANE * m`` steps
    after ``x``.  Lanes are 128 bits wide with the state in the low half, so
    the shift-xors mask off only what crosses into the next lane, and one
    multiplication scrambles every lane: a lane's product fits in its 128
    bits, and its low half is the output.
    """
    lanes = -(-draws // _LANE)
    steps = min(draws, _LANE)
    last = draws - _LANE * (lanes - 1)  # the steps of the last lane
    jump = _step_power(_LANE_POWER)
    starts = [x]
    for _ in range(lanes - 1):
        starts.append(_apply(jump, starts[-1]))
    width = 16 * lanes
    packed = int.from_bytes(b"".join([s.to_bytes(16, "little") for s in starts]), "little")
    keep12 = _lanes(_MASK64 >> 12, lanes)
    keep25 = _lanes((_MASK64 << 25) & _MASK64, lanes)
    keep27 = _lanes(_MASK64 >> 27, lanes)
    products = []
    for t in range(1, steps + 1):
        packed ^= (packed >> 12) & keep12
        packed ^= (packed << 25) & keep25
        packed ^= (packed >> 27) & keep27
        if t == last:
            state = packed >> (128 * (lanes - 1))
        products.append((packed * _MULTIPLIER).to_bytes(width, "little"))
    # an array reads the u64s with no int object each, and slices them in C
    words = array.array("Q", b"".join(products))
    if sys.byteorder == "big":
        words.byteswap()
    # the low halves: flat[t * lanes + m] is the output of draw m * _LANE + t + 1
    flat = words[::2]
    outputs = array.array("Q")
    for m in range(lanes):
        outputs += flat[m::lanes]
    del outputs[draws:]
    return outputs, state


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
        return (x * _MULTIPLIER) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % n

    def shuffle_tail(self, xs, count: int) -> None:
        """Shuffle so that the last ``count`` items of ``xs`` and the state are
        those the full shuffle ``shuffle_tail(xs, len(xs))`` leaves; see the
        module docstring.  The steps run in lanes (``_outputs``) and the
        picks in C, so a fold's 10,000 draws cost no Python step each."""
        n = len(xs)
        if count < 0 or count > n:
            raise ValueError("shuffle tail size out of range")
        skipped = max(n - count - 1, 0)
        x = self._state
        if n - 1 > skipped:
            outputs, x = _outputs(x, n - 1 - skipped)
            # step i draws j = output % (i + 1), for i from n - 1 down
            picks = list(map(operator.mod, outputs, range(n, skipped + 1, -1)))
            for i, j in zip(range(n - 1, skipped, -1), picks):
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
