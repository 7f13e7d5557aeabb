"""The partitioners' random stream: numpy's ``default_rng(seed)``, bit for bit.

``Stream(seed)`` replays ``numpy.random.default_rng(seed)`` — ``SeedSequence``
pool mixing into a PCG64 (XSL-RR 128/64) state, the 32-bit halves of each
64-bit output buffered as numpy's ``next_uint32`` does — for exactly the two
draws the partitioners make, ``integers(high)`` and ``permutation(n)``.
Every ``parts`` vector the repo ever produced came from that stream: owning
it keeps them identical while the default path imports no numpy, and freezes
them against numpy's right to change ``Generator`` (NEP 19).  Pinned against
numpy 2.4.6; ``tests/partition/test_rng_oracle.py`` compares the two draw for
draw and carries frozen vectors that need no numpy.
"""

from __future__ import annotations

from typing import List

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's default pool size, in 32-bit words


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as four ints."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = 0x8B51F9DD
    out = []
    for word in pool + pool:
        word ^= const
        const = const * 0x58F38DED & _M32
        word = word * const & _M32
        out.append(word ^ word >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class Stream:
    """``numpy.random.default_rng(seed)`` for a non-negative int ``seed``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = (self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc & _M128
        self._half = -1  # the unused upper half of the last 64-bit output

    def copy(self) -> "Stream":
        """An independent stream that draws what this one would draw next."""
        twin = Stream.__new__(Stream)
        twin._state, twin._inc, twin._half = self._state, self._inc, self._half
        return twin

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        folded = (state >> 64 ^ state) & _M64
        rot = state >> 122
        word = (folded >> rot | folded << (64 - rot)) & _M64
        self._half = word >> 32
        return word & _M32

    def integers(self, high: int) -> int:
        """Uniform int in ``[0, high)``, ``1 <= high <= 2**32`` (Lemire)."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        if high == 1 << 32:
            return self._next32()
        m = self._next32() * high
        if m & _M32 < high:
            threshold = (_M32 - (high - 1)) % high
            while m & _M32 < threshold:
                m = self._next32() * high
        return m >> 32

    def permutation(self, n: int) -> List[int]:
        """``range(n)`` shuffled: Fisher–Yates from the top, each index drawn
        by masked rejection."""
        arr = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            arr[i], arr[j] = arr[j], arr[i]
        return arr
