"""The one seeded stream that runs, sessions and suites draw from: the raw
words of ``np.random.PCG64(seed)``, which NEP 19 keeps stable across numpy
versions, and for Gaussians ``Generator.normal`` on the same PCG64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BitStream"]

_BYTE_WEIGHTS = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def _popcount(plane: np.ndarray) -> int:
    # numpy 1.x has no bitwise_count, so a byte table counts there
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(plane).sum())
    return int(_BYTE_WEIGHTS[plane.view(np.uint8)].sum())


def _unpack(plane: np.ndarray, n: int) -> np.ndarray:
    """A plane's first n bits as one uint8 per signal."""
    return np.unpackbits(plane.astype("<u8", copy=False).view(np.uint8), bitorder="little")[:n]


class BitStream:
    """The draws of one seed.  ``words(count)`` gives the next count raw words
    as ``uint64``.  Planes cover ``n`` signals, bit i % 64 of word i // 64
    for signal i, and ``all`` is the plane of every one of them."""

    def __init__(self, seed: int, n: int = 0):
        bits = np.random.PCG64(seed)
        self.words, self._gen = bits.random_raw, np.random.Generator(bits)
        self.n = n
        self.all = np.full(-(-n // 64), np.uint64(2**64 - 1))
        if n % 64:
            self.all[-1] = np.uint64((1 << n % 64) - 1)

    def fair(self) -> np.ndarray:
        """A plane of fair coins."""
        return self.words(len(self.all)) & self.all

    def bernoulli(self, p: float, within: np.ndarray | None = None) -> np.ndarray:
        """A plane whose bits in ``within`` (default: every signal) are 1 with
        probability exactly floor(p * 2**53) / 2**53, and whose other bits are 0."""
        # bit i is u_i < threshold for a uniform 53-bit u_i, compared most
        # significant bit first, one plane of u's bits per digit, until no
        # signal is undecided or no digit of threshold is left set
        threshold = math.floor(p * 2**53)
        within = self.all if within is None else within
        if threshold >> 53:
            return within.copy()
        out, undecided = np.zeros_like(within), within
        for j in reversed(range(53)):
            if not threshold & ((2 << j) - 1) or not undecided.any():
                break
            u = self.words(len(within))
            if threshold >> j & 1:
                out = out | (undecided & ~u)
                undecided = undecided & u
            else:
                undecided = undecided & ~u
        return out

    def subset(self, k: int, eligible: np.ndarray) -> np.ndarray:
        """A uniform k-subset of the m signals in ``eligible``, as a mask: a
        Bernoulli(k/m) mask is uniform among the masks of its size, and so stays
        when its surplus or deficit is dropped or added without replacement."""
        m = _popcount(eligible)
        if not 0 <= k <= m:
            raise ValueError(f"cannot choose {k} of {m} signals")
        if k == m:
            return eligible.copy()
        chosen = self.bernoulli(k / m, eligible)
        surplus = _popcount(chosen) - k
        if not surplus:
            return chosen
        # toggle the first |surplus| of a Fisher-Yates shuffle of the positions of
        # the chosen signals (surplus) or the others (deficit), kept as its moves
        pool = np.flatnonzero(_unpack(chosen if surplus > 0 else eligible & ~chosen, self.n).view(bool))
        moved = {}
        for i in range(abs(surplus)):
            j = i + self.randbelow(len(pool) - i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        picks = pool[[moved[i] for i in range(abs(surplus))]]
        np.bitwise_xor.at(chosen, picks >> 6, np.uint64(1) << (picks & 63).astype(np.uint64))
        return chosen

    def randbelow(self, bound: int) -> int:
        """Uniform in [0, bound), 1 <= bound <= 2**64: a raw word mod bound,
        redrawn while at or above the largest multiple of bound."""
        while (word := int(self.words())) >= 2**64 - 2**64 % bound:
            pass
        return word % bound

    def getrandbits(self, k: int) -> int:
        """k uniform bits; bit i is bit i % 64 of word i // 64."""
        words = self.words(-(-k // 64)).astype("<u8", copy=False)
        return int.from_bytes(words.tobytes(), "little") & ((1 << k) - 1)

    def normal(self, size) -> np.ndarray:
        """Standard normals of shape ``size``; NEP 19 does not freeze their algorithm."""
        return self._gen.normal(size=size)
