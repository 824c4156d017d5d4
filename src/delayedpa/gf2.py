"""Bit-packed GF(2) vectors and the modified Toeplitz hash.

Vectors are stored as arbitrary-precision Python integers with LSB-first
packing: bit i lives at word i // 64, slot i % 64 when the integer is
viewed as 64-bit words.  XOR of equal-length vectors and popcount are then
single big-int operations, which keeps 10^4-bit protocol keys fast without
any native extension.  The verifier in ``security`` packs the rows of a
linear hash the same way, as int64 row words: bit j of word i is entry
(i, j).

Text forms share the same order: a vector's 0/1 string (character i is bit
i) is the reversed ``format(bits, "0{length}b")``, and its hex string
(character j is bits 4j .. 4j+3) is the reversed ``format(bits, "0{N}x")``.
Conversions go through base-2 and base-16 ``int``/``format``, which run in
linear time and are exempt from ``int_max_str_digits``; a bit sequence packs
through ``np.packbits``.

Protocol keys are hashed by the modified Toeplitz family of Hayashi and
Tsurumaru (arXiv:1311.5322): an n-bit key x = (x1, x2), split after n_pa
bits, maps to x1 XOR T x2, where T is the n_pa x (n - n_pa) Toeplitz matrix
of an (n - 1)-bit seed; the n_pa x m Toeplitz matrix of an
(m + n_pa - 1)-bit seed has entry (i, j) = seed[i - j + m - 1].  The family
is universal_2, and its rows are independent by construction, so the
delayed-PA proof applies to it as it is.
:func:`modified_toeplitz_hash` computes T x2 without building T, by real
FFT convolutions (numpy) reduced mod 2, in O(n log n) time and memory.  It
takes all of a run's keys in one call and transforms each distinct high
part x2 once.  It cuts the n_pa outputs into C sections, which share one
seed transform, and packs the sections and as many keys beside them as 44
bits of float64 hold exactly: a one-key hash fills three sections at
n = 30000 and n - n_pa = 4000, and two at n = 10**6 and n - n_pa =
3 * 10**5.  Each transform runs at the smallest 2**a 3**b 5**c >=
B + n - n_pa - 1, B = ceil(n_pa / C), and C is picked per shape from an
estimate of the transforms' cost.  Float rounding cannot
flip a bit unnoticed, because an exactness guard raises if any
convolution entry the hash reads lies 0.25 or more from an integer (a NaN
or inf entry included).  T x2 alone is the hash of the key x2 << n_pa,
whose low n_pa bits are zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "modified_toeplitz_hash",
]


@dataclass(frozen=True)
class BitVector:
    """GF(2) vector of ``length`` bits; bit i is ``(bits >> i) & 1``.

    Bits beyond ``length`` are always zero (canonical form), so equality and
    hashing work directly on the packed integer.
    """

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits.bit_length() > self.length:
            raise ValueError("set bits beyond declared length")

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse a 0/1 string read left to right; character i becomes bit i."""
        # int() would also take a sign, "_", spaces and a "0b" prefix
        bad = text.strip("01")
        if bad:
            raise ValueError(f"invalid bit character {bad[0]!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Element i becomes bit i; any truthy element is a 1."""
        bits = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits), bool)
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls(bits.size, int.from_bytes(packed, "little"))

    @classmethod
    def random(cls, length: int, rng) -> "BitVector":
        if length == 0:
            return cls(0, 0)
        return cls(length, rng.getrandbits(length))

    @classmethod
    def from_hex(cls, length: int, digits: str) -> "BitVector":
        """Inverse of :meth:`to_hex`; nibble i//4 carries bit i, LSB first."""
        n_nibbles = (length + 3) // 4
        if len(digits) != n_nibbles:
            raise ValueError("hex digit count does not match length")
        bad = digits.strip("0123456789abcdefABCDEF")
        if bad:
            raise ValueError(f"invalid hex digit {bad[0]!r}")
        value = int(digits[::-1], 16) if digits else 0
        if value.bit_length() > length:
            raise ValueError("set bits beyond declared length")
        return cls(length, value)

    def to_hex(self) -> str:
        # format(0, "00x") is "0", not ""
        if not self.length:
            return ""
        return format(self.bits, f"0{(self.length + 3) // 4}x")[::-1]

    def to01(self) -> str:
        if not self.length:
            return ""
        return format(self.bits, f"0{self.length}b")[::-1]

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.length + 7) // 8, "little")

    def cut(self, start: int, stop: int) -> "BitVector":
        """Bits [start, stop) as a new vector."""
        if not 0 <= start <= stop <= self.length:
            raise ValueError("cut range out of bounds")
        width = stop - start
        return BitVector(width, (self.bits >> start) & ((1 << width) - 1))

    def weight(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitVector(self.length, self.bits ^ other.bits)

    def __repr__(self) -> str:
        if self.length <= 32:
            return f"BitVector('{self.to01()}')"
        return f"BitVector(length={self.length}, hex='{self.to_hex()}')"


def _unpack(length: int, *values: int) -> np.ndarray:
    """The low ``length`` bits of each value, LSB first, one uint8 row per value."""
    width = (length + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), width), axis=1, bitorder="little")[:, :length]


# A transform packs C seed sections and K keys at weights 2**(s*(c + C*k)),
# s = w.bit_length(), while C*K*s is <= _PACK_MAX_BITS: each slot holds one
# section-by-key convolution, whose entries are <= w < 2**s, so the packed
# entries stay below 2**_PACK_MAX_BITS and rint recovers each slot.  A float64
# entry near 2**b is only exact to about 2**(b - 53), so the error grows 2x
# per packed bit.  With all-ones seeds and near-all-ones keys, the largest
# entries, the worst error measured at 44 bits was 0.0156 (n = 10**7, s = 11,
# C = 4); every layout at s = 11 and s = 22 read 0.0098-0.0156 at n = 10**7,
# and at most 0.0117 at n = 10**6.  40 bits (s = 20) read at most 0.0011.  At
# 48 bits it was 0.094 (s = 24, C = 2) and, at s = 12 with C = 4, 0.25 or
# more, which the guard refuses.  So 44 bits keep a 16x margin to the guard.
_PACK_MAX_BITS = 44
# the fixed costs of a transform, with its share of packing and unpacking,
# and of a seed section, in units of one length * log2(length) step of a
# transform (about 1 ns each on a 2-vCPU x86 host)
_TRANSFORM_OVERHEAD = 10_000
_SECTION_OVERHEAD = 5_000


class _Layout(NamedTuple):
    sections: int  # C: the n_pa outputs split into C runs of ``width``
    width: int  # B = ceil(n_pa / C), the entries read per slot
    size: int  # the transform length, >= B + w - 1
    per_transform: int  # keys packed into one transform beside the C sections


def _fast_len(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m, a length pocketfft transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _plan(n_pa: int, w: int, sections: int, max_bits: int) -> _Layout:
    """The layout of ``sections`` seed sections, or fewer if they would be empty."""
    width = -(-n_pa // sections)
    sections = -(-n_pa // width)
    slots = max(1, max_bits // w.bit_length())
    return _Layout(sections, width, _fast_len(width + w - 1), max(1, slots // sections))


@functools.lru_cache(maxsize=256)
def _layout(n_pa: int, w: int, n_keys: int, max_bits: int) -> _Layout:
    """The section count with the least estimated cost for ``n_keys`` keys.

    Each group of keys costs a forward and an inverse transform, and the
    seed one more; more sections shorten every transform but leave fewer
    slots to the keys of each group.
    """

    def cost(lay: _Layout) -> float:
        transforms = 1 + 2 * -(-n_keys // lay.per_transform)
        step = lay.size * math.log2(lay.size) + _TRANSFORM_OVERHEAD
        return transforms * step + lay.sections * _SECTION_OVERHEAD

    slots = max(1, max_bits // w.bit_length())
    return min((_plan(n_pa, w, c, max_bits) for c in range(1, min(slots, n_pa) + 1)), key=cost)


def modified_toeplitz_hash(
    seed: BitVector, n_pa: int, keys: Sequence[BitVector]
) -> list[BitVector]:
    """Each n-bit key x hashed to x[:n_pa] XOR T x[n_pa:], with n = seed.length + 1.

    T is the seed's n_pa x (n - n_pa) Toeplitz matrix (module docstring).
    Output bit i of T x2 is entry w - 1 + i of the linear convolution of
    the seed and the w = n - n_pa high key bits.  The outputs are cut into
    C sections of B = ceil(n_pa / C) bits: bit cB + i is entry w - 1 + i of
    the convolution of seed[cB : cB + B + w - 1] and x2, so every section
    is read at entries [w - 1, w - 1 + B) of a transform of length
    >= B + w - 1.  The C sections share one seed transform at weights
    2**(s*c), and the distinct x2 go several to a transform at weights
    2**(s*C*k) (see ``_PACK_MAX_BITS``); ``_layout`` picks C.  Equal high
    bits x2 are transformed once.

    At n_pa = n, T has no columns and the hash is the identity, with no
    transform at all.  That is the family's own limit, not a special case:
    noiseless runs, whose ledger has no finite-size term yet, get n_pa = n
    and keep their raw keys.
    """
    n = seed.length + 1
    if not 1 <= n_pa <= n:
        raise ValueError(f"n_pa must be in [1, {n}] for a {seed.length}-bit seed, got {n_pa}")
    for x in keys:
        if x.length != n:
            raise ValueError(f"key length {x.length} does not match seed length + 1 = {n}")
    w = n - n_pa
    if w == 0:
        return [x.cut(0, n_pa) for x in keys]
    tops = [x.bits >> n_pa for x in keys]
    highs = list(dict.fromkeys(tops))
    if not highs:
        return []
    lay = _layout(n_pa, w, len(highs), _PACK_MAX_BITS)
    span = lay.width + w - 1
    # zero past seed bit n - 2: the last section may run beyond the seed
    seed_bits = _unpack(lay.sections * lay.width + w - 1, seed.bits)[0]
    sections = [seed_bits[c * lay.width :][:span] for c in range(lay.sections)]
    # the circular convolution at size >= B + w - 1 wraps linear entries onto
    # indices below w - 1, which are never read
    seed_f = np.fft.rfft(_weighted(w.bit_length(), sections), lay.size)
    hashed = {}
    for i in range(0, len(highs), lay.per_transform):
        group = highs[i : i + lay.per_transform]
        hashed.update(zip(group, _hash_group(seed_f, lay, w, n_pa, group)))
    mask = (1 << n_pa) - 1
    return [BitVector(n_pa, (x.bits & mask) ^ hashed[top]) for x, top in zip(keys, tops)]


def _hash_group(seed_f: np.ndarray, lay: _Layout, w: int, n_pa: int, group: list[int]) -> list[int]:
    """T x2 for each w-bit x2 of ``group``, from one transform of them all.

    A helper, so that a group's arrays are freed before the next group's
    transform.
    """
    s = w.bit_length()
    packed = _weighted(s * lay.sections, _unpack(w, *group))
    spectrum = np.fft.rfft(packed, lay.size)
    # multiplied in place: seed_f lives for the whole call, so no third
    # spectrum-sized array is alive at once
    np.multiply(spectrum, seed_f, out=spectrum)
    conv = np.fft.irfft(spectrum, lay.size)
    del spectrum  # freed before the counts are rounded
    counts = _exact_counts(conv[w - 1 : w - 1 + lay.width])
    del conv  # and the inverse transform before they are unpacked
    # slot (k, c) holds key k's section c
    shifts = np.arange(0, s * len(group) * lay.sections, s)
    slots = counts >> shifts.reshape(len(group), lay.sections, 1)
    slots &= 1
    bits = slots.astype(np.uint8).reshape(len(group), -1)[:, :n_pa]
    rows = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _weighted(step: int, rows: Sequence[np.ndarray]) -> np.ndarray:
    """The sum of 0/1 rows, row j weighted by 2**(step * j), as float64.

    The bits are cast to float64 before scaling: on numpy 1.x, uint8 times
    a Python float (or ldexp) gives float16, which overflows at 2**16.
    """
    total = rows[0].astype(np.float64)
    for j in range(1, len(rows)):
        total += np.multiply(rows[j], 2.0 ** (step * j), dtype=np.float64)
    return total


def _exact_counts(conv: np.ndarray) -> np.ndarray:
    """An FFT convolution's entries as int64 counts, or ArithmeticError if
    any entry is not finite or lies 0.25 or more from an integer.

    ``conv`` is overwritten with the rounding errors.
    """
    # checked first, so that no NaN or inf enters the rounding error
    if not np.isfinite(conv).all():
        raise ArithmeticError("FFT convolution is not finite")
    counts = np.rint(conv)
    conv -= counts
    if np.abs(conv, out=conv).max() >= 0.25:
        raise ArithmeticError("FFT convolution is not exact enough to round")
    return counts.astype(np.int64)
