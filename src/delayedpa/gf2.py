"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as arbitrary-precision Python integers
with LSB-first packing: bit i lives at word i // 64, slot i % 64 when the
integer is viewed as 64-bit words.  XOR of equal-length vectors and AND
plus popcount dot products are then single big-int operations, which keeps
desk-scale exhaustive checks and 10^4-bit protocol keys fast without any
native extension.

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
:func:`modified_toeplitz_hash` computes T x2 without building T: one real
FFT convolution (numpy) of the seed and the n - n_pa high key bits, at the
power of two >= n - 1, reduced mod 2, in O(n log n) time and memory.  It
takes all of a run's keys in one call, transforms the seed once, and packs
as many keys into each transform as 44 bits of float64 hold exactly (two
at n = 10**6, eleven at n - n_pa = 8).  Float rounding cannot flip a bit
unnoticed, because an exactness guard raises if any convolution entry lies
0.25 or more from an integer (a NaN or inf entry included).  T x2 alone
is the hash of the key x2 << n_pa, whose low n_pa bits are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BinaryMatrix",
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


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense GF(2) matrix, one packed integer per row.

    Bit j of ``row_words[i]`` is entry (i, j).
    """

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.row_words) != self.rows:
            raise ValueError("row count does not match row_words")
        for w in self.row_words:
            if w < 0 or w.bit_length() > self.cols:
                raise ValueError("row has set bits beyond cols")


def _unpack(length: int, *values: int) -> np.ndarray:
    """The low ``length`` bits of each value, LSB first, one uint8 row per value."""
    width = (length + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), width), axis=1, bitorder="little")[:, :length]


# Keys x2, x2', ... share one transform as x2 + 2**s x2' + ..., s =
# w.bit_length(), while their count times s is <= _PACK_MAX_BITS: every count
# is <= w < 2**s, so the packed entries stay below 2**_PACK_MAX_BITS and rint
# recovers each count.  A float64 entry near 2**b is only exact to about
# 2**(b - 53), so the error grows 2x per packed bit.  With all-ones seeds and
# keys, the largest entries, the worst error measured for a pair was 1.2e-4 at
# s = 20 (n = 10**6) and 0.0039 at s = 22, but 0.0625 at s = 24 (n = 10**7,
# which runs allow), too close to the guard's 0.25; wider keys take one
# transform each (error 4e-9 there).
_PACK_MAX_BITS = 44


def modified_toeplitz_hash(
    seed: BitVector, n_pa: int, keys: Sequence[BitVector]
) -> list[BitVector]:
    """Each n-bit key x hashed to x[:n_pa] XOR T x[n_pa:], with n = seed.length + 1.

    T is the seed's n_pa x (n - n_pa) Toeplitz matrix (module docstring).
    Output bit i of T x2 is entry w - 1 + i of the linear convolution of
    the seed and the w = n - n_pa high key bits.  The seed is transformed
    once per call, and consecutive keys are packed several to a transform
    (see ``_PACK_MAX_BITS``).

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
    # the circular convolution at size >= n - 1 wraps linear entries onto
    # indices below w - 1, which are never read
    size = 1 << (n - 2).bit_length()
    seed_f = np.fft.rfft(_unpack(seed.length, seed.bits)[0], size)
    s = w.bit_length()
    step = max(1, _PACK_MAX_BITS // s)
    mask = (1 << n_pa) - 1
    out = []
    for i in range(0, len(keys), step):
        group = keys[i : i + step]
        # the bits are cast to float64 before scaling: on numpy 1.x, uint8
        # times a Python float (or ldexp) gives float16, which overflows at 2**16
        packed = np.zeros(w, dtype=np.float64)
        for j, bits in enumerate(_unpack(n, *(x.bits for x in group))[:, n_pa:]):
            packed += bits.astype(np.float64) * 2.0 ** (s * j)
        # multiplied in place: seed_f lives for the whole call, so no third
        # spectrum-sized array is alive at once
        spectrum = np.fft.rfft(packed, size)
        np.multiply(seed_f, spectrum, out=spectrum)
        counts = _exact_counts(np.fft.irfft(spectrum, size)[w - 1 : n - 1])
        shifts = s * np.arange(len(group))[:, None]
        rows = np.packbits(((counts >> shifts) & 1).astype(np.uint8), axis=1, bitorder="little")
        for x, row in zip(group, rows):
            out.append(BitVector(n_pa, (x.bits & mask) ^ int.from_bytes(row.tobytes(), "little")))
    return out


def _exact_counts(conv: np.ndarray) -> np.ndarray:
    """An FFT convolution's entries as int64 counts, or ArithmeticError if
    any entry is not finite or lies 0.25 or more from an integer."""
    # checked first, so that no NaN or inf enters the rounding error
    if not np.isfinite(conv).all():
        raise ArithmeticError("FFT convolution is not finite")
    counts = np.rint(conv)
    if np.abs(conv - counts).max() >= 0.25:
        raise ArithmeticError("FFT convolution is not exact enough to round")
    return counts.astype(np.int64)
