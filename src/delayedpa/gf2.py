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

:func:`row_reduce` is Gauss-Jordan elimination done by the Method of Four
Russians on one C-contiguous ``(rows, words)`` array of little-endian uint64
words, in blocks of 8 columns, so a block is one byte column of the array's
``uint8`` view.  A block's pivots are found on that byte column alone, then
one table of the XOR combinations of its pivot rows updates every row by a
gather and an in-place XOR, 256 rows per call.  The result, swap order
included, is exactly the column-by-column elimination's.

Protocol keys are hashed by the modified Toeplitz family of Hayashi and
Tsurumaru (arXiv:1311.5322): an n-bit key x = (x1, x2), split after n_pa
bits, maps to x1 XOR T x2, where T is the n_pa x (n - n_pa) Toeplitz matrix
of an (n - 1)-bit seed.  The family is universal_2, and its rows are
independent by construction, so the delayed-PA proof applies to it as it is.
:func:`modified_toeplitz_hash` computes T x2 without building T: one real
FFT convolution (numpy) of the seed and the n - n_pa high key bits, at the
power of two >= n - 1, reduced mod 2, in O(n log n) time and memory.  It
takes all of a run's keys in one call, transforms the seed once, and packs
two keys into each transform.  Float rounding cannot flip a bit unnoticed,
because an exactness guard raises if any convolution entry lies 0.25 or
more from an integer (a NaN or inf entry included).  The dense
:func:`toeplitz_from_seed` matrix stays for row reduction and preimage
sampling, and ``[I | toeplitz_from_seed(seed, n_pa, n - n_pa)]`` is the
hash's test oracle.  :func:`toeplitz_rows_independent` decides whether a
Toeplitz matrix has independent rows from its seed alone, by the extended
Euclidean algorithm in O(n**2) bit operations, without row reduction.

:func:`preimage_sampler` draws uniform preimages {x : Ax = y}.  It
row-reduces [A | y] once per (matrix, y) and reads z, the reduced y, from
the last column; each draw sets the free columns from one
``rng.getrandbits(n_free)`` and back-substitutes the pivot columns from z.
Its batch form makes ``count`` draws at once, as an int64 array of codes,
for matrices of at most 63 columns.  It reads the same ``random.Random``
stream as ``count`` one-draw calls: ``getrandbits(k)`` is one 32-bit word
shifted right by 32 - k for k <= 32, and two words, the second shifted
right by 64 - k, for 32 < k <= 64; ``getrandbits(32 * words * count)``
returns those same words, first word lowest.  The free bits are scattered
by the same runs of free columns, and each pivot bit comes from a
byte-parity lookup of ``row & x``.
:func:`sample_preimage` is the one-draw form of a fresh sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BinaryMatrix",
    "RowReduction",
    "matvec",
    "toeplitz_from_seed",
    "toeplitz_rows_independent",
    "modified_toeplitz_hash",
    "row_reduce",
    "kernel_basis",
    "PreimageSampler",
    "preimage_sampler",
    "sample_preimage",
]


def _parity(x: int) -> int:
    return x.bit_count() & 1


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

    def to_text(self) -> str:
        return f"bits={self.length}\n{self.to_hex()}\n"

    @classmethod
    def from_text(cls, text: str) -> "BitVector":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("bits="):
            raise ValueError("missing bits= header")
        length = int(lines[0][len("bits="):])
        digits = lines[1].strip() if len(lines) > 1 else ""
        return cls.from_hex(length, digits)

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

    Bit j of ``row_words[i]`` is entry (i, j).  ``toeplitz_seed`` is kept for
    serialization and for :func:`toeplitz_rows_independent` when the matrix
    was built by :func:`toeplitz_from_seed`; it must be rows + cols - 1 bits
    whose windows are the rows, and it does not take part in equality.
    """

    rows: int
    cols: int
    row_words: tuple[int, ...]
    toeplitz_seed: BitVector | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.row_words) != self.rows:
            raise ValueError("row count does not match row_words")
        for w in self.row_words:
            if w < 0 or w.bit_length() > self.cols:
                raise ValueError("row has set bits beyond cols")
        seed = self.toeplitz_seed
        if seed is not None and self.row_words != _toeplitz_words(seed, self.rows, self.cols):
            raise ValueError("rows are not the windows of toeplitz_seed")

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        return cls.from_row_vectors(BitVector.from_bits(r) for r in rows)

    @classmethod
    def from_row_vectors(cls, rows: Iterable[BitVector]) -> "BinaryMatrix":
        rows = list(rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        cols = rows[0].length
        if any(r.length != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, tuple(r.bits for r in rows))

    @classmethod
    def random(cls, rows: int, cols: int, rng) -> "BinaryMatrix":
        return cls(
            rows, cols,
            tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)),
        )

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry index out of range")
        return (self.row_words[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_words[i])

    def to_text(self) -> str:
        lines = [f"rows={self.rows} cols={self.cols}"]
        lines.extend(self.row(i).to01() for i in range(self.rows))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split()
        if len(header) != 2 or not header[0].startswith("rows=") or not header[1].startswith("cols="):
            raise ValueError("bad matrix header")
        rows = int(header[0][len("rows="):])
        cols = int(header[1][len("cols="):])
        if len(lines) != rows + 1:
            raise ValueError("row count does not match header")
        words = []
        for ln in lines[1:]:
            if len(ln) != cols:
                raise ValueError("row width does not match header")
            words.append(BitVector.from01(ln).bits)
        return cls(rows, cols, tuple(words))


@dataclass(frozen=True)
class RowReduction:
    """Result of Gauss-Jordan elimination.

    ``upper`` is the reduced row-echelon form, with pivots at ``pivot_cols``.
    """

    upper: BinaryMatrix
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def matvec(a: BinaryMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): result[i] = XOR_j a[i][j] AND v[j]."""
    if v.length != a.cols:
        raise ValueError(f"dimension mismatch: matrix cols {a.cols}, vector length {v.length}")
    out = 0
    for i, row in enumerate(a.row_words):
        if _parity(row & v.bits):
            out |= 1 << i
    return BitVector(a.rows, out)


def _check_toeplitz_shape(seed: BitVector, n_pa: int, n: int) -> None:
    if n_pa < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if seed.length != n + n_pa - 1:
        raise ValueError(
            f"seed length {seed.length} does not match n + n_pa - 1 = {n + n_pa - 1}"
        )


def _unpack(v: BitVector) -> np.ndarray:
    return np.unpackbits(np.frombuffer(v.to_bytes(), dtype=np.uint8), bitorder="little")[: v.length]


def toeplitz_from_seed(seed: BitVector, n_pa: int, n: int) -> BinaryMatrix:
    """Toeplitz matrix with entry (i, j) = seed[i - j + n - 1].

    The first row is seed[n-1] .. seed[0] laid out over columns 0 .. n-1 and
    the first column walks seed[n-1] .. seed[n+n_pa-2], so the matrix is
    constant along every diagonal and fully determined by n + n_pa - 1 bits.
    """
    matrix = BinaryMatrix(n_pa, n, _toeplitz_words(seed, n_pa, n))
    # the rows are the seed's windows by construction, so they are not
    # rebuilt to check them as a hand-built matrix's are
    object.__setattr__(matrix, "toeplitz_seed", seed)
    return matrix


def _toeplitz_words(seed: BitVector, n_pa: int, n: int) -> tuple[int, ...]:
    _check_toeplitz_shape(seed, n_pa, n)
    # Entry (i, j) = rev[(n_pa - 1 - i) + j] where rev is the bit-reversed
    # seed, so each row is a single shift+mask window.
    rev = int(seed.to01(), 2)
    mask = (1 << n) - 1
    return tuple(((rev >> (n_pa - 1 - i)) & mask) for i in range(n_pa))


def toeplitz_rows_independent(seed: BitVector, n_pa: int, n: int) -> bool:
    """Whether ``toeplitz_from_seed(seed, n_pa, n)`` has independent rows.

    A row dependency c != 0, sum_i c_i seed[i + t] = 0 for all t < n, is
    exactly a nonzero polynomial c~ (c reversed) of degree <= n_pa - 1 with
    deg(c~ s mod x**N) <= n_pa - 2, where s is the seed read as a polynomial
    and N = n + n_pa - 1.  Since (n_pa - 1) + (n_pa - 2) < N, the extended
    Euclidean algorithm on (x**N, s), stopped at the first remainder of
    degree <= n_pa - 2, yields the cofactor t of least degree among them
    (rational reconstruction; Brent, Gustavson and Yun, J. Algorithms 1,
    259 (1980)), so the rows are independent exactly when deg t >= n_pa.
    O(N**2) bit operations on Python ints, against cubic elimination.
    """
    _check_toeplitz_shape(seed, n_pa, n)
    r0, r1, t0, t1 = 1 << seed.length, seed.bits, 0, 1
    while r1.bit_length() >= n_pa:
        while (shift := r0.bit_length() - r1.bit_length()) >= 0:
            r0 ^= r1 << shift
            t0 ^= t1 << shift
        r0, r1, t0, t1 = r1, r0, t1, t0
    return t1.bit_length() > n_pa


# Two keys x2, x2' share one transform as x2 + 2**s x2', s = w.bit_length(),
# while 2 s <= _PAIR_MAX_BITS: every count is <= w < 2**s, so the packed
# entries stay below 2**(2 s + 1) and rint recovers both counts.  A float64
# entry near 2**(2 s + 1) is only exact to about 2**(2 s - 52), so the error
# grows 4x per bit of s.  With all-ones seeds and keys, the largest entries,
# the worst error measured was 1.2e-4 at s = 20 (n = 10**6) and 0.0039 at
# s = 22, but 0.0625 at s = 24 (n = 10**7, which runs allow), too close to
# the guard's 0.25; wider keys take one transform each (error 4e-9 there).
_PAIR_MAX_BITS = 44


def modified_toeplitz_hash(
    seed: BitVector, n_pa: int, keys: Sequence[BitVector]
) -> list[BitVector]:
    """Each n-bit key x hashed to x[:n_pa] XOR T x[n_pa:], with n = seed.length + 1.

    T = ``toeplitz_from_seed(seed, n_pa, n - n_pa)``, so the dense
    ``[I | T]`` is the exact oracle.  Output bit i of T x2 is entry
    w - 1 + i of the linear convolution of the seed and the w = n - n_pa
    high key bits.  The seed is transformed once per call and consecutive
    keys are packed in pairs (see ``_PAIR_MAX_BITS``).

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
    seed_f = np.fft.rfft(_unpack(seed), size)
    s = w.bit_length()
    step = 2 if 2 * s <= _PAIR_MAX_BITS else 1
    out = []
    for i in range(0, len(keys), step):
        group = keys[i : i + step]
        # the bits are cast to float64 before scaling: on numpy 1.x, uint8
        # times a Python float (or ldexp) gives float16, which overflows at 2**16
        packed = np.zeros(w, dtype=np.float64)
        for j, x in enumerate(group):
            packed += _unpack(x)[n_pa:].astype(np.float64) * 2.0 ** (s * j)
        # multiplied in place: seed_f lives for the whole call, so no third
        # spectrum-sized array is alive at once
        spectrum = np.fft.rfft(packed, size)
        np.multiply(seed_f, spectrum, out=spectrum)
        conv = np.fft.irfft(spectrum, size)[w - 1 : n - 1]
        counts = np.rint(conv)
        # written so that a NaN error fails it
        if not np.abs(conv - counts).max() < 0.25:
            raise ArithmeticError("FFT convolution is not exact enough to round")
        counts = counts.astype(np.int64)
        for j, x in enumerate(group):
            out.append(x.cut(0, n_pa) ^ BitVector.from_bits((counts >> (s * j)) & 1))
    return out


_OCTETS = np.arange(256, dtype=np.uint8)
_INDICES = np.arange(256, dtype=np.intp)
_GATHER_ROWS = 256


def row_reduce(a: BinaryMatrix) -> RowReduction:
    """Reduced row-echelon form, pivot columns and free columns.

    Handles any matrix; rank deficiency shows up as zero rows in ``upper``
    and a shorter ``pivot_cols``, never as an error.

    The result is plain Gauss-Jordan elimination's: column by column, the
    first row at or below the next pivot position with a 1 there is swapped
    up and cleared from every other row.  It is computed by the Method of
    Four Russians (Bard, IACR ePrint 2006/251) on one C-contiguous
    ``(rows, words)`` array of little-endian uint64 words.  Blocks are 8
    columns wide, so block b is byte column b of the array's ``uint8``
    view.  For each block:

    - the byte column of the rows from the next pivot position down is read
      into a list once; if it is all zero, the block's columns are free and
      the block is done.  Otherwise the pivot search runs on those small
      ints: a lower row is brought up to date against the block's pivots so
      far when the search reads it, and a pivot row is swapped up;
    - the swapped full rows move in one indexed assignment;
    - a table of all 2**p XOR combinations of the block's p pivot rows, as
      they stand before the block, is built by p doublings;
    - a 256-entry lookup maps every row's byte to the one table index that
      clears the pivot columns, which for a pivot row is corrected to the
      combination leaving only its own pivot bit (the block's Gauss-Jordan);
    - a gather of the table by those indices and an in-place XOR update
      every row, 256 rows per call so the gathered copy stays small.

    That is about rows * cols / 8 row operations, done in numpy, where
    Gauss-Jordan needs rows * rank.  The reduced form is unique, and each
    row's combination of pivot rows is fixed by its bits at the pivot
    columns, so every field, the swap order of a rank-deficient input
    included, equals Gauss-Jordan's exactly.
    """
    rows, cols = a.rows, a.cols
    # each row is written into the array's buffer directly, with no joined copy
    row_bytes = (cols + 63) >> 6 << 3
    col_bytes = (cols + 7) >> 3
    buf = bytearray(rows * row_bytes)
    for i, w in enumerate(a.row_words):
        buf[i * row_bytes : i * row_bytes + col_bytes] = w.to_bytes(col_bytes, "little")
    work = np.frombuffer(buf, dtype="<u8").reshape(rows, row_bytes >> 3)
    octets = work.view(np.uint8)
    table = np.zeros((256, work.shape[1]), dtype="<u8")
    table_octets = table.view(np.uint8)
    index_of = np.empty(256, dtype=np.intp)
    pivot_cols: list[int] = []
    free_cols: list[int] = []
    r = 0
    for c0 in range(0, cols, 8):
        if r == rows:
            break
        r0 = r  # the block's pivot rows end up at r0 .. r - 1
        byte = c0 >> 3
        col = octets[r0:, byte].tolist()  # col[i] is row r0 + i's byte
        if not any(col):
            # no row from r0 down has a 1 in the block: all its columns are free
            free_cols += range(c0, min(c0 + 8, cols))
            continue
        bits: list[int] = []  # bits[j] marks the pivot column of row r0 + j
        moved: dict[int, int] = {}  # position -> the position its row came from
        for c in range(c0, min(c0 + 8, cols)):
            bit = 1 << (c - c0)
            for i in range(r - r0, rows - r0):
                v = col[i]
                for j, b in enumerate(bits):
                    if v & b:
                        v ^= col[j]
                if v & bit:
                    break
                col[i] = v
            else:
                free_cols.append(c)
                continue
            p = r - r0
            if i != p:
                col[i] = col[p]
                moved[r0 + i], moved[r] = moved.get(r, r), moved.get(r0 + i, r0 + i)
            col[p] = v
            for j in range(p):
                if col[j] & bit:
                    col[j] ^= v
            pivot_cols.append(c)
            bits.append(bit)
            r += 1
            if r == rows:
                break
        if r == r0:
            continue
        if moved:
            work[list(moved)] = work[list(moved.values())]
        # table[x] is the XOR of the block's pivot rows, as they stand
        # before it, whose bit is set in x
        for j in range(r - r0):
            np.bitwise_xor(table[: 1 << j], work[r0 + j : r0 + j + 1], table[1 << j : 2 << j])
        # the pivot rows are independent on the pivot columns, so each
        # pattern k of bits there is met by exactly one entry, index_of[k];
        # every pattern is rewritten here, and only patterns are read
        size = 1 << (r - r0)
        pivot_mask = np.uint8(sum(bits))
        index_of[table_octets[:size, byte] & pivot_mask] = _INDICES[:size]
        idx = index_of[_OCTETS & pivot_mask].take(octets[:, byte])
        # a pivot row's byte selects the row itself; its reduced form is the
        # combination that leaves only its own pivot bit
        idx[r0:r] ^= index_of[bits]
        # in chunks of rows: a whole-array gather would be a second copy of
        # the work array, which the allocator then keeps resident
        for s0 in range(0, rows, _GATHER_ROWS):
            work[s0 : s0 + _GATHER_ROWS] ^= table.take(idx[s0 : s0 + _GATHER_ROWS], axis=0)
    # the columns visited are a prefix; once every row is a pivot the rest are free
    free_cols += range(len(pivot_cols) + len(free_cols), cols)
    view = memoryview(buf)
    upper = [
        int.from_bytes(view[i * row_bytes : (i + 1) * row_bytes], "little") for i in range(rows)
    ]
    return RowReduction(
        upper=BinaryMatrix(rows, cols, tuple(upper)),
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(free_cols),
    )


def kernel_basis(a: BinaryMatrix) -> list[BitVector]:
    """Basis of {x : Ax = 0}; kernel size is 2**(cols - rank)."""
    red = row_reduce(a)
    basis = []
    for fc in red.free_cols:
        bits = 1 << fc
        for r, pc in enumerate(red.pivot_cols):
            if (red.upper.row_words[r] >> fc) & 1:
                bits |= 1 << pc
        basis.append(BitVector(a.cols, bits))
    return basis


# _PARITY8[b] is the parity of the byte b
_PARITY8 = np.unpackbits(_OCTETS[:, None], axis=1).sum(axis=1, dtype=np.int64) & 1


@dataclass(frozen=True)
class PreimageSampler:
    """Uniform draws from {x : Ax = y}, set up once by :func:`preimage_sampler`.

    Draw bit i goes to free column ``free_cols[i]``: each of ``runs`` is a
    (mask, shift) pair that moves one run of consecutive free columns with
    one mask and one shift.  Each of ``pivots`` is (row, pivot column, z[r])
    for a row of the reduced echelon form, which touches its pivot plus
    free columns only, so the pivot bit is z[r] plus its parity on the
    free bits, and ``row & x`` reads those bits whichever other pivot bits
    ``x`` already has.
    """

    cols: int
    n_free: int
    runs: tuple[tuple[int, int], ...]
    pivots: tuple[tuple[int, int, int], ...]

    def __call__(self, rng) -> BitVector:
        """One draw; takes one ``rng.getrandbits(n_free)`` (none if n_free is 0)."""
        bits = rng.getrandbits(self.n_free) if self.n_free else 0
        x = 0
        for mask, shift in self.runs:
            x |= (bits & mask) << shift
        for row, pc, z_r in self.pivots:
            if (row & x).bit_count() & 1 != z_r:
                x |= 1 << pc
        return BitVector(self.cols, x)

    def batch(self, rng, count: int) -> np.ndarray:
        """``count`` draws as an int64 array of codes, for at most 63 columns.

        Element i equals ``self(rng).bits`` for the i-th of ``count`` calls,
        and ``rng`` ends in the same state: ``getrandbits(k)`` for k <= 32
        is one 32-bit word shifted right by 32 - k, for 32 < k <= 64 two
        words, the second shifted right by 64 - k, and
        ``getrandbits(32 * w * count)`` returns the same words, first word
        lowest, so one call gives every draw's free bits.
        """
        if self.cols > 63:
            raise ValueError(f"batch draws need at most 63 columns, got {self.cols}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        k = self.n_free
        if k == 0 or count == 0:
            bits = np.zeros(count, dtype=np.int64)
        else:
            words = 1 if k <= 32 else 2
            raw = rng.getrandbits(32 * words * count).to_bytes(4 * words * count, "little")
            bits = np.frombuffer(raw, dtype="<u4").astype(np.int64)
            del raw
            if words == 1:
                bits >>= 32 - k
            else:
                high = bits[1::2] >> (64 - k)
                high <<= 32
                bits = bits[0::2] | high
        x = np.zeros(count, dtype=np.int64)
        for mask, shift in self.runs:
            part = bits & mask
            part <<= shift
            x |= part
        del bits
        # the parity of a word is its xor folded down to one byte, looked up
        folds = [s for s in (32, 16, 8) if self.cols > s]
        for row, pc, z_r in self.pivots:
            v = x & row
            for s in folds:
                v ^= v >> s
            v &= 0xFF
            parity = _PARITY8.take(v)
            parity ^= z_r
            parity <<= pc
            x |= parity
        return x


def preimage_sampler(a: BinaryMatrix, y: BitVector) -> PreimageSampler:
    """Uniform draws from {x : Ax = y} for a matrix with independent rows.

    Row-reduces [A | y], y as one more column, once, here.  Gauss-Jordan
    treats the columns in order, and when A's rows are independent each
    gets its pivot before y's column, so the A part is A's own reduction
    and the last column is z, the reduced y.  Each call of the returned
    ``draw(rng)`` takes the free-column bits from one
    ``rng.getrandbits(n_free)`` (no call when every column is a pivot) and
    back-substitutes the pivot columns from z; every preimage element comes
    out with probability 2**-(cols - rows).  ``draw.batch(rng, count)``
    makes ``count`` such draws at once from the same stream.
    """
    if y.length != a.rows:
        raise ValueError(f"dimension mismatch: matrix rows {a.rows}, vector length {y.length}")
    cols = a.cols
    augmented = tuple(w | ((y.bits >> i) & 1) << cols for i, w in enumerate(a.row_words))
    red = row_reduce(BinaryMatrix(a.rows, cols + 1, augmented))
    # a pivot in y's column leaves a zero row in A's part: its rows are dependent
    if red.rank < a.rows or cols in red.pivot_cols:
        raise ValueError("rows not independent")
    runs: list[tuple[int, int]] = []
    # y's column is the last free column
    for i, fc in enumerate(red.free_cols[:-1]):
        if runs and runs[-1][1] == fc - i:
            runs[-1] = (runs[-1][0] | 1 << i, fc - i)
        else:
            runs.append((1 << i, fc - i))
    # each row is masked to A's columns: batch codes have no bit 63 to spare
    col_mask = (1 << cols) - 1
    pivots = tuple(
        (w & col_mask, pc, w >> cols) for w, pc in zip(red.upper.row_words, red.pivot_cols)
    )
    return PreimageSampler(cols, len(red.free_cols) - 1, tuple(runs), pivots)


def sample_preimage(a: BinaryMatrix, y: BitVector, rng) -> BitVector:
    """One uniform draw from {x : Ax = y}: :func:`preimage_sampler`'s one-draw form."""
    return preimage_sampler(a, y)(rng)
