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

:func:`row_reduce` is plain column-by-column Gauss-Jordan elimination on the
packed rows.  No command reduces more than 13 columns; a wide hash built
from rows pays about rows * rank big-int XORs per reduction.

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
more from an integer (a NaN or inf entry included).  A plain Toeplitz
product A x, A = ``toeplitz_from_seed(seed, n_pa, m)``, is the same seed's
hash of the (m + n_pa)-bit key x << n_pa, whose low n_pa bits are zero.
So the dense :func:`toeplitz_from_seed` matrix is the test oracle of both
products, and ``[I | toeplitz_from_seed(seed, n_pa, n - n_pa)]`` is the
hash's.  :func:`toeplitz_rows_independent` decides whether a Toeplitz
matrix has independent rows from its seed alone, by the extended
Euclidean algorithm in O(n**2) bit operations, without row reduction.

:func:`sample_toeplitz_preimage` draws a uniform preimage of a seed's
n_pa x n Toeplitz matrix A without elimination either.  With its columns
reversed, A is the top of the n x n Hankel matrix of a_k = seed[k], which
is nonsingular exactly when a_0 .. a_(2n-2) have linear complexity n.
Berlekamp-Massey (Massey, IEEE Trans. IT 15, 122 (1969)) runs over the
seed; extending it to 2 n - 1 bits with discrepancy 1 at k = n - 1 + L
only is one length change, to n, which exists exactly when A's rows are
independent, so the extension's n x n Toeplitz A' is then nonsingular with
A as its top rows.  The extension's bits are never computed.  A'^-1 is
the Bezoutian of the last two cofactors P, Q of Euclid on (x**(2n-1), a),
stopped as in the rank check (Brent, Gustavson and Yun, J. Algorithms 1,
259 (1980); Heinig and Rost): A'^-1 v = P u1 + (Q mod x**n) u2 mod x**n,
u1 and u2 the coefficients n - 1 .. 2n - 2 of v (Q >> 1) and v (P >> 1),
four carry-less FFT products under the hash's guard.  Euclid is not run:
P and Q lie in the plane {t : deg t <= n, no x**n .. x**(2n-2) terms in
t a}, spanned by Berlekamp-Massey's last c and x**(n - L_b) b, as the t
whose (t's x**n, t a's x**(n-1)) bits are (0, 1) and (1, 0).  A draw is
x = A'^-1 (y + x**n_pa g) for g = ``rng.getrandbits(n - n_pa)``; g -> x
is a bijection onto {x : Ax = y}, so x is exactly uniform.

:func:`preimage_sampler` draws uniform preimages {x : Ax = y}.  It
row-reduces [A | y] once per (matrix, y) and reads z, the reduced y, from
the last column; each draw sets the free columns from one
``rng.getrandbits(n_free)`` and back-substitutes the pivot columns from z.
:func:`sample_preimage` is the one-draw form of a fresh sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "PreimageSampler",
    "preimage_sampler",
    "sample_preimage",
    "sample_toeplitz_preimage",
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
    _check_toeplitz_shape(seed, n_pa, n)
    # Entry (i, j) = rev[(n_pa - 1 - i) + j] where rev is the bit-reversed
    # seed, so each row is a single shift+mask window.
    rev = int(seed.to01(), 2)
    mask = (1 << n) - 1
    return BinaryMatrix(n_pa, n, tuple(((rev >> (n_pa - 1 - i)) & mask) for i in range(n_pa)))


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
        counts = _exact_counts(np.fft.irfft(spectrum, size)[w - 1 : n - 1])
        for j, x in enumerate(group):
            out.append(x.cut(0, n_pa) ^ BitVector.from_bits((counts >> (s * j)) & 1))
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


def _clmul(a: int, b: int, n: int) -> int:
    """Carry-less product of two polynomials of degree < n: one FFT convolution mod 2."""
    size = 1 << (2 * n - 2).bit_length()  # >= 2 n - 1 entries, so nothing wraps
    spectrum = np.fft.rfft(_unpack(BitVector(n, a)), size)
    spectrum *= np.fft.rfft(_unpack(BitVector(n, b)), size)
    return BitVector.from_bits(_exact_counts(np.fft.irfft(spectrum, size)) & 1).bits


def sample_toeplitz_preimage(seed: BitVector, n_pa: int, n: int, y: BitVector, rng) -> BitVector:
    """Uniform draw from {x : Ax = y}, A = ``toeplitz_from_seed(seed, n_pa, n)``.

    No elimination: one O(n**2) Berlekamp-Massey pass plus four FFT
    products (see the module docstring).  Takes one
    ``rng.getrandbits(n - n_pa)``, as :func:`preimage_sampler`'s draw does.
    Raises ValueError if A's rows are dependent.
    """
    _check_toeplitz_shape(seed, n_pa, n)
    if y.length != n_pa:
        raise ValueError(f"dimension mismatch: matrix rows {n_pa}, vector length {y.length}")
    # Berlekamp-Massey: connection polynomial c of length L; b is c before
    # its last length change, made at step m
    big_n, rev = seed.length, int(seed.to01(), 2)  # rev >> (N - 1 - k): bit i is seed[k - i]
    c, b, L, m = 1, 1, 0, -1
    for k in range(big_n):
        if (c & rev >> (big_n - 1 - k)).bit_count() & 1:
            if 2 * L <= k:
                c, b, L, m = c ^ b << (k - m), c, k + 1 - L, k
            else:
                c ^= b << (k - m)
    # the extension to 2 n - 1 bits: discrepancy 1 at k = n - 1 + L only
    if n_pa <= L < n:
        c, b, L, m = c ^ b << (n - 1 + L - m), c, n, n - 1 + L
    if L != n or n_pa > n:  # more rows than columns are never independent
        raise ValueError("rows not independent")
    # P and Q in the plane of c and d = x**(n - L_b) b, L_b = m + 1 - n (module docstring)
    d, head = b << (2 * n - 1 - m), rev >> (big_n - n)  # head bit i is a_(n-1-i)
    (ac, bc), (ad, bd) = ((t >> n & 1, (t & head).bit_count() & 1) for t in (c, d))
    p, q = c * ad ^ d * ac, c * bd ^ d * bc
    v, low = y.bits | (rng.getrandbits(n - n_pa) if n > n_pa else 0) << n_pa, (1 << n) - 1
    u1, u2 = _clmul(v, q >> 1, n) >> (n - 1), _clmul(v, p >> 1, n) >> (n - 1)
    return BitVector(n, (_clmul(p, u1, n) ^ _clmul(q & low, u2, n)) & low)


def row_reduce(a: BinaryMatrix) -> RowReduction:
    """Reduced row-echelon form, pivot columns and free columns.

    Handles any matrix; rank deficiency shows up as zero rows in ``upper``
    and a shorter ``pivot_cols``, never as an error.  Plain Gauss-Jordan
    elimination on the packed rows: column by column, the first row at or
    below the next pivot position with a 1 there is swapped up and XORed
    into every other row with a 1 in that column.  A column with no such
    row, every column after the last pivot included, is free.
    """
    work = list(a.row_words)
    pivot_cols: list[int] = []
    free_cols: list[int] = []
    for c in range(a.cols):
        bit, r = 1 << c, len(pivot_cols)
        for i in range(r, a.rows):
            if work[i] & bit:
                break
        else:
            free_cols.append(c)
            continue
        pivot = work[i]
        work[i], work[r] = work[r], pivot
        for j, w in enumerate(work):
            if w & bit and j != r:
                work[j] = w ^ pivot
        pivot_cols.append(c)
    return RowReduction(
        upper=BinaryMatrix(a.rows, a.cols, tuple(work)),
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(free_cols),
    )


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


def preimage_sampler(a: BinaryMatrix, y: BitVector) -> PreimageSampler:
    """Uniform draws from {x : Ax = y} for a matrix with independent rows.

    Row-reduces [A | y], y as one more column, once, here.  Gauss-Jordan
    treats the columns in order, and when A's rows are independent each
    gets its pivot before y's column, so the A part is A's own reduction
    and the last column is z, the reduced y.  Each call of the returned
    ``draw(rng)`` takes the free-column bits from one
    ``rng.getrandbits(n_free)`` (no call when every column is a pivot) and
    back-substitutes the pivot columns from z; every preimage element comes
    out with probability 2**-(cols - rows).
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
    # a row's bit in y's column meets no bit of x, so the row stays whole
    pivots = tuple((w, pc, w >> cols) for w, pc in zip(red.upper.row_words, red.pivot_cols))
    return PreimageSampler(cols, len(red.free_cols) - 1, tuple(runs), pivots)


def sample_preimage(a: BinaryMatrix, y: BitVector, rng) -> BitVector:
    """One uniform draw from {x : Ax = y}: :func:`preimage_sampler`'s one-draw form."""
    return preimage_sampler(a, y)(rng)
