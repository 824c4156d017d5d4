"""Reference implementations that the tests hold the package to.

None of these runs in a command, a script or the documented API; each is
a second, plainer route to a result the package computes another way:

- ``BinaryMatrix``: a dense GF(2) matrix, one packed integer per row, with
  its shape and a check of each row; the matrix type of every oracle
  below.  The package holds a linear hash as its row words alone.
- ``matvec`` and its ``_parity``: the dense GF(2) product, one row parity
  per bit; checks ``modified_toeplitz_hash``, ``pa_apply_many`` and the
  hash tables of the verifier, and that a preimage draw maps to its y
  (the enumerated preimages of ``tests/test_gf2.py`` check that the draws
  cover it).
- ``toeplitz_from_seed`` and ``modified_toeplitz_matrix``: a seed's
  Toeplitz matrix, built row by row, and the dense [I | T] of an
  (n - 1)-bit seed; they check the seed-only hash and the preimage draw.
- ``identity_matrix``, ``matrix_from_rows``, ``entry`` and
  ``random_matrix``: matrix constructors, one entry, and a matrix of
  uniform random rows.
- ``RowReduction`` and ``row_reduce``: Gauss-Jordan elimination on the
  packed rows; the rank and row-space oracle of the [I | T] family's
  independent rows, the verifier's row spaces and its fiber-count rank
  check, and the dense draw.  Brute-force row spans check it.
- ``PreimageSampler`` and ``preimage_sampler``: uniform preimages of any
  matrix with independent rows, from [A | y] reduced once; the dense
  draw that the Toeplitz draw is held to.  Enumerated preimages check it.
- ``sample_preimage``: one draw of a fresh ``preimage_sampler``; checks
  that a sampler set up once draws what a fresh one draws.
- ``ref_row_reduce_with_ops`` and ``ref_row_reduce``: Gauss-Jordan
  elimination one row operation at a time, with their record; check
  ``row_reduce``.
- ``ref_preimage_sampler``: back-substitution from that record; checks
  ``preimage_sampler`` draw for draw.
- ``_full_rank_matrix`` and ``_full_rank_toeplitz``: random matrices, and
  random seeds whose dense Toeplitz matrix has full rank, redrawn until
  their rows are independent; the draw and sweep tests' cases.
- ``ref_clmul`` and ``ref_expand_message``: the [I | T] draw with its
  product T r made one shifted XOR at a time; checks ``expand_message``
  draw for draw, apart from the FFT.
- ``expand_imperfect_key``: a uniform m with f(m) = g(a'); checks that
  ``expand_message`` expands a second hash's output.
- ``pa_apply``, ``dpa_encrypt``, ``dpa_recover_via_key`` and
  ``dpa_recover_via_rawkey``: one hash per input, and the pad and the
  receiver's two decoding routes one step at a time; check the values that
  ``DelayedPaSession`` takes from its one batched hash call.
- ``op_for_bit`` and ``single_signal_roundtrip``: the encoding table one
  signal at a time; check the protocol runs' Pauli-frame rule.
- ``RawWords``, ``ref_fair``, ``ref_bernoulli``, ``ref_subset``,
  ``ref_randbelow`` and ``ref_getrandbits``: every draw of
  ``stream.BitStream`` rebuilt from the same raw PCG64 words, with planes
  as Python ints, one signal at a time; pin each draw of the stream.
- ``PureState``, ``DensityMatrix``, ``projector``, ``tensor``,
  ``partial_trace``, ``decompose`` and ``BasisDecomposition``: dense
  states over named subsystems; check the Pauli-frame simulation and the
  2c/2d derivations.
- ``_leading_qubit_block``, ``_leading_qubit_components``,
  ``_block_diagonal``, ``build_2c_state`` and ``build_2d_state``: the 2c
  and 2d joint states as whole density matrices; check the block stacks
  that ``verify_2c_2d_stack`` builds.
- ``verify_2c_2d``: the 2c/2d certificate of one state; checks that a
  stack of states gives each state its own distances, bit for bit.
- ``random_pure_state``: normalized complex Gaussian amplitudes; the
  random states of the quantum and acceptance tests.
- ``ClassicalJoint`` and ``classical_epsilon``: one classical joint,
  checked and scored alone; the metric's properties are tested on them,
  and the verifier's batched scoring against them.
- ``delayed_pa_epsilons``: (eps_key, eps_msg) for one matrix and one view
  table, through the package's ``security._bank_epsilons`` on a one-hash
  stack of its row words, so it is a convenience, not an independent route; the verifier's
  cases one at a time, known answers included.  The independent route is
  ``tests/test_security.py::ref_bank_epsilons``, the scatter oracle.
- ``enumerate_pa_matrices``: every ordered matrix with independent rows;
  checks the sweep's one case per row space, and runs the acceptance
  criterion over every matrix.
- ``ref_enumerate_row_spaces``: the row spaces' echelon bases one tuple of
  row words at a time; pins the order of the array that
  ``enumerate_row_spaces`` returns, on which the sweep's tie-break and the
  quantum trials' draws depend.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from delayedpa.gf2 import BitVector
from delayedpa.pa import AdditivePaFunction, expand_message, pa_apply_many
from delayedpa.protocols import _BASES, _PAULIS, _flips
from delayedpa.quantum import (
    ATOL_BUILD,
    _blocks_2c,
    _blocks_2d,
    _check_density_blocks,
    basis_ket,
    verify_2c_2d_stack,
)
from delayedpa.security import _bank_epsilons


# ---------------------------------------------------------------- gf2

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


def _parity(x: int) -> int:
    return x.bit_count() & 1


def matvec(a: BinaryMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): result[i] = XOR_j a[i][j] AND v[j]."""
    if v.length != a.cols:
        raise ValueError(f"dimension mismatch: matrix cols {a.cols}, vector length {v.length}")
    out = 0
    for i, row in enumerate(a.row_words):
        if _parity(row & v.bits):
            out |= 1 << i
    return BitVector(a.rows, out)


def toeplitz_from_seed(seed: BitVector, n_pa: int, n: int) -> BinaryMatrix:
    """Toeplitz matrix with entry (i, j) = seed[i - j + n - 1].

    The first row is seed[n-1] .. seed[0] laid out over columns 0 .. n-1 and
    the first column walks seed[n-1] .. seed[n+n_pa-2], so the matrix is
    constant along every diagonal and fully determined by n + n_pa - 1 bits.
    """
    if n_pa < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if seed.length != n + n_pa - 1:
        raise ValueError(f"seed length {seed.length} does not match n + n_pa - 1 = {n + n_pa - 1}")
    # Entry (i, j) = rev[(n_pa - 1 - i) + j] where rev is the bit-reversed
    # seed, so each row is a single shift+mask window.
    rev = int(seed.to01(), 2)
    mask = (1 << n) - 1
    return BinaryMatrix(n_pa, n, tuple(((rev >> (n_pa - 1 - i)) & mask) for i in range(n_pa)))


def modified_toeplitz_matrix(seed: BitVector, n_pa: int, n: int) -> BinaryMatrix:
    """The n_pa x n matrix [I | T], T the (n - 1)-bit seed's n_pa x (n - n_pa) Toeplitz matrix."""
    t = toeplitz_from_seed(seed, n_pa, n - n_pa)
    return BinaryMatrix(n_pa, n, tuple(1 << i | row << n_pa for i, row in enumerate(t.row_words)))


def identity_matrix(n: int) -> BinaryMatrix:
    return BinaryMatrix(n, n, tuple(1 << i for i in range(n)))


def matrix_from_rows(rows) -> BinaryMatrix:
    """The matrix of 0/1 rows; row i's element j is entry (i, j)."""
    rows = [BitVector.from_bits(r) for r in rows]
    if not rows:
        raise ValueError("matrix needs at least one row")
    cols = rows[0].length
    if any(r.length != cols for r in rows):
        raise ValueError("ragged rows")
    return BinaryMatrix(len(rows), cols, tuple(r.bits for r in rows))


def entry(a: BinaryMatrix, i: int, j: int) -> int:
    if not (0 <= i < a.rows and 0 <= j < a.cols):
        raise IndexError("entry index out of range")
    return (a.row_words[i] >> j) & 1


def random_matrix(rows: int, cols: int, rng) -> BinaryMatrix:
    return BinaryMatrix(
        rows, cols,
        tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)),
    )


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


# ---------------------------------------------------------------- elimination

def ref_row_reduce_with_ops(a: BinaryMatrix) -> tuple[RowReduction, BinaryMatrix]:
    """Plain Gauss-Jordan elimination, one column and one row at a time.

    Returns the reduction and ``row_ops``, the invertible product of the
    row operations (XORs and swaps) applied in order: ``row_ops @ a`` is
    the reduced form.
    """
    # row i's operation record sits above column a.cols, starting as e_i
    work = [w | (1 << (a.cols + i)) for i, w in enumerate(a.row_words)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        mask = 1 << c
        pivot = next((i for i in range(r, a.rows) if work[i] & mask), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
        for i in range(a.rows):
            if i != r and work[i] & mask:
                work[i] ^= work[r]
        pivot_cols.append(c)
        r += 1
    pivots = set(pivot_cols)
    free_cols = tuple(c for c in range(a.cols) if c not in pivots)
    col_mask = (1 << a.cols) - 1
    red = RowReduction(
        upper=BinaryMatrix(a.rows, a.cols, tuple([w & col_mask for w in work])),
        pivot_cols=tuple(pivot_cols),
        free_cols=free_cols,
    )
    return red, BinaryMatrix(a.rows, a.rows, tuple([w >> a.cols for w in work]))


def ref_row_reduce(a: BinaryMatrix) -> RowReduction:
    return ref_row_reduce_with_ops(a)[0]


def ref_preimage_sampler(a: BinaryMatrix, y: BitVector):
    """Uniform draws from {x : Ax = y} for a matrix with independent rows.

    Row-reduces once and takes z = row_ops y from the oracle's own record.
    Each draw takes the free-column bits from one ``rng.getrandbits(n_free)``
    and back-substitutes the pivot columns; every preimage element comes
    out with probability 2**-(cols - rows).
    """
    if y.length != a.rows:
        raise ValueError(f"dimension mismatch: matrix rows {a.rows}, vector length {y.length}")
    red, row_ops = ref_row_reduce_with_ops(a)
    if red.rank < a.rows:
        raise ValueError("rows not independent")
    z = matvec(row_ops, y)

    def draw(rng) -> BitVector:
        x = 0
        n_free = len(red.free_cols)
        if n_free:
            bits = rng.getrandbits(n_free)
            for idx, fc in enumerate(red.free_cols):
                if (bits >> idx) & 1:
                    x |= 1 << fc
        # Reduced echelon form: each pivot row touches its pivot plus free
        # columns only, so substitution needs no particular order.
        for r, pc in enumerate(red.pivot_cols):
            if z[r] ^ _parity(red.upper.row_words[r] & x):
                x |= 1 << pc
        return BitVector(a.cols, x)

    return draw


# a draw has independent rows with probability > 1/4 (more columns than
# rows), so a correct row_reduce refuses this many draws with probability
# < 1e-24; one that refuses every draw fails instead of hanging
_FULL_RANK_ATTEMPTS = 200


def _full_rank_matrix(rows: int, cols: int, rng) -> BinaryMatrix:
    """Draw random rows x cols matrices until one has independent rows."""
    for _ in range(_FULL_RANK_ATTEMPTS):
        matrix = random_matrix(rows, cols, rng)
        if row_reduce(matrix).rank == rows:
            return matrix
    raise RuntimeError(
        f"no {rows} x {cols} matrix with independent rows in {_FULL_RANK_ATTEMPTS} draws"
    )


def _full_rank_toeplitz(rng, n_pa, n):
    """A full-rank Toeplitz matrix and the seed it was built from."""
    for _ in range(_FULL_RANK_ATTEMPTS):
        seed = BitVector.random(n + n_pa - 1, rng)
        a = toeplitz_from_seed(seed, n_pa, n)
        if row_reduce(a).rank == n_pa:
            return a, seed
    raise RuntimeError(f"no full-rank Toeplitz matrix in {_FULL_RANK_ATTEMPTS} draws")


def ref_clmul(a: int, b: int, n: int) -> int:
    """Carry-less product of two polynomials of degree < n, one shifted XOR per set bit of b."""
    out = 0
    for j in range(n):
        if (b >> j) & 1:
            out ^= a << j
    return out


def ref_expand_message(f: AdditivePaFunction, y: BitVector, rng) -> BitVector:
    """``expand_message`` with T r made by :func:`ref_clmul`: bit i of T r is
    coefficient w - 1 + i of seed(x) r(x), w = n - n_pa; takes the same one
    ``rng.getrandbits(w)``."""
    if y.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {y.length}")
    w = f.n - f.n_pa
    r = rng.getrandbits(w)
    t_r = (ref_clmul(f.seed.bits, r, w) >> (w - 1)) & ((1 << f.n_pa) - 1)
    return BitVector(f.n, y.bits ^ t_r | r << f.n_pa)


# ---------------------------------------------------------------- pa

def pa_apply(f: AdditivePaFunction, a: BitVector) -> BitVector:
    """Hash an n-bit input down to n_pa bits."""
    return pa_apply_many(f, [a])[0]


def dpa_encrypt(a: BitVector, m: BitVector) -> BitVector:
    """XOR the expanded message with the raw (pre-hash) key."""
    return a ^ m


def dpa_recover_via_key(f: AdditivePaFunction, c: BitVector, k: BitVector) -> BitVector:
    """Recover the short message as f(c) XOR k; equals m' when c = a^m, k = f(a)."""
    if k.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {k.length}")
    return pa_apply(f, c) ^ k


def dpa_recover_via_rawkey(f: AdditivePaFunction, c: BitVector, a: BitVector) -> BitVector:
    """Recover the short message as f(c XOR a); the other decoding route."""
    return pa_apply(f, c ^ a)


def expand_imperfect_key(
    f: AdditivePaFunction, g: AdditivePaFunction, a_prime: BitVector, rng
) -> BitVector:
    """Uniform m with f(m) = g(a_prime), for using an imperfect key as message."""
    if g.n_pa != f.n_pa:
        raise ValueError("output lengths of the two hashes must match")
    return expand_message(f, pa_apply(g, a_prime), rng)


# ---------------------------------------------------------------- protocols

def op_for_bit(basis: str, bit: int, rng) -> str:
    """Uniform choice between the two operations encoding ``bit`` in ``basis``."""
    b = _BASES.index(basis)
    return _PAULIS[bit << b | rng.getrandbits(1) << (1 - b)]


def single_signal_roundtrip(basis: str, bob_bit: int, op: str) -> int:
    """Noiseless one-signal round trip: prepare, encode, measure in the
    prepared basis (which reads the frame's bit), decode."""
    code = _PAULIS.index(op)
    returned = bob_bit ^ _flips(code & 1, code >> 1, _BASES.index(basis))
    return returned ^ bob_bit


class RawWords:
    """The raw 64-bit words of ``np.random.PCG64(seed)``, one Python int at a time."""

    def __init__(self, seed: int):
        self._gen = np.random.PCG64(seed)

    def word(self) -> int:
        return int(self._gen.random_raw())

    def plane(self, n: int) -> int:
        """ceil(n / 64) words as one int, word i in bits 64 i .. 64 i + 63."""
        return sum(self.word() << (64 * i) for i in range(-(-n // 64)))


def ref_fair(words: RawWords, n: int) -> int:
    return words.plane(n) & ((1 << n) - 1)


def ref_bernoulli(words: RawWords, n: int, threshold: int, within: int) -> int:
    """Signal i of ``within`` is 1 when its random 53-bit u_i is below
    ``threshold``; planes give u_i's bits most significant first while some
    signal's prefix equals threshold's and a set digit of threshold is left,
    and a signal whose drawn prefix equals threshold's is not below it."""
    if threshold >= 1 << 53:
        return within
    signals = [i for i in range(n) if within >> i & 1]
    u, d = dict.fromkeys(signals, 0), 0
    while d < 53 and threshold % (1 << (53 - d)) and threshold >> (53 - d) in u.values():
        plane, d = words.plane(n), d + 1
        for i in signals:
            u[i] = u[i] << 1 | (plane >> i & 1)
    return sum(1 << i for i in signals if u[i] < threshold >> (53 - d))


def ref_randbelow(words: RawWords, bound: int) -> int:
    while True:
        w = words.word()
        if w < (2**64 // bound) * bound:
            return w % bound


def ref_subset(words: RawWords, n: int, k: int, eligible: int) -> int:
    """A Bernoulli(k / m) mask over the m eligible signals,
    then the first |surplus| of a Fisher-Yates shuffle of the positions of
    its ones (surplus) or of the eligible zeros (deficit) toggled."""
    m = eligible.bit_count()
    if k == m:
        return eligible
    chosen = ref_bernoulli(words, n, math.floor(k / m * 2**53), eligible)
    surplus = chosen.bit_count() - k
    pool = chosen if surplus > 0 else eligible & ~chosen
    positions = [i for i in range(n) if pool >> i & 1]
    for i in range(abs(surplus)):
        j = i + ref_randbelow(words, len(positions) - i)
        positions[i], positions[j] = positions[j], positions[i]
    for i in positions[: abs(surplus)]:
        chosen ^= 1 << i
    return chosen


def ref_getrandbits(words: RawWords, k: int) -> int:
    return words.plane(k) & ((1 << k) - 1)


# ---------------------------------------------------------------- quantum

@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ordered, named subsystems."""

    amps: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        if math.prod(self.dims) != amps.shape[0]:
            raise ValueError("product of dims does not match vector length")
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate subsystem labels")
        # written so that a NaN norm fails it
        if not abs(np.linalg.norm(amps) - 1.0) <= ATOL_BUILD:
            raise ValueError("state is not normalized")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def qubit(cls, bit: int, basis: str, label: str = "A") -> "PureState":
        return cls(basis_ket(bit, basis), (2,), (label,))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with labels."""

    mat: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError("matrix shape does not match dims")
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate subsystem labels")
        _check_density_blocks(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def projector(phi: PureState) -> DensityMatrix:
    """Rank-1 projector |phi><phi|."""
    mat = np.outer(phi.amps, phi.amps.conj())
    return DensityMatrix(mat, phi.dims, phi.labels)


def tensor(parts):
    """Tensor product of pure states or of density matrices (not mixed)."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor needs at least one factor")
    if all(isinstance(p, PureState) for p in parts):
        amps = parts[0].amps
        for p in parts[1:]:
            amps = np.kron(amps, p.amps)
        dims = tuple(d for p in parts for d in p.dims)
        labels = tuple(l for p in parts for l in p.labels)
        return PureState(amps, dims, labels)
    if all(isinstance(p, DensityMatrix) for p in parts):
        mat = parts[0].mat
        for p in parts[1:]:
            mat = np.kron(mat, p.mat)
        dims = tuple(d for p in parts for d in p.dims)
        labels = tuple(l for p in parts for l in p.labels)
        return DensityMatrix(mat, dims, labels)
    raise ValueError("cannot mix pure states and density matrices in tensor")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem whose label is not in ``keep``.

    Kept subsystems stay in their original relative order.
    """
    keep = set([keep] if isinstance(keep, str) else keep)
    unknown = keep - set(rho.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    k = len(rho.dims)
    kept_idx = [i for i, lbl in enumerate(rho.labels) if lbl in keep]
    t = rho.mat.reshape(rho.dims + rho.dims)
    sub = list(range(k)) + [k + i if i in kept_idx else i for i in range(k)]
    out = [i for i in kept_idx] + [k + i for i in kept_idx]
    reduced = np.einsum(t, sub, out)
    d = math.prod(rho.dims[i] for i in kept_idx)
    return DensityMatrix(
        reduced.reshape(d, d),
        tuple(rho.dims[i] for i in kept_idx),
        tuple(rho.labels[i] for i in kept_idx),
    )


def _leading_qubit_block(psi: PureState) -> np.ndarray:
    """The amplitudes of ``psi`` as a (2, rest) array over the leading qubit."""
    if len(psi.dims) < 2:
        raise ValueError("state must have a remainder subsystem")
    if psi.dims[0] != 2:
        raise ValueError("leading subsystem must be a qubit")
    return psi.amps.reshape(2, psi.dim // 2)


def _leading_qubit_components(psi: PureState, basis: str):
    """Unnormalized remainder vectors <a_basis| psi for a = 0, 1.

    The first subsystem must be a qubit; the remainder keeps its own
    dims/labels.
    """
    block = _leading_qubit_block(psi)
    return [basis_ket(a, basis).conj() @ block for a in (0, 1)]


def decompose(psi: PureState, basis: str) -> "BasisDecomposition":
    """Split |psi> = sum_a lambda_a |a_basis> |e_a> over the leading qubit.

    The companions |e_a> are normalized (but generally not orthogonal); the
    weights are returned real and nonnegative with any phase absorbed into
    the companion.
    """
    comps = _leading_qubit_components(psi, basis)
    rest_dims = psi.dims[1:]
    rest_labels = psi.labels[1:]
    lambdas = []
    companions = []
    for vec in comps:
        lam = float(np.linalg.norm(vec))
        if lam > 0:
            companions.append(PureState(vec / lam, rest_dims, rest_labels))
        else:
            fallback = np.zeros(vec.shape[0], dtype=complex)
            fallback[0] = 1.0
            companions.append(PureState(fallback, rest_dims, rest_labels))
        lambdas.append(complex(lam))
    total = sum(abs(l) ** 2 for l in lambdas)
    if abs(total - 1.0) > ATOL_BUILD:
        raise ValueError("weights do not sum to 1")
    return BasisDecomposition(
        basis=basis,
        lambdas=(lambdas[0], lambdas[1]),
        companions=(companions[0], companions[1]),
    )


@dataclass(frozen=True)
class BasisDecomposition:
    basis: str
    lambdas: tuple[complex, complex]
    companions: tuple[PureState, PureState]


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (k d) x (k d) matrix with the k blocks of a stack on its diagonal."""
    d = blocks.shape[-1]
    flat = blocks.reshape(-1, d, d)
    k = len(flat)
    mat = np.zeros((k, d, k, d), dtype=complex)
    mat[np.arange(k), :, np.arange(k), :] = flat
    return mat.reshape(k * d, k * d)


def build_2c_state(psi: PureState, basis: str) -> DensityMatrix:
    """Joint state of message register, carried qubit, and remainder for the
    measure-and-reprepare variant (2c).

    The block-diagonal form of the stack :func:`_blocks_2c`:

        rho = 1/2 sum_{a,m} P( |m>  |(m^a)_basis>  <a_basis|psi> )
    """
    mat = _block_diagonal(_blocks_2c(_leading_qubit_block(psi), basis))
    return DensityMatrix(mat, (2,) + psi.dims, ("M",) + psi.labels)


def build_2d_state(psi: PureState, op_order: str = "xz") -> DensityMatrix:
    """Joint state for the no-measurement variant (2d).

    The block-diagonal form of the stack :func:`_blocks_2d`:

        rho = 1/4 sum_{m1,m2} P(|m1 m2>) (x) U |psi><psi| U+
    """
    mat = _block_diagonal(_blocks_2d(_leading_qubit_block(psi), op_order))
    return DensityMatrix(mat, (2, 2) + psi.dims, ("M1", "M2") + psi.labels)


def verify_2c_2d(psi: PureState) -> tuple[float, float]:
    """Frobenius distances certifying that the 2d marginals match 2c.

    delta_z compares the M2-traced 2d state against the 2c state built in
    basis z (message register M1 standing in for M); delta_x does the same
    with M1 traced and basis x.  Both should vanish for every input state,
    independent of any preparation basis.  This is
    :func:`verify_2c_2d_stack` on the stack of one state.
    """
    delta_z, delta_x, _ = verify_2c_2d_stack(_leading_qubit_block(psi)[None])
    return float(delta_z[0]), float(delta_x[0])


def random_pure_state(dims, labels, rng: np.random.Generator) -> PureState:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    d = math.prod(dims)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    return PureState(amps, tuple(dims), tuple(labels))


# ---------------------------------------------------------------- security

@dataclass(frozen=True)
class ClassicalJoint:
    """Joint distribution p(k, e) over key values and adversary outcomes."""

    probs: np.ndarray  # shape (|K|, |E|)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if not np.isfinite(p).all():
            raise ValueError("non-finite probability")
        if p.min() < -1e-15:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")


def classical_epsilon(joint: ClassicalJoint) -> float:
    """Half the L1 distance between p(k, e) and uniform-key times p(e)."""
    p = joint.probs
    ideal = p.sum(axis=0, keepdims=True) / p.shape[0]
    return 0.5 * float(np.abs(p - ideal).sum())


def delayed_pa_epsilons(matrix: BinaryMatrix, table, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a classical adversary model.

    ``table[a][e]`` is the probability of view e given raw key a; ``prior``
    is the distribution of a (uniform by default).  eps_key scores the hashed
    key f(a) against view e; eps_msg scores a uniform short message m'
    against the enlarged view (e, a XOR m) with m uniform over the preimage
    of m'.  Both are scored by the package's ``_bank_epsilons`` on a
    one-matrix stack, so this is not an independent oracle:
    ``tests/test_security.py::ref_bank_epsilons`` (the scatter oracle) is.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError("joint table must be 2-D")
    rows = np.array([matrix.row_words], dtype=np.int64).reshape(1, matrix.rows)
    eps_key, eps_msg = _bank_epsilons(rows, matrix.cols, table, table.shape[1:], prior)
    return float(eps_key[0, 0]), float(eps_msg[0, 0])


def enumerate_pa_matrices(n: int, n_pa: int) -> Iterator[BinaryMatrix]:
    """All n_pa x n matrices with linearly independent rows, in row order.

    The sweep runs one representative per row space instead
    (:func:`enumerate_row_spaces`); this ordered enumeration is the oracle
    the tests hold that reduction to.
    """
    def extend(rows: tuple[int, ...], span: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if len(rows) == n_pa:
            yield rows
            return
        for cand in range(1, 1 << n):
            if cand in span:
                continue
            yield from extend(rows + (cand,), span | frozenset(s ^ cand for s in span))

    for rows in extend((), frozenset({0})):
        yield BinaryMatrix(n_pa, n, rows)


def ref_enumerate_row_spaces(n: int, n_pa: int) -> Iterator[tuple[int, ...]]:
    """The row words of one reduced row-echelon basis per subspace, one
    tuple at a time, in the order ``security.enumerate_row_spaces`` keeps.

    Pivot columns in lexicographic order, and for each choice of pivots the
    free bits counted up from zero; bit j of the free bits sets the j-th
    (row, column) pair of the non-pivot columns above each row's pivot.
    """
    for pivots in itertools.combinations(range(n), n_pa):
        free = [(r, 1 << c) for r, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for bits in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for j, (r, col) in enumerate(free):
                if bits >> j & 1:
                    rows[r] |= col
            yield tuple(rows)
