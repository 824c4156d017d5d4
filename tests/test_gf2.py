import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats

import delayedpa.gf2
import delayedpa.suites
from delayedpa.gf2 import (
    BinaryMatrix,
    BitVector,
    RowReduction,
    _parity,
    matvec,
    modified_toeplitz_hash,
    preimage_sampler,
    row_reduce,
    sample_preimage,
    sample_toeplitz_preimage,
    toeplitz_from_seed,
    toeplitz_rows_independent,
)
from delayedpa.suites import _FULL_RANK_ATTEMPTS, _full_rank_matrix


# ---------------------------------------------------------------- oracles

def ref_matvec(rows, vec):
    """Naive per-bit XOR/AND reference for A @ v."""
    out = []
    for row in rows:
        acc = 0
        for aij, vj in zip(row, vec):
            acc ^= aij & vj
        out.append(acc)
    return out


def to_lists(a):
    """The matrix as a list of rows of 0/1 entries."""
    return [[a.entry(i, j) for j in range(a.cols)] for i in range(a.rows)]


def ref_matmul(a, b):
    """Naive per-entry XOR/AND reference for A @ B."""
    cols = list(zip(*to_lists(b)))
    return BinaryMatrix.from_rows([ref_matvec(cols, row) for row in to_lists(a)])


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


def ref_from_bits(bits):
    """Naive per-bit LSB-first packing: element i becomes bit i."""
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return value


def ref_to01(v):
    return "".join(str((v.bits >> i) & 1) for i in range(v.length))


def ref_from_hex(digits):
    value = 0
    for j, ch in enumerate(digits):
        value |= int(ch, 16) << (4 * j)
    return value


def ref_to_hex(v):
    return "".join(f"{(v.bits >> (4 * j)) & 0xF:x}" for j in range((v.length + 3) // 4))


def enumerate_vectors(n):
    for value in range(1 << n):
        yield BitVector(n, value)


def ref_kernel(a):
    return {v.bits for v in enumerate_vectors(a.cols) if matvec(a, v).bits == 0}


def ref_preimage(a, y):
    return {v.bits for v in enumerate_vectors(a.cols) if matvec(a, v) == y}


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


def ref_sample_preimage(a: BinaryMatrix, y: BitVector, rng) -> BitVector:
    """One uniform draw from {x : Ax = y}, by a fresh :func:`ref_preimage_sampler`."""
    return ref_preimage_sampler(a, y)(rng)


class FixedBits:
    """rng stub handing out a prescribed free-bit pattern."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        return self.value & ((1 << k) - 1)


def random_matrix_and_vectors(rng, max_rows=8, max_cols=12):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(rows, max_cols)
    return BinaryMatrix.random(rows, cols, rng)


# ---------------------------------------------------------------- BitVector

def test_bitvector_from01_roundtrip():
    v = BitVector.from01("10110")
    assert len(v) == 5
    assert [v[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert v.to01() == "10110"


def test_bitvector_rejects_padding_bits():
    with pytest.raises(ValueError):
        BitVector(3, 0b1000)


def test_xor_is_elementwise_addition():
    u = BitVector.from01("1010")
    v = BitVector.from01("0110")
    w = u ^ v
    assert w.to01() == "1100"
    for i in range(4):
        assert w[i] == u[i] ^ v[i]


def test_xor_length_mismatch():
    with pytest.raises(ValueError):
        BitVector.from01("10") ^ BitVector.from01("100")


def test_hex_format_lsb_first_nibbles():
    # bits 0..4 = 1,0,1,0,1 -> nibble0 = 1+4 = 5, nibble1 = 1
    v = BitVector.from01("10101")
    assert v.to_hex() == "51"
    assert BitVector.from_hex(5, "51") == v


@given(st.integers(min_value=0, max_value=200), st.randoms(use_true_random=False))
def test_hex_roundtrip_property(n, rng):
    v = BitVector.random(n, rng)
    assert BitVector.from_hex(n, v.to_hex()) == v


# text is parsed reversed, so "1+" and "1b0" would reach int() as "+1" and "0b1"
@pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "+1", "1+", "0b1", "1b0", "-0", "0-"])
def test_from01_rejects_int_literal_syntax(text):
    with pytest.raises(ValueError, match="invalid bit character"):
        BitVector.from01(text)


@pytest.mark.parametrize(
    "digits", ["1_2", " 12", "12 ", "+12", "21+", "-12", "21-", "0x1", "1x0"]
)
def test_from_hex_rejects_int_literal_syntax(digits):
    with pytest.raises(ValueError, match="invalid hex digit"):
        BitVector.from_hex(12, digits)


@given(st.lists(st.integers(0, 1), max_size=300))
@example([])
@example([1, 0, 1, 0, 1, 1, 1, 1])  # hex "5f": upper case must parse too
def test_conversions_match_per_bit_references(bits):
    n = len(bits)
    v = BitVector.from_bits(bits)
    assert v == BitVector(n, ref_from_bits(bits))
    text = v.to01()
    assert text == ref_to01(v) == "".join(map(str, bits))
    assert BitVector.from01(text) == v
    digits = v.to_hex()
    assert digits == ref_to_hex(v)
    assert BitVector.from_hex(n, digits) == BitVector(n, ref_from_hex(digits))
    assert BitVector.from_hex(n, digits.upper()) == v


def test_cut_and_bytes():
    v = BitVector.from01("10110011")
    assert v.cut(2, 6).to01() == "1100"
    assert v.to_bytes() == bytes([0b11001101])


# ---------------------------------------------------------------- matvec

def test_matvec_identity():
    v = BitVector.from01("101")
    assert matvec(BinaryMatrix.identity(3), v) == v


def test_matvec_reference_example():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    v = BitVector.from01("110")
    expect = ref_matvec(to_lists(a), [v[i] for i in range(3)])
    assert expect == [1, 1]
    assert matvec(a, v).to01() == "11"


def test_matvec_zero_vector():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert matvec(a, BitVector.zeros(3)).to01() == "00"


def test_matvec_dimension_mismatch():
    a = BinaryMatrix.from_rows([[1, 0, 1]])
    with pytest.raises(ValueError):
        matvec(a, BitVector.from01("10"))


@given(st.randoms(use_true_random=False))
def test_matvec_matches_reference(rng):
    a = random_matrix_and_vectors(rng)
    v = BitVector.random(a.cols, rng)
    expect = ref_matvec(to_lists(a), [v[i] for i in range(a.cols)])
    assert [matvec(a, v)[i] for i in range(a.rows)] == expect


@given(st.randoms(use_true_random=False))
def test_additivity(rng):
    a = random_matrix_and_vectors(rng)
    u = BitVector.random(a.cols, rng)
    v = BitVector.random(a.cols, rng)
    assert matvec(a, u ^ v) == matvec(a, u) ^ matvec(a, v)


# ---------------------------------------------------------------- Toeplitz

def test_toeplitz_indexing_convention():
    seed = BitVector.from01("1011")
    a = toeplitz_from_seed(seed, n_pa=2, n=3)
    assert to_lists(a) == [[1, 0, 1], [1, 1, 0]]


def test_toeplitz_zero_seed():
    a = toeplitz_from_seed(BitVector.zeros(6), n_pa=3, n=4)
    assert to_lists(a) == [[0] * 4] * 3


def test_toeplitz_all_ones():
    a = toeplitz_from_seed(BitVector.from01("111"), n_pa=2, n=2)
    assert to_lists(a) == [[1, 1], [1, 1]]


def test_toeplitz_wrong_seed_length():
    with pytest.raises(ValueError):
        toeplitz_from_seed(BitVector.zeros(5), n_pa=2, n=3)
    with pytest.raises(ValueError):
        toeplitz_rows_independent(BitVector.zeros(5), n_pa=2, n=3)


@given(st.integers(1, 6), st.integers(1, 8), st.randoms(use_true_random=False))
def test_toeplitz_constant_diagonals(n_pa, n, rng):
    seed = BitVector.random(n + n_pa - 1, rng)
    a = toeplitz_from_seed(seed, n_pa, n)
    for i in range(n_pa):
        for j in range(n):
            assert a.entry(i, j) == seed[i - j + n - 1]
            if i + 1 < n_pa and j + 1 < n:
                assert a.entry(i, j) == a.entry(i + 1, j + 1)


@given(st.integers(1, 100), st.integers(1, 100), st.randoms(use_true_random=False))
@example(100, 100, random.Random(0))
@settings(max_examples=25)
def test_toeplitz_entries_across_digit_boundaries(n_pa, n, rng):
    # rows of up to 100 bits span several 30-bit digits of the packed ints
    seed = BitVector.random(n + n_pa - 1, rng)
    a = toeplitz_from_seed(seed, n_pa, n)
    assert all(
        a.entry(i, j) == seed[i - j + n - 1] for i in range(n_pa) for j in range(n)
    )


def _rows_independent(seed, n_pa, n):
    return row_reduce(toeplitz_from_seed(seed, n_pa, n)).rank == n_pa


def test_toeplitz_rows_independent_matches_row_reduce_exhaustively():
    # n_pa = n + 1 has more rows than columns, so its rows never are
    for n in range(1, 7):
        for n_pa in range(1, n + 2):
            length = n + n_pa - 1
            for bits in range(1 << length):
                seed = BitVector(length, bits)
                assert toeplitz_rows_independent(seed, n_pa, n) == _rows_independent(
                    seed, n_pa, n
                ), (seed.to01(), n_pa, n)
    # the rows 101 and 110 of test_toeplitz_indexing_convention
    assert toeplitz_rows_independent(BitVector.from01("1011"), 2, 3)


@pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
def test_toeplitz_rows_independent_matches_row_reduce_on_random_shapes(density):
    rng = random.Random(f"toeplitz rank {density}")
    for _ in range(150):
        n = rng.randint(2, 64)
        n_pa = rng.randint(1, n - 1)
        seed = BitVector.from_bits(int(rng.random() < density) for _ in range(n + n_pa - 1))
        assert toeplitz_rows_independent(seed, n_pa, n) == _rows_independent(seed, n_pa, n), (
            seed.to01(), n_pa, n
        )


@pytest.mark.parametrize(
    "pattern, independent",
    [("0", False), ("1", False), ("1101001", False), ("0" * 63 + "1" + "0" * 39, True)],
    ids=["zero", "ones", "period-7", "identity"],
)
def test_toeplitz_rows_independent_on_structured_seeds(pattern, independent):
    # a periodic seed gives rank at most its period; a single 1 at bit
    # n - 1 gives [I | 0]
    n, n_pa = 64, 40
    seed = BitVector.from01((pattern * (n + n_pa))[: n + n_pa - 1])
    assert toeplitz_rows_independent(seed, n_pa, n) is independent
    assert _rows_independent(seed, n_pa, n) is independent


def _dense_hash(seed, n_pa, x):
    """The dense oracle [I | toeplitz_from_seed(seed, n_pa, w)] applied to x."""
    w = x.length - n_pa
    low = x.cut(0, n_pa)
    if w == 0:  # T has no columns
        return low
    return low ^ matvec(toeplitz_from_seed(seed, n_pa, w), x.cut(n_pa, x.length))


def _hash_one(seed, n_pa, x):
    return modified_toeplitz_hash(seed, n_pa, [x])[0]


@given(
    st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.randoms(use_true_random=False),
)
@example((1, 1), random.Random(0))
@example((200, 200), random.Random(0))
@example((5, 4), random.Random(0))
@example((9, 8), random.Random(0))
@example((17, 1), random.Random(0))
@settings(max_examples=60)
def test_toeplitz_hash_matches_dense(shape, rng):
    # n_pa == n is the identity of noiseless protocol runs; a seed whose
    # length is a power of two (5 - 1, 9 - 1, 17 - 1) wraps the most entries
    # of the circular convolution
    n, n_pa = shape
    seed = BitVector.random(n - 1, rng)
    x = BitVector.random(n, rng)
    assert _hash_one(seed, n_pa, x) == _dense_hash(seed, n_pa, x)


def test_toeplitz_hash_matches_dense_at_protocol_size():
    n, n_pa = 30_000, 21_000
    rng = random.Random(5)
    seed = BitVector.random(n - 1, rng)
    keys = [BitVector.random(n, rng) for _ in range(3)]
    assert modified_toeplitz_hash(seed, n_pa, keys) == [_dense_hash(seed, n_pa, x) for x in keys]
    # all ones: the largest convolution entries, so the largest rounding error
    ones_seed = BitVector(n - 1, (1 << (n - 1)) - 1)
    ones = BitVector(n, (1 << n) - 1)
    assert modified_toeplitz_hash(ones_seed, n_pa, [ones, ones]) == [_dense_hash(ones_seed, n_pa, ones)] * 2


@pytest.mark.parametrize(
    "seed_len, n_pa, n", [(5, 2, 3), (3, 2, 3), (2, 0, 3), (0, 1, 0)]
)
def test_toeplitz_hash_rejects_bad_shapes(seed_len, n_pa, n):
    with pytest.raises(ValueError):
        modified_toeplitz_hash(BitVector.zeros(seed_len), n_pa, [BitVector.zeros(n)])


def test_toeplitz_hash_guard_rejects_inexact_convolution(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.4)
    rng = random.Random(6)
    with pytest.raises(ArithmeticError):
        _hash_one(BitVector.random(99, rng), 50, BitVector.random(100, rng))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_toeplitz_hash_guard_rejects_nonfinite_convolution(monkeypatch, bad):
    # NaN compares false both ways, so a guard written as err >= 0.25 lets it through
    irfft = np.fft.irfft

    def poisoned(*args, **kw):
        conv = irfft(*args, **kw)
        conv[conv.size // 2] = bad
        return conv

    monkeypatch.setattr(np.fft, "irfft", poisoned)
    rng = random.Random(6)
    with pytest.raises(ArithmeticError):
        _hash_one(BitVector.random(99, rng), 50, BitVector.random(100, rng))


def test_toeplitz_hasher_reuses_one_seed(monkeypatch):
    rng = random.Random(8)
    n, n_pa = 300, 200
    seed = BitVector.random(n - 1, rng)
    keys = [BitVector.random(n, rng) for _ in range(5)]
    singles = [_hash_one(seed, n_pa, x) for x in keys]
    assert singles == [_dense_hash(seed, n_pa, x) for x in keys]
    # one seed transform and one per pair of keys, the odd key out alone
    rfft, sizes = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda a, size: sizes.append(size) or rfft(a, size))
    assert modified_toeplitz_hash(seed, n_pa, keys) == singles
    assert sizes == [512] * 4  # the power of two >= n - 1
    assert modified_toeplitz_hash(seed, n_pa, []) == []
    with pytest.raises(ValueError):
        modified_toeplitz_hash(seed, n_pa, [keys[0], BitVector.zeros(n + 1)])


@pytest.mark.parametrize("n", [40, 41])
def test_modified_toeplitz_hash_edges_match_dense(n):
    # n_pa = 1, n - 1 and n, each at an odd and an even w = n - n_pa
    rng = random.Random(n)
    seed = BitVector.random(n - 1, rng)
    keys = [BitVector.random(n, rng) for _ in range(3)]
    for n_pa in (1, 2, n - 2, n - 1, n):
        assert modified_toeplitz_hash(seed, n_pa, keys) == [_dense_hash(seed, n_pa, x) for x in keys]


def test_modified_toeplitz_hash_single_transform_path(monkeypatch):
    rng = random.Random(12)
    n, n_pa = 1000, 613
    seed = BitVector.random(n - 1, rng)
    keys = [BitVector.random(n, rng) for _ in range(4)]
    paired = modified_toeplitz_hash(seed, n_pa, keys)
    monkeypatch.setattr(delayedpa.gf2, "_PAIR_MAX_BITS", 0)
    assert modified_toeplitz_hash(seed, n_pa, keys) == paired
    assert paired == [_dense_hash(seed, n_pa, x) for x in keys]


def test_modified_toeplitz_hash_all_ones_closed_form_at_1e6():
    # T of all ones adds w ones to each bit, so every output bit is
    # 1 XOR (w mod 2); all ones are the largest entries a pair packs
    n = 10**6
    ones_seed = BitVector(n - 1, (1 << (n - 1)) - 1)
    ones = BitVector(n, (1 << n) - 1)
    for n_pa in (860_000, 860_001):
        w = n - n_pa
        assert 2 * w.bit_length() <= delayedpa.gf2._PAIR_MAX_BITS  # the pair path
        expect = BitVector(n_pa, 0 if w % 2 else (1 << n_pa) - 1)
        assert modified_toeplitz_hash(ones_seed, n_pa, [ones, ones]) == [expect, expect]


# ---------------------------------------------------------- toeplitz preimage

def ref_clmul(a, b, n):
    """Carry-less product, one shifted XOR per set bit of b."""
    out = 0
    for j in range(n):
        if (b >> j) & 1:
            out ^= a << j
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 1000])
def test_clmul_matches_bitwise_oracle(n):
    # all ones gives the largest convolution entries, n at the middle
    rng = random.Random(n)
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(3)] + [((1 << n) - 1,) * 2]
    for a, b in pairs:
        assert delayedpa.gf2._clmul(a, b, n) == ref_clmul(a, b, n)


def test_toeplitz_preimage_exhaustive_up_to_n5():
    # every seed, every n_pa <= n, every y and every drawn value g: a full
    # rank seed maps g to a preimage of y, one g per preimage; a dependent
    # seed raises whatever y is
    for n in range(1, 6):
        for n_pa in range(1, n + 1):
            length, w = n + n_pa - 1, n - n_pa
            for bits in range(1 << length):
                seed = BitVector(length, bits)
                a = toeplitz_from_seed(seed, n_pa, n)
                if not toeplitz_rows_independent(seed, n_pa, n):
                    with pytest.raises(ValueError, match="rows not independent"):
                        sample_toeplitz_preimage(seed, n_pa, n, BitVector.zeros(n_pa), FixedBits(0))
                    continue
                for y in enumerate_vectors(n_pa):
                    xs = {sample_toeplitz_preimage(seed, n_pa, n, y, FixedBits(g)) for g in range(1 << w)}
                    assert len(xs) == 1 << w, (seed.to01(), n_pa, n, y)
                    assert all(matvec(a, x) == y for x in xs), (seed.to01(), n_pa, n, y)


def test_toeplitz_preimage_completion_nonsingular_up_to_n8(monkeypatch):
    # the draw raises unless the completed n x n matrix is nonsingular; the
    # products go through the bit-by-bit oracle, so that the completion and
    # the Bezoutian are checked apart from the FFT product
    monkeypatch.setattr(delayedpa.gf2, "_clmul", ref_clmul)
    rng = random.Random("completion")
    full_rank = 0
    for n in range(2, 9):
        for n_pa in range(1, n):
            length = n + n_pa - 1
            for bits in range(1 << length):
                seed = BitVector(length, bits)
                if not toeplitz_rows_independent(seed, n_pa, n):
                    continue
                full_rank += 1
                y = BitVector.random(n_pa, rng)
                x = sample_toeplitz_preimage(seed, n_pa, n, y, rng)
                assert matvec(toeplitz_from_seed(seed, n_pa, n), x) == y, (seed.to01(), n_pa, n)
    assert full_rank == 35_901


@pytest.mark.parametrize("density", [0.05, 0.5, 0.95])
def test_toeplitz_preimage_matches_dense_on_random_shapes(density):
    rng = random.Random(f"toeplitz preimage {density}")
    for _ in range(60):
        n = rng.randint(2, 200)
        n_pa = rng.randint(1, n - 1)
        seed = BitVector.from_bits(int(rng.random() < density) for _ in range(n + n_pa - 1))
        y = BitVector.random(n_pa, rng)
        if not toeplitz_rows_independent(seed, n_pa, n):
            with pytest.raises(ValueError, match="rows not independent"):
                sample_toeplitz_preimage(seed, n_pa, n, y, rng)
            continue
        x = sample_toeplitz_preimage(seed, n_pa, n, y, rng)
        assert matvec(toeplitz_from_seed(seed, n_pa, n), x) == y, (seed.to01(), n_pa, n)


STRUCTURED_SEEDS = {
    # a single 1 at bit n_pa - 1 gives [0 | I]: the leading n_pa x n_pa block is zero
    "zero-leading-block": (
        lambda n: n * 7 // 10, lambda n, n_pa: BitVector(n + n_pa - 1, 1 << (n_pa - 1))
    ),
    # 0101...: two independent rows, no more
    "period-2": (lambda n: 2, lambda n, n_pa: BitVector.from01(("01" * n)[: n + n_pa - 1])),
    # one row whose only 1 is its last bit: linear complexity n before any
    # completion, so no length change is forced
    "top-bit": (lambda n: 1, lambda n, n_pa: BitVector(n + n_pa - 1, 1 << (n + n_pa - 2))),
}


@pytest.mark.parametrize("n", [64, 257, 1024, 4096])
@pytest.mark.parametrize("case", STRUCTURED_SEEDS)
def test_toeplitz_preimage_structured_seeds_match_dense(case, n):
    shape, make = STRUCTURED_SEEDS[case]
    n_pa = shape(n)
    seed = make(n, n_pa)
    a = toeplitz_from_seed(seed, n_pa, n)
    assert row_reduce(a).rank == n_pa
    rng = random.Random(n)
    for _ in range(3):
        y = BitVector.random(n_pa, rng)
        assert matvec(a, sample_toeplitz_preimage(seed, n_pa, n, y, rng)) == y
    # the same patterns at a wider n_pa have dependent rows
    if case != "zero-leading-block":
        wide = n * 7 // 10
        with pytest.raises(ValueError, match="rows not independent"):
            sample_toeplitz_preimage(make(n, wide), wide, n, BitVector.zeros(wide), rng)


class RecordingRandom(random.Random):
    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("n, n_pa", [(12, 4), (300, 210), (2048, 1433)])
def test_toeplitz_preimage_takes_one_draw_as_the_dense_path(n, n_pa):
    rng = random.Random(n)
    a, seed = _full_rank_toeplitz(rng, n_pa, n)
    y = BitVector.random(n_pa, rng)
    ours, dense = RecordingRandom(n), RecordingRandom(n)
    ours.calls, dense.calls = [], []
    x = sample_toeplitz_preimage(seed, n_pa, n, y, ours)
    assert matvec(a, x) == y
    assert matvec(a, sample_preimage(a, y, dense)) == y
    assert ours.calls == dense.calls == [n - n_pa]
    assert ours.getstate() == dense.getstate()


def test_toeplitz_preimage_square_takes_no_draw():
    seed = BitVector.from01("0001000")  # the 4 x 4 identity
    y = BitVector.from01("1011")
    assert sample_toeplitz_preimage(seed, 4, 4, y, None) == y


@pytest.mark.parametrize("bad", [0.4, np.nan, np.inf])
def test_toeplitz_preimage_products_pass_the_hash_guard(monkeypatch, bad):
    irfft = np.fft.irfft

    def poisoned(*args, **kw):
        conv = irfft(*args, **kw)
        if bad == 0.4:
            return conv + bad
        conv[conv.size // 2] = bad
        return conv

    rng = random.Random(7)
    _, seed = _full_rank_toeplitz(rng, 70, 100)
    y = BitVector.random(70, rng)
    monkeypatch.setattr(np.fft, "irfft", poisoned)
    with pytest.raises(ArithmeticError):
        sample_toeplitz_preimage(seed, 70, 100, y, rng)


def test_toeplitz_preimage_rejects_bad_shapes():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sample_toeplitz_preimage(BitVector.zeros(10), 3, 8, BitVector.zeros(4), rng)
    # more rows than columns are never independent, though the seed 11 has
    # linear complexity 1 = n
    with pytest.raises(ValueError, match="rows not independent"):
        sample_toeplitz_preimage(BitVector.from01("11"), 2, 1, BitVector.zeros(2), rng)
    with pytest.raises(ValueError, match="seed length"):
        sample_toeplitz_preimage(BitVector.zeros(9), 3, 8, BitVector.zeros(3), rng)


# ---------------------------------------------------------------- reduction

def test_row_reduce_already_echelon():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    red = row_reduce(a)
    assert red.upper == a
    assert ref_row_reduce_with_ops(a)[1] == BinaryMatrix.identity(2)
    assert red.pivot_cols == (0, 1)
    assert red.free_cols == (2,)


def test_row_reduce_records_swap():
    a = BinaryMatrix.from_rows([[0, 1], [1, 0]])
    red = row_reduce(a)
    assert red.upper == BinaryMatrix.identity(2)
    row_ops = ref_row_reduce_with_ops(a)[1]
    assert row_ops == BinaryMatrix.from_rows([[0, 1], [1, 0]])
    assert ref_matmul(row_ops, a) == red.upper


def test_row_reduce_rank_deficient():
    a = BinaryMatrix.from_rows([[1, 1], [1, 1]])
    red = row_reduce(a)
    assert red.rank == 1
    assert red.free_cols == (1,)
    assert red.upper.row_words[1] == 0
    assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == red.upper


@given(st.randoms(use_true_random=False))
def test_row_ops_times_original_is_upper(rng):
    rows = rng.randint(1, 10)
    cols = rng.randint(1, 14)
    a = BinaryMatrix.random(rows, cols, rng)
    red = row_reduce(a)
    assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == red.upper
    # echelon shape: pivots strictly increase and are the leading entries
    prev = -1
    for r, pc in enumerate(red.pivot_cols):
        assert pc > prev
        prev = pc
        assert red.upper.entry(r, pc) == 1
        for j in range(pc):
            assert red.upper.entry(r, j) == 0


def test_row_ops_product_large_random():
    rng = random.Random(7)
    for _ in range(10):
        a = BinaryMatrix.random(64, 128, rng)
        assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == row_reduce(a).upper


def test_row_ops_invertible():
    rng = random.Random(11)
    for _ in range(20):
        a = BinaryMatrix.random(rng.randint(1, 8), rng.randint(1, 8), rng)
        assert row_reduce(ref_row_reduce_with_ops(a)[1]).rank == a.rows


MATRIX_KINDS = ["dense", "zero", "sparse", "rank-1", "low-rank", "duplicates", "gaps"]


def _matrix(kind, rows, cols, rng):
    """A rows x cols matrix of one structure: dense, empty, rank-deficient or gapped."""
    def draw():
        return rng.getrandbits(cols)

    if kind == "dense":
        words = [draw() for _ in range(rows)]
    elif kind == "zero":
        words = [0] * rows
    elif kind == "sparse":  # each entry is 1 with probability 1/16
        words = [draw() & draw() & draw() & draw() for _ in range(rows)]
    elif kind == "rank-1":  # one row or zero: after the first pivot every column is free
        base = draw()
        words = [base * rng.getrandbits(1) for _ in range(rows)]
    elif kind == "low-rank":  # XORs of three rows: rank <= 3, many zero rows
        base = [draw() for _ in range(3)]
        words = [base[0] * rng.getrandbits(1) ^ base[1] * rng.getrandbits(1)
                 ^ base[2] * rng.getrandbits(1) for _ in range(rows)]
    elif kind == "duplicates":
        base = [draw() for _ in range(max(1, rows // 3))]
        words = [rng.choice(base) for _ in range(rows)]
    elif kind == "gaps":  # no row has a 1 in the middle half of the columns
        gap = ((1 << (cols // 2)) - 1) << (cols // 4)
        words = [draw() & ~gap for _ in range(rows)]
    else:
        raise ValueError(kind)
    return BinaryMatrix(rows, cols, tuple(words))


# empty, one-row and one-column edges; narrow matrices of up to 4100 rows,
# where nearly every row is cleared to zero; and widths 31 .. 33 and
# 63 .. 65, on either side of 32- and 64-bit word edges, for a matrix and
# for the [A | y] one column wider that a preimage sampler reduces
RR_SHAPES = [
    (0, 0), (0, 9), (4, 0), (1, 1), (1, 9), (1, 70),
    (5, 7), (5, 8), (5, 9), (8, 8), (12, 5), (30, 12),
    (40, 63), (40, 64), (40, 65), (70, 65), (20, 200),
    (300, 7), (300, 8), (300, 9), (2100, 8), (2100, 9), (2100, 10),
    (4100, 9), (4100, 10), (4100, 11),
    (31, 32), (31, 33), (32, 32), (33, 32),
    (63, 64), (64, 64), (63, 65), (65, 64),
    (257, 17), (260, 26), (300, 35), (270, 44), (280, 53), (290, 62), (300, 71),
]


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize("shape", RR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_row_reduce_matches_gauss_jordan(kind, shape):
    rng = random.Random(f"{kind}:{shape}")
    a = _matrix(kind, *shape, rng)
    assert row_reduce(a) == ref_row_reduce(a)


@given(
    st.sampled_from(MATRIX_KINDS),
    st.integers(0, 24),
    st.integers(0, 40),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300)
def test_row_reduce_matches_gauss_jordan_random(kind, rows, cols, rng):
    a = _matrix(kind, rows, cols, rng)
    assert row_reduce(a) == ref_row_reduce(a)


def _span(words):
    """Every XOR of a subset of ``words``."""
    span = {0}
    for w in words:
        if w not in span:
            span |= {s ^ w for s in span}
    return span


def check_reduction_by_span(a, red):
    """``red`` is the reduced echelon form of ``a``, judged by the enumerated row span.

    Independent of any elimination: the span is built by brute force, and
    the reduced row-echelon form of a row space is unique.
    """
    span = _span(a.row_words)
    assert len(span) == 1 << red.rank
    words = red.upper.row_words
    assert _span(words) == span
    assert list(red.pivot_cols) == sorted(set(red.pivot_cols))  # strictly increasing
    for r, pc in enumerate(red.pivot_cols):
        # a unit column, whose 1 leads its row
        assert [w >> pc & 1 for w in words] == [int(j == r) for j in range(a.rows)]
        assert words[r] & ((1 << pc) - 1) == 0
    assert all(words[: red.rank]) and not any(words[red.rank :])
    assert red.free_cols == tuple(c for c in range(a.cols) if c not in red.pivot_cols)


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize(
    "shape", [s for s in RR_SHAPES if s[1] <= 10], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_row_reduce_is_the_echelon_form_of_the_row_span(kind, shape):
    rng = random.Random(f"span:{kind}:{shape}")
    a = _matrix(kind, *shape, rng)
    check_reduction_by_span(a, row_reduce(a))


@given(
    st.sampled_from(MATRIX_KINDS),
    st.integers(0, 24),
    st.integers(0, 10),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300)
def test_row_reduce_is_the_echelon_form_of_the_row_span_random(kind, rows, cols, rng):
    a = _matrix(kind, rows, cols, rng)
    check_reduction_by_span(a, row_reduce(a))


def test_row_reduce_matches_gauss_jordan_on_toeplitz():
    n, n_pa = 1024, 716
    rng = random.Random(1024)
    seed = BitVector.random(n + n_pa - 1, rng)
    a = toeplitz_from_seed(seed, n_pa, n)
    red = row_reduce(a)
    assert red == ref_row_reduce(a)
    assert red.rank == n_pa
    assert toeplitz_rows_independent(seed, n_pa, n)


@pytest.mark.parametrize("pattern, max_rank", [("1", 1), ("1101001", 7)], ids=["ones", "period-7"])
def test_row_reduce_matches_gauss_jordan_on_rank_deficient_toeplitz(pattern, max_rank):
    # a periodic seed makes every row a shift of one period, so the session
    # matrix has rank at most the period, and most columns are free
    n, n_pa = 1024, 716
    seed = BitVector.from01((pattern * (n + n_pa))[: n + n_pa - 1])
    a = toeplitz_from_seed(seed, n_pa, n)
    red = row_reduce(a)
    assert red == ref_row_reduce(a)
    assert 1 <= red.rank <= max_rank
    assert not toeplitz_rows_independent(seed, n_pa, n)


@pytest.mark.parametrize("rank", [1, 2, 5])
@pytest.mark.parametrize("shape", [(716, 1024), (300, 70), (40, 300)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_row_reduce_matches_gauss_jordan_on_low_rank(rank, shape):
    # rows are XORs of `rank` random rows, so every column past the last
    # pivot is zero from the next pivot position down and is free
    rows, cols = shape
    rng = random.Random(f"{rank}:{shape}")
    base = [rng.getrandbits(cols) for _ in range(rank)]
    words = []
    for _ in range(rows):
        w = 0
        for b in base:
            w ^= b * rng.getrandbits(1)
        words.append(w)
    a = BinaryMatrix(rows, cols, tuple(words))
    red = row_reduce(a)
    assert red == ref_row_reduce(a)
    assert red.rank <= rank


# ---------------------------------------------------------------- kernel

def test_kernel_single_parity_row():
    a = BinaryMatrix.from_rows([[1, 1]])
    assert ref_kernel(a) == {0b00, 0b11}


def test_kernel_full_rank_square():
    assert ref_kernel(BinaryMatrix.identity(3)) == {0}


def test_kernel_example_2x3():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert ref_kernel(a) == {0, 0b111}


def test_kernel_size_exact_up_to_twelve_cols():
    rng = random.Random(21)
    for cols in range(1, 13):
        rows = rng.randint(1, min(cols, 6))
        a = BinaryMatrix.random(rows, cols, rng)
        red = row_reduce(a)
        assert len(ref_kernel(a)) == 1 << (cols - red.rank)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_kernel_size_matches_enumeration(rng):
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 10)
    a = BinaryMatrix.random(rows, cols, rng)
    red = row_reduce(a)
    assert len(ref_kernel(a)) == 1 << (cols - red.rank)


# ---------------------------------------------------------------- preimage

def test_preimage_example_enumeration():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    y = BitVector.from01("10")
    assert ref_preimage(a, y) == {BitVector.from01("100").bits, BitVector.from01("011").bits}
    rng = random.Random(0)
    seen = {sample_preimage(a, y, rng).bits for _ in range(64)}
    assert seen == ref_preimage(a, y)


def test_preimage_unique_for_identity():
    y = BitVector.from01("01")
    rng = random.Random(1)
    for _ in range(4):
        assert sample_preimage(BinaryMatrix.identity(2), y, rng) == y


def test_preimage_parity_row():
    a = BinaryMatrix.from_rows([[1, 1]])
    y = BitVector(1, 0)
    rng = random.Random(2)
    seen = {sample_preimage(a, y, rng).bits for _ in range(32)}
    assert seen == {0b00, 0b11}


def test_preimage_rank_deficient_rejected():
    a = BinaryMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="rows not independent"):
        sample_preimage(a, BitVector.from01("00"), random.Random(0))


def test_preimage_selector_enumeration_is_bijective():
    # driving the free bits through every value enumerates the preimage once
    a = BinaryMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0]])
    y = BitVector.from01("10")
    outs = {
        sample_preimage(a, y, FixedBits(v)).bits
        for v in range(1 << len(row_reduce(a).free_cols))
    }
    assert outs == ref_preimage(a, y)


@given(st.integers(0, 2**32 - 1))
def test_preimage_always_consistent(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(rows, 12)
    a = _full_rank_matrix(rows, cols, rng)
    y = BitVector.random(rows, rng)
    x = sample_preimage(a, y, rng)
    assert matvec(a, x) == y


def assert_sampler_matches_oracle(a, seed, draws):
    rng = random.Random(seed)
    y = BitVector.random(a.rows, rng)
    draw, ref_draw = preimage_sampler(a, y), ref_preimage_sampler(a, y)
    ours, oracle, one_draw = random.Random(seed), random.Random(seed), random.Random(seed)
    for _ in range(draws):
        x = draw(ours)
        assert x == ref_draw(oracle)
        assert x == sample_preimage(a, y, one_draw)
        assert matvec(a, x) == y
    # the same stream: one getrandbits(n_free) per draw on every side
    assert ours.getstate() == oracle.getstate() == one_draw.getstate()


def _full_rank_toeplitz(rng, n_pa, n):
    """A full-rank Toeplitz matrix and the seed it was built from."""
    for _ in range(_FULL_RANK_ATTEMPTS):
        seed = BitVector.random(n + n_pa - 1, rng)
        a = toeplitz_from_seed(seed, n_pa, n)
        if row_reduce(a).rank == n_pa:
            return a, seed
    raise RuntimeError(f"no full-rank Toeplitz matrix in {_FULL_RANK_ATTEMPTS} draws")


SAMPLER_CASES = {
    "identity": lambda rng: BinaryMatrix.identity(5),  # n_free = 0, no draw
    "1x2": lambda rng: _full_rank_matrix(1, 2, rng),
    "2x4": lambda rng: _full_rank_matrix(2, 4, rng),
    "3x8": lambda rng: _full_rank_matrix(3, 8, rng),
    # pivots at columns 1, 2 and 4: free columns 0, 3, 5 and 6 in three runs
    "zero-leading-column": lambda rng: BinaryMatrix.from_rows(
        [[0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 0, 0, 1], [0, 0, 0, 0, 1, 1, 0]]
    ),
    "32x96": lambda rng: _full_rank_matrix(32, 96, rng),
    "toeplitz-358x512": lambda rng: _full_rank_toeplitz(rng, 358, 512)[0],
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_preimage_sampler_matches_oracle(case):
    rng = random.Random(case)
    a = SAMPLER_CASES[case](rng)
    assert_sampler_matches_oracle(a, rng.getrandbits(32), 20 if a.cols > 100 else 200)


def test_preimage_sampler_zero_leading_column_pivots():
    a = SAMPLER_CASES["zero-leading-column"](None)
    red = row_reduce(a)
    assert red.pivot_cols == (1, 2, 4) and red.free_cols == (0, 3, 5, 6)


@given(st.integers(1, 10), st.integers(0, 14), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_preimage_sampler_matches_oracle_random(rows, extra, seed):
    a = _full_rank_matrix(rows, rows + extra, random.Random(seed))
    assert_sampler_matches_oracle(a, seed, 8)


@pytest.mark.parametrize("a_rows, y", [
    ([[1, 1, 0], [1, 1, 0]], "10"),  # [A | y] has independent rows
    ([[1, 1, 0], [1, 1, 0]], "11"),  # y is in A's image
    ([[1, 0, 1], [0, 0, 0]], "01"),  # a zero row against a set y bit
    ([[0, 0, 0]], "1"),
], ids=["inconsistent", "consistent", "zero-row", "zero-matrix"])
def test_preimage_sampler_rejects_dependent_rows_whatever_y(a_rows, y):
    # [A | y]'s rank is rows when y is outside A's image, so a pivot in y's
    # column must fail the check as a short rank does
    a, y = BinaryMatrix.from_rows(a_rows), BitVector.from01(y)
    with pytest.raises(ValueError, match="rows not independent"):
        preimage_sampler(a, y)
    with pytest.raises(ValueError, match="rows not independent"):
        sample_preimage(a, y, random.Random(0))
    with pytest.raises(ValueError, match="rows not independent"):
        ref_preimage_sampler(a, y)


class OracleSampler:
    """``preimage_sampler``'s interface with every draw made by ``ref_preimage_sampler``."""

    def __init__(self, a, y):
        self.draw = ref_preimage_sampler(a, y)
        self.n_free = a.cols - a.rows

    def __call__(self, rng):
        return self.draw(rng)


@pytest.mark.parametrize("seed", [1002, 104729])
def test_uniformity_suite_unchanged_by_preimage_sampler(monkeypatch, seed):
    ours = delayedpa.suites.suite_preimage_uniformity(seed=seed)
    assert ours[0]["bijective"] is True and ours[1]
    monkeypatch.setattr(delayedpa.suites, "preimage_sampler", OracleSampler)
    assert delayedpa.suites.suite_preimage_uniformity(seed=seed) == ours


class FixedBits:
    """An rng whose ``getrandbits`` returns ``g``, whatever the width asked."""

    def __init__(self, g):
        self.g = g

    def getrandbits(self, k):
        return self.g


class MutantSampler:
    """``preimage_sampler`` with one fault, each of which the exact gate must catch."""

    def __init__(self, a, y, fault):
        self.draw, self.fault = preimage_sampler(a, y), fault
        self.n_free = self.draw.n_free
        # a column of A with a 1 in row 0: flipping its bit moves x off the preimage
        self.off = 1 << (a.row_words[0] & -a.row_words[0]).bit_length() - 1

    def __call__(self, rng):
        if self.fault == "drops-top-bit":  # g and g + 2^(k-1) give one x: not injective
            top = 1 << self.n_free - 1
            return self.draw(FixedBits(rng.getrandbits(self.n_free) & ~top))
        x = self.draw(rng)
        if self.fault == "second-call":  # right images, wrong stream
            rng.getrandbits(1)
            return x
        return BitVector(x.length, x.bits ^ self.off)  # "flipped-bit"


@pytest.mark.parametrize("seed", [1, 5, 104729])
@pytest.mark.parametrize("fault", ["drops-top-bit", "second-call", "flipped-bit"])
def test_uniformity_gate_fails_every_mutant(monkeypatch, fault, seed):
    monkeypatch.setattr(
        delayedpa.suites, "preimage_sampler", lambda a, y: MutantSampler(a, y, fault)
    )
    payload, passed = delayedpa.suites.suite_preimage_uniformity(seed=seed)
    assert payload["bijective"] is False and not passed
    assert math.isfinite(payload["chi2"])
    if fault == "flipped-bit":
        assert payload["samples_outside_preimage"] == payload["draws"]


def test_uniformity_suite_memory_does_not_grow_with_draws():
    # one list holding every draw of 200,000 would take 1.6 MB in pointers
    # alone; the suite counts bounded chunks into a 2**n histogram instead
    tracemalloc.start()
    try:
        payload, passed = delayedpa.suites.suite_preimage_uniformity(draws=200_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["draws"] == 200_000 and payload["samples_outside_preimage"] == 0
    assert peak < 512 * 1024


def test_row_reduce_of_a_session_matrix_stays_within_memory_bound():
    # a 1433 x 2048 Toeplitz matrix, an n = 2048 session's shape: the work
    # list holds one 2048-bit int per row, about 400 KiB, and each XOR
    # frees the int it replaces, so the reduction stays near one copy of
    # the rows.  Tracing every int allocation makes this test slow.
    n, n_pa = 2048, 1433
    a = toeplitz_from_seed(BitVector.random(n + n_pa - 1, random.Random(2048)), n_pa, n)
    tracemalloc.start()
    try:
        red = row_reduce(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red.rank == n_pa
    assert peak <= 1280 << 10


def test_preimage_uniformity_chi_square():
    rng = random.Random(1234)
    a = _full_rank_matrix(3, 8, rng)
    y = BitVector.random(3, rng)
    expected = sorted(ref_preimage(a, y))
    assert len(expected) == 1 << 5
    draw = preimage_sampler(a, y)
    counts = dict.fromkeys(expected, 0)
    for _ in range(32000):
        counts[draw(rng).bits] += 1
    result = stats.chisquare([counts[k] for k in expected])
    assert result.pvalue >= 0.001


@pytest.mark.parametrize("e", range(1, 12))
def test_chi2_sf_matches_scipy_and_mpmath(e):
    # every k the uniformity suite can reach, 2^(n - n_pa) - 1 at n <= 12
    k = (1 << e) - 1
    spread = math.sqrt(2 * k)
    xs = [0.0, 1e-300, 1e-9, k / 2, k - spread, float(k), k + spread, k + 8 * spread,
          float(stats.chi2.isf(1e-200, k)), float(stats.chi2.isf(1e-295, k)), 4 * k + 600.0]
    assert delayedpa.suites._chi2_sf(-1.0, k) == 1.0
    for x in (x for x in xs if x >= 0):
        got = delayedpa.suites._chi2_sf(x, k)
        with mp.workdps(30):
            exact = float(mp.gammainc(mpf(k) / 2, mpf(x) / 2, mp.inf, regularized=True))
        oracle = float(stats.chi2.sf(x, k))
        if exact >= 1e-300:
            assert abs(got - exact) <= 1e-10 * exact, (k, x)
            assert abs(got - oracle) <= 1e-10 * exact, (k, x)
        else:
            assert got <= 1e-300 and oracle <= 1e-300, (k, x)


@pytest.mark.parametrize("seed", [1, 5, 1002, 104729])
def test_uniformity_suite_statistic_matches_scipy(seed):
    payload, passed = delayedpa.suites.suite_preimage_uniformity(seed=seed)
    # the suite's stream, replayed with one real draw per sample
    rng = random.Random(seed)
    a = _full_rank_matrix(payload["n_pa"], payload["n"], rng)
    y = BitVector.random(a.rows, rng)
    draw = preimage_sampler(a, y)
    hist = np.bincount([draw(rng).bits for _ in range(payload["draws"])], minlength=1 << a.cols)
    counts = hist[sorted(ref_preimage(a, y))]
    assert len(counts) == payload["cells"] and counts.sum() == payload["draws"]
    result = stats.chisquare(counts)
    assert payload["chi2"] == result.statistic
    assert abs(payload["p_value"] - result.pvalue) <= 1e-12 * result.pvalue
    assert passed == (result.pvalue >= payload["alpha"])


def test_full_rank_draws_give_up_when_rank_is_under_reported(monkeypatch):
    # a row_reduce that never reports full rank must fail the draw, not hang it
    monkeypatch.setattr(
        delayedpa.suites, "row_reduce", lambda a: SimpleNamespace(rank=a.rows - 1)
    )
    with pytest.raises(RuntimeError, match=f"in {_FULL_RANK_ATTEMPTS} draws"):
        _full_rank_matrix(3, 8, random.Random(0))
    with pytest.raises(RuntimeError, match=f"in {_FULL_RANK_ATTEMPTS} draws"):
        delayedpa.suites.suite_preimage_uniformity(seed=1)
