import bisect
import math
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats

import delayedpa.gf2
import delayedpa.suites
import oracles
from delayedpa.gf2 import BitVector, modified_toeplitz_hash
from delayedpa.pa import AdditivePaFunction, expand_message
from oracles import (
    BinaryMatrix,
    RawWords,
    _full_rank_matrix,
    _full_rank_toeplitz,
    entry,
    identity_matrix,
    matrix_from_rows,
    matvec,
    modified_toeplitz_matrix,
    preimage_sampler,
    random_matrix,
    ref_clmul,
    ref_expand_message,
    ref_getrandbits,
    ref_preimage_sampler,
    ref_row_reduce,
    ref_row_reduce_with_ops,
    row_reduce,
    sample_preimage,
    toeplitz_from_seed,
)


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
    return [[entry(a, i, j) for j in range(a.cols)] for i in range(a.rows)]


def ref_matmul(a, b):
    """Naive per-entry XOR/AND reference for A @ B."""
    cols = list(zip(*to_lists(b)))
    return matrix_from_rows([ref_matvec(cols, row) for row in to_lists(a)])


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


def ref_preimage(a, y):
    return {v.bits for v in enumerate_vectors(a.cols) if matvec(a, v) == y}


class FixedBits:
    """rng stub handing out a prescribed free-bit pattern."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        return self.value & ((1 << k) - 1)


def random_matrix_and_vectors(rng, max_rows=8, max_cols=12):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(rows, max_cols)
    return random_matrix(rows, cols, rng)


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
    assert matvec(identity_matrix(3), v) == v


def test_matvec_reference_example():
    a = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    v = BitVector.from01("110")
    expect = ref_matvec(to_lists(a), [v[i] for i in range(3)])
    assert expect == [1, 1]
    assert matvec(a, v).to01() == "11"


def test_matvec_zero_vector():
    a = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    assert matvec(a, BitVector.zeros(3)).to01() == "00"


def test_matvec_dimension_mismatch():
    a = matrix_from_rows([[1, 0, 1]])
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
        modified_toeplitz_matrix(BitVector.zeros(5), n_pa=2, n=3)


@given(st.integers(1, 6), st.integers(1, 8), st.randoms(use_true_random=False))
def test_toeplitz_constant_diagonals(n_pa, n, rng):
    seed = BitVector.random(n + n_pa - 1, rng)
    a = toeplitz_from_seed(seed, n_pa, n)
    for i in range(n_pa):
        for j in range(n):
            assert entry(a, i, j) == seed[i - j + n - 1]
            if i + 1 < n_pa and j + 1 < n:
                assert entry(a, i, j) == entry(a, i + 1, j + 1)


@given(st.integers(1, 100), st.integers(1, 100), st.randoms(use_true_random=False))
@example(100, 100, random.Random(0))
@settings(max_examples=25)
def test_toeplitz_entries_across_digit_boundaries(n_pa, n, rng):
    # rows of up to 100 bits span several 30-bit digits of the packed ints
    seed = BitVector.random(n + n_pa - 1, rng)
    a = toeplitz_from_seed(seed, n_pa, n)
    assert all(
        entry(a, i, j) == seed[i - j + n - 1] for i in range(n_pa) for j in range(n)
    )


def _rank(seed, n_pa, n):
    return row_reduce(modified_toeplitz_matrix(seed, n_pa, n)).rank


def test_toeplitz_rows_independent_matches_row_reduce_exhaustively():
    # [I | T] needs no rank check: every seed of every shape up to n = 8
    # builds a hash, and row_reduce finds its n_pa rows independent
    for n in range(2, 9):
        for n_pa in range(1, n):
            for bits in range(1 << (n - 1)):
                f = AdditivePaFunction(BitVector(n - 1, bits), n_pa, n)
                assert _rank(f.seed, n_pa, n) == n_pa, (f.seed.to01(), n_pa, n)


@pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
def test_toeplitz_rows_independent_matches_row_reduce_on_random_shapes(density):
    rng = random.Random(f"toeplitz rank {density}")
    for _ in range(150):
        n = rng.randint(2, 64)
        n_pa = rng.randint(1, n - 1)
        seed = BitVector.from_bits(int(rng.random() < density) for _ in range(n - 1))
        assert _rank(seed, n_pa, n) == n_pa, (seed.to01(), n_pa, n)


@pytest.mark.parametrize(
    "pattern, plain_independent",
    [("0", False), ("1", False), ("1101001", False), ("0" * 63 + "1" + "0" * 39, True)],
    ids=["zero", "ones", "period-7", "identity"],
)
def test_toeplitz_rows_independent_on_structured_seeds(pattern, plain_independent):
    # a periodic seed gives the plain n_pa x n Toeplitz matrix rank at most
    # its period, and a single 1 at bit n - 1 gives it [I | 0]; the [I | T]
    # hash that from_toeplitz_seed builds from the same bits has n_pa
    # independent rows whatever they are
    n, n_pa = 64, 40
    plain = BitVector.from01((pattern * (n + n_pa))[: n + n_pa - 1])
    assert (row_reduce(toeplitz_from_seed(plain, n_pa, n)).rank == n_pa) is plain_independent
    f = AdditivePaFunction.from_toeplitz_seed(plain, n_pa, n)
    assert f.seed == plain.cut(0, n - 1)
    assert _rank(f.seed, n_pa, n) == n_pa


def _dense_hash(seed, n_pa, x):
    """The dense oracle [I | T] applied to x."""
    if n_pa == x.length:  # T has no columns
        return x
    return matvec(modified_toeplitz_matrix(seed, n_pa, x.length), x)


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
        conv[49] = bad  # entry w - 1, w = 100 - 50, which every layout reads
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
    # one seed transform and one per group of _PACK_MAX_BITS // s keys, s = 7
    # at w = 100: all five keys share one, and at 14 bits they go in pairs,
    # the odd key out alone; one section each time, at the smallest
    # 2**a 3**b 5**c >= n - 1
    rfft, sizes = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda a, size: sizes.append(size) or rfft(a, size))
    assert modified_toeplitz_hash(seed, n_pa, keys) == singles
    assert sizes == [300] * 2
    sizes.clear()
    monkeypatch.setattr(delayedpa.gf2, "_PACK_MAX_BITS", 14)
    assert modified_toeplitz_hash(seed, n_pa, keys) == singles
    assert sizes == [300] * 4
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
    monkeypatch.setattr(delayedpa.gf2, "_PACK_MAX_BITS", 0)
    assert modified_toeplitz_hash(seed, n_pa, keys) == paired
    assert paired == [_dense_hash(seed, n_pa, x) for x in keys]


@pytest.mark.parametrize("w", [1, 2, 15, 16, 2047])
def test_modified_toeplitz_hash_full_groups_match_dense(w):
    # _PACK_MAX_BITS // s keys to a transform, s = w.bit_length(): 44, 22,
    # 11, 8 and 4 of them; all-ones seeds and keys give the largest packed
    # entries, whose closed form is 1 XOR (w mod 2) in every output bit
    n_pa = 3
    n = n_pa + w
    rng = random.Random(w)
    seed = BitVector.random(n - 1, rng)
    keys = [BitVector.random(n, rng) for _ in range(60)]
    assert modified_toeplitz_hash(seed, n_pa, keys) == [_dense_hash(seed, n_pa, x) for x in keys]
    ones_seed, ones = BitVector(n - 1, (1 << (n - 1)) - 1), BitVector(n, (1 << n) - 1)
    expect = BitVector(n_pa, 0 if w % 2 else (1 << n_pa) - 1)
    assert modified_toeplitz_hash(ones_seed, n_pa, [ones] * 60) == [expect] * 60
    # equal keys are hashed once, so full groups of near-maximal entries take
    # distinct keys: all ones but for the binary digits of j in the high bits
    near = [BitVector(n, ones.bits ^ (j << n_pa)) for j in range(min(60, 1 << w))]
    assert modified_toeplitz_hash(ones_seed, n_pa, near) == [_dense_hash(ones_seed, n_pa, x) for x in near]


def _assert_all_ones_closed_form(n, n_pa, sections):
    # T of all ones adds w ones to each bit, so every output bit is
    # 1 XOR (w mod 2); all ones are the largest entries, and one key leaves
    # its idle slots to seed sections
    w = n - n_pa
    assert delayedpa.gf2._layout(n_pa, w, 1, delayedpa.gf2._PACK_MAX_BITS).sections == sections
    ones_seed = BitVector(n - 1, (1 << (n - 1)) - 1)
    ones = BitVector(n, (1 << n) - 1)
    expect = BitVector(n_pa, 0 if w % 2 else (1 << n_pa) - 1)
    assert modified_toeplitz_hash(ones_seed, n_pa, [ones]) == [expect]


def test_modified_toeplitz_hash_all_ones_closed_form_at_sim_large_size():
    _assert_all_ones_closed_form(30_000, 26_000, 3)


def test_modified_toeplitz_hash_all_ones_closed_form_at_1e6():
    for n_pa in (860_000, 860_001):
        _assert_all_ones_closed_form(10**6, n_pa, 2)


def _definition_bits(seed, n_pa, x, bits):
    """Bits of x[:n_pa] XOR T x[n_pa:], each from the Toeplitz definition:
    bit i of T x2 is the parity of seed[i : i + w] against x2 reversed."""
    w = x.length - n_pa
    rev = int(format(x.bits >> n_pa, f"0{w}b")[::-1], 2)
    return [(x.bits >> i ^ ((seed.bits >> i) & rev).bit_count()) & 1 for i in bits]


def test_modified_toeplitz_hash_matches_its_definition_at_1e6():
    # far beyond the dense oracle: both layouts a run of 10**6 signals can
    # pick, checked at the section edges and at random bits of every key
    n, n_pa = 10**6, 7 * 10**5
    w = n - n_pa
    rng = random.Random(1_000_000)
    seed = BitVector.random(n - 1, rng)
    x, y = BitVector.random(n, rng), BitVector.random(n, rng)
    edges = [0, 1, n_pa // 2 - 1, n_pa // 2, n_pa - 2, n_pa - 1]
    for keys, layout in (([x], (2, 1)), ([x, y], (1, 2))):
        lay = delayedpa.gf2._layout(n_pa, w, len(keys), delayedpa.gf2._PACK_MAX_BITS)
        assert (lay.sections, lay.per_transform) == layout
        for key, out in zip(keys, modified_toeplitz_hash(seed, n_pa, keys)):
            bits = edges + rng.sample(range(n_pa), 100)
            assert [out[i] for i in bits] == _definition_bits(seed, n_pa, key, bits)
    # linearity over whole outputs (Blum, Luby and Rubinfeld, JCSS 47, 549 (1993))
    fx, fy, fxy = modified_toeplitz_hash(seed, n_pa, [x, y, x ^ y])
    assert fxy == fx ^ fy


def _pool(n, n_pa, rng):
    """Four random keys and one that shares the first one's high bits."""
    keys = [BitVector.random(n, rng) for _ in range(4)]
    low = rng.getrandbits(n_pa)
    return keys + [BitVector(n, keys[0].bits >> n_pa << n_pa | low)]


@given(
    st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.lists(st.integers(0, 4), max_size=8),
    st.sampled_from([0, 14, 44]),
    st.integers(1, 8),
    st.randoms(use_true_random=False),
)
# B + w - 1 equal to the transform length wraps the most entries: n - 1 =
# 256 with one section, and B + w - 1 = 100 and 75 at n = 151, n_pa = 100
# with two and four
@example((257, 200), [0, 1, 1, 4], 44, 1, random.Random(0))
@example((151, 100), [0, 4, 0], 44, 2, random.Random(0))
@example((151, 100), [3, 2, 1, 0, 4], 44, 4, random.Random(0))
@example((151, 100), [0, 1, 2], 0, 4, random.Random(0))
@settings(max_examples=80, deadline=None)
def test_toeplitz_hash_matches_dense_in_every_layout(shape, picks, max_bits, sections, rng):
    # _PACK_MAX_BITS = 0 forces one section and one key per transform; the
    # layout is then also forced to min(sections, slots) sections
    n, n_pa = shape
    w = n - n_pa
    seed = BitVector.random(n - 1, rng)
    pool = _pool(n, n_pa, rng)
    keys = [pool[i] for i in picks]
    expect = [_dense_hash(seed, n_pa, x) for x in keys]
    slots = max(1, max_bits // max(w, 1).bit_length())
    forced = delayedpa.gf2._plan(n_pa, w, min(sections, slots), max_bits) if w else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delayedpa.gf2, "_PACK_MAX_BITS", max_bits)
        assert modified_toeplitz_hash(seed, n_pa, keys) == expect
        mp.setattr(delayedpa.gf2, "_layout", lambda *args: forced)
        assert modified_toeplitz_hash(seed, n_pa, keys) == expect


def test_toeplitz_forced_layouts_have_the_sections_asked_for():
    plan = delayedpa.gf2._plan
    # B + w - 1 is 5-smooth in these, so the transform is exactly that long
    assert plan(100, 51, 2, 44) == (2, 50, 100, 3)
    assert plan(100, 51, 4, 44) == (4, 25, 75, 1)
    assert plan(200, 57, 1, 0) == (1, 200, 256, 1)
    # three sections of 2 cover n_pa = 5; a fourth would be empty
    assert plan(5, 10, 4, 44).sections == 3


def test_toeplitz_hash_transforms_equal_high_bits_once(monkeypatch):
    n, n_pa = 30_000, 26_000
    rng = random.Random(13)
    seed = BitVector.random(n - 1, rng)
    a, b, _, _, a_low = _pool(n, n_pa, rng)
    keys = [a, b, a, a_low, b]
    singles = [_hash_one(seed, n_pa, x) for x in keys]
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args: calls.append(1) or rfft(*args))
    assert modified_toeplitz_hash(seed, n_pa, [a, b]) == singles[:2]
    pair = len(calls)
    calls.clear()
    assert modified_toeplitz_hash(seed, n_pa, keys) == singles
    assert len(calls) == pair == 3  # the seed and one per distinct key, at C = 3


def test_fast_len_is_the_smallest_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [k for k in range(1, 10_000) if smooth(k)]
    for m in range(1, 5001):
        assert delayedpa.gf2._fast_len(m) == lengths[bisect.bisect_left(lengths, m)]


# ---------------------------------------------------------- toeplitz preimage

@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 1000])
def test_clmul_matches_bitwise_oracle(n):
    # the reference draw's shift-and-XOR product against an integer
    # convolution of the bit sequences, mod 2; all ones at the end
    rng = random.Random(n)
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(3)] + [((1 << n) - 1,) * 2]
    for a, b in pairs:
        bits = [[(t >> j) & 1 for j in range(n)] for t in (a, b)]
        conv = np.convolve(*bits) & 1
        assert ref_clmul(a, b, n) == BitVector.from_bits(conv).bits


def test_toeplitz_preimage_exhaustive_up_to_n5():
    # every seed, every n_pa < n, every y and every drawn value g: the 2^w
    # values of g give the 2^w preimages of y, each once, so a uniform g
    # draws uniformly from the preimage
    for n in range(2, 6):
        for n_pa in range(1, n):
            w = n - n_pa
            for bits in range(1 << (n - 1)):
                f = AdditivePaFunction(BitVector(n - 1, bits), n_pa, n)
                a = modified_toeplitz_matrix(f.seed, n_pa, n)
                for y in enumerate_vectors(n_pa):
                    preimage = ref_preimage(a, y)
                    assert len(preimage) == 1 << w
                    xs = [expand_message(f, y, FixedBits(g)).bits for g in range(1 << w)]
                    assert sorted(xs) == sorted(preimage), (f.seed.to01(), n_pa, n, y)


def test_toeplitz_preimage_completion_nonsingular_up_to_n8():
    # [I | T] over [0 | I] is an n x n matrix with a unit diagonal, and the
    # draw inverts it: the draw of g from the preimage of y is the x it maps
    # to (y, g).  On every seed: the completion has full rank, the draw
    # solves it, and it equals the reference draw, whose product is bit by
    # bit, so the draw is checked apart from the FFT
    rng = random.Random("completion")
    cases = 0
    for n in range(2, 9):
        for n_pa in range(1, n):
            w = n - n_pa
            for bits in range(1 << (n - 1)):
                f = AdditivePaFunction(BitVector(n - 1, bits), n_pa, n)
                top = modified_toeplitz_matrix(f.seed, n_pa, n).row_words
                square = BinaryMatrix(n, n, top + tuple(1 << (n_pa + j) for j in range(w)))
                assert row_reduce(square).rank == n
                y, g = BitVector.random(n_pa, rng), rng.getrandbits(w)
                x = expand_message(f, y, FixedBits(g))
                assert matvec(square, x) == BitVector(n, y.bits | g << n_pa), (f.seed.to01(), n_pa)
                assert x == ref_expand_message(f, y, FixedBits(g)), (f.seed.to01(), n_pa, g)
                cases += 1
    assert cases == 1538


def test_toeplitz_preimage_matches_reference_draw_up_to_n16():
    # draw for draw: every shape with n <= 16, three drawn hashes each, four
    # y and g values per hash
    rng = random.Random("reference draw")
    for n in range(2, 17):
        for n_pa in range(1, n):
            for _ in range(3):
                f = AdditivePaFunction.draw(n_pa, n, rng)
                for _ in range(4):
                    y, g = BitVector.random(n_pa, rng), rng.getrandbits(n - n_pa)
                    x = expand_message(f, y, FixedBits(g))
                    assert x == ref_expand_message(f, y, FixedBits(g)), (f.seed.to01(), n_pa, n, g)


@pytest.mark.parametrize("n", [512, 2048])
def test_toeplitz_preimage_matches_reference_draw_at_session_sizes(n):
    n_pa = n * 7 // 10
    rng = random.Random(n)
    f = AdditivePaFunction.draw(n_pa, n, rng)
    for _ in range(3):
        y, g = BitVector.random(n_pa, rng), rng.getrandbits(n - n_pa)
        x = expand_message(f, y, FixedBits(g))
        assert x == ref_expand_message(f, y, FixedBits(g))


@pytest.mark.parametrize("density", [0.05, 0.5, 0.95])
def test_toeplitz_preimage_matches_dense_on_random_shapes(density):
    rng = random.Random(f"toeplitz preimage {density}")
    for _ in range(60):
        n = rng.randint(2, 200)
        n_pa = rng.randint(1, n - 1)
        seed = BitVector.from_bits(int(rng.random() < density) for _ in range(n - 1))
        f = AdditivePaFunction(seed, n_pa, n)
        y = BitVector.random(n_pa, rng)
        x = expand_message(f, y, rng)
        assert matvec(modified_toeplitz_matrix(seed, n_pa, n), x) == y, (seed.to01(), n_pa, n)


STRUCTURED_SEEDS = {
    # a single 1 at bit n_pa - 1 gives T = [0 ; I] at n_pa = 0.7 n: its
    # leading n_pa - w rows are zero
    "zero-leading-block": (lambda n: n * 7 // 10, lambda n: BitVector(n - 1, 1 << (n * 7 // 10 - 1))),
    # 0101...: the plain family's matrix of these bits has rank 2
    "period-2": (lambda n: 2, lambda n: BitVector.from01(("01" * n)[: n - 1])),
    # a single 1 at the top bit: T's only 1 is in its last row, first column
    "top-bit": (lambda n: 1, lambda n: BitVector(n - 1, 1 << (n - 2))),
}


@pytest.mark.parametrize("n", [64, 257, 1024, 4096])
@pytest.mark.parametrize("case", STRUCTURED_SEEDS)
def test_toeplitz_preimage_structured_seeds_match_dense(case, n):
    shape, make = STRUCTURED_SEEDS[case]
    rng = random.Random(n)
    # each seed at its own width and at the session's n_pa = 0.7 n
    for n_pa in (shape(n), n * 7 // 10):
        f = AdditivePaFunction(make(n), n_pa, n)
        a = modified_toeplitz_matrix(f.seed, n_pa, n)
        for _ in range(3):
            y = BitVector.random(n_pa, rng)
            assert matvec(a, expand_message(f, y, rng)) == y


class RecordingRandom(random.Random):
    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("n, n_pa", [(12, 4), (300, 210), (2048, 1433)])
def test_toeplitz_preimage_takes_one_draw_as_the_dense_path(n, n_pa):
    # the dense sampler gives [I | T]'s free columns, the last n - n_pa,
    # the drawn bits in order, so the two draws agree bit for bit
    rng = random.Random(n)
    f = AdditivePaFunction.draw(n_pa, n, rng)
    a = modified_toeplitz_matrix(f.seed, n_pa, n)
    y = BitVector.random(n_pa, rng)
    ours, dense = RecordingRandom(n), RecordingRandom(n)
    ours.calls, dense.calls = [], []
    x = expand_message(f, y, ours)
    assert matvec(a, x) == y
    assert x == sample_preimage(a, y, dense)
    assert ours.calls == dense.calls == [n - n_pa]
    assert ours.getstate() == dense.getstate()


@pytest.mark.parametrize("bad", [0.4, np.nan, np.inf])
def test_toeplitz_preimage_products_pass_the_hash_guard(monkeypatch, bad):
    # the draw's one product T r runs under the hash's guard: its inverse
    # transform is poisoned at entry w - 1 = 29, which every layout reads
    irfft = np.fft.irfft
    rng = random.Random(7)
    f = AdditivePaFunction.draw(70, 100, rng)
    y = BitVector.random(70, rng)
    calls = []

    def poisoned(*args, **kw):
        conv = irfft(*args, **kw)
        calls.append(conv.shape)
        if bad == 0.4:
            return conv + bad
        conv[..., 29] = bad
        return conv

    monkeypatch.setattr(np.fft, "irfft", poisoned)
    with pytest.raises(ArithmeticError):
        expand_message(f, y, rng)
    assert len(calls) == 1


def test_toeplitz_preimage_rejects_bad_shapes():
    rng = RecordingRandom(0)
    rng.calls = []
    with pytest.raises(ValueError, match="length mismatch"):
        expand_message(AdditivePaFunction(BitVector.zeros(7), 3, 8), BitVector.zeros(4), rng)
    assert rng.calls == []
    # a hash takes an (n - 1)-bit seed and must compress
    with pytest.raises(ValueError, match="seed length"):
        AdditivePaFunction(BitVector.zeros(10), 3, 8)
    with pytest.raises(ValueError, match="must compress"):
        AdditivePaFunction(BitVector.from01("1"), 2, 2)


# ---------------------------------------------------------------- reduction

def test_row_reduce_already_echelon():
    a = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    red = row_reduce(a)
    assert red.upper == a
    assert ref_row_reduce_with_ops(a)[1] == identity_matrix(2)
    assert red.pivot_cols == (0, 1)
    assert red.free_cols == (2,)


def test_row_reduce_records_swap():
    a = matrix_from_rows([[0, 1], [1, 0]])
    red = row_reduce(a)
    assert red.upper == identity_matrix(2)
    row_ops = ref_row_reduce_with_ops(a)[1]
    assert row_ops == matrix_from_rows([[0, 1], [1, 0]])
    assert ref_matmul(row_ops, a) == red.upper


def test_row_reduce_rank_deficient():
    a = matrix_from_rows([[1, 1], [1, 1]])
    red = row_reduce(a)
    assert red.rank == 1
    assert red.free_cols == (1,)
    assert red.upper.row_words[1] == 0
    assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == red.upper


@given(st.randoms(use_true_random=False))
def test_row_ops_times_original_is_upper(rng):
    rows = rng.randint(1, 10)
    cols = rng.randint(1, 14)
    a = random_matrix(rows, cols, rng)
    red = row_reduce(a)
    assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == red.upper
    # echelon shape: pivots strictly increase and are the leading entries
    prev = -1
    for r, pc in enumerate(red.pivot_cols):
        assert pc > prev
        prev = pc
        assert entry(red.upper, r, pc) == 1
        for j in range(pc):
            assert entry(red.upper, r, j) == 0


def test_row_ops_product_large_random():
    rng = random.Random(7)
    for _ in range(10):
        a = random_matrix(64, 128, rng)
        assert ref_matmul(ref_row_reduce_with_ops(a)[1], a) == row_reduce(a).upper


def test_row_ops_invertible():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng.randint(1, 8), rng.randint(1, 8), rng)
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


# ---------------------------------------------------------------- preimage

def test_preimage_example_enumeration():
    a = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    y = BitVector.from01("10")
    assert ref_preimage(a, y) == {BitVector.from01("100").bits, BitVector.from01("011").bits}
    rng = random.Random(0)
    seen = {sample_preimage(a, y, rng).bits for _ in range(64)}
    assert seen == ref_preimage(a, y)


def test_preimage_unique_for_identity():
    y = BitVector.from01("01")
    rng = random.Random(1)
    for _ in range(4):
        assert sample_preimage(identity_matrix(2), y, rng) == y


def test_preimage_parity_row():
    a = matrix_from_rows([[1, 1]])
    y = BitVector(1, 0)
    rng = random.Random(2)
    seen = {sample_preimage(a, y, rng).bits for _ in range(32)}
    assert seen == {0b00, 0b11}


def test_preimage_rank_deficient_rejected():
    a = matrix_from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="rows not independent"):
        sample_preimage(a, BitVector.from01("00"), random.Random(0))


def test_preimage_selector_enumeration_is_bijective():
    # driving the free bits through every value enumerates the preimage once
    a = matrix_from_rows([[1, 0, 1, 1], [0, 1, 1, 0]])
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


SAMPLER_CASES = {
    "identity": lambda rng: identity_matrix(5),  # n_free = 0, no draw
    "1x2": lambda rng: _full_rank_matrix(1, 2, rng),
    "2x4": lambda rng: _full_rank_matrix(2, 4, rng),
    "3x8": lambda rng: _full_rank_matrix(3, 8, rng),
    # pivots at columns 1, 2 and 4: free columns 0, 3, 5 and 6 in three runs
    "zero-leading-column": lambda rng: matrix_from_rows(
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
    a, y = matrix_from_rows(a_rows), BitVector.from01(y)
    with pytest.raises(ValueError, match="rows not independent"):
        preimage_sampler(a, y)
    with pytest.raises(ValueError, match="rows not independent"):
        sample_preimage(a, y, random.Random(0))
    with pytest.raises(ValueError, match="rows not independent"):
        ref_preimage_sampler(a, y)


@pytest.mark.parametrize("seed", [1002, 104729])
def test_uniformity_suite_unchanged_by_reference_draw(monkeypatch, seed):
    ours = delayedpa.suites.suite_preimage_uniformity(seed=seed)
    assert ours[0]["bijective"] is True and ours[1]
    monkeypatch.setattr(delayedpa.suites, "expand_message", ref_expand_message)
    assert delayedpa.suites.suite_preimage_uniformity(seed=seed) == ours


@pytest.mark.parametrize("seed", [-1, -5])
def test_uniformity_suite_refuses_a_negative_seed(seed):
    # the suite's own message names the seed; PCG64's would not
    with pytest.raises(ValueError, match=rf"^seed must be non-negative, got {seed}$"):
        delayedpa.suites.suite_preimage_uniformity(seed=seed)


def mutant_expand(fault):
    """``expand_message`` with one fault, each of which the exact gate must catch."""

    def expand(f, y, rng):
        k = f.n - f.n_pa
        if fault == "drops-top-bit":  # g and g + 2^(k-1) give one x: not injective
            return expand_message(f, y, FixedBits(rng.getrandbits(k) & ~(1 << k - 1)))
        x = expand_message(f, y, rng)
        if fault == "second-call":  # right images, wrong stream
            rng.getrandbits(1)
            return x
        # "flipped-bit": column 0 of [I | T] is e_0, so x leaves the preimage
        return BitVector(x.length, x.bits ^ 1)

    return expand


@pytest.mark.parametrize("seed", [1, 5, 104729])
@pytest.mark.parametrize("fault", ["drops-top-bit", "second-call", "flipped-bit"])
def test_uniformity_gate_fails_every_mutant(monkeypatch, fault, seed):
    monkeypatch.setattr(delayedpa.suites, "expand_message", mutant_expand(fault))
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
    n, n_pa = payload["n"], payload["n_pa"]
    k = n - n_pa
    # the suite's stream, replayed from its raw words: one (n - 1)-bit seed,
    # y, then one getrandbits(k) per fitted draw, looked up in the images of
    # every g instead of drawn again
    words = RawWords(seed)
    f = AdditivePaFunction(BitVector(n - 1, ref_getrandbits(words, n - 1)), n_pa, n)
    y = BitVector(n_pa, ref_getrandbits(words, n_pa))
    images = [ref_expand_message(f, y, FixedBits(g)).bits for g in range(1 << k)]
    assert sorted(images) == sorted(ref_preimage(modified_toeplitz_matrix(f.seed, n_pa, n), y))
    hist = Counter(images[ref_getrandbits(words, k)] for _ in range(payload["draws"]))
    counts = [hist[x] for x in images]  # in g order, as the suite sums
    assert len(counts) == payload["cells"] and sum(counts) == payload["draws"]
    result = stats.chisquare(counts)
    assert payload["chi2"] == result.statistic
    assert abs(payload["p_value"] - result.pvalue) <= 1e-12 * result.pvalue
    assert passed == (result.pvalue >= payload["alpha"])


def test_full_rank_draws_give_up_when_rank_is_under_reported(monkeypatch):
    # a row_reduce that never reports full rank must fail the oracle's
    # draw, not hang it
    assert oracles._FULL_RANK_ATTEMPTS == 200
    monkeypatch.setattr(oracles, "row_reduce", lambda a: SimpleNamespace(rank=a.rows - 1))
    with pytest.raises(RuntimeError, match="with independent rows in 200 draws"):
        _full_rank_matrix(3, 8, random.Random(0))
