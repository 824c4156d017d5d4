"""The runs' one random stream and the bit-planes it fills.

Every draw of ``protocols.BitStream`` is pinned against ``tests/oracles.py``,
which rebuilds it from the same raw PCG64 words in pure Python, and the
exactness of the Bernoulli, k-subset and depolarizing draws is checked by
chi-square fits at tiny sizes with fixed seeds.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from delayedpa.protocols import BitStream, ChannelModel, _popcount
from oracles import RawWords, ref_bernoulli, ref_fair, ref_getrandbits, ref_randbelow, ref_subset


def _int(plane: np.ndarray) -> int:
    return int.from_bytes(plane.astype("<u8").tobytes(), "little")


def _from_int(value: int, n: int) -> np.ndarray:
    words = -(-n // 64)
    return np.frombuffer(value.to_bytes(8 * words, "little"), "<u8").astype(np.uint64)


@pytest.mark.parametrize("seed", [1, 104729])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 4000])
def test_every_draw_matches_the_raw_word_oracle(seed, n):
    stream, words = BitStream(seed, n), RawWords(seed)
    planes = []

    def pin(plane, expected):
        assert plane.dtype == np.uint64 and len(plane) == -(-n // 64)
        assert _int(plane) == expected
        assert expected >> n == 0  # no bit past the n signals is set
        planes.append(expected)
        return expected

    eligible = pin(stream.fair(), ref_fair(words, n))
    for p in (0.02, 0.375, 0.0, 1.0, 1 / 3):
        threshold = math.floor(p * 2**53)
        pin(stream.bernoulli(p), ref_bernoulli(words, n, threshold, (1 << n) - 1))
    pin(stream.bernoulli(1 / 3, _from_int(eligible, n)), ref_bernoulli(words, n, math.floor(2**53 / 3), eligible))
    m = eligible.bit_count()
    for k in (0, m // 3, (m + 1) // 2, m):
        pin(stream.subset(k, _from_int(eligible, n)), ref_subset(words, n, k, eligible))
    for k in (0, 1, n // 2, n):
        pin(stream.subset(k, stream.all), ref_subset(words, n, k, (1 << n) - 1))
    for bound in (1, 3, 1000, 2**63 + 1, 2**64):
        assert stream._randbelow(bound) == ref_randbelow(words, bound)
    for k in (0, 1, 64, 65, n):
        assert stream.getrandbits(k) == ref_getrandbits(words, k)
    # both sides drew the same number of words
    assert stream.getrandbits(64) == words.word()
    assert n == 1 or len(set(planes)) > 4


def test_subset_refuses_more_than_the_eligible_signals():
    stream = BitStream(3, 10)
    with pytest.raises(ValueError, match="cannot choose 11 of 10"):
        stream.subset(11, stream.all)


@pytest.mark.parametrize("m", range(1, 7))
def test_subset_is_uniform_over_all_k_subsets(m):
    # eligible signals on both sides of a word boundary, among others
    n = 70
    eligible = [3, 17, 63, 64, 65, 69][:m]
    stream = BitStream(1000 + m, n)
    mask = _from_int(sum(1 << i for i in eligible), n)
    for k in range(m + 1):
        cells = {frozenset(c): 0 for c in itertools.combinations(eligible, k)}
        draws = 150 * len(cells)
        for _ in range(draws):
            chosen = _int(stream.subset(k, mask))
            cells[frozenset(i for i in eligible if chosen >> i & 1)] += 1
        assert sum(cells.values()) == draws  # every draw is a k-subset of eligible
        if len(cells) > 1:
            assert chisquare(list(cells.values())).pvalue > 1e-4, (m, k, cells)


@pytest.mark.parametrize("p", [0.375, 0.02, 1 / 3])
def test_bernoulli_plane_rate(p):
    # 0.375 is dyadic, so three planes decide every signal; the others are not
    n, runs = 50_000, 8
    stream = BitStream(77, n)
    ones = sum(_popcount(stream.bernoulli(p)) for _ in range(runs))
    total = n * runs
    expected = math.floor(p * 2**53) / 2**53 * total
    assert abs(ones - expected) < 4 * math.sqrt(total * p * (1 - p))


def test_depolarizing_pauli_frequencies():
    p, n = 0.3, 200_000
    stream = BitStream(5, n)
    x, z = ChannelModel.depolarizing(p).paulis(np.zeros_like(stream.all), stream)
    counts = [
        _popcount(stream.all & ~x & ~z),  # I
        _popcount(x & ~z),                # X
        _popcount(x & z),                 # Y
        _popcount(~x & z),                # Z
    ]
    assert sum(counts) == n
    expected = [n * (1 - 3 * p / 4), n * p / 4, n * p / 4, n * p / 4]
    assert chisquare(counts, expected).pvalue > 1e-4, counts


def test_popcount_by_byte_table_matches_bitwise_count(monkeypatch):
    # numpy 1.x, the floor, has no bitwise_count; _popcount counts bytes there
    stream = BitStream(9, 64 * 40 + 7)
    planes = (stream.fair(), stream.all, np.zeros_like(stream.all), stream.bernoulli(0.1))
    counts = [_int(plane).bit_count() for plane in planes]
    assert [_popcount(plane) for plane in planes] == counts
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert [_popcount(plane) for plane in planes] == counts
