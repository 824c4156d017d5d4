"""The one random stream of runs, sessions and suites, and the bit-planes it fills.

Every draw of ``stream.BitStream`` is pinned against ``tests/oracles.py``,
which rebuilds it from the same raw PCG64 words in pure Python, and the
exactness of the Bernoulli, k-subset and depolarizing draws is checked by
chi-square fits at tiny sizes with fixed seeds.  Sessions and the
uniformity suite are pinned to the words they read.
"""

import itertools
import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

import delayedpa.suites
from delayedpa.gf2 import BitVector
from delayedpa.pa import AdditivePaFunction, DelayedPaSession, expand_message
from delayedpa.protocols import ChannelModel
from delayedpa.stream import BitStream, _popcount
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
        assert stream.randbelow(bound) == ref_randbelow(words, bound)
    assert stream.words(0).dtype == np.uint64
    assert [int(w) for w in stream.words(3)] == [words.word() for _ in range(3)]
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


@pytest.mark.parametrize("seed", [0, 11, 104729])
@pytest.mark.parametrize("j", [0, 1, 7])
def test_normal_continues_the_raw_words(seed, j):
    stream = BitStream(seed)
    stream.words(j)
    gen = np.random.Generator(np.random.PCG64(seed).advance(j))
    assert np.array_equal(stream.normal((2, 3)), gen.normal(size=(2, 3)))
    # Gaussians take whole words, so integer draws go on from where they stop
    assert [int(w) for w in stream.words(2)] == [int(w) for w in gen.bit_generator.random_raw(2)]
    assert np.array_equal(stream.normal(size=5), gen.normal(size=5))


@pytest.mark.parametrize("n, n_pa", [(8, 3), (64, 44), (200, 140)])
def test_a_session_expands_from_the_raw_words_of_its_selector_seed(n, n_pa):
    rng = random.Random(f"session {n}")
    f = AdditivePaFunction.draw(n_pa, n, rng)
    s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
    r = ref_getrandbits(RawWords(s.selector_seed), n - n_pa)
    assert s.m == expand_message(f, s.m_prime, SimpleNamespace(getrandbits=lambda k: r))


@pytest.mark.parametrize("seed", [1, 1002])
def test_uniformity_fit_counts_the_low_bits_of_raw_words(monkeypatch, seed):
    # 20,000 draws cross the 8,192-draw chunk and end on a short one
    n, n_pa, draws = 8, 3, 20_000
    k = n - n_pa
    histograms = []
    bincount = np.bincount

    def recording_bincount(values, minlength=0):
        histograms.append(bincount(values, minlength=minlength))
        return histograms[-1]

    monkeypatch.setattr(np, "bincount", recording_bincount)
    delayedpa.suites.suite_preimage_uniformity(n=n, n_pa=n_pa, draws=draws, seed=seed)
    monkeypatch.undo()
    # the hash seed and y come first, then one getrandbits(k) per draw
    words = RawWords(seed)
    for bits in (n - 1, n_pa):
        ref_getrandbits(words, bits)
    per_g = Counter(ref_getrandbits(words, k) for _ in range(draws))
    assert len(histograms) == 3
    assert list(sum(histograms)) == [per_g[g] for g in range(1 << k)]


# written by DelayedPaSession.create when sessions still expanded through
# random.Random(selector_seed); a stored session keeps loading and decoding
_STORED_SESSION = (
    '{"a": "bf046ddb8664", "c": "7ffb3813f8c6", "m": "c0ff55c87ea2", "m_prime": "17660", '
    '"n": 48, "n_pa": 20, "pa": {"kind": "modified-toeplitz", "n": 48, "n_pa": 20, '
    '"seed": "d9971b3a04e0"}, "selector_seed": 4117511471858006928}'
)


def test_a_session_stored_before_the_stream_move_still_loads():
    s = DelayedPaSession.from_json(_STORED_SESSION)
    m_prime = BitVector.from_hex(20, "17660")
    assert s.recover_via_key() == s.recover_via_rawkey() == m_prime
    assert json.loads(s.to_json()) == json.loads(_STORED_SESSION)
