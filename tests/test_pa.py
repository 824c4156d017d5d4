import contextlib
import dataclasses
import io
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import delayedpa.gf2
import delayedpa.pa
from delayedpa.gf2 import BitVector, modified_toeplitz_hash
from delayedpa.pa import AdditivePaFunction, DelayedPaSession, expand_message, pa_apply_many
from delayedpa.stream import BitStream
from oracles import (
    BinaryMatrix,
    dpa_encrypt,
    dpa_recover_via_key,
    dpa_recover_via_rawkey,
    expand_imperfect_key,
    matrix_from_rows,
    matvec,
    modified_toeplitz_matrix,
    pa_apply,
    row_reduce,
    toeplitz_from_seed,
)


def seeded(seed01, rows):
    """The hash of a 0/1 seed string and its [I | T] matrix, written out as ``rows``."""
    a = matrix_from_rows(rows)
    seed = BitVector.from01(seed01)
    assert modified_toeplitz_matrix(seed, a.rows, a.cols) == a
    return AdditivePaFunction(seed, a.rows, a.cols), a


# [[1, 0, 1], [0, 1, 1]] is the 2 x 3 hash of the tests below: its kernel is
# {000, 111}, and "10" has the preimage {100, 011}
KERNEL_111 = ("11", [[1, 0, 1], [0, 1, 1]])


def enumerate_preimage(a, m_prime):
    return {
        v for v in range(1 << a.cols)
        if matvec(a, BitVector(a.cols, v)) == m_prime
    }


def random_pa_function(rng, n_pa, n):
    return AdditivePaFunction.draw(n_pa, n, rng)


# ---------------------------------------------------------------- pa_apply

def test_pa_apply_identity_truncation():
    f, _ = seeded("00", [[1, 0, 0], [0, 1, 0]])
    assert pa_apply(f, BitVector.from01("101")).to01() == "10"


def test_pa_apply_zero_input():
    f, _ = seeded(*KERNEL_111)
    assert pa_apply(f, BitVector.zeros(3)).to01() == "00"


def test_pa_apply_example():
    f, a = seeded(*KERNEL_111)
    x = BitVector.from01("111")
    assert pa_apply(f, x) == matvec(a, x)
    assert pa_apply(f, x).to01() == "00"


def test_pa_apply_length_mismatch():
    f, _ = seeded("10", [[1, 0, 1]])
    with pytest.raises(ValueError):
        pa_apply(f, BitVector.from01("10"))


@pytest.mark.parametrize(
    "n, n_pa", [(2, 1), (3, 2), (12, 4), (512, 358), (1024, 716), (2048, 1433)]
)
def test_toeplitz_pa_apply_matches_dense_matvec(n, n_pa):
    rng = random.Random(f"toeplitz pa_apply {n}")
    f = AdditivePaFunction.draw(n_pa, n, rng)
    a = modified_toeplitz_matrix(f.seed, n_pa, n)
    ones = BitVector(n, (1 << n) - 1)
    for x in [BitVector.random(n, rng) for _ in range(3)] + [ones, BitVector.zeros(n)]:
        assert pa_apply(f, x) == matvec(a, x)


@pytest.mark.parametrize("n, n_pa", [(8, 3), (12, 1), (40, 37), (2048, 1433)])
def test_pa_apply_many_matches_dense_matvec(n, n_pa):
    # short inputs share transforms (44 // w.bit_length() of them), so 50
    # inputs fill several groups and leave a part-filled last one
    rng = random.Random(f"pa_apply_many {n}")
    f = AdditivePaFunction.draw(n_pa, n, rng)
    a = modified_toeplitz_matrix(f.seed, n_pa, n)
    xs = [BitVector.random(n, rng) for _ in range(48)] + [BitVector(n, (1 << n) - 1), BitVector.zeros(n)]
    assert pa_apply_many(f, xs) == [matvec(a, x) for x in xs]
    assert pa_apply_many(f, []) == []
    with pytest.raises(ValueError, match="length mismatch"):
        pa_apply_many(f, [xs[0], BitVector.zeros(n + 1)])


def test_toeplitz_pa_apply_all_ones_matches_dense_matvec():
    # an all-ones seed and key give the largest convolution entries, so the
    # largest rounding error; the plain Toeplitz matrix of all ones has rank
    # 1, but every [I | T] has independent rows, so two rows build too
    n = 2048
    ones_seed, ones = BitVector(n - 1, (1 << (n - 1)) - 1), BitVector(n, (1 << n) - 1)
    f = AdditivePaFunction(ones_seed, 1, n)
    assert pa_apply(f, ones) == matvec(modified_toeplitz_matrix(ones_seed, 1, n), ones)
    assert pa_apply(f, ones).bits == 0  # 2048 ones
    g = AdditivePaFunction(ones_seed, 2, n)
    assert pa_apply(g, ones) == matvec(modified_toeplitz_matrix(ones_seed, 2, n), ones)
    assert pa_apply(g, ones).bits == 0b11  # 2047 ones in each row


@given(
    st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.integers(0, 2**32 - 1),
)
def test_toeplitz_pa_apply_matches_dense_matvec_random(shape, draw_seed):
    n, n_pa = shape
    rng = random.Random(draw_seed)
    f = AdditivePaFunction.draw(n_pa, n, rng)
    a = modified_toeplitz_matrix(f.seed, n_pa, n)
    x = BitVector.random(n, rng)
    assert pa_apply(f, x) == matvec(a, x)


def test_toeplitz_hash_holds_its_seed_alone():
    seed = BitVector.random(7, random.Random(331))
    f = AdditivePaFunction(seed, 3, 8)
    assert [fl.name for fl in dataclasses.fields(f)] == ["seed", "n_pa", "n"]
    assert (f.seed, f.n_pa, f.n) == (seed, 3, 8)
    held = [getattr(f, fl.name) for fl in dataclasses.fields(f)]
    assert not any(isinstance(v, BinaryMatrix) for v in held)
    assert [fl.name for fl in dataclasses.fields(BinaryMatrix)] == ["rows", "cols", "row_words"]
    assert AdditivePaFunction(seed, 3, 8) == f


@pytest.mark.parametrize("bad", [0.4, np.nan, np.inf])
def test_toeplitz_pa_apply_passes_the_hash_guard(monkeypatch, bad):
    irfft = np.fft.irfft

    def poisoned(*args, **kw):
        conv = irfft(*args, **kw)
        if bad == 0.4:
            return conv + bad
        conv[29] = bad  # entry w - 1, w = 100 - 70, which every layout reads
        return conv

    rng = random.Random(332)
    f = AdditivePaFunction.draw(70, 100, rng)
    x = BitVector.random(100, rng)
    monkeypatch.setattr(np.fft, "irfft", poisoned)
    with pytest.raises(ArithmeticError):
        pa_apply(f, x)


def test_construction_rejects_empty_hash():
    # an n_pa = 0 hash has no output bit to recover a message into
    with pytest.raises(ValueError, match="at least one output bit"):
        AdditivePaFunction(BitVector.zeros(3), 0, 4)


def test_construction_rejects_non_compressing():
    # at n_pa = n, T has no columns and the family's hash is the identity
    seed, x = BitVector.from01("1"), BitVector.from01("01")
    assert modified_toeplitz_hash(seed, 2, [x]) == [x]
    with pytest.raises(ValueError, match="must compress"):
        AdditivePaFunction(seed, 2, 2)
    with pytest.raises(ValueError, match="must compress"):
        AdditivePaFunction.from_toeplitz_seed(BitVector.from01("111"), 2, 2)


def test_construction_rejects_a_seed_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^seed length 10 does not match n - 1 = 7$"):
        AdditivePaFunction(BitVector.zeros(10), 3, 8)
    # from_toeplitz_seed takes the plain family's n + n_pa - 1 bits, and no other length
    with pytest.raises(ValueError, match=r"^seed length 7 does not match n \+ n_pa - 1 = 10$"):
        AdditivePaFunction.from_toeplitz_seed(BitVector.zeros(7), 3, 8)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n_pa, n", [(3, 8), (4, 12), (1, 2)])
@pytest.mark.parametrize("seed", [1, 5, 1002, 104729])
def test_draw_takes_the_first_seed_with_independent_rows(seed, n_pa, n):
    # every seed's rows are independent, so draw takes the rng's first
    # (n - 1)-bit seed, in one getrandbits call, and leaves the rng there
    loop = random.Random(seed)
    pa_seed = BitVector.random(n - 1, loop)
    rng = CountingRandom(seed)
    f = AdditivePaFunction.draw(n_pa, n, rng)
    assert (f.seed, f.n_pa, f.n) == (pa_seed, n_pa, n)
    assert rng.calls == 1
    assert rng.getrandbits(64) == loop.getrandbits(64)


def test_from_toeplitz_seed_hashes_with_the_first_n_minus_1_bits():
    rng = random.Random(334)
    plain = BitVector.random(8 + 3 - 1, rng)
    f = AdditivePaFunction.from_toeplitz_seed(plain, 3, 8)
    assert f == AdditivePaFunction(plain.cut(0, 7), 3, 8)


@pytest.mark.parametrize(
    "n_pa, n, match",
    [(0, 4, "at least one output bit"), (-2, 4, "at least one output bit"),
     (4, 4, "must compress"), (9, 4, "must compress")],
)
def test_draw_refuses_a_bad_shape_before_any_draw(n_pa, n, match):
    rng = CountingRandom(0)
    with pytest.raises(ValueError, match=match):
        AdditivePaFunction.draw(n_pa, n, rng)
    assert rng.calls == 0


# ---------------------------------------------------------------- expansion

def test_expand_message_uniform_over_preimage():
    f, a = seeded(*KERNEL_111)
    m_prime = BitVector.from01("10")
    expect = enumerate_preimage(a, m_prime)
    assert expect == {0b001, 0b110}  # 100 and 011 in index order
    rng = random.Random(5)
    counts = Counter(expand_message(f, m_prime, rng).bits for _ in range(400))
    assert set(counts) == expect
    for v in expect:
        assert abs(counts[v] / 400 - 0.5) < 0.15


def test_expand_message_membership_only():
    rng = random.Random(6)
    f = random_pa_function(rng, 2, 5)
    w = BitVector.random(5, rng)
    m = expand_message(f, pa_apply(f, w), rng)
    assert pa_apply(f, m) == pa_apply(f, w)


def test_random_message_special_case_joint_law():
    # When the short message itself is uniform, expanding it induces the same
    # joint law as drawing the long message uniformly outright: enumerate the
    # selector to get exact distributions on (m_prime, m) and compare.
    class FixedBits:
        def __init__(self, value):
            self.value = value

        def getrandbits(self, k):
            return self.value & ((1 << k) - 1)

    rng = random.Random(7)
    for n, n_pa in [(4, 2), (5, 2), (6, 3)]:
        f = AdditivePaFunction.draw(n_pa, n, rng)
        a = modified_toeplitz_matrix(f.seed, n_pa, n)
        n_free = n - n_pa
        expanded = Counter()
        for mp in range(1 << n_pa):
            m_prime = BitVector(n_pa, mp)
            for v in range(1 << n_free):
                m = expand_message(f, m_prime, FixedBits(v))
                expanded[(mp, m.bits)] += 1
        # uniform (m_prime, selector) -> each pair has weight 1
        direct = Counter()
        for m_val in range(1 << n):
            mp = matvec(a, BitVector(n, m_val)).bits
            direct[(mp, m_val)] += 1
        assert expanded == direct


def test_expand_imperfect_key_consistency():
    rng = random.Random(8)
    f = random_pa_function(rng, 2, 5)
    a_prime = BitVector.random(5, rng)
    m = expand_imperfect_key(f, f, a_prime, rng)
    assert pa_apply(f, m) == pa_apply(f, a_prime)


def test_expand_imperfect_key_enumeration():
    f, _ = seeded("1", [[1, 1]])
    g, _ = seeded("0", [[1, 0]])
    a_prime = BitVector.from01("10")  # g(a') = 1
    rng = random.Random(9)
    seen = {expand_imperfect_key(f, g, a_prime, rng).bits for _ in range(64)}
    assert seen == {0b01, 0b10}  # the two vectors of parity 1


def test_expand_imperfect_key_zero_target_gives_kernel():
    f, _ = seeded(*KERNEL_111)
    g, _ = seeded("00", [[1, 0, 0], [0, 1, 0]])
    rng = random.Random(10)
    seen = {
        expand_imperfect_key(f, g, BitVector.zeros(3), rng).bits for _ in range(64)
    }
    assert seen == {0b000, 0b111}  # kernel of f


def test_expand_imperfect_key_dimension_mismatch():
    f, _ = seeded(*KERNEL_111)
    g, _ = seeded("0", [[1, 0]])
    with pytest.raises(ValueError):
        expand_imperfect_key(f, g, BitVector.from01("10"), random.Random(0))


# ---------------------------------------------------------------- xor ops

def test_dpa_encrypt_examples():
    assert dpa_encrypt(BitVector.from01("1010"), BitVector.from01("0110")).to01() == "1100"
    a = BitVector.from01("1011")
    assert dpa_encrypt(a, a).to01() == "0000"
    assert dpa_encrypt(BitVector.zeros(4), a) == a


def test_recovery_example_end_to_end():
    f, hash_matrix = seeded(*KERNEL_111)
    a = BitVector.from01("110")
    m = BitVector.from01("100")
    m_prime = pa_apply(f, m)
    assert m_prime == matvec(hash_matrix, m)
    assert m_prime.to01() == "10"
    c = dpa_encrypt(a, m)
    assert c.to01() == "010"
    k = pa_apply(f, a)
    assert k == matvec(hash_matrix, a)
    assert k.to01() == "11"
    assert dpa_recover_via_key(f, c, k) == m_prime
    assert dpa_recover_via_rawkey(f, c, a) == m_prime


def test_recovery_trivial_cases():
    f, _ = seeded(*KERNEL_111)
    a = BitVector.from01("101")
    k = pa_apply(f, a)
    # zero message: both routes give the all-zero short string
    assert dpa_recover_via_key(f, a, k).to01() == "00"
    assert dpa_recover_via_rawkey(f, a, a).to01() == "00"
    # zero key argument degenerates to a plain hash of the ciphertext
    c = BitVector.from01("011")
    assert dpa_recover_via_key(f, c, BitVector.zeros(2)) == pa_apply(f, c)
    assert dpa_recover_via_rawkey(f, c, BitVector.zeros(3)) == pa_apply(f, c)


# ---------------------------------------------------------------- sessions

@given(st.integers(0, 2**32 - 1))
def test_session_recovery_paths_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 24)
    n_pa = rng.randint(1, n - 1)
    f = random_pa_function(rng, n_pa, n)
    m_prime = BitVector.random(n_pa, rng)
    a = BitVector.random(n, rng)
    s = DelayedPaSession.create(f, m_prime, a, rng)
    assert s.recover_via_key() == m_prime
    assert s.recover_via_rawkey() == m_prime
    assert len(s.recover_via_key()) == f.n_pa
    # the values kept from the one batched hash call, against one hash per input
    assert s.key == pa_apply(f, a)
    assert s.recover_via_key() == dpa_recover_via_key(f, s.c, pa_apply(f, a))
    assert s.recover_via_rawkey() == dpa_recover_via_rawkey(f, s.c, a)
    assert s.c == dpa_encrypt(a, s.m)


def test_session_recovery_thousand_random():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(3, 32)
        n_pa = rng.randint(1, n - 1)
        f = random_pa_function(rng, n_pa, n)
        s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
        assert s.recover_via_key() == s.recover_via_rawkey() == s.m_prime
        # additivity carried through the session
        assert pa_apply(f, s.a ^ s.m) == pa_apply(f, s.a) ^ pa_apply(f, s.m)


def test_session_replay_from_selector_seed():
    rng = random.Random(123)
    f = random_pa_function(rng, 3, 8)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    replay = expand_message(f, s.m_prime, BitStream(s.selector_seed))
    assert replay == s.m


def test_session_json_roundtrip_toeplitz():
    rng = random.Random(321)
    f = AdditivePaFunction.draw(3, 8, rng)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    doc = s.to_json()
    restored = DelayedPaSession.from_json(doc)
    assert restored == s
    assert restored.recover_via_key() == s.m_prime
    assert json.loads(doc)["pa"]["kind"] == "modified-toeplitz"


def test_session_rejects_inconsistent_fields():
    f, _ = seeded(*KERNEL_111)
    with pytest.raises(ValueError):
        DelayedPaSession(
            f=f,
            a=BitVector.from01("110"),
            m_prime=BitVector.from01("10"),
            m=BitVector.from01("111"),  # hashes to 00, not 10
            selector_seed=0,
            c=BitVector.from01("001"),
        )


def test_session_from_json_rejects_an_edited_ciphertext():
    # m still hashes to m_prime, so the one broken relation is c = a XOR m
    rng = random.Random(322)
    f = AdditivePaFunction.draw(3, 8, rng)
    doc = json.loads(DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng).to_json())
    doc["c"] = (BitVector.from_hex(8, doc["c"]) ^ BitVector(8, 1)).to_hex()
    with pytest.raises(ValueError, match=r"^ciphertext is not a XOR m$"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_pa_function_call_hashes_as_its_matrix():
    f, a = seeded(*KERNEL_111)
    for x in range(1 << a.cols):
        assert f(BitVector(a.cols, x)) == matvec(a, BitVector(a.cols, x)), x


@pytest.mark.parametrize("selector_seed", [-3, -1, 2**64, 2**70])
def test_session_refuses_a_selector_seed_create_cannot_draw(selector_seed):
    # create draws getrandbits(64), so a built and a parsed session alike
    # hold a selector seed in [0, 2**64)
    rng = random.Random(331)
    f = AdditivePaFunction.draw(3, 8, rng)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    with pytest.raises(ValueError, match=r"^selector_seed must be in \[0, 2\*\*64\)"):
        dataclasses.replace(s, selector_seed=selector_seed)
    doc = json.loads(s.to_json())
    doc["selector_seed"] = selector_seed
    with pytest.raises(ValueError, match=r"^selector_seed must be in \[0, 2\*\*64\)"):
        DelayedPaSession.from_json(json.dumps(doc))
    # the range is checked before the expansion, which takes a hash call
    doc["m"] = doc["c"]
    with pytest.raises(ValueError, match=r"^selector_seed must be in \[0, 2\*\*64\)"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_refuses_an_out_of_range_selector_seed_before_hashing(monkeypatch):
    rng = random.Random(333)
    f = AdditivePaFunction.draw(3, 8, rng)
    doc = json.loads(DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng).to_json())
    calls = []

    def counting_hash(*args):
        calls.append(args)
        return modified_toeplitz_hash(*args)

    monkeypatch.setattr(delayedpa.pa, "modified_toeplitz_hash", counting_hash)
    DelayedPaSession.from_json(json.dumps(doc))
    assert len(calls) == 1  # the counter sees the one hash call of a good document
    doc["selector_seed"] = -1
    with pytest.raises(ValueError, match=r"^selector_seed must be in \[0, 2\*\*64\), got -1$"):
        DelayedPaSession.from_json(json.dumps(doc))
    assert len(calls) == 1


@pytest.mark.parametrize("selector_seed", [0, 2**64 - 1])
def test_session_takes_every_selector_seed_create_can_draw(selector_seed):
    rng = random.Random(332)
    f = AdditivePaFunction.draw(3, 8, rng)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    doc = json.loads(s.to_json())
    doc["selector_seed"] = selector_seed
    assert DelayedPaSession.from_json(json.dumps(doc)).selector_seed == selector_seed


def _session_doc(seed):
    rng = random.Random(seed)
    f = AdditivePaFunction.draw(3, 8, rng)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    return json.loads(s.to_json())


@pytest.mark.parametrize("kind", ["toeplitzz", "Matrix", ""])
def test_session_from_json_rejects_unknown_pa_kind(kind):
    doc = _session_doc(323)
    doc["pa"]["kind"] = kind
    with pytest.raises(ValueError, match="unknown pa kind"):
        DelayedPaSession.from_json(json.dumps(doc))


@pytest.mark.parametrize("field, value", [("n", 9), ("n", 7), ("n_pa", 2), ("n_pa", 4)])
def test_session_from_json_rejects_pa_shape_mismatch(field, value):
    doc = _session_doc(324)
    doc["pa"][field] = value
    with pytest.raises(ValueError, match="does not match session"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_from_json_checks_the_hash_shape_before_its_seed():
    # the seed's length n - 1 means nothing until 1 <= n_pa < n holds
    doc = _session_doc(324)
    doc["n"] = doc["n_pa"] = doc["pa"]["n"] = doc["pa"]["n_pa"] = 0
    with pytest.raises(ValueError, match="at least one output bit"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_from_json_rejects_empty_object():
    with pytest.raises(ValueError, match="no 'n'"):
        DelayedPaSession.from_json("{}")


def test_session_from_json_rejects_string_width():
    doc = _session_doc(325)
    doc["n"] = "8"
    with pytest.raises(ValueError, match="'n' must be int"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_from_json_rejects_list():
    with pytest.raises(ValueError, match="JSON object"):
        DelayedPaSession.from_json(json.dumps([_session_doc(326)]))


def test_session_from_json_rejects_null():
    with pytest.raises(ValueError, match="JSON object"):
        DelayedPaSession.from_json("null")


@pytest.mark.parametrize(
    "path, value",
    [
        (("pa",), None),
        (("pa", "kind"), 1),
        (("pa", "seed"), 7),
        (("pa", "n_pa"), True),
        (("a",), None),
        (("selector_seed",), "5"),
        (("m_prime",), ["0"]),
    ],
    ids=["pa-null", "kind-int", "seed-int", "pa-n_pa-bool", "a-null", "selector-seed-string",
         "m-prime-list"],
)
def test_session_from_json_rejects_mistyped_fields(path, value):
    doc = _session_doc(327)
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    with pytest.raises(ValueError, match="must be"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_from_json_rejects_matrix_kind():
    # a hash given by its rows is not a session hash: only seeds load
    doc = _session_doc(328)
    doc["pa"] = {"kind": "matrix", "n_pa": 3, "n": 8, "rows": ["d3", "a5", "0f"]}
    with pytest.raises(ValueError, match=r"^unknown pa kind 'matrix'; supported: 'modified-toeplitz'$"):
        DelayedPaSession.from_json(json.dumps(doc))


# what the README example printed while sessions hashed with the plain
# Toeplitz family, whose seed took n + n_pa - 1 bits
PLAIN_TOEPLITZ_SESSION = (
    '{"a": "962", "c": "b93", "m": "2f1", "m_prime": "f", "n": 12, "n_pa": 4, "pa": '
    '{"kind": "toeplitz", "n": 12, "n_pa": 4, "seed": "3792"}, "selector_seed": 12007621696699967246}'
)


def test_session_from_json_refuses_a_plain_toeplitz_document():
    with pytest.raises(ValueError, match=r"^unknown pa kind 'toeplitz'; supported: 'modified-toeplitz'$"):
        DelayedPaSession.from_json(PLAIN_TOEPLITZ_SESSION)


@pytest.mark.parametrize("pattern", ["0", "10"], ids=["zero", "period-2"])
def test_dependent_toeplitz_seed_is_rejected(pattern):
    # a plain Toeplitz document is refused by its kind, before its seed is
    # read, so also one whose seed has dependent rows in that family
    seed = BitVector.from01((pattern * 10)[:10])
    assert row_reduce(toeplitz_from_seed(seed, 3, 8)).rank < 3
    doc = _session_doc(329)
    doc["pa"].update(kind="toeplitz", seed=seed.to_hex())
    with pytest.raises(ValueError, match=r"^unknown pa kind 'toeplitz'; supported: 'modified-toeplitz'$"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_row_reduces_once(monkeypatch):
    # no elimination and no rank check is left in the package: a hash is
    # its seed alone, and each expansion, like each hash, is one hash call
    gone = ("row_reduce", "preimage_sampler", "toeplitz_rows_independent", "sample_toeplitz_preimage")
    assert not any(hasattr(delayedpa.gf2, name) for name in gone)
    hashes = []

    def counting_hash(seed, n_pa, keys):
        hashes.append(len(keys))
        return modified_toeplitz_hash(seed, n_pa, keys)

    monkeypatch.setattr(delayedpa.pa, "modified_toeplitz_hash", counting_hash)
    rng = random.Random(330)
    n, n_pa = 64, 40
    f = AdditivePaFunction.draw(n_pa, n, rng)
    m_prime = BitVector.random(n_pa, rng)
    m = expand_message(f, m_prime, rng)
    assert hashes == [1]
    assert pa_apply(f, m) == m_prime
    s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
    assert DelayedPaSession.from_json(s.to_json()) == s
    # create expands, then hashes m, a, c and c XOR a in one call; from_json
    # makes that one call again
    assert hashes == [1, 1, 1, 4, 4]
    # the key and both recoveries were kept from that call
    assert s.recover_via_key() == s.recover_via_rawkey() == s.m_prime
    assert s.key.length == n_pa
    assert hashes == [1, 1, 1, 4, 4]


def test_readme_library_example_runs():
    # the python block under README's "## Library example", asserts included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "assert session.recover_via_key() == m_prime" in block
    assert "assert session.recover_via_rawkey() == m_prime" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue()
    session = DelayedPaSession.from_json(printed)
    assert session.to_json() + "\n" == printed
    assert json.loads(printed)["pa"]["kind"] == "modified-toeplitz"
    assert session.recover_via_rawkey() == session.m_prime
