import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import delayedpa.gf2
import delayedpa.pa
from delayedpa.gf2 import BinaryMatrix, BitVector, matvec, row_reduce, toeplitz_from_seed
from delayedpa.pa import (
    AdditivePaFunction,
    DelayedPaSession,
    dpa_encrypt,
    dpa_recover_via_key,
    dpa_recover_via_rawkey,
    expand_imperfect_key,
    expand_message,
    pa_apply,
)
from test_gf2 import ref_row_reduce, ref_sample_preimage


def enumerate_preimage(f, m_prime):
    return {
        v for v in range(1 << f.n)
        if matvec(f.matrix, BitVector(f.n, v)) == m_prime
    }


def random_pa_function(rng, n_pa, n):
    while True:
        m = BinaryMatrix.random(n_pa, n, rng)
        if row_reduce(m).rank == n_pa:
            return AdditivePaFunction(m)


# ---------------------------------------------------------------- pa_apply

def test_pa_apply_identity_truncation():
    f = AdditivePaFunction.from_rows([[1, 0, 0], [0, 1, 0]])
    assert pa_apply(f, BitVector.from01("101")).to01() == "10"


def test_pa_apply_zero_input():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    assert pa_apply(f, BitVector.zeros(3)).to01() == "00"


def test_pa_apply_example():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    assert pa_apply(f, BitVector.from01("111")).to01() == "00"


def test_pa_apply_length_mismatch():
    f = AdditivePaFunction.from_rows([[1, 0, 1]])
    with pytest.raises(ValueError):
        pa_apply(f, BitVector.from01("10"))


def test_construction_rejects_dependent_rows():
    with pytest.raises(ValueError, match="rows not independent"):
        AdditivePaFunction.from_rows([[1, 1, 0], [1, 1, 0]])


def test_construction_rejects_empty_hash():
    # an n_pa = 0 session would write "rows": [], which from_json cannot load
    with pytest.raises(ValueError):
        AdditivePaFunction(BinaryMatrix(0, 4, ()))


def test_construction_rejects_non_compressing():
    with pytest.raises(ValueError):
        AdditivePaFunction.from_rows([[1, 0], [0, 1]])


# ---------------------------------------------------------------- expansion

def test_expand_message_uniform_over_preimage():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    m_prime = BitVector.from01("10")
    expect = enumerate_preimage(f, m_prime)
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
        f = random_pa_function(rng, n_pa, n)
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
            mp = matvec(f.matrix, BitVector(n, m_val)).bits
            direct[(mp, m_val)] += 1
        assert expanded == direct


def test_expand_imperfect_key_consistency():
    rng = random.Random(8)
    f = random_pa_function(rng, 2, 5)
    a_prime = BitVector.random(5, rng)
    m = expand_imperfect_key(f, f, a_prime, rng)
    assert pa_apply(f, m) == pa_apply(f, a_prime)


def test_expand_imperfect_key_enumeration():
    f = AdditivePaFunction.from_rows([[1, 1]])
    g = AdditivePaFunction.from_rows([[1, 0]])
    a_prime = BitVector.from01("10")  # g(a') = 1
    rng = random.Random(9)
    seen = {expand_imperfect_key(f, g, a_prime, rng).bits for _ in range(64)}
    assert seen == {0b01, 0b10}  # the two vectors of parity 1


def test_expand_imperfect_key_zero_target_gives_kernel():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    g = AdditivePaFunction.from_rows([[1, 0, 0], [0, 1, 0]])
    rng = random.Random(10)
    seen = {
        expand_imperfect_key(f, g, BitVector.zeros(3), rng).bits for _ in range(64)
    }
    assert seen == {0b000, 0b111}  # kernel of f


def test_expand_imperfect_key_dimension_mismatch():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    g = AdditivePaFunction.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        expand_imperfect_key(f, g, BitVector.from01("10"), random.Random(0))


# ---------------------------------------------------------------- xor ops

def test_dpa_encrypt_examples():
    assert dpa_encrypt(BitVector.from01("1010"), BitVector.from01("0110")).to01() == "1100"
    a = BitVector.from01("1011")
    assert dpa_encrypt(a, a).to01() == "0000"
    assert dpa_encrypt(BitVector.zeros(4), a) == a


def test_recovery_example_end_to_end():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    a = BitVector.from01("110")
    m = BitVector.from01("100")
    m_prime = pa_apply(f, m)
    assert m_prime.to01() == "10"
    c = dpa_encrypt(a, m)
    assert c.to01() == "010"
    k = pa_apply(f, a)
    assert k.to01() == "11"
    assert dpa_recover_via_key(f, c, k) == m_prime
    assert dpa_recover_via_rawkey(f, c, a) == m_prime


def test_recovery_trivial_cases():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
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
    replay = expand_message(f, s.m_prime, random.Random(s.selector_seed))
    assert replay == s.m


def test_session_json_roundtrip_toeplitz():
    rng = random.Random(321)
    seed = BitVector.random(10, rng)
    f = AdditivePaFunction.from_toeplitz_seed(seed, 3, 8)
    s = DelayedPaSession.create(f, BitVector.random(3, rng), BitVector.random(8, rng), rng)
    doc = s.to_json()
    restored = DelayedPaSession.from_json(doc)
    assert restored == s
    assert restored.recover_via_key() == s.m_prime
    assert json.loads(doc)["pa"]["kind"] == "toeplitz"


def test_session_json_roundtrip_generic_matrix():
    rng = random.Random(322)
    f = random_pa_function(rng, 2, 6)
    s = DelayedPaSession.create(f, BitVector.random(2, rng), BitVector.random(6, rng), rng)
    restored = DelayedPaSession.from_json(s.to_json())
    assert restored == s


def test_session_rejects_inconsistent_fields():
    f = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        DelayedPaSession(
            f=f,
            a=BitVector.from01("110"),
            m_prime=BitVector.from01("10"),
            m=BitVector.from01("111"),  # hashes to 00, not 10
            selector_seed=0,
            c=BitVector.from01("001"),
        )


def _session_doc(seed):
    rng = random.Random(seed)
    f = AdditivePaFunction.from_toeplitz_seed(BitVector.random(10, rng), 3, 8)
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


def test_session_from_json_rejects_matrix_rows_not_hex_strings():
    rng = random.Random(328)
    f = random_pa_function(rng, 2, 6)
    s = DelayedPaSession.create(f, BitVector.random(2, rng), BitVector.random(6, rng), rng)
    doc = json.loads(s.to_json())
    doc["pa"]["rows"] = [3, 5]
    with pytest.raises(ValueError, match="hex strings"):
        DelayedPaSession.from_json(json.dumps(doc))
    del doc["pa"]["rows"]
    with pytest.raises(ValueError, match="no 'rows'"):
        DelayedPaSession.from_json(json.dumps(doc))


@pytest.mark.parametrize("pattern", ["0", "10"], ids=["zero", "period-2"])
def test_dependent_toeplitz_seed_is_rejected(pattern):
    # the rank check reads the seed, not a reduction: a stored seed whose
    # rows are dependent must still fail to load
    seed = BitVector.from01((pattern * 10)[:10])
    assert row_reduce(toeplitz_from_seed(seed, 3, 8)).rank < 3
    with pytest.raises(ValueError, match="rows not independent"):
        AdditivePaFunction.from_toeplitz_seed(seed, 3, 8)
    doc = _session_doc(329)
    doc["pa"]["seed"] = seed.to_hex()
    with pytest.raises(ValueError, match="rows not independent"):
        DelayedPaSession.from_json(json.dumps(doc))


def test_session_row_reduces_once(monkeypatch):
    calls = []

    def counting_row_reduce(a):
        calls.append((a.rows, a.cols))
        return row_reduce(a)

    # the rank check of a matrix without a seed is made in pa, draws in gf2
    monkeypatch.setattr(delayedpa.pa, "row_reduce", counting_row_reduce)
    monkeypatch.setattr(delayedpa.gf2, "row_reduce", counting_row_reduce)
    rng = random.Random(330)
    n, n_pa = 64, 40
    f = AdditivePaFunction.from_toeplitz_seed(BitVector.random(n + n_pa - 1, rng), n_pa, n)
    assert calls == []
    # each draw reduces [A | m'], one column wider than the hash
    s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
    assert calls == [(n_pa, n + 1)]
    m_prime = BitVector.random(n_pa, rng)
    assert pa_apply(f, expand_message(f, m_prime, rng)) == m_prime
    assert DelayedPaSession.from_json(s.to_json()) == s
    assert calls == [(n_pa, n + 1)] * 2
    # a matrix without a seed is checked by its reduction at construction
    g = AdditivePaFunction.from_rows([[1, 0, 1], [0, 1, 1]])
    assert calls[2:] == [(2, 3)]
    expand_message(g, BitVector.from01("10"), rng)
    assert calls[2:] == [(2, 3), (2, 4)]


def test_session_json_unchanged_by_blocked_row_reduction(monkeypatch):
    def session_json():
        rng = random.Random(1024)
        n, n_pa = 1024, 716
        f = AdditivePaFunction.from_toeplitz_seed(BitVector.random(n + n_pa - 1, rng), n_pa, n)
        s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
        return s.to_json()

    blocked = session_json()
    monkeypatch.setattr(delayedpa.gf2, "row_reduce", ref_row_reduce)
    assert session_json() == blocked


def test_session_json_unchanged_by_preimage_sampler(monkeypatch):
    def session_json():
        rng = random.Random(1024)
        n, n_pa = 1024, 716
        f = AdditivePaFunction.from_toeplitz_seed(BitVector.random(n + n_pa - 1, rng), n_pa, n)
        s = DelayedPaSession.create(f, BitVector.random(n_pa, rng), BitVector.random(n, rng), rng)
        return s.to_json()

    sampled = session_json()
    monkeypatch.setattr(delayedpa.pa, "sample_preimage", ref_sample_preimage)
    assert session_json() == sampled
