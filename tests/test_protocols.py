import itertools
import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from delayedpa.gf2 import BitVector
from delayedpa.ledger import (
    KeyLedger,
    binary_entropy,
    estimate_errors,
    key_length,
    two_way_rate_single_line,
)
from delayedpa.protocols import (
    Bb84Config,
    ChannelModel,
    DqkdConfig,
    EveModel,
    IntegratedConfig,
    MODES,
    ROLES,
    RelayConfig,
    decode_key_bit,
    run_bb84,
    run_dqkd,
    run_integrated,
    run_relay,
    _flips,
)
from delayedpa.quantum import basis_ket, pauli
from delayedpa.stream import BitStream, _popcount, _unpack
from oracles import matvec, op_for_bit, single_signal_roundtrip, toeplitz_from_seed

mp.dps = 40


def oracle_entropy(e) -> float:
    e = mpf(e)
    if e == 0 or e == 1:
        return 0.0
    return float(-e * mp.log(e, 2) - (1 - e) * mp.log(1 - e, 2))


# --------------------------------------------------------------- encoding

TABLE_CASES = [
    ("x", "I", 0), ("x", "X", 0), ("x", "Z", 1), ("x", "Y", 1),
    ("z", "I", 0), ("z", "Z", 0), ("z", "X", 1), ("z", "Y", 1),
]


@pytest.mark.parametrize("basis,op,bit", TABLE_CASES)
def test_decode_key_bit(basis, op, bit):
    assert decode_key_bit(basis, op) == bit


@pytest.mark.parametrize("basis,op,bit", TABLE_CASES)
def test_single_signal_roundtrip_matches_table(basis, op, bit):
    for bob_bit in (0, 1):
        assert single_signal_roundtrip(basis, bob_bit, op) == bit


def test_op_for_bit_consistent_and_two_valued():
    rng = random.Random(0)
    for basis in ("x", "z"):
        for bit in (0, 1):
            seen = {op_for_bit(basis, bit, rng) for _ in range(64)}
            assert len(seen) == 2
            for op in seen:
                assert decode_key_bit(basis, op) == bit


# --------------------------------------------------------------- frame oracle

# every case below is one signal of a plane, 64 cases to the word; bases
# and Paulis are coded as in delayedpa.protocols (basis "zx"[b], Pauli
# "IXZY"[op], op = x | z << 1)
_FRAME_CASES = list(itertools.product("zx", (0, 1), "IXZY", "IXZY"))


def _codes(values, alphabet=None) -> np.ndarray:
    return np.array([alphabet.index(v) if alphabet else v for v in values], np.uint8)


def _plane(column) -> np.ndarray:
    """A 0/1 column packed into a plane, signal i at bit i % 64 of word i // 64."""
    packed = np.packbits(np.asarray(column, bool), bitorder="little")
    words = np.zeros(-(-len(column) // 64) * 8, np.uint8)
    words[: len(packed)] = packed
    return words.view("<u8").astype(np.uint64)


def _plane_flips(op, basis) -> np.ndarray:
    """The plane rule of delayedpa.protocols, run on columns of Pauli codes and bases."""
    return _unpack(_flips(_plane(op & 1), _plane(op >> 1), _plane(basis)), len(basis))


class _ScriptedStream:
    """Answers the k-th fair plane with ``answers[k]`` in every signal."""

    def __init__(self, n, *answers):
        self.all = BitStream(0, n).all
        self.answers, self.draws = answers, 0

    def fair(self):
        value = self.answers[self.draws]
        self.draws += 1
        return self.all if value else np.zeros_like(self.all)


def _frame_measurements(basis, bit, mb):
    """P(0) of frames measured in basis code ``mb`` by an intercept-resend
    tap, exact over both coin values, and the frames it resends, as columns."""
    tap = EveModel.intercept_resend("forward").tap
    n, resent = len(basis), []
    for coin in (0, 1):
        stream = _ScriptedStream(n, mb, coin)
        new_basis, new_bit = tap(_plane(basis), _plane(bit), "forward", stream)
        resent.append((_unpack(new_basis, n), _unpack(new_bit, n)))
        assert stream.draws == 2  # one basis plane, one coin plane per measurement
    return sum((b == 0).astype(float) for _, b in resent) / 2, resent


def _dense(basis, bit):
    return basis_ket(int(bit), "zx"[basis])


def _same_ray(u, v) -> bool:
    return abs(abs(np.vdot(u, v)) - 1.0) < 1e-12


def test_frame_matches_dense_paulis_and_measurements():
    # every frame state, encoding op, channel Pauli and measurement basis,
    # run through the plane kernels, against the dense amplitudes of
    # delayedpa.quantum
    basis = _codes((c[0] for c in _FRAME_CASES), "zx")
    bit = _codes(c[1] for c in _FRAME_CASES)
    op = _codes((c[2] for c in _FRAME_CASES), "IXZY")
    chan = _codes((c[3] for c in _FRAME_CASES), "IXZY")
    frame_bit = bit ^ _plane_flips(op, basis) ^ _plane_flips(chan, basis)
    states = [
        pauli(c) @ pauli(o) @ basis_ket(b_, bs) for bs, b_, o, c in _FRAME_CASES
    ]
    for i, psi in enumerate(states):
        assert _same_ray(_dense(basis[i], frame_bit[i]), psi)
    for mb in (0, 1):
        p0, resent = _frame_measurements(basis, frame_bit, mb)
        for i, psi in enumerate(states):
            assert abs(p0[i] - abs(np.vdot(basis_ket(0, "zx"[mb]), psi)) ** 2) < 1e-12
            new_frames = {(int(nb[i]), int(nbit[i])) for nb, nbit in resent}
            for nb, nbit in new_frames:
                # Eve resends the post-measurement eigenstate of a possible
                # outcome; off-basis it is a fair coin in the original basis
                assert nb == mb
                assert abs(np.vdot(_dense(nb, nbit), psi)) ** 2 > 1e-12
                back, _ = _frame_measurements(_codes([nb]), _codes([nbit]), basis[i])
                expect = abs(np.vdot(_dense(basis[i], 0), _dense(nb, nbit))) ** 2
                assert abs(back[0] - expect) < 1e-12
            assert len(new_frames) == (1 if mb == basis[i] else 2)


# --------------------------------------------------------------- entropy

def test_entropy_endpoints_and_max():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_against_oracle():
    for e in (0.01, 0.05, 0.11, 0.25, 0.3, 0.49):
        assert abs(binary_entropy(e) - oracle_entropy(e)) < 1e-12


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# --------------------------------------------------------------- ledger

def test_key_length_noiseless():
    ledger = key_length(1000, 0.0, 0.0)
    assert ledger.n_pa == 1000
    assert ledger.n_ec == 0
    assert ledger.n_key == 1000
    assert not ledger.abort


def test_key_length_max_entropy_aborts():
    ledger = key_length(1000, 0.0, 0.5)
    assert ledger.n_pa == 0
    assert ledger.abort


def test_key_length_desk_values():
    # floor/ceil arithmetic frozen from the high-precision entropy oracle
    ledger = key_length(1000, 0.05, 0.05)
    assert (ledger.n_pa, ledger.n_ec, ledger.n_key) == (713, 287, 426)
    ledger = key_length(10**4, 0.02, 0.03)
    assert ledger.n_key == 6641
    ledger = key_length(1000, 0.25, 0.25)
    assert ledger.abort  # 1 - 2 h(0.25) < 0


def test_key_length_grid_against_oracle():
    rates = [round(0.01 * i, 2) for i in range(12)]
    n = 10**4
    for e_rt in rates:
        for e_p in rates:
            ledger = key_length(n, e_rt, e_p)
            n_pa = math.floor(n * (1 - oracle_entropy(e_p)))
            n_ec = math.ceil(n * oracle_entropy(e_rt))
            assert abs(ledger.n_key - (n_pa - n_ec)) <= 1


def test_key_length_rate_out_of_range():
    with pytest.raises(ValueError):
        key_length(100, 0.6, 0.1)


def test_single_line_rate_special_case():
    # oracle value at e_b = e_p = 0.05: 1 - h(0.1) - h(0.05)
    expect = float(1 - mpf(oracle_entropy(0.1)) - mpf(oracle_entropy(0.05)))
    got = two_way_rate_single_line(0.05, 0.05)
    assert abs(got - expect) < 1e-12
    assert abs(got - 0.2446) < 5e-4
    assert two_way_rate_single_line(0.25, 0.25) < 0


# --------------------------------------------------------------- channels

def test_channel_parse_roundtrip():
    for spec, kind, param in (
        ("noiseless", "noiseless", 0.0), ("bsc:0.05", "bsc", 0.05), ("depolarizing:0.1", "depolarizing", 0.1)
    ):
        channel = ChannelModel.parse(spec)
        assert (channel.kind, channel.param) == (kind, param)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel("bsc", 1.5)
    with pytest.raises(ValueError):
        ChannelModel.parse("foo:0.1")


def _channel_flips(ch, basis, n, seed) -> int:
    """How many of n signals in ``basis`` the channel's sampled Paulis flip."""
    stream = BitStream(seed, n)
    b = stream.all if basis == "x" else np.zeros_like(stream.all)
    return _popcount(_flips(*ch.paulis(b, stream), b))


def test_bsc_flips_at_rate_in_both_bases():
    ch = ChannelModel.bsc(0.2)
    for seed, basis in enumerate(("x", "z")):
        flips = _channel_flips(ch, basis, 4000, seed)
        assert abs(flips / 4000 - 0.2) < 3 * math.sqrt(0.2 * 0.8 / 4000)


def test_depolarizing_bit_flip_rate_is_half_p():
    ch = ChannelModel.depolarizing(0.1)
    for seed, basis in enumerate(("x", "z"), start=2):
        flips = _channel_flips(ch, basis, 8000, seed)
        assert abs(flips / 8000 - 0.05) < 3 * math.sqrt(0.05 * 0.95 / 8000)


def test_eve_parse():
    e = EveModel.parse("intercept-resend:forward,backward")
    assert e.lines == ("forward", "backward")
    assert EveModel.parse("none").kind == "none"
    with pytest.raises(ValueError):
        EveModel.parse("clone")


# --------------------------------------------------------------- estimates

def _estimate(triples):
    """estimate_errors over the counts of (basis, alice_bit, bob_bit) triples."""
    counts = []
    for basis in "xz":
        pairs = [(a, c) for b, a, c in triples if b == basis]
        counts += [len(pairs), sum(a != c for a, c in pairs)]
    return estimate_errors(*counts)


def test_estimate_errors_zero():
    est = _estimate([("x", 0, 0), ("z", 1, 1)])
    assert est.e_x == est.e_z == est.e_b == est.e_p == 0.0


def test_estimate_errors_footnote_average():
    records = [("x", 0, 0)] * 9 + [("x", 0, 1)] * 1 + [("z", 0, 0)] * 7 + [("z", 0, 1)] * 3
    est = _estimate(records)
    assert abs(est.e_x - 0.1) < 1e-12
    assert abs(est.e_z - 0.3) < 1e-12
    assert abs(est.e_b - 0.2) < 1e-12
    assert abs(est.e_p - 0.2) < 1e-12


def test_estimate_errors_empty():
    with pytest.raises(ValueError):
        _estimate([])


# --------------------------------------------------------------- bb84

def test_bb84_noiseless():
    t = run_bb84(Bb84Config(n=2000, n_test=400, seed=3))
    assert not t.abort
    assert t.estimate.e_b == 0.0
    assert t.estimate.e_p == 0.0
    assert t.ledger.n_key == 2000
    assert t.alice_key == t.bob_key
    assert len(t.alice_key) == t.ledger.n_pa == 2000


def test_bb84_depolarizing_rates_and_ledger():
    t = run_bb84(Bb84Config(n=6000, n_test=2000, channel=ChannelModel.depolarizing(0.1), seed=4))
    est = t.estimate
    assert abs(est.e_x - 0.05) < 3 * est.se_x + 1e-9
    assert abs(est.e_z - 0.05) < 3 * est.se_z + 1e-9
    ledger = t.ledger
    assert ledger.n_pa == math.floor(6000 * (1 - binary_entropy(est.e_p)))
    assert ledger.n_ec == math.ceil(6000 * binary_entropy(est.e_b))
    assert len(t.alice_key) == ledger.n_pa


def test_bb84_intercept_resend_aborts():
    t = run_bb84(
        Bb84Config(n=6000, n_test=2000, eve=EveModel.intercept_resend("forward"), seed=5)
    )
    est = t.estimate
    assert abs(est.e_b - 0.25) < 3 * est.se_b
    assert abs(est.e_p - 0.25) < 3 * est.se_p
    assert t.abort
    assert t.abort_reason == "non-positive key length"


def test_bb84_memoryless_sift_half():
    t = run_bb84(Bb84Config(n=10000, n_test=500, seed=6, quantum_memory=False))
    frac = t.sift_retained / t.sift_sent
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / t.sift_sent)
    assert not t.abort
    assert t.alice_key == t.bob_key


def test_bb84_quantum_memory_keeps_all():
    t = run_bb84(Bb84Config(n=1000, n_test=200, seed=7))
    assert t.sift_retained == t.sift_sent


def test_bb84_determinism():
    a = run_bb84(Bb84Config(n=500, n_test=100, channel=ChannelModel.bsc(0.03), seed=8))
    b = run_bb84(Bb84Config(n=500, n_test=100, channel=ChannelModel.bsc(0.03), seed=8))
    assert a == b
    c = run_bb84(Bb84Config(n=500, n_test=100, channel=ChannelModel.bsc(0.03), seed=9))
    assert c != a


def _modified_toeplitz_oracle(seed, n_pa, x):
    """x[:n_pa] XOR T x[n_pa:] with the dense T = toeplitz_from_seed(seed, n_pa, n - n_pa)."""
    t = toeplitz_from_seed(seed, n_pa, x.length - n_pa)
    return x.cut(0, n_pa) ^ matvec(t, x.cut(n_pa, x.length))


def test_bb84_fixed_pa_seed_roundtrip():
    # a noisy channel gives n_pa < n, so the hash is not the identity
    seed_vec = BitVector.random(999, random.Random(10))
    t = run_bb84(Bb84Config(n=1000, n_test=200, channel=ChannelModel.bsc(0.02), seed=11, pa_seed=seed_vec))
    assert t.pa_seed == seed_vec
    assert 0 < t.ledger.n_pa < t.ledger.n == 1000
    assert t.alice_key == _modified_toeplitz_oracle(seed_vec, t.ledger.n_pa, t.raw_key_alice)
    with pytest.raises(ValueError, match="n - 1 = 999"):
        run_bb84(Bb84Config(n=1000, n_test=200, seed=11, pa_seed=BitVector.random(1999, random.Random(10))))


# --------------------------------------------------------------- dqkd

def test_dqkd_noiseless():
    t = run_dqkd(DqkdConfig(n=1500, n_test=300, seed=12))
    assert not t.abort
    assert t.estimate.e_roundtrip == 0.0
    assert t.estimate.e_p == 0.0
    assert t.ledger.n_key == 1500
    assert t.alice_key == t.bob_key
    assert t.sift_retained == t.sift_sent  # no code bit discarded


def test_dqkd_bsc_roundtrip_composition():
    e = 0.05
    t = run_dqkd(
        DqkdConfig(
            n=4000, n_test=2000,
            forward=ChannelModel.bsc(e), backward=ChannelModel.bsc(e),
            seed=13,
        )
    )
    expect = 2 * e * (1 - e)
    est = t.estimate
    assert abs(est.e_roundtrip - expect) < 3 * est.se_roundtrip
    assert expect <= 2 * e


def test_dqkd_error_pattern_is_xor_of_lines():
    # with explicit per-line flips, every key/test bit disagreement is
    # exactly the XOR of the two line flips
    t = run_dqkd(
        DqkdConfig(
            n=800, n_test=200,
            forward=ChannelModel.bsc(0.1), backward=ChannelModel.bsc(0.07),
            seed=14,
        )
    )
    s = t.signals
    encode = s.column("mode") == MODES.index("encode")
    assert encode.any()
    alice_bit = _plane_flips(s.column("op"), s.column("basis"))
    bob_bit = s.column("bob_outcome") ^ s.column("bob_bit")
    flips = s.column("forward_flip") ^ s.column("backward_flip")
    assert np.array_equal((alice_bit != bob_bit)[encode], flips[encode] == 1)


def test_dqkd_independent_line_composition_rate():
    e1, e2 = 0.04, 0.08
    t = run_dqkd(
        DqkdConfig(
            n=4000, n_test=2000,
            forward=ChannelModel.bsc(e1), backward=ChannelModel.bsc(e2),
            seed=15,
        )
    )
    expect = e1 * (1 - e2) + e2 * (1 - e1)
    est = t.estimate
    assert abs(est.e_roundtrip - expect) < 3 * est.se_roundtrip
    assert expect <= e1 + e2


def test_dqkd_ledger_matches_key_length_formula():
    t = run_dqkd(
        DqkdConfig(
            n=1000, n_test=500,
            forward=ChannelModel.bsc(0.05), backward=ChannelModel.bsc(0.05),
            seed=16,
        )
    )
    ref = key_length(1000, t.estimate.e_roundtrip, t.estimate.e_p)
    assert t.ledger.n_pa == ref.n_pa
    assert t.ledger.n_ec == ref.n_ec
    assert t.ledger.n_key == ref.n_key


def test_dqkd_insufficient_check_bits_aborts():
    t = run_dqkd(DqkdConfig(n=20, n_test=2, check_fraction=0.1, seed=17))
    assert t.abort
    assert "check bits" in t.abort_reason


def test_dqkd_determinism():
    cfg = DqkdConfig(n=400, n_test=100, forward=ChannelModel.bsc(0.02), seed=18)
    assert run_dqkd(cfg) == run_dqkd(cfg)


def test_record_counts_match_configured_sizes():
    role = run_bb84(Bb84Config(n=700, n_test=150, seed=30)).signals.column("role")
    assert len(role) == 700 + 150
    assert np.count_nonzero(role == ROLES.index("key")) == 700
    assert np.count_nonzero(role == ROLES.index("test")) == 150
    s2 = run_dqkd(DqkdConfig(n=600, n_test=140, seed=31)).signals
    role, mode = s2.column("role"), s2.column("mode")
    encode = role[mode == MODES.index("encode")]
    assert len(encode) == 600 + 140
    assert np.count_nonzero(encode == ROLES.index("key")) == 600
    assert np.count_nonzero(encode == ROLES.index("test")) == 140
    assert np.all(role[mode == MODES.index("check")] == ROLES.index("check"))


# --------------------------------------------------------------- integrated

def test_integrated_variants_noiseless_equivalence():
    keys = {}
    for variant in ("2", "2b", "2c", "2d"):
        t = run_integrated(IntegratedConfig(variant=variant, n=1200, n_test=300, seed=19))
        assert not t.abort
        assert len(t.alice_key) == t.ledger.n_pa == 1200
        assert t.alice_key == t.bob_key == t.m_prime
        if variant == "2b":
            assert t.recovered_via_key == t.m_prime
            assert t.recovered_via_rawkey == t.m_prime
        if variant == "2c":
            assert t.recovered_via_key == t.m_prime
            assert t.recovered_via_rawkey == t.m_prime
        if variant == "2d":
            assert t.recovered_via_rawkey == t.m_prime
        keys[variant] = t.alice_key
    lengths = {len(k) for k in keys.values()}
    assert lengths == {1200}


def test_integrated_2d_message_bit_follows_basis():
    # noisy lines give n_pa < n, so the hash is not the identity
    noisy = ChannelModel.bsc(0.01)
    t = run_integrated(
        IntegratedConfig(variant="2d", n=600, n_test=150, forward=noisy, backward=noisy, seed=20)
    )
    assert not t.abort and t.ledger.n_pa < t.ledger.n
    s = t.signals
    code = s.column("role") == ROLES.index("key")
    op, basis = s.column("op")[code], s.column("basis")[code]
    m1, m2 = op & 1, op >> 1  # the X and Z flags of X^m1 Z^m2
    decoded = np.where(basis == "zx".index("z"), m1, m2)
    # the delivered secret is the hash of exactly that selected string
    m_sel = BitVector.from_bits(decoded)
    assert _modified_toeplitz_oracle(t.pa_seed, t.ledger.n_pa, m_sel) == t.m_prime
    # all-z subset decodes by the X-flag, all-x subset by the Z-flag
    assert np.array_equal(_plane_flips(op, basis), decoded)


def test_integrated_2c_noisy_backward_settles():
    t = run_integrated(
        IntegratedConfig(variant="2c", n=1200, n_test=400, backward=ChannelModel.bsc(0.05), seed=21)
    )
    assert not t.abort
    assert t.alice_key == t.bob_key == t.m_prime
    assert t.ledger.n_ec > 0


@pytest.mark.parametrize("variant", ["2", "2b", "2c"])
def test_integrated_ledger_charges_the_forward_reconciliation(variant):
    # 2, 2b and 2c reconcile the forward raw keys before the backward phase,
    # so N_EC = ceil(N h(e_b)) + ceil(N h(message error rate))
    n = 2000
    backward = ChannelModel.bsc(0.03) if variant == "2c" else ChannelModel.noiseless()
    t = run_integrated(IntegratedConfig(
        variant=variant, n=n, n_test=600, forward=ChannelModel.bsc(0.03), backward=backward, seed=31,
    ))
    assert not t.abort and t.estimate.e_b > 0
    # with no eavesdropper a message bit arrives wrong exactly where the
    # backward channel flipped it; the classical lines of 2 and 2b flip none
    code = t.signals.column("role") == ROLES.index("key")
    msg_rate = int(t.signals.column("backward_flip")[code].sum()) / n
    assert (msg_rate > 0) == (variant == "2c")
    expect = math.ceil(n * oracle_entropy(t.estimate.e_b)) + math.ceil(n * oracle_entropy(msg_rate))
    assert t.ledger.n_ec == t.ledger.preshared_consumed == expect


def test_integrated_2d_ledger_matches_dqkd_formula():
    t = run_integrated(
        IntegratedConfig(
            variant="2d", n=1000, n_test=300,
            forward=ChannelModel.bsc(0.03), backward=ChannelModel.bsc(0.03),
            seed=22,
        )
    )
    assert not t.abort
    # reconstruct the observed message error rate from the records and check
    # the ledger is exactly the two-way floor/ceil formula at that rate
    s = t.signals
    code = s.column("role") == ROLES.index("key")
    op = s.column("op")[code]
    selected = np.where(s.column("basis")[code] == "zx".index("z"), op & 1, op >> 1)
    mism = int(np.count_nonzero(selected != (s.column("bob_outcome") ^ s.column("bob_bit"))[code]))
    obs_rate = mism / int(code.sum())
    ref = key_length(1000, min(obs_rate, 0.5), min(t.estimate.e_p, 0.5))
    assert t.ledger.n_pa == ref.n_pa
    assert t.ledger.n_ec == ref.n_ec
    assert t.ledger.n_key == ref.n_key
    assert t.ledger.h_roundtrip == ref.h_roundtrip
    assert t.ledger.preshared_consumed == t.ledger.n_ec


def test_integrated_determinism():
    cfg = IntegratedConfig(variant="2b", n=500, n_test=150, seed=23)
    assert run_integrated(cfg) == run_integrated(cfg)


def test_integrated_2d_per_signal_states_match_quantum_certificates():
    from oracles import PureState, tensor, verify_2c_2d

    t = run_integrated(IntegratedConfig(variant="2d", n=100, n_test=30, seed=24))
    rng = np.random.default_rng(25)
    s = t.signals
    code = np.flatnonzero(s.column("role") == ROLES.index("key"))[:20]
    for basis, bit in zip(s.column("received_basis")[code], s.column("received_bit")[code]):
        qubit = PureState.qubit(int(bit), "zx"[basis])
        chi_amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi = PureState(chi_amps / np.linalg.norm(chi_amps), (2,), ("Abar",))
        dz, dx = verify_2c_2d(tensor([qubit, chi]))
        assert dz <= 1e-10
        assert dx <= 1e-10


@pytest.mark.parametrize("variant", ["2", "2b", "2c", "2d"])
def test_integrated_abort_ledger_counts_the_spent_test_bits(variant):
    # a forward line this noisy leaves n_pa <= 0, so the run stops before
    # any reconciliation; its ledger still counts the test bits it spent
    t = run_integrated(
        IntegratedConfig(variant=variant, n=400, n_test=200, forward=ChannelModel.bsc(0.9), seed=3)
    )
    assert t.abort
    assert t.abort_reason == "non-positive key length"
    ledger = t.ledger
    assert ledger.n_test == 200
    assert ledger.n_pa <= 0
    assert ledger.h_ep == binary_entropy(min(t.estimate.e_p, 0.5))
    assert ledger.h_eb == binary_entropy(min(t.estimate.e_b, 0.5))
    assert ledger.n_ec == ledger.preshared_consumed == 0
    assert ledger.h_roundtrip == 0.0
    assert ledger.n_key == ledger.n_pa - ledger.n_ec
    assert ledger.abort
    assert t.alice_key is None and t.pa_seed is None


# --------------------------------------------------------------- physics at scale

# n = 1e6 code signals with n/5 tested: each gate is 3 standard errors of
# the run's own estimate, about 4e-4 on the round-trip rate

def _dqkd_at_scale(**kwargs):
    return run_dqkd(DqkdConfig(n=10**6, n_test=2 * 10**5, **kwargs))


def test_dqkd_bsc_both_lines_compose_at_scale():
    e = 0.02
    est = _dqkd_at_scale(forward=ChannelModel.bsc(e), backward=ChannelModel.bsc(e), seed=40).estimate
    assert abs(est.e_roundtrip - 2 * e * (1 - e)) <= 3 * est.se_roundtrip


def test_dqkd_depolarizing_is_half_p_per_line_at_scale():
    p = 0.1
    fwd = _dqkd_at_scale(forward=ChannelModel.depolarizing(p), seed=41).estimate
    assert abs(fwd.e_x - p / 2) <= 3 * fwd.se_x
    assert abs(fwd.e_z - p / 2) <= 3 * fwd.se_z
    assert abs(fwd.e_roundtrip - p / 2) <= 3 * fwd.se_roundtrip
    bwd = _dqkd_at_scale(backward=ChannelModel.depolarizing(p), seed=42).estimate
    assert bwd.e_x == bwd.e_z == 0.0  # the check bits never cross the backward line
    assert abs(bwd.e_roundtrip - p / 2) <= 3 * bwd.se_roundtrip


def test_dqkd_forward_intercept_resend_quarter_on_check_bits_and_aborts():
    t = _dqkd_at_scale(eve=EveModel.intercept_resend("forward"), seed=43)
    est = t.estimate
    assert abs(est.e_x - 0.25) <= 3 * est.se_x
    assert abs(est.e_z - 0.25) <= 3 * est.se_z
    assert t.abort
    assert t.abort_reason == "non-positive key length"


def test_dqkd_backward_intercept_resend_costs_error_correction_not_secrecy():
    # the backward line carries only the padded message: Eve there raises the
    # round-trip rate to 1/4 but learns nothing the check bits would price
    t = _dqkd_at_scale(eve=EveModel.intercept_resend("backward"), seed=44)
    est = t.estimate
    assert abs(est.e_roundtrip - 0.25) <= 3 * est.se_roundtrip
    assert abs(est.e_p) <= 3 * est.se_p
    assert not t.abort
    assert t.ledger.n_key > 0
    assert t.alice_key == t.bob_key


# --------------------------------------------------------------- relay

def test_relay_delayed_noiseless():
    t = run_relay(RelayConfig(n=1024, pool_size=4096, n_test=256, seed=26))
    assert not t.abort
    assert t.bob_key == t.charlie_key
    assert len(t.bob_key) == t.qkd.ledger.n_pa == 1024
    assert t.pool_consumed == 1024


def test_relay_normal_consumes_fewer_pool_bits():
    delayed = run_relay(
        RelayConfig(n=1024, pool_size=4096, n_test=256, channel=ChannelModel.bsc(0.03), seed=27, delayed=True)
    )
    normal = run_relay(
        RelayConfig(n=1024, pool_size=4096, n_test=256, channel=ChannelModel.bsc(0.03), seed=27, delayed=False)
    )
    assert normal.bob_key == normal.charlie_key
    assert normal.pool_consumed == normal.qkd.ledger.n_pa
    assert delayed.pool_consumed == 1024
    assert normal.pool_consumed < delayed.pool_consumed


def test_relay_noisy_keys_still_match_ledger():
    t = run_relay(RelayConfig(n=2000, pool_size=8000, n_test=500, channel=ChannelModel.bsc(0.03), seed=28))
    assert not t.abort
    assert t.bob_key == t.charlie_key
    assert len(t.bob_key) == t.qkd.ledger.n_pa
    assert t.pool_consumed == 2000 > t.qkd.ledger.n_pa
    assert t.qkd.ledger.pool_consumed == t.pool_consumed


def test_relay_pool_too_small():
    with pytest.raises(ValueError, match="pool exhausted"):
        RelayConfig(n=1024, pool_size=100, seed=29)


@pytest.mark.parametrize(
    "kwargs", [{"n": 0, "pool_size": 4}, {"n": -1, "pool_size": -4}, {"n": 5, "pool_size": 20, "n_test": 1}]
)
def test_relay_config_checks_n_and_n_test_before_the_pool(kwargs):
    # a negative n used to pass as a pool-size error, and n_test = 1 was
    # refused only inside run_relay, after the pool had been drawn
    with pytest.raises(ValueError, match=r"^need n >= 1 and n_test >= 2$"):
        RelayConfig(**kwargs)


def test_ledger_is_frozen_record():
    ledger = key_length(100, 0.0, 0.0)
    assert isinstance(ledger, KeyLedger)
    with pytest.raises(AttributeError):
        ledger.n_key = 5
