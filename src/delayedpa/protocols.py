"""Seeded Monte-Carlo protocol runs and key-length accounting.

Each signal is carried as its Pauli frame, the pair (basis, bit) naming the
BB84 eigenstate it is in.  That is exact for this gate set: every state a
run prepares is a BB84 eigenstate, and every encoding, channel and
eavesdropper action is a Pauli or a measurement in x or z.  A Pauli maps an
eigenstate to an eigenstate of the same basis, up to global phase, flipping
the bit when it anticommutes with that basis (X and Y flip z-bits, Z and Y
flip x-bits); a measurement in the state's own basis returns its bit, and
one in the other basis is a fair coin that leaves the eigenstate of the
outcome.  This is the one-qubit case of stabilizer simulation
(Aaronson-Gottesman, quant-ph/0406196); ``delayedpa.quantum`` holds the
dense amplitudes and serves as its oracle in the tests.  Channels act as
sampled Pauli operations (an exact unraveling of the modeled noise).  All
randomness flows from the seed in each run's config; identical seeds give
bit-identical transcripts.

Error correction is settled by an ideal authenticated oracle: the receiving
side's string is overwritten with the sender's, and the ledger is charged
ceil(N * h(e)) pre-shared bits for the measured (or observed) error rate e.
This isolates the key accounting from any particular reconciliation code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from delayedpa.gf2 import BitVector, toeplitz_hash

__all__ = [
    "ChannelModel",
    "EveModel",
    "ErrorEstimate",
    "KeyLedger",
    "SignalRecord",
    "ProtocolTranscript",
    "RelayTranscript",
    "Bb84Config",
    "DqkdConfig",
    "IntegratedConfig",
    "RelayConfig",
    "binary_entropy",
    "key_length",
    "two_way_rate_single_line",
    "decode_key_bit",
    "op_for_bit",
    "single_signal_roundtrip",
    "estimate_errors",
    "run_bb84",
    "run_dqkd",
    "run_integrated",
    "run_relay",
]

# whether each Pauli flips the bit of an eigenstate of the given basis; this
# is also the key bit the operation encodes when that basis is announced
_FLIPS = {
    "x": {"I": 0, "X": 0, "Z": 1, "Y": 1},
    "z": {"I": 0, "Z": 0, "X": 1, "Y": 1},
}
_ENCODERS = {
    ("x", 0): ("I", "X"),
    ("x", 1): ("Z", "Y"),
    ("z", 0): ("I", "Z"),
    ("z", 1): ("X", "Y"),
}
# operation applied for message flags (m1, m2): X^m1 Z^m2 up to global phase
_OP_FROM_FLAGS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def _apply(op: str, state):
    basis, bit = state
    return basis, bit ^ _FLIPS[basis][op]


def _measure(state, basis: str, rng) -> int:
    # P(0) is 1 or 0 in the state's own basis and 1/2 in the other; the draw
    # is made either way, so the random stream does not depend on the states
    u = rng.random()
    own, bit = state
    return bit if own == basis else int(u >= 0.5)


def _random_basis(rng) -> str:
    return "z" if rng.getrandbits(1) else "x"


def _flip_op(basis: str) -> str:
    # the Pauli that flips eigenstates of the given basis
    return "X" if basis == "z" else "Z"


def decode_key_bit(basis: str, op: str) -> int:
    """Key bit encoded by the given operation when the basis is announced."""
    return _FLIPS[basis][op]


def op_for_bit(basis: str, bit: int, rng) -> str:
    """Uniform choice between the two operations encoding ``bit`` in ``basis``."""
    return _ENCODERS[(basis, bit)][rng.getrandbits(1)]


def single_signal_roundtrip(basis: str, bob_bit: int, op: str) -> int:
    """Noiseless one-signal round trip: prepare, encode, measure, decode."""
    return _apply(op, (basis, bob_bit))[1] ^ bob_bit


# ------------------------------------------------------------------ models

@dataclass(frozen=True)
class ChannelModel:
    """Per-signal noise: ``noiseless``, ``depolarizing(p)``, or ``bsc(e)``.

    ``depolarizing(p)`` applies I/X/Y/Z with probabilities
    (1 - 3p/4, p/4, p/4, p/4), so the induced bit and phase error rates are
    both p/2.  ``bsc(e)`` is a classical crossover on the carried bit: with
    probability e it applies the Pauli that flips eigenstates of the signal's
    own basis, giving error rate e in either basis.
    """

    kind: str = "noiseless"
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("noiseless", "depolarizing", "bsc"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.param <= 1.0:
            raise ValueError("channel parameter outside [0, 1]")

    @classmethod
    def noiseless(cls) -> "ChannelModel":
        return cls("noiseless", 0.0)

    @classmethod
    def depolarizing(cls, p: float) -> "ChannelModel":
        return cls("depolarizing", p)

    @classmethod
    def bsc(cls, e: float) -> "ChannelModel":
        return cls("bsc", e)

    @classmethod
    def parse(cls, text: str) -> "ChannelModel":
        if text == "noiseless":
            return cls.noiseless()
        kind, sep, param = text.partition(":")
        if not sep:
            raise ValueError(f"channel spec {text!r} needs kind:param")
        return cls(kind, float(param))

    def spec(self) -> str:
        if self.kind == "noiseless":
            return "noiseless"
        return f"{self.kind}:{self.param}"

    def transmit(self, state, basis: str, rng):
        """Returns (new state, whether the bit carried in ``basis`` was flipped)."""
        if self.kind == "noiseless":
            return state, False
        u = rng.random()
        if self.kind == "bsc":
            op = _flip_op(basis) if u < self.param else "I"
        elif u < 1.0 - 0.75 * self.param:
            op = "I"
        elif u < 1.0 - 0.5 * self.param:
            op = "X"
        elif u < 1.0 - 0.25 * self.param:
            op = "Y"
        else:
            op = "Z"
        if op == "I":
            return state, False
        return _apply(op, state), bool(_FLIPS[basis][op])


@dataclass(frozen=True)
class EveModel:
    """Intercept-resend eavesdropper on a subset of lines, or none.

    Intercept-resend measures each passing signal in a uniformly random
    basis and resends the eigenstate of the outcome.
    """

    kind: str = "none"
    lines: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("none", "intercept-resend"):
            raise ValueError(f"unknown eavesdropper kind {self.kind!r}")
        for line in self.lines:
            if line not in ("forward", "backward"):
                raise ValueError(f"unknown line {line!r}")

    @classmethod
    def none(cls) -> "EveModel":
        return cls("none", ())

    @classmethod
    def intercept_resend(cls, *lines: str) -> "EveModel":
        return cls("intercept-resend", tuple(lines) or ("forward",))

    @classmethod
    def parse(cls, text: str) -> "EveModel":
        if text == "none":
            return cls.none()
        kind, sep, lines = text.partition(":")
        if kind != "intercept-resend":
            raise ValueError(f"unknown eavesdropper spec {text!r}")
        if not sep:
            return cls.intercept_resend()
        return cls.intercept_resend(*lines.split(","))

    def spec(self) -> str:
        if self.kind == "none":
            return "none"
        return f"{self.kind}:{','.join(self.lines)}"

    def tap(self, state, line: str, rng):
        if self.kind == "none" or line not in self.lines:
            return state
        basis = _random_basis(rng)
        return basis, _measure(state, basis, rng)


# ------------------------------------------------------------------ ledgers

def binary_entropy(e: float) -> float:
    """h(e) = -e log2 e - (1-e) log2 (1-e), with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("rate outside [0, 1]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class KeyLedger:
    """Bit accounting for one run: N_key = N_PA - N_EC, abort when <= 0."""

    n: int
    n_test: int
    n_pa: int
    n_ec: int
    n_key: int
    preshared_consumed: int
    pool_consumed: int
    h_roundtrip: float
    h_ep: float
    h_eb: float | None
    abort: bool


def key_length(n: int, e_roundtrip: float, e_p: float) -> KeyLedger:
    """Ledger for the two-way rate N[1 - h(e_roundtrip) - h(e_p)].

    Conservative integer accounting: N_PA = floor(N(1 - h(e_p))) and
    N_EC = ceil(N h(e_roundtrip)), the latter paid in pre-shared bits.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for rate in (e_roundtrip, e_p):
        if not 0.0 <= rate <= 0.5:
            raise ValueError("rate outside [0, 0.5]")
    h_rt = binary_entropy(e_roundtrip)
    h_ep = binary_entropy(e_p)
    n_pa = math.floor(n * (1.0 - h_ep))
    n_ec = math.ceil(n * h_rt)
    n_key = n_pa - n_ec
    return KeyLedger(
        n=n,
        n_test=0,
        n_pa=n_pa,
        n_ec=n_ec,
        n_key=n_key,
        preshared_consumed=n_ec,
        pool_consumed=0,
        h_roundtrip=h_rt,
        h_ep=h_ep,
        h_eb=None,
        abort=n_key <= 0,
    )


def two_way_rate_single_line(e_b: float, e_p: float) -> float:
    """Asymptotic rate 1 - h(2 e_b) - h(e_p) when both lines share rate e_b
    and their errors may be fully correlated; the bound needs e_b <= 1/4."""
    if not 0.0 <= e_b <= 0.25:
        raise ValueError(f"single-line rate e_b outside [0, 0.25], got {e_b}")
    return 1.0 - binary_entropy(2.0 * e_b) - binary_entropy(e_p)


def _clamp_rate(e: float) -> float:
    # rates past 1/2 carry no distillable key; the clamped ledger still aborts
    return min(max(e, 0.0), 0.5)


# ------------------------------------------------------------------ records

@dataclass
class SignalRecord:
    index: int
    basis: str
    bob_bit: int
    mode: str | None = None         # dqkd: check | encode
    role: str | None = None         # check | test | key | discarded
    alice_basis: str | None = None
    alice_bit: int | None = None
    op: str | None = None
    m1: int | None = None
    m2: int | None = None
    bob_outcome: int | None = None
    forward_flip: bool | None = None
    backward_flip: bool | None = None
    alice_received: tuple | None = None  # (basis, bit) frame after the forward line


@dataclass
class ErrorEstimate:
    """Per-basis test-bit error rates and their derived averages."""

    e_x: float
    e_z: float
    e_b: float
    e_p: float
    count_x: int
    count_z: int
    se_x: float
    se_z: float
    se_b: float
    se_p: float
    e_roundtrip: float | None = None
    count_roundtrip: int = 0
    se_roundtrip: float | None = None


def _stderr(e: float, count: int) -> float:
    return math.sqrt(e * (1.0 - e) / count) if count else 0.0


def estimate_errors(test_records) -> ErrorEstimate:
    """Rates from (basis, alice_bit, bob_bit) comparisons.

    e_x and e_z come from the disjoint per-basis subsets; the averaged bit
    and phase rates are both (e_x + e_z) / 2 (phase errors of one basis show
    up as bit errors of the other).
    """
    test_records = list(test_records)
    if not test_records:
        raise ValueError("empty test set")
    counts = {"x": 0, "z": 0}
    errors = {"x": 0, "z": 0}
    for basis, alice_bit, bob_bit in test_records:
        counts[basis] += 1
        if alice_bit != bob_bit:
            errors[basis] += 1
    for basis in ("x", "z"):
        if counts[basis] == 0:
            raise ValueError(f"no test bits in basis {basis}")
    e_x = errors["x"] / counts["x"]
    e_z = errors["z"] / counts["z"]
    se_x = _stderr(e_x, counts["x"])
    se_z = _stderr(e_z, counts["z"])
    avg = (e_x + e_z) / 2.0
    se_avg = 0.5 * math.sqrt(se_x ** 2 + se_z ** 2)
    return ErrorEstimate(
        e_x=e_x, e_z=e_z, e_b=avg, e_p=avg,
        count_x=counts["x"], count_z=counts["z"],
        se_x=se_x, se_z=se_z, se_b=se_avg, se_p=se_avg,
    )


@dataclass
class ProtocolTranscript:
    protocol: str
    seed: int
    records: list[SignalRecord] = field(default_factory=list)
    estimate: ErrorEstimate | None = None
    ledger: KeyLedger | None = None
    abort: bool = False
    abort_reason: str | None = None
    pa_seed: BitVector | None = None
    raw_key_alice: BitVector | None = None
    raw_key_bob: BitVector | None = None
    alice_key: BitVector | None = None
    bob_key: BitVector | None = None
    m_prime: BitVector | None = None
    recovered_via_key: BitVector | None = None
    recovered_via_rawkey: BitVector | None = None
    sift_sent: int = 0
    sift_retained: int = 0


@dataclass
class RelayTranscript:
    scheme: str  # delayed | normal
    seed: int  # the relay run's own seed; the inner bb84 run draws its seed from it
    qkd: ProtocolTranscript
    pool_size: int
    pool_consumed: int = 0
    bob_key: BitVector | None = None
    charlie_key: BitVector | None = None
    abort: bool = False
    abort_reason: str | None = None


# ------------------------------------------------------------------ configs

@dataclass(frozen=True)
class Bb84Config:
    """One-way run on the forward line.

    ``quantum_memory=True`` is the store-then-measure variant where the
    receiver measures every qubit in the announced basis, so no code bit is
    lost to sifting; ``False`` is the original flavor where she measures
    immediately in her own random basis and mismatched bases are discarded.
    """

    n: int
    n_test: int = 256
    channel: ChannelModel = ChannelModel.noiseless()
    eve: EveModel = EveModel.none()
    seed: int = 0
    pa_seed: BitVector | None = None
    quantum_memory: bool = True

    def __post_init__(self) -> None:
        if self.n < 1 or self.n_test < 2:
            raise ValueError("need n >= 1 and n_test >= 2")


@dataclass(frozen=True)
class DqkdConfig:
    """Two-way deterministic run: every code bit survives reconciliation."""

    n: int
    n_test: int = 256
    check_fraction: float = 0.5
    forward: ChannelModel = ChannelModel.noiseless()
    backward: ChannelModel = ChannelModel.noiseless()
    eve: EveModel = EveModel.none()
    seed: int = 0
    pa_seed: BitVector | None = None
    min_check_per_basis: int = 8

    def __post_init__(self) -> None:
        if self.n < 1 or self.n_test < 1:
            raise ValueError("need n >= 1 and n_test >= 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must be in (0, 1)")


@dataclass(frozen=True)
class IntegratedConfig:
    """Forward key distillation plus one of the backward variants.

    variant "2": the hashed message f(m) is one-time padded with the hashed
    key on a classical line.  "2b": the raw message m is padded with the raw
    key; hashing is delayed to the receiver.  "2c": the same padded bits are
    carried as basis eigenstates on a quantum line and measured.  "2d": no
    measurement happens on the sender side at all; two message strings
    control Pauli flips and the announced basis selects which one counts.
    The backward ChannelModel applies to the quantum variants (2c, 2d); the
    classical lines of 2 and 2b are noiseless.
    """

    variant: str
    n: int
    n_test: int = 256
    forward: ChannelModel = ChannelModel.noiseless()
    backward: ChannelModel = ChannelModel.noiseless()
    eve: EveModel = EveModel.none()
    seed: int = 0
    pa_seed: BitVector | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("2", "2b", "2c", "2d"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1 or self.n_test < 2:
            raise ValueError("need n >= 1 and n_test >= 2")


@dataclass(frozen=True)
class RelayConfig:
    """Key sharing through an intermediate node holding a pre-shared pool."""

    n: int
    pool_size: int
    n_test: int = 256
    channel: ChannelModel = ChannelModel.noiseless()
    seed: int = 0
    delayed: bool = True
    pa_seed: BitVector | None = None

    def __post_init__(self) -> None:
        if self.pool_size < self.n:
            raise ValueError("pool exhausted: pool_size must be >= n")


# ------------------------------------------------------------------ runs

def _draw_pa_seed(n_pa: int, n: int, pa_seed: BitVector | None, rng) -> BitVector:
    if pa_seed is None:
        return BitVector.random(n + n_pa - 1, rng)
    if pa_seed.length != n + n_pa - 1:
        raise ValueError(
            f"pa_seed length {pa_seed.length} does not match required {n + n_pa - 1}"
        )
    return pa_seed


def _forward_signal(index: int, channel: ChannelModel, eve: EveModel, rng) -> SignalRecord:
    basis = _random_basis(rng)
    bit = rng.getrandbits(1)
    state, flipped = channel.transmit((basis, bit), basis, rng)
    return SignalRecord(
        index=index, basis=basis, bob_bit=bit,
        forward_flip=flipped, alice_received=eve.tap(state, "forward", rng),
    )


def _forward_signals(n_sent: int, channel: ChannelModel, eve: EveModel, rng) -> list[SignalRecord]:
    return [_forward_signal(i, channel, eve, rng) for i in range(n_sent)]


def _backward_leg(rec: SignalRecord, state, channel: ChannelModel, eve: EveModel, rng) -> None:
    # the returned signal crosses the backward line and is measured in its basis
    state, rec.backward_flip = channel.transmit(state, rec.basis, rng)
    rec.bob_outcome = _measure(eve.tap(state, "backward", rng), rec.basis, rng)


def run_bb84(cfg: Bb84Config) -> ProtocolTranscript:
    """Forward-line key distillation with test-bit estimation and hashing.

    Steps: the sender transmits n + n_test qubits in random bases, the
    receiver measures (in the announced basis with quantum memory, in her
    own random basis otherwise), a random test subset fixes e_x/e_z, the
    ledger prices hashing and ideal error correction, and both ends share
    the hashed key.
    """
    rng = random.Random(cfg.seed)
    t = ProtocolTranscript(protocol="bb84", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    records = _forward_signals(n_sent, cfg.channel, cfg.eve, rng)
    t.records = records
    t.sift_sent = n_sent

    for rec in records:
        rec.alice_basis = rec.basis if cfg.quantum_memory else _random_basis(rng)
        rec.alice_bit = _measure(rec.alice_received, rec.alice_basis, rng)
        if rec.alice_basis != rec.basis:
            rec.role = "discarded"
    kept = [rec.index for rec in records if rec.alice_basis == rec.basis]
    t.sift_retained = len(kept)

    if len(kept) <= cfg.n_test:
        t.abort, t.abort_reason = True, "insufficient sifted bits"
        return t
    test_positions = set(rng.sample(kept, cfg.n_test))
    key_positions = [i for i in kept if i not in test_positions]
    for i in test_positions:
        records[i].role = "test"
    for i in key_positions:
        records[i].role = "key"

    triples = [(records[i].basis, records[i].alice_bit, records[i].bob_bit) for i in sorted(test_positions)]
    if not any(b == "x" for b, _, _ in triples) or not any(b == "z" for b, _, _ in triples):
        t.abort, t.abort_reason = True, "insufficient test bits in one basis"
        return t
    est = estimate_errors(triples)
    t.estimate = est

    n_key = len(key_positions)
    ledger = key_length(n_key, _clamp_rate(est.e_b), _clamp_rate(est.e_p))
    ledger = replace(ledger, n_test=cfg.n_test, h_eb=ledger.h_roundtrip)
    t.ledger = ledger
    if ledger.abort:
        t.abort, t.abort_reason = True, "non-positive key length"
        return t

    a = BitVector.from_bits(records[i].alice_bit for i in key_positions)
    b = BitVector.from_bits(records[i].bob_bit for i in key_positions)
    t.raw_key_alice, t.raw_key_bob = a, b
    t.pa_seed = _draw_pa_seed(ledger.n_pa, n_key, cfg.pa_seed, rng)
    k = toeplitz_hash(t.pa_seed, ledger.n_pa, a)
    # ideal EC: the receiver's raw key becomes a (cost already in the ledger),
    # after which both sides hash to the same k
    t.alice_key = t.bob_key = k
    return t


def run_dqkd(cfg: DqkdConfig) -> ProtocolTranscript:
    """Two-way deterministic run.

    Steps: qubits go out in random bases; the encoder either measures in a
    random basis (check mode) or applies a uniform I/X/Y/Z and returns the
    qubit (encode mode); the sender measures returns in his original basis;
    consistent-basis check bits estimate the forward line; announced bases
    reconcile key bits with no code bit discarded; a tested subset fixes the
    round-trip rate; hashing and ideal EC settle the ledger.
    """
    rng = random.Random(cfg.seed)
    t = ProtocolTranscript(protocol="dqkd", seed=cfg.seed)
    n_code = cfg.n + cfg.n_test
    cf = cfg.check_fraction
    n_check = math.ceil(n_code * cf / (1.0 - cf))
    total = n_code + n_check
    check_positions = set(rng.sample(range(total), n_check))

    records = []
    for i in range(total):
        rec = _forward_signal(i, cfg.forward, cfg.eve, rng)
        if i in check_positions:
            rec.mode, rec.role = "check", "check"
            rec.alice_basis = _random_basis(rng)
            rec.alice_bit = _measure(rec.alice_received, rec.alice_basis, rng)
        else:
            rec.mode = "encode"
            flags = rng.getrandbits(2)
            rec.m1, rec.m2 = flags & 1, flags >> 1
            rec.op = _OP_FROM_FLAGS[(rec.m1, rec.m2)]
            _backward_leg(rec, _apply(rec.op, rec.alice_received), cfg.backward, cfg.eve, rng)
        records.append(rec)
    t.records = records
    t.sift_sent = n_code
    t.sift_retained = n_code  # every encode-mode signal is reconciled

    consistent = [
        (rec.basis, rec.alice_bit, rec.bob_bit)
        for rec in records
        if rec.mode == "check" and rec.alice_basis == rec.basis
    ]
    for basis in ("x", "z"):
        if sum(1 for b, _, _ in consistent if b == basis) < cfg.min_check_per_basis:
            t.abort, t.abort_reason = True, "insufficient consistent-basis check bits"
            return t
    est = estimate_errors(consistent)

    code = [rec for rec in records if rec.mode == "encode"]
    for rec in code:
        decoded = decode_key_bit(rec.basis, rec.op)
        assert decoded == (rec.m1 if rec.basis == "z" else rec.m2)
    test_set = set(rng.sample(range(n_code), cfg.n_test))
    mismatches = 0
    alice_bits = []
    bob_bits = []
    for j, rec in enumerate(code):
        alice_bit = decode_key_bit(rec.basis, rec.op)
        bob_bit = rec.bob_outcome ^ rec.bob_bit
        if j in test_set:
            rec.role = "test"
            if alice_bit != bob_bit:
                mismatches += 1
        else:
            rec.role = "key"
            alice_bits.append(alice_bit)
            bob_bits.append(bob_bit)
    e_rt = mismatches / cfg.n_test
    est = replace(
        est,
        e_roundtrip=e_rt,
        count_roundtrip=cfg.n_test,
        se_roundtrip=_stderr(e_rt, cfg.n_test),
    )
    t.estimate = est

    ledger = key_length(cfg.n, _clamp_rate(e_rt), _clamp_rate(est.e_p))
    ledger = replace(ledger, n_test=cfg.n_test, h_eb=binary_entropy(_clamp_rate(est.e_b)))
    t.ledger = ledger
    if ledger.abort:
        t.abort, t.abort_reason = True, "non-positive key length"
        return t

    a = BitVector.from_bits(alice_bits)
    b = BitVector.from_bits(bob_bits)
    t.raw_key_alice, t.raw_key_bob = a, b
    t.pa_seed = _draw_pa_seed(ledger.n_pa, cfg.n, cfg.pa_seed, rng)
    k = toeplitz_hash(t.pa_seed, ledger.n_pa, a)
    t.alice_key = t.bob_key = k
    return t


def run_integrated(cfg: IntegratedConfig) -> ProtocolTranscript:
    """Forward distillation run glued to one backward variant (2/2b/2c/2d).

    All variants deliver the hashed message f(m) of length N_PA on both
    sides; 2b, 2c, and 2d exercise the delayed-hash recovery routes.
    """
    rng = random.Random(cfg.seed)
    t = ProtocolTranscript(protocol=f"integrated-{cfg.variant}", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    records = _forward_signals(n_sent, cfg.forward, cfg.eve, rng)
    t.records = records
    t.sift_sent = n_sent
    t.sift_retained = n_sent

    test_positions = sorted(rng.sample(range(n_sent), cfg.n_test))
    for i in test_positions:
        rec = records[i]
        rec.role = "test"
        rec.alice_basis = rec.basis
        rec.alice_bit = _measure(rec.alice_received, rec.basis, rng)
    triples = [(records[i].basis, records[i].alice_bit, records[i].bob_bit) for i in test_positions]
    if not any(b == "x" for b, _, _ in triples) or not any(b == "z" for b, _, _ in triples):
        t.abort, t.abort_reason = True, "insufficient test bits in one basis"
        return t
    est = estimate_errors(triples)
    t.estimate = est

    code = [rec for rec in records if rec.role != "test"]
    for rec in code:
        rec.role = "key"
    n_key = cfg.n
    e_p = _clamp_rate(est.e_p)
    e_b = _clamp_rate(est.e_b)
    n_pa = math.floor(n_key * (1.0 - binary_entropy(e_p)))
    if n_pa <= 0:
        t.ledger = key_length(n_key, e_b, e_p)
        t.abort, t.abort_reason = True, "non-positive key length"
        return t
    t.pa_seed = pa_seed = _draw_pa_seed(n_pa, n_key, cfg.pa_seed, rng)

    ec_bits = 0
    msg_error_rate = 0.0
    if cfg.variant in ("2", "2b", "2c"):
        # the encoder measures her code qubits in the announced bases
        for rec in code:
            rec.alice_basis = rec.basis
            rec.alice_bit = _measure(rec.alice_received, rec.basis, rng)
        a = BitVector.from_bits(rec.alice_bit for rec in code)
        b = BitVector.from_bits(rec.bob_bit for rec in code)
        t.raw_key_alice, t.raw_key_bob = a, b
        # ideal EC on the forward raw keys before the backward phase
        ec_bits += math.ceil(n_key * binary_entropy(e_b))
        k = toeplitz_hash(pa_seed, n_pa, a)
        m = BitVector.random(n_key, rng)

    if cfg.variant == "2":
        fm = toeplitz_hash(pa_seed, n_pa, m)
        cipher = fm ^ k
        t.m_prime = fm
        t.recovered_via_key = cipher ^ k
        t.alice_key = fm
        t.bob_key = t.recovered_via_key
    elif cfg.variant == "2b":
        cipher = a ^ m
        t.m_prime = toeplitz_hash(pa_seed, n_pa, m)
        t.recovered_via_key = toeplitz_hash(pa_seed, n_pa, cipher) ^ k
        t.recovered_via_rawkey = toeplitz_hash(pa_seed, n_pa, cipher ^ a)
        t.alice_key = t.m_prime
        t.bob_key = t.recovered_via_key
    elif cfg.variant == "2c":
        for j, rec in enumerate(code):
            _backward_leg(rec, (rec.basis, m[j] ^ a[j]), cfg.backward, cfg.eve, rng)
        y = BitVector.from_bits(rec.bob_outcome for rec in code)
        t.m_prime = toeplitz_hash(pa_seed, n_pa, m)
        t.recovered_via_key = toeplitz_hash(pa_seed, n_pa, y) ^ k
        t.recovered_via_rawkey = toeplitz_hash(pa_seed, n_pa, y ^ a)
        m_hat = y ^ a
        msg_error_rate = (m_hat ^ m).weight() / n_key
        ec_bits += math.ceil(n_key * binary_entropy(_clamp_rate(msg_error_rate)))
        # ideal EC on the message settles both sides on f(m)
        t.alice_key = t.bob_key = t.m_prime
    else:  # "2d": no measurement before the backward line
        m1 = BitVector.random(n_key, rng)
        m2 = BitVector.random(n_key, rng)
        for j, rec in enumerate(code):
            rec.m1, rec.m2 = m1[j], m2[j]
            rec.op = _OP_FROM_FLAGS[(rec.m1, rec.m2)]
            _backward_leg(rec, _apply(rec.op, rec.alice_received), cfg.backward, cfg.eve, rng)
        # announced basis selects which message string carries each bit
        m = BitVector.from_bits(
            rec.m1 if rec.basis == "z" else rec.m2 for rec in code
        )
        m_hat = BitVector.from_bits(rec.bob_outcome ^ rec.bob_bit for rec in code)
        t.raw_key_bob = BitVector.from_bits(rec.bob_bit for rec in code)
        t.m_prime = toeplitz_hash(pa_seed, n_pa, m)
        t.recovered_via_rawkey = toeplitz_hash(pa_seed, n_pa, m_hat)
        msg_error_rate = (m_hat ^ m).weight() / n_key
        ec_bits += math.ceil(n_key * binary_entropy(_clamp_rate(msg_error_rate)))
        t.alice_key = t.bob_key = t.m_prime

    h_rt = binary_entropy(_clamp_rate(msg_error_rate))
    ledger = KeyLedger(
        n=n_key,
        n_test=cfg.n_test,
        n_pa=n_pa,
        n_ec=ec_bits,
        n_key=n_pa - ec_bits,
        preshared_consumed=ec_bits,
        pool_consumed=0,
        h_roundtrip=h_rt,
        h_ep=binary_entropy(e_p),
        h_eb=binary_entropy(e_b),
        abort=n_pa - ec_bits <= 0,
    )
    t.ledger = ledger
    if ledger.abort:
        t.abort, t.abort_reason = True, "non-positive key length"
        t.alice_key = t.bob_key = None
    return t


def run_relay(cfg: RelayConfig) -> RelayTranscript:
    """Key sharing Bob<->Charlie through relay Alice.

    Alice runs the forward protocol with Bob, then pads pool bits she shares
    with Charlie.  In the delayed scheme she pads n raw bits with her raw
    key and Bob and Charlie hash afterwards (consuming n pool bits); in the
    normal scheme she pads n_pa bits with the hashed key (consuming n_pa).
    """
    rng = random.Random(cfg.seed)
    pool = BitVector.random(cfg.pool_size, rng)
    qkd = run_bb84(
        Bb84Config(
            n=cfg.n,
            n_test=cfg.n_test,
            channel=cfg.channel,
            seed=rng.getrandbits(32),
            pa_seed=cfg.pa_seed,
        )
    )
    scheme = "delayed" if cfg.delayed else "normal"
    t = RelayTranscript(scheme=scheme, seed=cfg.seed, qkd=qkd, pool_size=cfg.pool_size)
    if qkd.abort:
        t.abort, t.abort_reason = True, f"key distillation aborted: {qkd.abort_reason}"
        return t

    a = qkd.raw_key_alice
    n = a.length
    n_pa = qkd.ledger.n_pa
    # RelayConfig guarantees pool_size >= n >= n_pa
    if cfg.delayed:
        m = pool.cut(0, n)
        cipher = a ^ m
        bob_m = cipher ^ a  # Bob holds a after ideal EC
        t.bob_key = toeplitz_hash(qkd.pa_seed, n_pa, bob_m)
        t.charlie_key = toeplitz_hash(qkd.pa_seed, n_pa, m)  # Charlie gets the hash seed from Bob
        t.pool_consumed = n
    else:
        m_prime = pool.cut(0, n_pa)
        cipher = m_prime ^ qkd.alice_key
        t.bob_key = cipher ^ qkd.alice_key
        t.charlie_key = m_prime
        t.pool_consumed = n_pa
    t.qkd.ledger = replace(t.qkd.ledger, pool_consumed=t.pool_consumed)
    return t
