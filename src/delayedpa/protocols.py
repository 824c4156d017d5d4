"""Seeded Monte-Carlo protocol runs and key-length accounting.

A run carries its signals as :class:`Signals`: equal-length ``uint8`` numpy
columns in which position i is signal i.  Each signal is held as its Pauli
frame, the pair (basis, bit) naming the BB84 eigenstate it is in.  That is
exact for this gate set: every state a run prepares is a BB84 eigenstate,
and every encoding, channel and eavesdropper action is a Pauli or a
measurement in x or z.  This is the one-qubit case of stabilizer simulation
(Aaronson-Gottesman, quant-ph/0406196); dense state vectors serve as its
oracle in the tests.

Codes: a basis is 0 = z, 1 = x, and a Pauli is x | z << 1 (I 0, X 1, Z 2,
Y 3).  A Pauli maps an eigenstate to an eigenstate of the same basis, up to
global phase, and flips its bit exactly when ``(op >> basis) & 1`` (X and Y
flip z-bits, Z and Y flip x-bits).  The same expression is the key bit the
operation encodes when that basis is announced, so encoding, channels,
eavesdropping and decoding all share one rule.  A measurement in the
state's own basis returns its bit; one in the other basis is a fair coin
that leaves the eigenstate of the outcome.  Channels act as sampled Pauli
operations (an exact unraveling of the modeled noise).  Each run draws
every column from one ``np.random.default_rng(cfg.seed)``; identical seeds
give bit-identical transcripts.

Error correction is settled by an ideal authenticated oracle: the receiving
side's string is overwritten with the sender's, and the ledger is charged
ceil(N * h(e)) pre-shared bits for the measured (or observed) error rate e.
This isolates the key accounting from any particular reconciliation code.

Privacy amplification: each run draws an (n - 1)-bit hash seed and hashes
all its keys and messages with one ``gf2.modified_toeplitz_hash`` call:
bb84 and dqkd one key, integrated-2 (a, m), 2b (a, m, c, c XOR a), 2c
(a, m, y, y XOR a) and 2d (m, m^), and relay's delayed scheme its two keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from delayedpa.gf2 import BitVector, modified_toeplitz_hash

__all__ = [
    "ChannelModel",
    "EveModel",
    "ErrorEstimate",
    "KeyLedger",
    "Signals",
    "ROLES",
    "MODES",
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
    "estimate_errors",
    "run_bb84",
    "run_dqkd",
    "run_integrated",
    "run_relay",
]

_BASES = "zx"     # basis code -> name
_PAULIS = "IXZY"  # Pauli code x | z << 1 -> name
ROLES = ("none", "key", "test", "check", "discarded")
MODES = ("none", "encode", "check")  # dqkd's per-signal choice; other runs leave "none"
MIN_CHECK_PER_BASIS = 8  # dqkd aborts with fewer consistent-basis check bits
_KEY, _TEST, _CHECK, _DISCARDED = (ROLES.index(r) for r in ("key", "test", "check", "discarded"))
_ENCODE_MODE, _CHECK_MODE = MODES.index("encode"), MODES.index("check")


def _flips(op, basis):
    """Whether Pauli ``op`` flips an eigenstate of ``basis``; this is also the
    key bit ``op`` encodes when ``basis`` is announced."""
    return (op >> basis) & 1


def _bits(rng, n: int) -> np.ndarray:
    return rng.integers(0, 2, n, dtype=np.uint8)


def _measure(basis, bit, in_basis, rng) -> np.ndarray:
    # a frame's own basis returns its bit and the other one a fair coin; the
    # coins are drawn for every signal, so the stream does not depend on states
    return np.where(basis == in_basis, bit, _bits(rng, len(basis)))


def decode_key_bit(basis: str, op: str) -> int:
    """Key bit encoded by the given operation when the basis is announced."""
    return _flips(_PAULIS.index(op), _BASES.index(basis))


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

    def paulis(self, basis: np.ndarray, rng) -> np.ndarray:
        """One sampled Pauli code per signal; ``basis`` holds each signal's
        own basis, whose eigenstates ``bsc`` flips."""
        if self.kind == "noiseless":
            return np.zeros(len(basis), np.uint8)
        u = rng.random(len(basis))
        if self.kind == "bsc":
            return np.where(u < self.param, 1 << basis, 0).astype(np.uint8)
        # I below 1 - 3p/4, then X, Y and Z in cells of width p/4
        edges = 1.0 - self.param * np.array([0.75, 0.5, 0.25])
        return np.array([0, 1, 3, 2], np.uint8)[np.searchsorted(edges, u, side="right")]


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

    def tap(self, basis: np.ndarray, bit: np.ndarray, line: str, rng):
        """The (basis, bit) frames that leave ``line``."""
        if self.kind == "none" or line not in self.lines:
            return basis, bit
        eve_basis = _bits(rng, len(basis))
        return eve_basis, _measure(basis, bit, eve_basis, rng)


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


def _ledger(n: int, n_test: int, e_roundtrip: float, e_p: float,
            e_b: float | None = None, forward_ec: int = 0) -> KeyLedger:
    """The one ledger builder: N_PA = floor(N(1 - h(e_p))) and N_EC =
    ceil(N h(e_roundtrip)) plus ``forward_ec`` bits already spent
    reconciling forward raw keys, all paid in pre-shared bits."""
    h_rt = binary_entropy(e_roundtrip)
    h_ep = binary_entropy(e_p)
    n_pa = math.floor(n * (1.0 - h_ep))
    n_ec = forward_ec + math.ceil(n * h_rt)
    return KeyLedger(
        n=n, n_test=n_test, n_pa=n_pa, n_ec=n_ec, n_key=n_pa - n_ec,
        preshared_consumed=n_ec, pool_consumed=0, h_roundtrip=h_rt, h_ep=h_ep,
        h_eb=None if e_b is None else binary_entropy(e_b), abort=n_pa - n_ec <= 0,
    )


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
    return _ledger(n, 0, e_roundtrip, e_p)


def two_way_rate_single_line(e_b: float, e_p: float) -> float:
    """Asymptotic rate 1 - h(2 e_b) - h(e_p) when both lines share rate e_b
    and their errors may be fully correlated; the bound needs e_b <= 1/4."""
    if not 0.0 <= e_b <= 0.25:
        raise ValueError(f"single-line rate e_b outside [0, 0.25], got {e_b}")
    return 1.0 - binary_entropy(2.0 * e_b) - binary_entropy(e_p)


def _clamp_rate(e: float) -> float:
    # rates past 1/2 carry no distillable key; the clamped ledger still aborts
    return min(max(e, 0.0), 0.5)


# ------------------------------------------------------------------ signals

@dataclass(eq=False)
class Signals:
    """One run's signals as equal-length ``uint8`` columns; position i is
    signal i.

    Bases and Paulis use the module's codes; ``role`` indexes ``ROLES`` and
    ``mode`` indexes ``MODES``.  A column a run does not fill for a signal
    holds 0 there.
    """

    basis: np.ndarray           # prepared, and later announced, basis
    bob_bit: np.ndarray         # prepared bit
    forward_flip: np.ndarray    # the forward channel flipped the bit carried in ``basis``
    received_basis: np.ndarray  # the frame reaching the encoder after the forward line
    received_bit: np.ndarray
    role: np.ndarray
    mode: np.ndarray
    alice_bit: np.ndarray       # the encoder's measurement outcome
    op: np.ndarray              # the encoder's Pauli
    backward_flip: np.ndarray   # the backward channel flipped the bit carried in ``basis``
    bob_outcome: np.ndarray     # the sender's measurement of the returned signal

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signals):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


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


def estimate_errors(basis, alice_bit, bob_bit) -> ErrorEstimate:
    """Rates from test bits given as columns: basis codes and both ends' bits.

    e_x and e_z come from the disjoint per-basis subsets; the averaged bit
    and phase rates are both (e_x + e_z) / 2 (phase errors of one basis show
    up as bit errors of the other).
    """
    basis = np.asarray(basis, np.uint8)
    if not basis.size:
        raise ValueError("empty test set")
    wrong = np.asarray(alice_bit) != np.asarray(bob_bit)
    count_z, count_x = (int(c) for c in np.bincount(basis, minlength=2))
    errors_z, errors_x = (int(c) for c in np.bincount(basis, weights=wrong, minlength=2))
    for name, count in (("x", count_x), ("z", count_z)):
        if count == 0:
            raise ValueError(f"no test bits in basis {name}")
    e_x = errors_x / count_x
    e_z = errors_z / count_z
    se_x = _stderr(e_x, count_x)
    se_z = _stderr(e_z, count_z)
    avg = (e_x + e_z) / 2.0
    se_avg = 0.5 * math.sqrt(se_x ** 2 + se_z ** 2)
    return ErrorEstimate(
        e_x=e_x, e_z=e_z, e_b=avg, e_p=avg,
        count_x=count_x, count_z=count_z,
        se_x=se_x, se_z=se_z, se_b=se_avg, se_p=se_avg,
    )


@dataclass
class ProtocolTranscript:
    protocol: str
    seed: int
    signals: Signals | None = None
    estimate: ErrorEstimate | None = None
    ledger: KeyLedger | None = None
    abort: bool = False
    abort_reason: str | None = None
    pa_seed: BitVector | None = None
    raw_key_alice: BitVector | None = None
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

    def __post_init__(self) -> None:
        if self.n < 1 or self.n_test < 1:
            raise ValueError("need n >= 1 and n_test >= 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must be in (0, 1)")

    @property
    def n_check(self) -> int:
        """Check-mode signals: check_fraction of all sent, beside n + n_test code signals."""
        cf = self.check_fraction
        return math.ceil((self.n + self.n_test) * cf / (1.0 - cf))


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
        # the run would ignore a noisy classical line, yet the report would echo it
        if self.variant in ("2", "2b") and self.backward.kind != "noiseless":
            raise ValueError(
                f"integrated-{self.variant} has a classical backward line, which is noiseless: "
                f"got backward channel {self.backward.kind}"
            )


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

def _random_vector(rng, n: int) -> BitVector:
    return BitVector.from_bits(_bits(rng, n))


def _draw_pa_seed(n: int, pa_seed: BitVector | None, rng) -> BitVector:
    """The (n - 1)-bit seed of the modified Toeplitz hash of n-bit keys."""
    if pa_seed is None:
        return _random_vector(rng, n - 1)
    if pa_seed.length != n - 1:
        raise ValueError(
            f"pa_seed length {pa_seed.length} does not match required n - 1 = {n - 1}"
        )
    return pa_seed


def _send(n: int, channel: ChannelModel, eve: EveModel, rng) -> Signals:
    """n signals prepared in random bases and sent over the forward line."""
    basis, bit = _bits(rng, n), _bits(rng, n)
    flip = _flips(channel.paulis(basis, rng), basis)
    received = eve.tap(basis, bit ^ flip, "forward", rng)
    return Signals(basis, bit, flip, *received, *np.zeros((6, n), np.uint8))


def _backward(basis, state_basis, state_bit, channel: ChannelModel, eve: EveModel, rng):
    """Frames crossing the backward line, measured by the sender in ``basis``:
    whether the channel flipped the bit carried in ``basis``, and the outcomes."""
    op = channel.paulis(basis, rng)
    state_bit = state_bit ^ _flips(op, state_basis)
    state_basis, state_bit = eve.tap(state_basis, state_bit, "backward", rng)
    return _flips(op, basis), _measure(state_basis, state_bit, basis, rng)


def _encode_and_return(s: Signals, idx: np.ndarray, channel: ChannelModel, eve: EveModel, rng) -> None:
    # the encoder applies a uniform Pauli X^m1 Z^m2 (code m1 | m2 << 1) to
    # each received signal at idx and sends it back
    op = s.op[idx] = rng.integers(0, 4, len(idx), dtype=np.uint8)
    rb = s.received_basis[idx]
    s.backward_flip[idx], s.bob_outcome[idx] = _backward(
        s.basis[idx], rb, s.received_bit[idx] ^ _flips(op, rb), channel, eve, rng
    )


def _abort(t, reason: str):
    t.abort, t.abort_reason = True, reason
    return t


def _estimate(t: ProtocolTranscript, idx: np.ndarray, minimum: int, reason: str) -> ErrorEstimate | None:
    """Per-basis rates over the test positions ``idx``, or an abort with
    ``reason`` when a basis has fewer than ``minimum`` of them."""
    s = t.signals
    if np.bincount(s.basis[idx], minlength=2).min() < minimum:
        _abort(t, reason)
        return None
    return estimate_errors(s.basis[idx], s.alice_bit[idx], s.bob_bit[idx])


def run_bb84(cfg: Bb84Config) -> ProtocolTranscript:
    """Forward-line key distillation with test-bit estimation and hashing.

    Steps: the sender transmits n + n_test qubits in random bases, the
    receiver measures (in the announced basis with quantum memory, in her
    own random basis otherwise), a random test subset fixes e_x/e_z, the
    ledger prices hashing and ideal error correction, and both ends share
    the hashed key.
    """
    rng = np.random.default_rng(cfg.seed)
    t = ProtocolTranscript(protocol="bb84", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    s = t.signals = _send(n_sent, cfg.channel, cfg.eve, rng)
    alice_basis = s.basis if cfg.quantum_memory else _bits(rng, n_sent)
    s.alice_bit[:] = _measure(s.received_basis, s.received_bit, alice_basis, rng)
    kept = np.flatnonzero(alice_basis == s.basis)
    s.role[alice_basis != s.basis] = _DISCARDED
    t.sift_sent, t.sift_retained = n_sent, len(kept)
    if len(kept) <= cfg.n_test:
        return _abort(t, "insufficient sifted bits")
    test = np.sort(rng.choice(kept, cfg.n_test, replace=False))
    s.role[kept] = _KEY
    s.role[test] = _TEST
    est = t.estimate = _estimate(t, test, 1, "insufficient test bits in one basis")
    if est is None:
        return t

    key = s.role == _KEY
    e_b = _clamp_rate(est.e_b)
    ledger = t.ledger = _ledger(int(key.sum()), cfg.n_test, e_b, _clamp_rate(est.e_p), e_b)
    if ledger.abort:
        return _abort(t, "non-positive key length")

    a = t.raw_key_alice = BitVector.from_bits(s.alice_bit[key])
    if cfg.pa_seed is None:
        t.pa_seed = _draw_pa_seed(ledger.n, None, rng)
    else:
        # a supplied seed is sized by the configured n, as the sifted count is
        # random; its first ledger.n - 1 bits are a uniform seed of the family
        t.pa_seed = _draw_pa_seed(cfg.n, cfg.pa_seed, rng).cut(0, ledger.n - 1)
    # ideal EC: the receiver's raw key becomes a (cost already in the ledger),
    # after which both sides hash to the same k
    t.alice_key = t.bob_key = modified_toeplitz_hash(t.pa_seed, ledger.n_pa, [a])[0]
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
    rng = np.random.default_rng(cfg.seed)
    t = ProtocolTranscript(protocol="dqkd", seed=cfg.seed)
    n_code, n_check = cfg.n + cfg.n_test, cfg.n_check
    total = n_code + n_check
    s = t.signals = _send(total, cfg.forward, cfg.eve, rng)
    is_check = np.zeros(total, bool)
    is_check[rng.choice(total, n_check, replace=False)] = True
    check, code = np.flatnonzero(is_check), np.flatnonzero(~is_check)
    s.mode[:] = _ENCODE_MODE
    s.mode[check] = _CHECK_MODE
    s.role[check] = _CHECK
    alice_basis = _bits(rng, n_check)
    s.alice_bit[check] = _measure(s.received_basis[check], s.received_bit[check], alice_basis, rng)
    _encode_and_return(s, code, cfg.backward, cfg.eve, rng)
    t.sift_sent = t.sift_retained = n_code  # every encode-mode signal is reconciled

    consistent = check[alice_basis == s.basis[check]]
    est = _estimate(t, consistent, MIN_CHECK_PER_BASIS, "insufficient consistent-basis check bits")
    if est is None:
        return t

    test = code[rng.choice(n_code, cfg.n_test, replace=False)]
    s.role[code] = _KEY
    s.role[test] = _TEST
    alice_bits = _flips(s.op, s.basis)
    bob_bits = s.bob_outcome ^ s.bob_bit
    e_rt = int(np.count_nonzero(alice_bits[test] != bob_bits[test])) / cfg.n_test
    est = t.estimate = replace(
        est, e_roundtrip=e_rt, count_roundtrip=cfg.n_test, se_roundtrip=_stderr(e_rt, cfg.n_test)
    )

    e_p, e_b = _clamp_rate(est.e_p), _clamp_rate(est.e_b)
    ledger = t.ledger = _ledger(cfg.n, cfg.n_test, _clamp_rate(e_rt), e_p, e_b)
    if ledger.abort:
        return _abort(t, "non-positive key length")

    key = s.role == _KEY
    a = t.raw_key_alice = BitVector.from_bits(alice_bits[key])
    t.pa_seed = _draw_pa_seed(cfg.n, cfg.pa_seed, rng)
    t.alice_key = t.bob_key = modified_toeplitz_hash(t.pa_seed, ledger.n_pa, [a])[0]
    return t


def run_integrated(cfg: IntegratedConfig) -> ProtocolTranscript:
    """Forward distillation run glued to one backward variant (2/2b/2c/2d).

    All variants deliver the hashed message f(m) of length N_PA on both
    sides; 2b, 2c, and 2d exercise the delayed-hash recovery routes.  Each
    variant hashes all its keys in one call, after the backward phase of
    2c; hashing draws nothing from the stream, so its place does not change
    the transcript.
    """
    rng = np.random.default_rng(cfg.seed)
    t = ProtocolTranscript(protocol=f"integrated-{cfg.variant}", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    s = t.signals = _send(n_sent, cfg.forward, cfg.eve, rng)
    t.sift_sent = t.sift_retained = n_sent

    test = np.sort(rng.choice(n_sent, cfg.n_test, replace=False))
    s.role[test] = _TEST
    s.alice_bit[test] = _measure(s.received_basis[test], s.received_bit[test], s.basis[test], rng)
    est = t.estimate = _estimate(t, test, 1, "insufficient test bits in one basis")
    if est is None:
        return t

    code = np.flatnonzero(s.role != _TEST)
    s.role[code] = _KEY
    n_key = cfg.n
    e_p, e_b = _clamp_rate(est.e_p), _clamp_rate(est.e_b)
    # the ledger before any reconciliation: nothing spent yet
    ledger = _ledger(n_key, cfg.n_test, 0.0, e_p, e_b)
    if ledger.n_pa <= 0:
        t.ledger = ledger
        return _abort(t, "non-positive key length")
    n_pa = ledger.n_pa
    t.pa_seed = _draw_pa_seed(n_key, cfg.pa_seed, rng)

    def f(*keys):
        return modified_toeplitz_hash(t.pa_seed, n_pa, keys)

    forward_ec, msg_error_rate = 0, 0.0
    if cfg.variant in ("2", "2b", "2c"):
        # the encoder measures her code qubits in the announced bases
        a_bits = s.alice_bit[code] = _measure(
            s.received_basis[code], s.received_bit[code], s.basis[code], rng
        )
        a = t.raw_key_alice = BitVector.from_bits(a_bits)
        # ideal EC on the forward raw keys before the backward phase
        forward_ec = math.ceil(n_key * binary_entropy(e_b))
        m_bits = _bits(rng, n_key)
        m = BitVector.from_bits(m_bits)

    if cfg.variant == "2":
        k, t.m_prime = f(a, m)
        t.alice_key = t.m_prime
        cipher = t.m_prime ^ k
        t.recovered_via_key = t.bob_key = cipher ^ k
    elif cfg.variant == "2b":
        cipher = a ^ m
        k, t.m_prime, f_cipher, t.recovered_via_rawkey = f(a, m, cipher, cipher ^ a)
        t.alice_key = t.m_prime
        t.recovered_via_key = t.bob_key = f_cipher ^ k
    elif cfg.variant == "2c":
        basis = s.basis[code]
        s.backward_flip[code], s.bob_outcome[code] = _backward(
            basis, basis, m_bits ^ a_bits, cfg.backward, cfg.eve, rng
        )
        y = BitVector.from_bits(s.bob_outcome[code])
        k, t.m_prime, f_y, t.recovered_via_rawkey = f(a, m, y, y ^ a)
        t.recovered_via_key = f_y ^ k
        msg_error_rate = (y ^ a ^ m).weight() / n_key
        # ideal EC on the message settles both sides on f(m)
        t.alice_key = t.bob_key = t.m_prime
    else:  # "2d": no measurement before the backward line
        _encode_and_return(s, code, cfg.backward, cfg.eve, rng)
        # the announced basis selects which flag (m1 for z, m2 for x) carries each bit
        m = BitVector.from_bits(_flips(s.op[code], s.basis[code]))
        m_hat = BitVector.from_bits(s.bob_outcome[code] ^ s.bob_bit[code])
        t.m_prime, t.recovered_via_rawkey = f(m, m_hat)
        msg_error_rate = (m_hat ^ m).weight() / n_key
        t.alice_key = t.bob_key = t.m_prime

    ledger = t.ledger = _ledger(n_key, cfg.n_test, _clamp_rate(msg_error_rate), e_p, e_b, forward_ec)
    if ledger.abort:
        _abort(t, "non-positive key length")
        t.alice_key = t.bob_key = None
    return t


def run_relay(cfg: RelayConfig) -> RelayTranscript:
    """Key sharing Bob<->Charlie through relay Alice.

    Alice runs the forward protocol with Bob, then pads pool bits she shares
    with Charlie.  In the delayed scheme she pads n raw bits with her raw
    key and Bob and Charlie hash afterwards (consuming n pool bits); in the
    normal scheme she pads n_pa bits with the hashed key (consuming n_pa).
    """
    rng = np.random.default_rng(cfg.seed)
    pool = _random_vector(rng, cfg.pool_size)
    qkd = run_bb84(Bb84Config(
        n=cfg.n, n_test=cfg.n_test, channel=cfg.channel,
        seed=int(rng.integers(2**32)), pa_seed=cfg.pa_seed,
    ))
    scheme = "delayed" if cfg.delayed else "normal"
    t = RelayTranscript(scheme=scheme, seed=cfg.seed, qkd=qkd, pool_size=cfg.pool_size)
    if qkd.abort:
        return _abort(t, f"key distillation aborted: {qkd.abort_reason}")

    a = qkd.raw_key_alice
    n = a.length
    n_pa = qkd.ledger.n_pa
    # RelayConfig guarantees pool_size >= n >= n_pa
    if cfg.delayed:
        m = pool.cut(0, n)
        cipher = a ^ m
        bob_m = cipher ^ a  # Bob holds a after ideal EC
        # Charlie gets the hash seed from Bob
        t.bob_key, t.charlie_key = modified_toeplitz_hash(qkd.pa_seed, n_pa, [bob_m, m])
        t.pool_consumed = n
    else:
        m_prime = pool.cut(0, n_pa)
        cipher = m_prime ^ qkd.alice_key
        t.bob_key = cipher ^ qkd.alice_key
        t.charlie_key = m_prime
        t.pool_consumed = n_pa
    t.qkd.ledger = replace(t.qkd.ledger, pool_consumed=t.pool_consumed)
    return t
