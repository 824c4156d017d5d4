"""Seeded Monte-Carlo protocol runs, whose keys :mod:`delayedpa.ledger` prices.

A run carries its signals as :class:`Signals`: one ``uint64`` bit-plane per
column, bit i (bit i % 64 of word i // 64) for signal i, and 0 past the
run's n signals.  Each signal is held as its Pauli frame, the pair (basis,
bit) naming the BB84 eigenstate it is in.  That is exact for this gate set:
every state a run prepares is a BB84 eigenstate, and every encoding,
channel and eavesdropper action is a Pauli or a measurement in x or z.
This is the one-qubit case of stabilizer simulation (Aaronson-Gottesman,
quant-ph/0406196), 64 signals to a word as in Gidney's frame simulator
(Stim, Quantum 5, 497 (2021)); dense state vectors are its test oracle.

Codes: a basis bit is 1 for x and 0 for z, and a Pauli is its x and z bits
(code x | z << 1: I 0, X 1, Z 2, Y 3).  A Pauli maps an eigenstate to an
eigenstate of the same basis, up to global phase, and flips its bit exactly
when ``(x & ~basis) | (z & basis)`` (X and Y flip z-bits, Z and Y flip
x-bits).  The same expression is the key bit the operation encodes when that
basis is announced, so encoding, channels, eavesdropping and decoding all
share one rule.  A measurement in the state's own basis returns its bit; one
in the other basis is a fair coin that leaves the eigenstate of the outcome.
Channels act as sampled Pauli operations (an exact unraveling of the
modeled noise).  A run takes every draw from one
:class:`delayedpa.stream.BitStream` seeded with ``cfg.seed``.

Privacy amplification is one step, ``_distill``: it prices the key, and
unless the ledger aborts, draws the run's (n - 1)-bit hash seed and hashes
all its keys and messages with one ``gf2.modified_toeplitz_hash`` call:
bb84 and dqkd one key, integrated-2 (a, m), 2b (a, m, c, c XOR a), 2c
(a, m, y, y XOR a) and 2d (m, m^).  Relay's delayed scheme hashes its two
keys with its inner bb84 run's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from delayedpa.gf2 import BitVector, modified_toeplitz_hash
from delayedpa.ledger import ErrorEstimate, KeyLedger, build_ledger, estimate_errors, with_roundtrip
from delayedpa.stream import BitStream, _popcount, _unpack

__all__ = [
    "ChannelModel",
    "EveModel",
    "Signals",
    "ROLES",
    "MODES",
    "ProtocolTranscript",
    "RelayTranscript",
    "Bb84Config",
    "DqkdConfig",
    "IntegratedConfig",
    "RelayConfig",
    "decode_key_bit",
    "run_bb84",
    "run_dqkd",
    "run_integrated",
    "run_relay",
]

_BASES = "zx"     # basis bit -> name
_PAULIS = "IXZY"  # Pauli code x | z << 1 -> name
ROLES = ("none", "key", "test", "check", "discarded")
MODES = ("none", "encode", "check")  # dqkd's per-signal choice; other runs leave "none"
MIN_CHECK_PER_BASIS = 8  # dqkd aborts with fewer consistent-basis check bits


def _flips(x, z, basis):
    """Whether the Pauli (x, z) flips an eigenstate of ``basis``, bits or planes
    alike; this is also the key bit it encodes when ``basis`` is announced."""
    return x ^ ((x ^ z) & basis)


def _select(plane: np.ndarray, mask: np.ndarray, n: int) -> BitVector:
    """The bits of ``plane`` at the signals in ``mask``, in signal order."""
    return BitVector.from_bits(np.compress(_unpack(mask, n).view(bool), _unpack(plane, n)))


def _measure(basis, bit, in_basis, stream) -> np.ndarray:
    # a frame's own basis returns its bit and the other one a fair coin; the
    # coins are drawn for every signal, so the stream does not depend on states
    return bit ^ ((bit ^ stream.fair()) & (basis ^ in_basis))


def decode_key_bit(basis: str, op: str) -> int:
    """Key bit encoded by the given operation when the basis is announced."""
    code = _PAULIS.index(op)
    return _flips(code & 1, code >> 1, _BASES.index(basis))


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

    def paulis(self, basis: np.ndarray, stream: BitStream) -> tuple[np.ndarray, np.ndarray]:
        """One sampled Pauli per signal, as its x and z planes; ``basis``
        holds each signal's own basis, whose eigenstates ``bsc`` flips."""
        if self.kind == "noiseless":
            return (np.zeros_like(stream.all),) * 2
        if self.kind == "bsc":
            flip = stream.bernoulli(self.param)
            return flip & ~basis, flip & basis
        # x (X or Y) with probability p/2; then z is a fair coin where x is
        # set, and Z takes p/4 of the remaining 1 - p/2 elsewhere
        p = self.param
        x = stream.bernoulli(p / 2)
        return x, (stream.fair() & x) | stream.bernoulli(p / 4 / (1 - p / 2), stream.all & ~x)


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

    def tap(self, basis: np.ndarray, bit: np.ndarray, line: str, stream: BitStream):
        """The (basis, bit) frame planes that leave ``line``."""
        if self.kind == "none" or line not in self.lines:
            return basis, bit
        eve_basis = stream.fair()
        return eve_basis, _measure(basis, bit, eve_basis, stream)


# ------------------------------------------------------------------ signals

@dataclass(eq=False)
class Signals:
    """One run's n signals as ``uint64`` bit-planes (module docstring); each
    role in ``ROLES`` and mode in ``MODES`` but "none" is a mask, and a plane
    holds 0 where its run fills nothing.  Runs replace planes and never write
    into one, so unfilled planes share one array.  :meth:`column` unpacks."""

    n: int
    basis: np.ndarray           # prepared, and later announced, basis
    bob_bit: np.ndarray         # prepared bit
    forward_flip: np.ndarray    # the forward channel flipped the bit carried in ``basis``
    received_basis: np.ndarray  # the frame reaching the encoder after the forward line
    received_bit: np.ndarray
    alice_bit: np.ndarray       # the encoder's measurement outcome
    op_x: np.ndarray            # the encoder's Pauli
    op_z: np.ndarray
    backward_flip: np.ndarray   # the backward channel flipped the bit carried in ``basis``
    bob_outcome: np.ndarray     # the sender's measurement of the returned signal
    role_key: np.ndarray
    role_test: np.ndarray
    role_check: np.ndarray
    role_discarded: np.ndarray
    mode_encode: np.ndarray
    mode_check: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """One uint8 per signal: "role" and "mode" as indexes into ``ROLES``
        and ``MODES``, "op" as the Pauli code, and a plane's name as its bits."""
        if name in ("role", "mode"):
            names = ROLES if name == "role" else MODES
            return sum(i * self.column(f"{name}_{v}") for i, v in enumerate(names) if i)
        if name == "op":
            return self.column("op_x") | self.column("op_z") << 1
        return _unpack(getattr(self, name), self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signals) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
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

def _check_run(cfg, min_test: int = 2) -> None:
    """The checks every run config makes: n and n_test, then the length of a
    fixed hash seed, which every run takes with n - 1 bits (bb84 without
    quantum memory hashes with a prefix of it)."""
    if cfg.n < 1 or cfg.n_test < min_test:
        raise ValueError(f"need n >= 1 and n_test >= {min_test}")
    if cfg.pa_seed is not None and cfg.pa_seed.length != cfg.n - 1:
        raise ValueError(f"pa_seed length {cfg.pa_seed.length} does not match required n - 1 = {cfg.n - 1}")


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
        _check_run(self)


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
        _check_run(self, min_test=1)
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
        _check_run(self)
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
        _check_run(self)  # before the pool is sized against n
        if self.pool_size < self.n:
            raise ValueError("pool exhausted: pool_size must be >= n")


# ------------------------------------------------------------------ runs

def _send(channel: ChannelModel, eve: EveModel, stream: BitStream) -> Signals:
    """The stream's n signals prepared in random bases and sent over the forward line."""
    basis, bit = stream.fair(), stream.fair()
    flip = _flips(*channel.paulis(basis, stream), basis)
    received = eve.tap(basis, bit ^ flip, "forward", stream)
    zero = np.zeros_like(basis)
    return Signals(stream.n, basis, bit, flip, *received, **{f.name: zero for f in fields(Signals)[6:]})


def _backward(s: Signals, code, state_basis, state_bit, channel: ChannelModel, eve: EveModel, stream) -> None:
    """The signals in ``code`` cross the backward line and are measured in
    ``s.basis``: whether the channel flipped the bit carried there, and the outcomes."""
    x, z = channel.paulis(s.basis, stream)
    state_bit = state_bit ^ _flips(x, z, state_basis)
    state_basis, state_bit = eve.tap(state_basis, state_bit, "backward", stream)
    s.backward_flip = _flips(x, z, s.basis) & code
    s.bob_outcome = _measure(state_basis, state_bit, s.basis, stream) & code


def _encode_and_return(s: Signals, code: np.ndarray, channel: ChannelModel, eve: EveModel, stream) -> None:
    # the encoder applies a uniform Pauli X^m1 Z^m2 (bits m1, m2) to each
    # received signal in ``code`` and sends it back
    s.op_x, s.op_z = stream.fair() & code, stream.fair() & code
    rb = s.received_basis
    _backward(s, code, rb, s.received_bit ^ _flips(s.op_x, s.op_z, rb), channel, eve, stream)


def _abort(t, reason: str):
    t.abort, t.abort_reason = True, reason
    return t


def _estimate(t: ProtocolTranscript, test: np.ndarray, minimum: int, reason: str) -> ErrorEstimate | None:
    """Per-basis rates over the test signals in ``test``, or an abort with
    ``reason`` when a basis has fewer than ``minimum`` of them."""
    s = t.signals
    in_x, wrong = test & s.basis, s.alice_bit ^ s.bob_bit
    count_x, count_z = _popcount(in_x), _popcount(test & ~s.basis)
    if min(count_x, count_z) < minimum:
        _abort(t, reason)
        return None
    errors_x = _popcount(in_x & wrong)
    return estimate_errors(count_x, errors_x, count_z, _popcount(test & wrong) - errors_x)


def _distill(t, cfg, stream, n: int, e_roundtrip: float, forward_reconciled=False, keys=()) -> list:
    """Price n key bits at ``t.estimate`` with ideal EC charged at
    ``e_roundtrip`` (and for the forward line if ``forward_reconciled``),
    then hash ``keys``: one output per key, each None if the ledger aborts.
    The first pricing that passes draws the seed with the configured n - 1
    bits (or takes ``cfg.pa_seed``); the hash takes its first ledger.n - 1,
    a uniform seed of the family, as bb84's sifted count is random."""
    est = t.estimate
    ledger = t.ledger = build_ledger(n, cfg.n_test, e_roundtrip, est.e_p, est.e_b, forward_reconciled)
    if ledger.abort:
        _abort(t, "non-positive key length")
        return [None] * len(keys)
    if t.pa_seed is None:
        seed = BitVector.random(cfg.n - 1, stream) if cfg.pa_seed is None else cfg.pa_seed
        t.pa_seed = seed.cut(0, ledger.n - 1)
    return modified_toeplitz_hash(t.pa_seed, ledger.n_pa, keys)


def run_bb84(cfg: Bb84Config) -> ProtocolTranscript:
    """Forward-line key distillation with test-bit estimation and hashing.

    Steps: the sender transmits n + n_test qubits in random bases, the
    receiver measures (in the announced basis with quantum memory, in her
    own random basis otherwise), a random test subset fixes e_x/e_z, the
    ledger prices hashing and ideal error correction, and both ends share
    the hashed key.
    """
    t = ProtocolTranscript(protocol="bb84", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    stream = BitStream(cfg.seed, n_sent)
    s = t.signals = _send(cfg.channel, cfg.eve, stream)
    alice_basis = s.basis if cfg.quantum_memory else stream.fair()
    s.alice_bit = _measure(s.received_basis, s.received_bit, alice_basis, stream)
    s.role_discarded = alice_basis ^ s.basis
    kept = stream.all & ~s.role_discarded
    t.sift_sent, t.sift_retained = n_sent, _popcount(kept)
    if t.sift_retained <= cfg.n_test:
        return _abort(t, "insufficient sifted bits")
    s.role_test = stream.subset(cfg.n_test, kept)
    s.role_key = kept & ~s.role_test
    est = t.estimate = _estimate(t, s.role_test, 1, "insufficient test bits in one basis")
    if est is None:
        return t

    a = t.raw_key_alice = _select(s.alice_bit, s.role_key, n_sent)
    # ideal EC: the receiver's raw key becomes a (cost already in the ledger),
    # after which both sides hash to the same k
    t.alice_key = t.bob_key = _distill(t, cfg, stream, t.sift_retained - cfg.n_test, est.e_b, keys=[a])[0]
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
    t = ProtocolTranscript(protocol="dqkd", seed=cfg.seed)
    n_code, n_check = cfg.n + cfg.n_test, cfg.n_check
    stream = BitStream(cfg.seed, n_code + n_check)
    s = t.signals = _send(cfg.forward, cfg.eve, stream)
    check = s.mode_check = s.role_check = stream.subset(n_check, stream.all)
    code = s.mode_encode = stream.all & ~check
    alice_basis = stream.fair()
    s.alice_bit = _measure(s.received_basis, s.received_bit, alice_basis, stream) & check
    _encode_and_return(s, code, cfg.backward, cfg.eve, stream)
    t.sift_sent = t.sift_retained = n_code  # every encode-mode signal is reconciled

    consistent = check & ~(alice_basis ^ s.basis)
    est = _estimate(t, consistent, MIN_CHECK_PER_BASIS, "insufficient consistent-basis check bits")
    if est is None:
        return t

    test = s.role_test = stream.subset(cfg.n_test, code)
    s.role_key = code & ~test
    alice_bits = _flips(s.op_x, s.op_z, s.basis)
    errors_rt = _popcount((alice_bits ^ s.bob_outcome ^ s.bob_bit) & test)
    est = t.estimate = with_roundtrip(est, cfg.n_test, errors_rt)
    a = t.raw_key_alice = _select(alice_bits, s.role_key, s.n)
    t.alice_key = t.bob_key = _distill(t, cfg, stream, cfg.n, est.e_roundtrip, keys=[a])[0]
    return t


def run_integrated(cfg: IntegratedConfig) -> ProtocolTranscript:
    """Forward distillation run glued to one backward variant (2/2b/2c/2d).

    All variants deliver the hashed message f(m) of length N_PA on both
    sides; 2b, 2c, and 2d exercise the delayed-hash recovery routes.  The
    forward line is priced before the backward phase, and the message after
    it, where each variant hashes all its keys in one call.
    """
    t = ProtocolTranscript(protocol=f"integrated-{cfg.variant}", seed=cfg.seed)
    n_sent = cfg.n + cfg.n_test
    stream = BitStream(cfg.seed, n_sent)
    s = t.signals = _send(cfg.forward, cfg.eve, stream)
    t.sift_sent = t.sift_retained = n_sent

    test = s.role_test = stream.subset(cfg.n_test, stream.all)
    # the encoder measures in the announced bases: the test signals now, and
    # the code signals of 2, 2b and 2c before their backward phase
    measured = _measure(s.received_basis, s.received_bit, s.basis, stream)
    s.alice_bit = measured & test
    est = t.estimate = _estimate(t, test, 1, "insufficient test bits in one basis")
    if est is None:
        return t

    code = s.role_key = stream.all & ~test
    # the forward line priced before any reconciliation, with nothing spent
    # yet; passing it draws the seed, before the message
    _distill(t, cfg, stream, cfg.n, 0.0)
    if t.abort:
        return t

    # every variant but 2d settles its forward raw keys by ideal EC before
    # the backward phase, and the ledger charges for it
    forward_reconciled, msg_errors = cfg.variant != "2d", 0
    if forward_reconciled:
        s.alice_bit = measured
        a = t.raw_key_alice = _select(measured, code, n_sent)
        m_bits = stream.fair() & code
        m = _select(m_bits, code, n_sent)

    if cfg.variant == "2":
        keys = (a, m)
    elif cfg.variant == "2b":
        cipher = a ^ m
        keys = (a, m, cipher, cipher ^ a)
    elif cfg.variant == "2c":
        _backward(s, code, s.basis, m_bits ^ measured, cfg.backward, cfg.eve, stream)
        y = _select(s.bob_outcome, code, n_sent)
        keys, msg_errors = (a, m, y, y ^ a), (y ^ a ^ m).weight()
    else:  # "2d": no measurement before the backward line
        _encode_and_return(s, code, cfg.backward, cfg.eve, stream)
        # the announced basis selects which flag (m1 for z, m2 for x) carries each bit
        m = _select(_flips(s.op_x, s.op_z, s.basis), code, n_sent)
        m_hat = _select(s.bob_outcome ^ s.bob_bit, code, n_sent)
        keys, msg_errors = (m, m_hat), (m_hat ^ m).weight()

    hashed = _distill(t, cfg, stream, cfg.n, msg_errors / cfg.n, forward_reconciled, keys)
    if t.abort:
        return t
    if cfg.variant == "2":
        k, t.m_prime = hashed
        t.recovered_via_key = t.bob_key = (t.m_prime ^ k) ^ k  # the padded f(m), unpadded
    elif cfg.variant == "2b":
        k, t.m_prime, f_cipher, t.recovered_via_rawkey = hashed
        t.recovered_via_key = t.bob_key = f_cipher ^ k
    elif cfg.variant == "2c":
        k, t.m_prime, f_y, t.recovered_via_rawkey = hashed
        # ideal EC on the message settles both sides on f(m)
        t.recovered_via_key, t.bob_key = f_y ^ k, t.m_prime
    else:
        t.m_prime, t.recovered_via_rawkey = hashed
        t.bob_key = t.m_prime
    t.alice_key = t.m_prime
    return t


def run_relay(cfg: RelayConfig) -> RelayTranscript:
    """Key sharing Bob<->Charlie through relay Alice.

    Alice runs the forward protocol with Bob, then pads pool bits she shares
    with Charlie.  In the delayed scheme she pads n raw bits with her raw
    key and Bob and Charlie hash afterwards (consuming n pool bits); in the
    normal scheme she pads n_pa bits with the hashed key (consuming n_pa).
    """
    stream = BitStream(cfg.seed)
    pool = BitVector.random(cfg.pool_size, stream)
    qkd = run_bb84(Bb84Config(
        n=cfg.n, n_test=cfg.n_test, channel=cfg.channel,
        seed=stream.getrandbits(32), pa_seed=cfg.pa_seed,
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
