"""Additive privacy amplification and the delayed-application pipeline.

The usual order is: hash the raw key down to a short secure key, then use it
as a one-time pad.  The delayed order encrypts with the raw key directly and
applies the hash afterwards; for that the receiver needs the message expanded
to a uniformly random element of the hash preimage, which is what
:func:`expand_message` produces.

An :class:`AdditivePaFunction` f hashes one input as ``f(a)`` and many in
one call with :func:`pa_apply_many`.  A :class:`DelayedPaSession` is one
exchange: the pad c = a XOR m, and m' recovered as f(c) XOR f(a) or as
f(c XOR a), all from one hash call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from delayedpa.gf2 import BitVector, modified_toeplitz_hash
from delayedpa.stream import BitStream

__all__ = [
    "AdditivePaFunction",
    "DelayedPaSession",
    "pa_apply_many",
    "expand_message",
]


@dataclass(frozen=True)
class AdditivePaFunction:
    """A compressing GF(2)-linear hash with independent rows, held by its seed.

    The hash is the modified Toeplitz family [I | T] (see :mod:`delayedpa.gf2`):
    an n-bit x = (x1, x2), split after n_pa bits, maps to x1 XOR T x2, T the
    n_pa x (n - n_pa) Toeplitz matrix of an (n - 1)-bit seed.  Its rows are
    independent by construction, so every seed gives a hash, and its rows
    are never built.  :meth:`draw` draws a session's hash from an rng, and
    only this class sizes or parses a session's seed; runs hash with
    ``modified_toeplitz_hash`` directly, on seeds that ``protocols`` draws
    and ``reports`` parses and sizes.
    """

    seed: BitVector
    n_pa: int
    n: int

    def __post_init__(self) -> None:
        self._check_shape(self.n_pa, self.n)
        if self.seed.length != self.n - 1:
            raise ValueError(f"seed length {self.seed.length} does not match n - 1 = {self.n - 1}")

    @staticmethod
    def _check_shape(n_pa: int, n: int) -> None:
        if n_pa < 1:
            raise ValueError("hash needs at least one output bit: need n_pa >= 1")
        if n_pa >= n:
            raise ValueError("hash must compress: need n_pa < n")

    @classmethod
    def draw(cls, n_pa: int, n: int, rng) -> "AdditivePaFunction":
        """The hash of the seed ``BitVector.random(n - 1, rng)``; a bad shape
        raises before the draw."""
        cls._check_shape(n_pa, n)
        return cls(BitVector.random(n - 1, rng), n_pa, n)

    @classmethod
    def from_toeplitz_seed(cls, seed: BitVector, n_pa: int, n: int) -> "AdditivePaFunction":
        """The hash of the first n - 1 bits of an (n + n_pa - 1)-bit seed.

        Only the benchmark's session op builds its hash here, from a seed of
        the length the plain Toeplitz family took; this goes once that op
        draws its hash with :meth:`draw`.
        """
        if seed.length != n + n_pa - 1:
            raise ValueError(
                f"seed length {seed.length} does not match n + n_pa - 1 = {n + n_pa - 1}"
            )
        return cls(seed.cut(0, n - 1), n_pa, n)

    def _json_doc(self) -> dict:
        return {
            "kind": "modified-toeplitz", "seed": self.seed.to_hex(), "n_pa": self.n_pa, "n": self.n,
        }

    @classmethod
    def _from_json_doc(cls, doc: dict, n_pa: int, n: int) -> "AdditivePaFunction":
        """The hash that :meth:`_json_doc` wrote, once its shape is n_pa x n."""
        shape = (_json_field(doc, "n", int, "pa"), _json_field(doc, "n_pa", int, "pa"))
        if shape != (n, n_pa):
            raise ValueError(
                f"pa shape {shape[1]} x {shape[0]} does not match session {n_pa} x {n}"
            )
        kind = _json_field(doc, "kind", str, "pa")
        if kind != "modified-toeplitz":
            raise ValueError(f"unknown pa kind {kind!r}; supported: 'modified-toeplitz'")
        cls._check_shape(n_pa, n)  # before the seed's length n - 1 is read
        return cls(BitVector.from_hex(n - 1, _json_field(doc, "seed", str, "pa")), n_pa, n)

    def __call__(self, a: BitVector) -> BitVector:
        """Hash an n-bit input down to n_pa bits."""
        return pa_apply_many(self, [a])[0]


def pa_apply_many(f: AdditivePaFunction, inputs: Sequence[BitVector]) -> list[BitVector]:
    """Hash n-bit inputs down to n_pa bits each, in one call.

    That call, ``modified_toeplitz_hash``, transforms equal high bits once
    and packs the inputs beside sections of the seed into as few short
    transforms as its cost estimate finds.
    """
    for a in inputs:
        if a.length != f.n:
            raise ValueError(f"length mismatch: expected {f.n}, got {a.length}")
    return modified_toeplitz_hash(f.seed, f.n_pa, inputs)


def expand_message(f: AdditivePaFunction, m_prime: BitVector, rng) -> BitVector:
    """Uniform draw from the preimage {m : f(m) = m_prime}.

    One ``rng.getrandbits(n - n_pa)`` gives r, and m = (m_prime XOR T r, r).
    r -> m is a bijection onto the preimage, so m is exactly uniform.  T r
    is the hash of r << n_pa, whose low n_pa bits are zero.
    """
    if m_prime.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {m_prime.length}")
    r = rng.getrandbits(f.n - f.n_pa) << f.n_pa
    t_r = modified_toeplitz_hash(f.seed, f.n_pa, [BitVector(f.n, r)])[0]
    return BitVector(f.n, (m_prime.bits ^ t_r.bits) | r)


@dataclass(frozen=True)
class DelayedPaSession:
    """One delayed-PA exchange, immutable once built.

    ``create`` fixes ``m_prime`` and draws the expansion from
    ``BitStream(selector_seed)`` before the raw key is touched, so the
    message is independent of the key by construction.  Construction hashes
    m, a, c and c XOR a in one call: f(m) checks the expansion, and the key
    f(a) and the receiver's two decodings of m', f(c) XOR f(a) and
    f(c XOR a), are kept.
    """

    f: AdditivePaFunction
    a: BitVector
    m_prime: BitVector
    m: BitVector
    selector_seed: int
    c: BitVector
    key: BitVector = field(init=False, repr=False, compare=False)
    _via_key: BitVector = field(init=False, repr=False, compare=False)
    _via_rawkey: BitVector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # create draws getrandbits(64); checked before any hash is run
        if not 0 <= self.selector_seed < 1 << 64:
            raise ValueError(f"selector_seed must be in [0, 2**64), got {self.selector_seed}")
        f_m, f_a, f_c, f_ca = pa_apply_many(self.f, [self.m, self.a, self.c, self.c ^ self.a])
        if f_m != self.m_prime:
            raise ValueError("expanded message does not hash to m_prime")
        if self.c != self.a ^ self.m:
            raise ValueError("ciphertext is not a XOR m")
        object.__setattr__(self, "key", f_a)
        object.__setattr__(self, "_via_key", f_c ^ f_a)
        object.__setattr__(self, "_via_rawkey", f_ca)

    @classmethod
    def create(cls, f: AdditivePaFunction, m_prime: BitVector, a: BitVector, rng) -> "DelayedPaSession":
        selector_seed = rng.getrandbits(64)
        m = expand_message(f, m_prime, BitStream(selector_seed))
        return cls(f=f, a=a, m_prime=m_prime, m=m, selector_seed=selector_seed, c=a ^ m)

    def recover_via_key(self) -> BitVector:
        """m' as f(c) XOR k, k = f(a) the hashed key."""
        return self._via_key

    def recover_via_rawkey(self) -> BitVector:
        """m' as f(c XOR a), from the raw key."""
        return self._via_rawkey

    def to_json(self) -> str:
        doc = {
            "n": self.f.n,
            "n_pa": self.f.n_pa,
            "pa": self.f._json_doc(),
            "a": self.a.to_hex(),
            "m_prime": self.m_prime.to_hex(),
            "m": self.m.to_hex(),
            "c": self.c.to_hex(),
            "selector_seed": self.selector_seed,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DelayedPaSession":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"session document must be a JSON object, got {doc!r}")
        n, n_pa = _json_field(doc, "n", int), _json_field(doc, "n_pa", int)
        return cls(
            f=AdditivePaFunction._from_json_doc(_json_field(doc, "pa", dict), n_pa, n),
            a=BitVector.from_hex(n, _json_field(doc, "a", str)),
            m_prime=BitVector.from_hex(n_pa, _json_field(doc, "m_prime", str)),
            m=BitVector.from_hex(n, _json_field(doc, "m", str)),
            selector_seed=_json_field(doc, "selector_seed", int),
            c=BitVector.from_hex(n, _json_field(doc, "c", str)),
        )


def _json_field(doc: dict, key: str, kind: type, where: str = "session"):
    """``doc[key]`` if present and of type ``kind`` (a bool is not an int)."""
    if key not in doc:
        raise ValueError(f"{where} document has no {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} field {key!r} must be {kind.__name__}, got {value!r}")
    return value
