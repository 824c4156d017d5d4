"""Additive privacy amplification and the delayed-application pipeline.

The usual order is: hash the raw key down to a short secure key, then use it
as a one-time pad.  The delayed order encrypts with the raw key directly and
applies the hash afterwards; for that the receiver needs the message expanded
to a uniformly random element of the hash preimage, which is what
:func:`expand_message` produces.
"""

from __future__ import annotations

import contextlib
import json
import random
from dataclasses import dataclass
from typing import Sequence

from delayedpa.gf2 import (
    BitVector,
    modified_toeplitz_hash,
    sample_toeplitz_preimage,
    toeplitz_rows_independent,
)

__all__ = [
    "AdditivePaFunction",
    "DelayedPaSession",
    "pa_apply",
    "pa_apply_many",
    "expand_message",
    "dpa_encrypt",
    "dpa_recover_via_key",
    "dpa_recover_via_rawkey",
]


# an n_pa x n Toeplitz seed, n_pa < n, has independent rows with probability
# >= 3/4 (counted over every seed of up to 16 bits), so a correct rank check
# refuses this many seeds with probability < 1e-120; one that refuses every
# seed fails instead of hanging
_FULL_RANK_ATTEMPTS = 200


@dataclass(frozen=True)
class AdditivePaFunction:
    """A compressing GF(2)-linear hash with independent rows, held by its seed.

    The hash is the n_pa x n Toeplitz matrix A with entry (i, j) =
    seed[i - j + n - 1] of an (n + n_pa - 1)-bit seed; its rows are never
    built.  Independence is checked once, at construction, from the seed
    by :func:`toeplitz_rows_independent`, the extended Euclidean algorithm,
    in quadratic time.  A x is one :func:`modified_toeplitz_hash` call (see
    :func:`pa_apply_many`), and preimages are drawn by
    :func:`sample_toeplitz_preimage`.  :meth:`draw` draws a hash from an
    rng; only this class sizes, draws or parses the seed.
    """

    seed: BitVector
    n_pa: int
    n: int

    def __post_init__(self) -> None:
        self._check_shape(self.n_pa, self.n)
        if not toeplitz_rows_independent(self.seed, self.n_pa, self.n):
            raise ValueError("rows not independent")

    @staticmethod
    def _check_shape(n_pa: int, n: int) -> None:
        if n_pa < 1:
            raise ValueError("hash needs at least one output bit: need n_pa >= 1")
        if n_pa >= n:
            raise ValueError("hash must compress: need n_pa < n")

    @classmethod
    def draw(cls, n_pa: int, n: int, rng) -> "AdditivePaFunction":
        """The hash of the first seed ``BitVector.random(n + n_pa - 1, rng)``
        with independent rows; a bad shape raises before any draw."""
        cls._check_shape(n_pa, n)
        for _ in range(_FULL_RANK_ATTEMPTS):
            with contextlib.suppress(ValueError):  # rows not independent: the shape is checked
                return cls(BitVector.random(n + n_pa - 1, rng), n_pa, n)
        raise RuntimeError(
            f"no {n_pa} x {n} Toeplitz seed with independent rows in {_FULL_RANK_ATTEMPTS} draws"
        )

    @classmethod
    def from_toeplitz_seed(cls, seed: BitVector, n_pa: int, n: int) -> "AdditivePaFunction":
        """The hash of a given seed; the benchmark's session op builds its hash here."""
        return cls(seed, n_pa, n)

    def _json_doc(self) -> dict:
        return {"kind": "toeplitz", "seed": self.seed.to_hex(), "n_pa": self.n_pa, "n": self.n}

    @classmethod
    def _from_json_doc(cls, doc: dict, n_pa: int, n: int) -> "AdditivePaFunction":
        """The hash that :meth:`_json_doc` wrote, once its shape is n_pa x n."""
        shape = (_json_field(doc, "n", int, "pa"), _json_field(doc, "n_pa", int, "pa"))
        if shape != (n, n_pa):
            raise ValueError(
                f"pa shape {shape[1]} x {shape[0]} does not match session {n_pa} x {n}"
            )
        kind = _json_field(doc, "kind", str, "pa")
        if kind != "toeplitz":
            raise ValueError(f"unknown pa kind {kind!r}; supported: 'toeplitz'")
        return cls(BitVector.from_hex(n + n_pa - 1, _json_field(doc, "seed", str, "pa")), n_pa, n)

    def __call__(self, a: BitVector) -> BitVector:
        return pa_apply(self, a)


def pa_apply(f: AdditivePaFunction, a: BitVector) -> BitVector:
    """Hash an n-bit input down to n_pa bits."""
    return pa_apply_many(f, [a])[0]


def pa_apply_many(f: AdditivePaFunction, inputs: Sequence[BitVector]) -> list[BitVector]:
    """Hash n-bit inputs down to n_pa bits each, in one call.

    A x is the seed's ``modified_toeplitz_hash`` of x << n_pa, whose T is
    A; that hash packs several short inputs into one transform.
    """
    for a in inputs:
        if a.length != f.n:
            raise ValueError(f"length mismatch: expected {f.n}, got {a.length}")
    keys = [BitVector(f.n + f.n_pa, a.bits << f.n_pa) for a in inputs]
    return modified_toeplitz_hash(f.seed, f.n_pa, keys)


def expand_message(f: AdditivePaFunction, m_prime: BitVector, rng) -> BitVector:
    """Uniform draw from the preimage {m : f(m) = m_prime}."""
    if m_prime.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {m_prime.length}")
    return sample_toeplitz_preimage(f.seed, f.n_pa, f.n, m_prime, rng)


def dpa_encrypt(a: BitVector, m: BitVector) -> BitVector:
    """XOR the expanded message with the raw (pre-hash) key."""
    return a ^ m


def dpa_recover_via_key(f: AdditivePaFunction, c: BitVector, k: BitVector) -> BitVector:
    """Recover the short message as f(c) XOR k; equals m' when c = a^m, k = f(a)."""
    if k.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {k.length}")
    return pa_apply(f, c) ^ k


def dpa_recover_via_rawkey(f: AdditivePaFunction, c: BitVector, a: BitVector) -> BitVector:
    """Recover the short message as f(c XOR a); the other decoding route."""
    return pa_apply(f, c ^ a)


@dataclass(frozen=True)
class DelayedPaSession:
    """One delayed-PA exchange, immutable once built.

    ``create`` fixes ``m_prime`` and draws the expansion from
    ``selector_seed`` before the raw key is touched, so the message is
    independent of the key by construction.
    """

    f: AdditivePaFunction
    a: BitVector
    m_prime: BitVector
    m: BitVector
    selector_seed: int
    c: BitVector

    def __post_init__(self) -> None:
        if pa_apply(self.f, self.m) != self.m_prime:
            raise ValueError("expanded message does not hash to m_prime")
        if self.c != self.a ^ self.m:
            raise ValueError("ciphertext is not a XOR m")

    @classmethod
    def create(cls, f: AdditivePaFunction, m_prime: BitVector, a: BitVector, rng) -> "DelayedPaSession":
        selector_seed = rng.getrandbits(64)
        m = expand_message(f, m_prime, random.Random(selector_seed))
        return cls(f=f, a=a, m_prime=m_prime, m=m, selector_seed=selector_seed, c=dpa_encrypt(a, m))

    @property
    def key(self) -> BitVector:
        return pa_apply(self.f, self.a)

    def recover_via_key(self) -> BitVector:
        return dpa_recover_via_key(self.f, self.c, self.key)

    def recover_via_rawkey(self) -> BitVector:
        return dpa_recover_via_rawkey(self.f, self.c, self.a)

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
