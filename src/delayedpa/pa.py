"""Additive privacy amplification and the delayed-application pipeline.

The usual order is: hash the raw key down to a short secure key, then use it
as a one-time pad.  The delayed order encrypts with the raw key directly and
applies the hash afterwards; for that the receiver needs the message expanded
to a uniformly random element of the hash preimage, which is what
:func:`expand_message` produces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from delayedpa.gf2 import (
    BinaryMatrix,
    BitVector,
    matvec,
    row_reduce,
    sample_preimage,
    toeplitz_from_seed,
    toeplitz_rows_independent,
)

__all__ = [
    "AdditivePaFunction",
    "DelayedPaSession",
    "pa_apply",
    "expand_message",
    "expand_imperfect_key",
    "dpa_encrypt",
    "dpa_recover_via_key",
    "dpa_recover_via_rawkey",
]


@dataclass(frozen=True)
class AdditivePaFunction:
    """A compressing GF(2)-linear hash with independent rows.

    Independence is checked once, at construction.  A Toeplitz matrix (one
    that carries its ``toeplitz_seed``) is checked from the seed by
    :func:`toeplitz_rows_independent`, the extended Euclidean algorithm, in
    quadratic time; any other matrix by :func:`row_reduce`.  Nothing is
    kept: each preimage draw row-reduces [A | m'] afresh, and a hash that
    is only applied never row-reduces.
    """

    matrix: BinaryMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows < 1:
            raise ValueError("hash needs at least one output bit: need n_pa >= 1")
        if self.matrix.rows >= self.matrix.cols:
            raise ValueError("hash must compress: need n_pa < n")
        seed = self.matrix.toeplitz_seed
        if seed is not None:
            independent = toeplitz_rows_independent(seed, self.n_pa, self.n)
        else:
            independent = row_reduce(self.matrix).rank == self.n_pa
        if not independent:
            raise ValueError("rows not independent")

    @classmethod
    def from_rows(cls, rows) -> "AdditivePaFunction":
        return cls(BinaryMatrix.from_rows(rows))

    @classmethod
    def from_toeplitz_seed(cls, seed: BitVector, n_pa: int, n: int) -> "AdditivePaFunction":
        return cls(toeplitz_from_seed(seed, n_pa, n))

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def n_pa(self) -> int:
        return self.matrix.rows

    def __call__(self, a: BitVector) -> BitVector:
        return pa_apply(self, a)


def pa_apply(f: AdditivePaFunction, a: BitVector) -> BitVector:
    """Hash an n-bit input down to n_pa bits."""
    if a.length != f.n:
        raise ValueError(f"length mismatch: expected {f.n}, got {a.length}")
    return matvec(f.matrix, a)


def expand_message(f: AdditivePaFunction, m_prime: BitVector, rng) -> BitVector:
    """Uniform draw from the preimage {m : f(m) = m_prime}."""
    if m_prime.length != f.n_pa:
        raise ValueError(f"length mismatch: expected {f.n_pa}, got {m_prime.length}")
    return sample_preimage(f.matrix, m_prime, rng)


def expand_imperfect_key(
    f: AdditivePaFunction, g: AdditivePaFunction, a_prime: BitVector, rng
) -> BitVector:
    """Uniform m with f(m) = g(a_prime), for using an imperfect key as message."""
    if g.n_pa != f.n_pa:
        raise ValueError("output lengths of the two hashes must match")
    return expand_message(f, pa_apply(g, a_prime), rng)


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
        seed = self.f.matrix.toeplitz_seed
        if seed is not None:
            pa_doc = {"kind": "toeplitz", "seed": seed.to_hex(), "n_pa": self.f.n_pa, "n": self.f.n}
        else:
            pa_doc = {
                "kind": "matrix",
                "n_pa": self.f.n_pa,
                "n": self.f.n,
                "rows": [self.f.matrix.row(i).to_hex() for i in range(self.f.n_pa)],
            }
        doc = {
            "n": self.f.n,
            "n_pa": self.f.n_pa,
            "pa": pa_doc,
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
        pa_doc = _json_field(doc, "pa", dict)
        pa_shape = (_json_field(pa_doc, "n", int, "pa"), _json_field(pa_doc, "n_pa", int, "pa"))
        if pa_shape != (n, n_pa):
            raise ValueError(
                f"pa shape {pa_shape[1]} x {pa_shape[0]} does not match session {n_pa} x {n}"
            )
        kind = _json_field(pa_doc, "kind", str, "pa")
        if kind == "toeplitz":
            seed = BitVector.from_hex(n + n_pa - 1, _json_field(pa_doc, "seed", str, "pa"))
            f = AdditivePaFunction.from_toeplitz_seed(seed, n_pa, n)
        elif kind == "matrix":
            rows = _json_field(pa_doc, "rows", list, "pa")
            if not all(isinstance(h, str) for h in rows):
                raise ValueError(f"pa field 'rows' must hold hex strings, got {rows!r}")
            rows = [BitVector.from_hex(n, h) for h in rows]
            f = AdditivePaFunction(BinaryMatrix.from_row_vectors(rows))
        else:
            raise ValueError(f"unknown pa kind {kind!r}")
        return cls(
            f=f,
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
