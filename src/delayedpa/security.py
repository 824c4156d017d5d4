"""Distinguishability-based security metrics and the delayed-PA verifier.

A key K with adversary view E is epsilon-secure when the joint state is
within trace distance epsilon of an ideal uniform key decoupled from E.
Both metrics take the joint form: :class:`ClassicalJoint` holds p(k, e) and
:func:`classical_epsilon` sums |.| per entry; :class:`CqJoint` holds
sigma[k] = p(k) rho_k as a stack of d x d blocks, one per value of the
classical registers beside E, and :func:`cq_epsilon` sums |eigenvalue| per
block.

:func:`delayed_pa_epsilons` measures, by exhaustive enumeration over small
instances, the security of (a) the hashed key f(a) against an adversary view
E and (b) the short message m' against the enlarged view (E, a XOR m) seen
in the delayed scheme, where m is a uniform preimage of m'.  The two are
expected to coincide for every additive f with independent rows, every view
model, and every prior on a; the verifier computes both sides independently
and reports the gap rather than assuming it.

Both sides, classical and quantum, come from one grouping of the weighted
views w_a (a row p(a) t[a, .] or a matrix p(a) rho_a) by a table of f over
all 2^n inputs: the key side sums w_a with f(a) = k, the delayed side sums
w_a with f(a XOR c) = m' for every pad c (one quantum block per pad).  f is
looked up at a XOR c rather than computed as f(a) XOR f(c), because that
identity is the additivity on which the equivalence rests; the check must
not assume it.

:func:`sweep_delayed_pa` runs one case per row space, not per matrix.  Two
matrices with the same row space differ by an invertible A (f' = A f).  That
only renames the key values k -> A k and the messages m' -> A m' (the
preimage of A m' under f' is the preimage of m' under f), so each joint's
rows are permuted and eps_key and eps_msg, sums over every entry, are unchanged.
:func:`enumerate_row_spaces` yields one reduced row-echelon representative
per subspace; the ordered enumeration :func:`enumerate_pa_matrices` stays
as the oracle the tests check that claim against.  Each row space is grouped
once for the whole bank: the models' tables sit side by side along the view
axis, and each model's columns are scored alone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from delayedpa.gf2 import BinaryMatrix, row_reduce

__all__ = [
    "ClassicalJoint",
    "CqJoint",
    "SecurityReport",
    "classical_epsilon",
    "cq_epsilon",
    "delayed_pa_epsilons",
    "delayed_pa_epsilons_quantum",
    "eve_table",
    "load_eve_bank",
    "bank_tables",
    "default_eve_bank_path",
    "enumerate_pa_matrices",
    "enumerate_row_spaces",
    "sweep_delayed_pa",
    "random_eve_states",
]

MAX_EXHAUSTIVE_N = 7
MAX_QUANTUM_N = 4
# Adversary dimensions the random quantum trials accept.  A trial's largest
# array is its msg joint: up to 2^2 keys x 2^MAX_QUANTUM_N pads of dim x dim
# complex128 blocks, 4 * 16 * 16 * dim^2 = 1024 dim^2 bytes, 64 MiB at 256.
MAX_QUANTUM_DIM = 256
# Remainder dimensions the 2c/2d certificates accept.  A trial's largest
# array is the 2d stack: 4 blocks of (2 abar_dim)^2 complex128 entries,
# 4 * 4 * 16 * abar_dim^2 = 256 abar_dim^2 bytes, 64 MiB at 512.
MAX_ABAR_DIM = 512


@dataclass(frozen=True)
class ClassicalJoint:
    """Joint distribution p(k, e) over key values and adversary outcomes."""

    probs: np.ndarray  # shape (|K|, |E|)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if not np.isfinite(p).all():
            raise ValueError("non-finite probability")
        if p.min() < -1e-15:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")


@dataclass(frozen=True)
class CqJoint:
    """Joint classical-quantum state sigma[k] = p(k) rho_k, shape (|K|, ..., d, d).

    The middle axes are classical registers the adversary holds: the state
    given k is block diagonal over them, one d x d block per value.
    """

    sigma: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=complex)
        object.__setattr__(self, "sigma", s)
        if s.ndim < 3 or s.shape[-1] != s.shape[-2]:
            raise ValueError("joint state must have shape (|K|, ..., d, d)")
        if not np.isfinite(s).all():
            raise ValueError("non-finite state entry")
        if np.abs(s - s.conj().swapaxes(-1, -2)).max() > 1e-10:
            raise ValueError("block not Hermitian")
        if abs(np.trace(s, axis1=-2, axis2=-1).sum() - 1.0) > 1e-10:
            raise ValueError("total trace not 1")
        if np.linalg.eigvalsh(s).min() < -1e-10:
            raise ValueError("block not positive semidefinite")


@dataclass(frozen=True)
class SecurityReport:
    epsilon: float
    scenario: str  # "normal-PA" or "delayed-PA"
    n: int
    n_pa: int
    pa_rows: tuple[int, ...]
    eve_model: str

    def __post_init__(self) -> None:
        if not -1e-12 <= self.epsilon <= 1.0 + 1e-12:
            raise ValueError("epsilon outside [0, 1]")


def classical_epsilon(joint: ClassicalJoint) -> float:
    """Half the L1 distance between p(k, e) and uniform-key times p(e)."""
    p = joint.probs
    ideal = p.sum(axis=0, keepdims=True) / p.shape[0]
    return 0.5 * float(np.abs(p - ideal).sum())


def cq_epsilon(joint: CqJoint) -> float:
    """Half the trace norm of sigma minus uniform-key times its k-marginal.

    The difference is block diagonal, so its trace norm is the sum of the
    absolute eigenvalues of every block.
    """
    s = joint.sigma
    ideal = s.sum(axis=0, keepdims=True) / s.shape[0]
    return 0.5 * float(np.abs(np.linalg.eigvalsh(s - ideal)).sum())


# ------------------------------------------------------------------ verifier

def _hash_values(matrix: BinaryMatrix) -> np.ndarray:
    """f(a) as an integer for every a in {0, ..., 2^n - 1}, by one product."""
    shifts = np.arange(matrix.cols)
    inputs = (np.arange(1 << matrix.cols)[:, None] >> shifts) & 1
    rows = (np.array(matrix.row_words)[:, None] >> shifts) & 1
    return ((inputs @ rows.T) & 1) @ (1 << np.arange(matrix.rows))


# entries per scatter-add: its index and weight arrays stay near 256 KiB
# however many views a bank puts side by side
_SCATTER_ENTRIES = 1 << 15


def _grouped_views(f_vals: np.ndarray, n_keys: int, weighted: np.ndarray):
    """(key, msg) for the views w_a = weighted[a], of any trailing shape.

    key[k] = sum_a [f(a) = k] w_a and msg[m', c] = 2^-n sum_a [f(a ^ c) = m'] w_a,
    from scatter-adds over runs of pads c that sum every cell over a in
    increasing order.
    """
    size = f_vals.shape[0]
    flat = weighted.reshape(size, -1).view(np.float64)  # complex as (re, im) pairs
    width = flat.shape[1]
    pads = np.arange(size)
    table = np.empty((n_keys, size, width))
    step = max(1, _SCATTER_ENTRIES // (size * width))
    # every pad of a run weighs its cells by the same views, so the weights of
    # the longest run are built once; a shorter last run takes a prefix
    weights = np.tile(flat.ravel(), min(step, size))
    for lo in range(0, size, step):
        run = pads[lo:lo + step, None]
        # f is looked up at a ^ c, never formed as f(a) ^ f(c): the check must
        # not assume the additivity it certifies
        cell = f_vals[run ^ pads] * len(run) + run - lo  # [c, a] -> m' * len(run) + c - lo
        cells = np.add.outer(cell * width, np.arange(width))
        sums = np.bincount(cells.ravel(), weights[:cells.size], n_keys * len(run) * width)
        table[:, lo:lo + step] = sums.reshape(n_keys, len(run), width)
    table = table.view(weighted.dtype).reshape((n_keys, size) + weighted.shape[1:])
    key = table[:, 0].copy()  # pad c = 0 is the undelayed key
    table /= size
    return key, table


def _check_instance(matrix: BinaryMatrix, max_n: int) -> None:
    if matrix.cols > max_n:
        raise ValueError("state space too large for exhaustive mode")
    if row_reduce(matrix).rank < matrix.rows:
        raise ValueError("rows not independent")


def _normalize_prior(prior, size: int) -> np.ndarray:
    if prior is None:
        return np.full(size, 1.0 / size)
    p = np.asarray(prior, dtype=float)
    # p >= 0 is False for NaN, and an infinite entry misses the sum
    if p.shape != (size,) or not (p >= 0).all() or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("invalid prior")
    return p


def _delayed_pa_joints(matrix: BinaryMatrix, views: np.ndarray, prior, max_n: int):
    """The (key, msg) joints of the views weighted by the prior on a."""
    _check_instance(matrix, max_n)
    size = 1 << matrix.cols
    if views.shape[:1] != (size,):
        raise ValueError(f"need {size} views, one per raw key")
    p_a = _normalize_prior(prior, size)
    weighted = p_a.reshape((size,) + (1,) * (views.ndim - 1)) * views
    return _grouped_views(_hash_values(matrix), 1 << matrix.rows, weighted)


def _classical_epsilons(key: np.ndarray, msg: np.ndarray) -> tuple[float, float]:
    # p(m', c, e): the view is the pair (c, e); reshaping a sliced msg copies
    # it into the same C layout an unsliced one has
    msg = msg.reshape(len(msg), -1)
    return classical_epsilon(ClassicalJoint(key)), classical_epsilon(ClassicalJoint(msg))


def delayed_pa_epsilons(matrix: BinaryMatrix, table, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a classical adversary model.

    ``table[a][e]`` is the probability of view e given raw key a; ``prior``
    is the distribution of a (uniform by default).  eps_key scores the hashed
    key f(a) against view e; eps_msg scores a uniform short message m'
    against the enlarged view (e, a XOR m) with m uniform over the preimage
    of m'.  Both sides are built directly from their definitions.
    """
    return _classical_epsilons(
        *_delayed_pa_joints(matrix, np.asarray(table, dtype=float), prior, MAX_EXHAUSTIVE_N)
    )


def _bank_epsilons(matrix: BinaryMatrix, views: np.ndarray, widths) -> list[tuple[float, float]]:
    """(eps_key, eps_msg) under the uniform prior for every model of a bank.

    ``views`` holds the models' tables side by side along the view axis and
    ``widths`` their column counts.  One grouping serves every model; each
    model's columns are then copied out contiguously, so it is scored
    exactly as :func:`delayed_pa_epsilons` scores its table alone.
    """
    key, msg = _delayed_pa_joints(matrix, views, None, MAX_EXHAUSTIVE_N)
    out = []
    stop = 0
    for width in widths:
        start, stop = stop, stop + width
        out.append(_classical_epsilons(key[:, start:stop].copy(), msg[:, :, start:stop]))
    return out


def delayed_pa_epsilons_quantum(matrix: BinaryMatrix, eve_states, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a quantum adversary.

    ``eve_states[a]`` is the adversary's density matrix given raw key a.  In
    the delayed scenario the ciphertext c is a classical register beside the
    adversary system, so the msg joint holds one block per pad.
    """
    key, msg = _delayed_pa_joints(matrix, np.asarray(eve_states, dtype=complex), prior, MAX_QUANTUM_N)
    return cq_epsilon(CqJoint(key)), cq_epsilon(CqJoint(msg))


# ------------------------------------------------------------------ models

def _flip_prob(params: dict, default: float) -> float:
    q = params.get("flip_prob", default)
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 <= q <= 1:
        raise ValueError(f"flip_prob must be a number in [0, 1], got {q!r}")
    return float(q)


# the params each rule reads; any other key is a typo that would silently
# run the rule at its default
_RULE_PARAMS = {
    "blind": (),
    "bit": ("index",),
    "parity": (),
    "copy": (),
    "noisy-copy": ("flip_prob",),
    "noisy-parity": ("flip_prob",),
}


def eve_table(rule: str, n: int, **params) -> np.ndarray:
    """Conditional view table p(e | a), shape (2^n, |E|), for a named rule."""
    if rule not in _RULE_PARAMS:
        raise ValueError(f"unknown view rule {rule!r}")
    unknown = sorted(set(params) - set(_RULE_PARAMS[rule]))
    if unknown:
        raise ValueError(f"unknown params key {unknown[0]!r} for rule {rule!r}")
    size = 1 << n
    if rule == "blind":
        return np.ones((size, 1))
    if rule == "bit":
        index = params.get("index", 0)
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"index must be an integer, got {index!r}")
        index %= n
        t = np.zeros((size, 2))
        for a in range(size):
            t[a, (a >> index) & 1] = 1.0
        return t
    if rule == "parity":
        t = np.zeros((size, 2))
        for a in range(size):
            t[a, bin(a).count("1") & 1] = 1.0
        return t
    if rule == "copy":
        return np.eye(size)
    if rule == "noisy-copy":
        q = _flip_prob(params, 0.25)
        t = np.empty((size, size))
        for a in range(size):
            for e in range(size):
                dist = bin(a ^ e).count("1")
                t[a, e] = (q ** dist) * ((1 - q) ** (n - dist))
        return t
    if rule == "noisy-parity":
        q = _flip_prob(params, 0.1)
        t = np.empty((size, 2))
        for a in range(size):
            par = bin(a).count("1") & 1
            t[a, par] = 1 - q
            t[a, 1 - par] = q
        return t


def default_eve_bank_path() -> Path:
    return Path(__file__).parent / "data" / "eve_bank.json"


def load_eve_bank(path=None) -> list[dict]:
    p = Path(path) if path is not None else default_eve_bank_path()
    bank = json.loads(p.read_text())
    if not isinstance(bank, list):
        raise ValueError("view-model bank must be a JSON list")
    for i, entry in enumerate(bank):
        if not isinstance(entry, dict):
            raise ValueError(f"bank entry {i} is not a JSON object")
        if not isinstance(entry.get("name"), str):
            raise ValueError(f"bank entry {i} needs a string name")
        if not isinstance(entry.get("rule"), str):
            raise ValueError(f"bank entry {entry['name']!r} needs a string rule")
        if not isinstance(entry.get("params", {}), dict):
            raise ValueError(f"bank entry {entry['name']!r}: params must be a JSON object")
        keys = {"name", "rule"} | ({"n", "table"} if entry["rule"] == "table" else {"params"})
        unknown = sorted(set(entry) - keys)
        if unknown:
            raise ValueError(f"bank entry {entry['name']!r}: unknown key {unknown[0]!r}")
    return bank


def _explicit_table(entry: dict) -> np.ndarray:
    """A ``table`` rule's table, checked to be p(e | a) for its width n."""
    width = entry.get("n")
    if (
        not isinstance(width, int) or isinstance(width, bool)
        or not 1 <= width <= MAX_EXHAUSTIVE_N or "table" not in entry
    ):
        raise ValueError(f"a table rule needs an integer n in 1..{MAX_EXHAUSTIVE_N} and a table")
    try:
        table = np.asarray(entry["table"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("table must hold numbers in equal-length rows") from None
    if table.ndim != 2 or table.shape[0] != 1 << width:
        raise ValueError(f"table must be a list of {1 << width} rows")
    # a comparison with NaN is False, so this also rejects NaN
    if not ((table >= 0) & (table <= 1)).all():
        raise ValueError("table entries must be finite probabilities in [0, 1]")
    off = np.flatnonzero(np.abs(table.sum(axis=1) - 1.0) > 1e-12)
    if off.size:
        raise ValueError(f"table row {off[0]} does not sum to 1")
    return table


def bank_tables(bank: list[dict], n: int) -> list[tuple[str, np.ndarray]]:
    """Materialize a bank of named models into explicit tables for width n."""
    out = []
    for entry in bank:
        name = entry["name"]
        try:
            if entry.get("rule") == "table":
                table = _explicit_table(entry)
                if entry["n"] != n:
                    continue
            else:
                table = eve_table(entry["rule"], n, **entry.get("params", {}))
        except ValueError as exc:
            raise ValueError(f"bank entry {name!r}: {exc}") from None
        out.append((name, table))
    return out


def random_eve_states(n: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One random density matrix of the given dimension per raw-key value."""
    states = []
    for _ in range(1 << n):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        states.append(rho / np.trace(rho))
    return states


# ------------------------------------------------------------------ sweep

def enumerate_pa_matrices(n: int, n_pa: int) -> Iterator[BinaryMatrix]:
    """All n_pa x n matrices with linearly independent rows, in row order.

    The sweep runs one representative per row space instead
    (:func:`enumerate_row_spaces`); this ordered enumeration is the oracle
    the tests hold that reduction to.
    """
    def extend(rows: tuple[int, ...], span: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if len(rows) == n_pa:
            yield rows
            return
        for cand in range(1, 1 << n):
            if cand in span:
                continue
            yield from extend(rows + (cand,), span | frozenset(s ^ cand for s in span))

    for rows in extend((), frozenset({0})):
        yield BinaryMatrix(n_pa, n, rows)


def enumerate_row_spaces(n: int, n_pa: int) -> Iterator[BinaryMatrix]:
    """One reduced row-echelon matrix per n_pa-dimensional subspace of GF(2)^n.

    The convention is :func:`row_reduce`'s: a row's pivot is its lowest set
    column.  Every choice of pivot columns p_0 < ... < p_{n_pa-1} and of the
    bits of row r in the non-pivot columns above p_r gives one subspace, and
    each subspace arises once, so there are Gaussian-binomial many.
    """
    for pivots in itertools.combinations(range(n), n_pa):
        free = [(r, 1 << c) for r, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for bits in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for j, (r, col) in enumerate(free):
                if bits >> j & 1:
                    rows[r] |= col
            yield BinaryMatrix(n_pa, n, tuple(rows))


def sweep_delayed_pa(
    max_n: int,
    max_n_pa: int,
    bank: list[dict] | None = None,
) -> dict:
    """Exhaustive classical equivalence sweep.

    Runs every row space with 2 <= n <= max_n and
    1 <= n_pa <= min(max_n_pa, n - 1), by its row-echelon representative,
    against every model in the bank; returns the number of (row space,
    model) cases, the worst |eps_key - eps_msg| and the case that attains it.
    """
    if max_n > MAX_EXHAUSTIVE_N:
        raise ValueError("state space too large for exhaustive mode")
    bank = bank if bank is not None else load_eve_bank()
    cases = 0
    max_gap = 0.0
    worst = None
    for n in range(2, max_n + 1):
        tables = bank_tables(bank, n)
        if not tables:
            continue
        names = [name for name, _ in tables]
        views = np.concatenate([table for _, table in tables], axis=1)
        widths = [table.shape[1] for _, table in tables]
        for n_pa in range(1, min(max_n_pa, n - 1) + 1):
            for matrix in enumerate_row_spaces(n, n_pa):
                for name, (eps_key, eps_msg) in zip(names, _bank_epsilons(matrix, views, widths)):
                    gap = abs(eps_key - eps_msg)
                    cases += 1
                    if gap >= max_gap:  # ties go to the last case
                        max_gap = gap
                        worst = (n, n_pa, tuple(matrix.row_words), name, eps_key, eps_msg)
    if worst is not None:
        n, n_pa, rows, name, eps_key, eps_msg = worst
        worst = {
            "n": n,
            "n_pa": n_pa,
            "rows": list(rows),
            "eve_model": name,
            "scenarios": [
                asdict(SecurityReport(eps_key, "normal-PA", n, n_pa, rows, name)),
                asdict(SecurityReport(eps_msg, "delayed-PA", n, n_pa, rows, name)),
            ],
        }
    return {"cases": cases, "max_gap": max_gap, "worst": worst}
