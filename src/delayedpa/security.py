"""Distinguishability-based security metrics and the delayed-PA verifier.

A key K with adversary view E is epsilon-secure when the joint state is
within trace distance epsilon of an ideal uniform key decoupled from E.
:func:`classical_epsilon` evaluates the all-classical specialization,
:func:`cq_epsilon` the classical-quantum one.

:func:`delayed_pa_epsilons` measures, by exhaustive enumeration over small
instances, the security of (a) the hashed key f(a) against an adversary view
E and (b) the short message m' against the enlarged view (E, a XOR m) seen
in the delayed scheme, where m is a uniform preimage of m'.  The two are
expected to coincide for every additive f with independent rows, every view
model, and every prior on a; the verifier computes both sides independently
and reports the gap rather than assuming it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from delayedpa.gf2 import BinaryMatrix, BitVector, matvec, row_reduce

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
    "sweep_delayed_pa",
    "random_eve_states",
]

MAX_EXHAUSTIVE_N = 6
MAX_QUANTUM_N = 4


@dataclass(frozen=True)
class ClassicalJoint:
    """Joint distribution p(k, e) over key values and adversary outcomes."""

    probs: np.ndarray  # shape (|K|, |E|)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if p.min() < -1e-15:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")

    @property
    def key_space(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class CqJoint:
    """Classical key with a conditional density matrix per key value."""

    p_k: np.ndarray
    rho_e: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.p_k, dtype=float)
        object.__setattr__(self, "p_k", p)
        rhos = tuple(np.asarray(r, dtype=complex) for r in self.rho_e)
        object.__setattr__(self, "rho_e", rhos)
        if abs(p.sum() - 1.0) > 1e-12 or p.min() < -1e-15:
            raise ValueError("invalid key distribution")
        if len(rhos) != p.shape[0]:
            raise ValueError("need one conditional state per key value")
        for r in rhos:
            if np.abs(r - r.conj().T).max() > 1e-10:
                raise ValueError("conditional state not Hermitian")
            if abs(np.trace(r) - 1.0) > 1e-10:
                raise ValueError("conditional state trace not 1")
            if np.linalg.eigvalsh(r).min() < -1e-10:
                raise ValueError("conditional state not positive semidefinite")


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
    ideal = p.sum(axis=0, keepdims=True) / joint.key_space
    return 0.5 * float(np.abs(p - ideal).sum())


def cq_epsilon(joint: CqJoint) -> float:
    """Half the trace norm of the block-diagonal difference from ideal.

    The trace norm of each Hermitian block is the sum of absolute
    eigenvalues.
    """
    rho_avg = sum(pk * rho for pk, rho in zip(joint.p_k, joint.rho_e))
    k = joint.p_k.shape[0]
    total = 0.0
    for pk, rho in zip(joint.p_k, joint.rho_e):
        diff = pk * rho - rho_avg / k
        total += float(np.abs(np.linalg.eigvalsh(diff)).sum())
    return 0.5 * total


# ------------------------------------------------------------------ verifier

def _hash_values(matrix: BinaryMatrix) -> np.ndarray:
    """f(a) as an integer for every a in {0, ..., 2^n - 1}."""
    n = matrix.cols
    return np.array(
        [matvec(matrix, BitVector(n, a)).bits for a in range(1 << n)],
        dtype=np.int64,
    )


def _check_instance(matrix: BinaryMatrix, max_n: int) -> None:
    if matrix.cols > max_n:
        raise ValueError("state space too large for exhaustive mode")
    if row_reduce(matrix).rank < matrix.rows:
        raise ValueError("rows not independent")


def _normalize_prior(prior, size: int) -> np.ndarray:
    if prior is None:
        return np.full(size, 1.0 / size)
    p = np.asarray(prior, dtype=float)
    if p.shape != (size,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("invalid prior")
    return p


def delayed_pa_epsilons(matrix: BinaryMatrix, table, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a classical adversary model.

    ``table[a][e]`` is the probability of view e given raw key a; ``prior``
    is the distribution of a (uniform by default).  eps_key scores the hashed
    key f(a) against view e; eps_msg scores a uniform short message m'
    against the enlarged view (e, a XOR m) with m uniform over the preimage
    of m'.  Both sides are built directly from their definitions.
    """
    _check_instance(matrix, MAX_EXHAUSTIVE_N)
    n, n_pa = matrix.cols, matrix.rows
    size = 1 << n
    t = np.asarray(table, dtype=float)
    if t.shape[0] != size:
        raise ValueError(f"table must have {size} rows")
    p_a = _normalize_prior(prior, size)
    weighted = p_a[:, None] * t  # (a, e)
    f_vals = _hash_values(matrix)
    n_keys = 1 << n_pa

    key_joint = np.zeros((n_keys, t.shape[1]))
    np.add.at(key_joint, f_vals, weighted)
    eps_key = classical_epsilon(ClassicalJoint(key_joint))

    # delayed side: p(m', e, c) = 2^-n * sum_a p(a) t[a, e] [f(a^c) = m']
    idx = np.arange(size)
    delayed = np.zeros((n_keys, size, t.shape[1]))
    for c in range(size):
        np.add.at(delayed[:, c, :], f_vals[idx ^ c], weighted)
    delayed /= size
    eps_msg = classical_epsilon(ClassicalJoint(delayed.reshape(n_keys, -1)))
    return eps_key, eps_msg


def delayed_pa_epsilons_quantum(matrix: BinaryMatrix, eve_states, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a quantum adversary.

    ``eve_states[a]`` is the adversary's conditional density matrix given raw
    key a.  In the delayed scenario the ciphertext register is appended to
    the adversary system as a classical (diagonal) block index.
    """
    _check_instance(matrix, MAX_QUANTUM_N)
    n, n_pa = matrix.cols, matrix.rows
    size = 1 << n
    rhos = [np.asarray(r, dtype=complex) for r in eve_states]
    if len(rhos) != size:
        raise ValueError(f"need {size} conditional states")
    d = rhos[0].shape[0]
    p_a = _normalize_prior(prior, size)
    f_vals = _hash_values(matrix)
    n_keys = 1 << n_pa

    # normal scenario: conditional states grouped by key value
    p_key = np.zeros(n_keys)
    blocks = [np.zeros((d, d), dtype=complex) for _ in range(n_keys)]
    for a in range(size):
        p_key[f_vals[a]] += p_a[a]
        blocks[f_vals[a]] += p_a[a] * rhos[a]
    cond = []
    for k in range(n_keys):
        if p_key[k] > 0:
            cond.append(blocks[k] / p_key[k])
        else:
            cond.append(np.eye(d, dtype=complex) / d)
    eps_key = cq_epsilon(CqJoint(p_key, tuple(cond)))

    # delayed scenario: view is (ciphertext c, quantum system), block
    # diagonal over c with joint weight 2^-n sum_a p(a) rho_a [f(a^c) = m']
    big = size * d
    p_msg = np.full(n_keys, 1.0 / n_keys)
    cond_msg = []
    for mp in range(n_keys):
        block = np.zeros((big, big), dtype=complex)
        for c in range(size):
            s = np.zeros((d, d), dtype=complex)
            for a in range(size):
                if f_vals[a ^ c] == mp:
                    s += p_a[a] * rhos[a]
            block[c * d:(c + 1) * d, c * d:(c + 1) * d] = s / size
        cond_msg.append(block * n_keys)  # normalize to trace 1
    eps_msg = cq_epsilon(CqJoint(p_msg, tuple(cond_msg)))
    return eps_key, eps_msg


# ------------------------------------------------------------------ models

def _flip_prob(params: dict, default: float) -> float:
    q = params.get("flip_prob", default)
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 <= q <= 1:
        raise ValueError(f"flip_prob must be a number in [0, 1], got {q!r}")
    return float(q)


def eve_table(rule: str, n: int, **params) -> np.ndarray:
    """Conditional view table p(e | a), shape (2^n, |E|), for a named rule."""
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
    raise ValueError(f"unknown view rule {rule!r}")


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
    return bank


def bank_tables(bank: list[dict], n: int) -> list[tuple[str, np.ndarray]]:
    """Materialize a bank of named models into explicit tables for width n."""
    out = []
    for entry in bank:
        name = entry["name"]
        try:
            if entry.get("rule") == "table":
                if not isinstance(entry.get("n"), int) or "table" not in entry:
                    raise ValueError("a table rule needs an integer n and a table")
                if entry["n"] != n:
                    continue
                table = np.asarray(entry["table"], dtype=float)
                if table.ndim != 2:
                    raise ValueError("table must be a list of rows")
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
    """All n_pa x n matrices with linearly independent rows, in row order."""
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


def sweep_delayed_pa(
    max_n: int,
    max_n_pa: int,
    bank: list[dict] | None = None,
    prior=None,
) -> dict:
    """Exhaustive classical equivalence sweep.

    Runs every independent-row matrix with 2 <= n <= max_n and
    1 <= n_pa <= min(max_n_pa, n - 1) against every model in the bank;
    returns the worst |eps_key - eps_msg| and the case that attains it.
    """
    if max_n > MAX_EXHAUSTIVE_N:
        raise ValueError("state space too large for exhaustive mode")
    bank = bank if bank is not None else load_eve_bank()
    cases = 0
    max_gap = 0.0
    worst = None
    for n in range(2, max_n + 1):
        tables = bank_tables(bank, n)
        for n_pa in range(1, min(max_n_pa, n - 1) + 1):
            for matrix in enumerate_pa_matrices(n, n_pa):
                for name, table in tables:
                    eps_key, eps_msg = delayed_pa_epsilons(matrix, table, prior)
                    gap = abs(eps_key - eps_msg)
                    cases += 1
                    if gap >= max_gap:
                        max_gap = gap
                        rows = tuple(matrix.row_words)
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
