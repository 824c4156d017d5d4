"""Distinguishability-based security metrics and the delayed-PA verifier.

A key K with adversary view E is epsilon-secure when the joint state is
within trace distance epsilon of an ideal uniform key decoupled from E.
Both metrics take the joint form: a classical joint p(k, e) is scored by
summing |.| per entry (:func:`_bank_epsilons`, for a stack of joints);
:class:`CqJoint` holds sigma[k] = p(k) rho_k as a stack of d x d blocks,
one per value of the classical registers beside E, and :func:`cq_epsilon`
sums |eigenvalue| per block.

The verifier measures, by exhaustive enumeration over small instances, the
security of (a) the hashed key f(a) against an adversary view E and (b)
the short message m' against the enlarged view (E, a XOR m) seen
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
not assume it.  f must be balanced (2^(n - n_pa) preimages per value, as
for an additive f with independent rows): only then has a uniform preimage
m of m' P(m) = 2^-n, as the delayed side takes it.  The grouping gathers
these equal fibers: per pad the inputs are sorted stably by f(a XOR c), and
each fiber's views are summed in increasing a, as a scatter-add sums them.

:func:`sweep_delayed_pa` runs one case per row space, not per matrix.  Two
matrices with the same row space differ by an invertible A (f' = A f).  That
only renames the key values k -> A k and the messages m' -> A m' (the
preimage of A m' under f' is the preimage of m' under f), so each joint's
rows are permuted and eps_key and eps_msg, sums over every entry, are unchanged.
:func:`enumerate_row_spaces` returns one reduced row-echelon representative
per subspace; the tests check that claim against the ordered enumeration
of every matrix.  A hash is its row words (bit j of word i is entry (i, j)),
and R hashes of one shape are an int64 array of shape (R, n_pa).  For each
input width the sweep sets the bank's tables side by side and works on
chunks of row spaces: one integer product hashes a chunk, one count checks
its ranks (a linear f is balanced exactly when its rows are independent),
and one grouping, models of equal width together, serves every (row space,
model) pair.  Each side is checked and centred once over the chunk; only
the last sum copies each joint into its own contiguous slab, summed as
numpy sums one joint alone, so every eps is the one-joint value bit for bit.
:func:`delayed_pa_epsilons_quantum` runs the same grouping on a chunk of one.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from delayedpa.quantum import _check_density_blocks
from delayedpa.stream import _BYTE_WEIGHTS, BitStream

__all__ = [
    "CqJoint",
    "SecurityReport",
    "cq_epsilon",
    "delayed_pa_epsilons_quantum",
    "eve_table",
    "load_eve_bank",
    "bank_tables",
    "default_eve_bank_path",
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
        _check_density_blocks(s)


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


def cq_epsilon(joint: CqJoint) -> float:
    """Half the trace norm of sigma minus uniform-key times its k-marginal.

    The difference is block diagonal, so its trace norm is the sum of the
    absolute eigenvalues of every block.
    """
    s = joint.sigma
    ideal = s.sum(axis=0, keepdims=True) / s.shape[0]
    return 0.5 * float(np.abs(np.linalg.eigvalsh(s - ideal)).sum())


# ------------------------------------------------------------------ verifier

def _hash_values(rows: np.ndarray, n: int) -> np.ndarray:
    """f(a) as an integer for every a in {0, ..., 2^n - 1}, by one product.

    ``rows`` holds R hashes' row words, shape (R, n_pa); the table has
    shape (R, 2^n), one row per hash.
    """
    shifts = np.arange(n)
    inputs = (np.arange(1 << n)[:, None] >> shifts) & 1
    bits = (rows.reshape(-1, 1) >> shifts) & 1
    f_bits = ((bits @ inputs.T) & 1).reshape(rows.shape + (1 << n,))
    return (1 << np.arange(rows.shape[1])) @ f_bits


# entries per chunk: the joint table of one sweep call and the views gathered
# for one fiber position stay near 256 KiB however many views a bank puts
# side by side, so the sweep's peak RSS stays near a one-matrix verifier's
_SCATTER_ENTRIES = 1 << 15


def _grouped_views(f_vals: np.ndarray, n_keys: int, weighted: np.ndarray):
    """(key, msg) for the views w_a = weighted[a], of any trailing shape.

    key[r, k] = sum_a [f_r(a) = k] w_a and msg[r, m', c] =
    2^-n sum_a [f_r(a ^ c) = m'] w_a for R tables f_vals, shape (R, 2^n).
    Every table must be balanced, 2^n / n_keys preimages per value, since
    msg is the delayed-PA joint only when P(m) = 2^-n; the one gate is
    :func:`_delayed_pa_joints`.  Each cell sums its fiber in increasing a.
    """
    n_rows, size = f_vals.shape
    fiber = size // n_keys  # for every pad too: a -> a ^ c permutes the inputs
    # each take gathers whole rows of a C-contiguous copy: from an F-ordered
    # stack such as views[:, columns], every gather is strided and about 7x
    # slower (asanyarray keeps an ndarray subclass, so a test can spy on take)
    flat = np.asanyarray(weighted, order="C").reshape(size, -1).view(np.float64)
    width = flat.shape[1]  # complex views as (re, im) pairs
    pads = np.arange(size)
    table = np.zeros((n_rows, n_keys, size, width))
    per_chunk = max(1, _SCATTER_ENTRIES // (n_keys * width))  # (row space, pad) pairs
    pad_step = min(size, per_chunk)
    row_step = max(1, per_chunk // size)
    for r0 in range(0, n_rows, row_step):
        for c0 in range(0, size, pad_step):
            run = pads[c0:c0 + pad_step]
            # f is looked up at a ^ c, never formed as f(a) ^ f(c): the check
            # must not assume the additivity it certifies
            keyed = f_vals[r0:r0 + row_step, run[:, None] ^ pads]  # [r, c, a] -> f(a ^ c)
            # sorting f(a ^ c) * 2^n + a is a stable argsort of the a's by key;
            # it cuts into the fibers, [r, c, m', j] -> [r, m', c, j]
            order = np.sort(keyed * size + pads, axis=-1) % size
            idx = order.reshape(keyed.shape[:2] + (n_keys, fiber)).transpose(0, 2, 1, 3)
            sums = table[r0:r0 + row_step, :, c0:c0 + pad_step]
            for j in range(fiber):
                sums += flat.take(idx[..., j], axis=0)
    table = table.view(weighted.dtype).reshape((n_rows, n_keys, size) + weighted.shape[1:])
    key = table[:, :, 0].copy()  # pad c = 0 is the undelayed key
    table /= size
    return key, table


def _normalize_prior(prior, size: int) -> np.ndarray:
    if prior is None:
        return np.full(size, 1.0 / size)
    p = np.asarray(prior, dtype=float)
    # p >= 0 is False for NaN, and an infinite entry misses the sum
    if p.shape != (size,) or not (p >= 0).all() or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("invalid prior")
    return p


def _delayed_pa_joints(rows: np.ndarray, n: int, views: np.ndarray, prior, max_n: int):
    """The (key, msg) joints of the views weighted by the prior on a, one per hash.

    ``rows`` holds the hashes' row words, shape (R, n_pa), over n input
    bits; key and msg carry a leading axis over them.
    """
    if n > max_n:
        raise ValueError("state space too large for exhaustive mode")
    size, n_keys = 1 << n, 1 << rows.shape[1]
    f_vals = _hash_values(rows, n)
    # f is linear, so its rows are independent exactly when every key value
    # has 2^(n - n_pa) preimages: the one gate of the grouping's balance
    offsets = n_keys * np.arange(len(f_vals))[:, None]
    counts = np.bincount((f_vals + offsets).ravel(), minlength=offsets.size * n_keys)
    if (counts != size // n_keys).any():
        raise ValueError("rows not independent")
    if views.shape[:1] != (size,):
        raise ValueError(f"need {size} views, one per raw key")
    p_a = _normalize_prior(prior, size)
    weighted = p_a.reshape((size,) + (1,) * (views.ndim - 1)) * views
    return _grouped_views(f_vals, n_keys, weighted)


def _bank_epsilons(rows: np.ndarray, n: int, views: np.ndarray, widths, prior=None):
    """(eps_key, eps_msg), each of shape (R, models), for every hash and model of a bank.

    ``rows`` holds the R hashes' row words over n input bits, shape (R, n_pa);
    ``views`` holds the models' tables side by side along the view axis and
    ``widths`` their column counts.  The columns are first reordered so that
    models of equal width sit side by side, and one grouping serves every
    hash and model.  Each side (key, msg) is then checked and centred in
    place once over the whole stack, its per-joint totals for the sum-to-1
    check taken from the key-axis sum that centres it.  Only then is each
    width's run of models copied out, every joint into its own C-contiguous
    slab (|K|, views), for the pairwise sum numpy runs on one joint alone,
    so each eps is the one-joint value bit for bit.  A run over
    ``_SCATTER_ENTRIES`` entries is copied a few models at a time.
    """
    starts = list(itertools.accumulate(widths, initial=0))
    order = sorted(range(len(widths)), key=widths.__getitem__)  # stable: bank order within a width
    columns = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in order])
    key, msg = _delayed_pa_joints(rows, n, views[:, columns], prior, MAX_EXHAUSTIVE_N)
    n_rows, n_keys, n_pads = msg.shape[:3]
    firsts = list(itertools.accumulate((widths[i] for i in order), initial=0))[:-1]
    eps = np.empty((2, n_rows, len(widths)))
    # p(m', c, e): the msg view is the pair (c, e)
    for side, p in enumerate((key, msg)):
        total = p.sum(axis=1, keepdims=True)
        # numpy sums the stack's key axis in order but a one-view joint's alone
        # pairwise: those key joints, the first columns, are summed apart
        for j in range(widths.count(1) if side == 0 else 0):
            total[:, 0, j] = p[:, :, j].sum(axis=1)
        if not np.isfinite(total).all():  # a NaN or inf entry reaches its column sum
            raise ValueError("non-finite probability")
        if p.min() < -1e-15:
            raise ValueError("negative probability")
        sums = np.add.reduceat(total.reshape(n_rows, -1, p.shape[-1]).sum(axis=1), firsts, axis=1)
        if (np.abs(sums - 1.0) > 1e-12).any():
            raise ValueError("probabilities do not sum to 1")
        p -= total / n_keys
        np.abs(p, out=p)
        # [r, k, ..., (model, e)] -> [r, model, k, ..., e], one slab per joint
        axes = (0, p.ndim - 1, *range(1, p.ndim - 1), p.ndim)
        stop = 0
        for width, same in itertools.groupby(order, key=widths.__getitem__):
            same = list(same)
            # models per copy: a copy stays within the grouping's entry bound
            # unless one model's joints alone exceed it
            step = max(1, _SCATTER_ENTRIES // (n_rows * n_keys * n_pads * width))
            for lo in range(0, len(same), step):
                group = same[lo:lo + step]
                start, stop = stop, stop + width * len(group)
                joint = p[..., start:stop].reshape(p.shape[:-1] + (len(group), width))
                joint = np.ascontiguousarray(joint.transpose(axes)).reshape(n_rows, len(group), -1)
                eps[side][:, group] = 0.5 * joint.sum(axis=2)
    return eps[0], eps[1]


def delayed_pa_epsilons_quantum(rows, eve_states, prior=None) -> tuple[float, float]:
    """Exhaustive (eps_key, eps_msg) for a quantum adversary.

    ``rows`` are the hash's row words: bit j of ``rows[i]`` is entry (i, j).
    ``eve_states[a]`` is the adversary's density matrix given raw key a, so
    the 2^n states fix the input width n.  In the delayed scenario the
    ciphertext c is a classical register beside the adversary system, so the
    msg joint holds one block per pad.
    """
    states = np.asarray(eve_states, dtype=complex)
    size = len(states) if states.ndim else 0
    n = size.bit_length() - 1
    if size < 2 or size != 1 << n:
        raise ValueError(f"need 2^n states for some n >= 1, one per raw key, got {size}")
    rows = [operator.index(w) for w in rows]  # a float would be truncated
    if not all(0 <= w < size for w in rows):
        raise ValueError(f"row words must lie in [0, {size})")
    words = np.array(rows, dtype=np.int64).reshape(1, -1)
    key, msg = _delayed_pa_joints(words, n, states, prior, MAX_QUANTUM_N)
    return cq_epsilon(CqJoint(key[0])), cq_epsilon(CqJoint(msg[0]))


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
    a = np.arange(size)
    if rule == "blind":
        return np.ones((size, 1))
    if rule == "bit":
        index = params.get("index", 0)
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"index must be an integer, got {index!r}")
        index %= n
        return np.eye(2)[(a >> index) & 1]
    if rule == "parity":
        return np.eye(2)[_popcount(a, n) & 1]
    if rule == "copy":
        return np.eye(size)
    if rule == "noisy-copy":
        q = _flip_prob(params, 0.25)
        # powers of Python floats, as the per-entry formula took them:
        # np.power can differ from them in the last bit
        by_distance = np.array([(q ** d) * ((1 - q) ** (n - d)) for d in range(n + 1)])
        return by_distance[_popcount(a[:, None] ^ a, n)]
    if rule == "noisy-parity":
        q = _flip_prob(params, 0.1)
        return np.array([[1 - q, q], [q, 1 - q]])[_popcount(a, n) & 1]


def _popcount(x: np.ndarray, n: int) -> np.ndarray:
    """The number of set bits of each entry of x, for entries below 2^n."""
    return sum((_BYTE_WEIGHTS[(x >> shift) & 0xFF] for shift in range(0, n, 8)), np.zeros_like(x))


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


def random_eve_states(n: int, dim: int, stream: BitStream) -> np.ndarray:
    """One random density matrix of the given dimension per raw-key value, shape (2^n, dim, dim).

    State a is m m+ / tr(m m+) for m = re + i im, where re and im are the
    a-th pair of dim x dim standard normals of one ``stream.normal`` call.
    """
    normal = stream.normal(size=(1 << n, 2, dim, dim))
    m = normal[:, 0] + 1j * normal[:, 1]
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


# ------------------------------------------------------------------ sweep

def enumerate_row_spaces(n: int, n_pa: int) -> np.ndarray:
    """One reduced row-echelon basis per n_pa-dimensional subspace of GF(2)^n.

    Returns their row words as an int64 array of shape (count, n_pa).
    Pivots are read from bit 0, as column-by-column Gauss-Jordan elimination
    leaves them: a row's pivot is its lowest set column, the pivots increase
    with the row, and no other row has a 1 in a pivot column.  Every choice
    of pivot columns p_0 < ... < p_{n_pa-1} and of the bits of row r in the
    non-pivot columns above p_r gives one subspace, and each subspace arises
    once, so there are Gaussian-binomial many.  They come in lexicographic
    order of the pivots, and for one choice of pivots by increasing free bits.
    """
    spaces = []
    for pivots in itertools.combinations(range(n), n_pa):
        # row r's words: p_r with each subset of the non-pivot columns above
        # it, the j-th such column as bit j of the subset's index
        rows = [[1 << p] for p in pivots]
        for words, p in zip(rows, pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    words += [w | 1 << c for w in words]
        # the free bits count up from row 0's, so row 0 varies fastest
        spaces += itertools.product(*rows[::-1])
    flat = np.fromiter(itertools.chain.from_iterable(spaces), np.int64, len(spaces) * n_pa)
    return flat.reshape(len(spaces), n_pa)[:, ::-1].copy()


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
            spaces = enumerate_row_spaces(n, n_pa)
            # row spaces per call, so one call's joint table stays within the bound
            step = max(1, _SCATTER_ENTRIES // ((1 << n_pa) * (1 << n) * views.shape[1]))
            for lo in range(0, len(spaces), step):
                chunk = spaces[lo:lo + step]
                eps_key, eps_msg = _bank_epsilons(chunk, n, views, widths)
                gaps = np.abs(eps_key - eps_msg).ravel()  # cases by row space, then model
                cases += gaps.size
                last = gaps.size - 1 - int(np.argmax(gaps[::-1]))
                if gaps[last] >= max_gap:  # ties go to the last case
                    max_gap = float(gaps[last])
                    r, m = divmod(last, len(names))
                    rows = tuple(chunk[r].tolist())
                    worst = (n, n_pa, rows, names[m], float(eps_key[r, m]), float(eps_msg[r, m]))
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
