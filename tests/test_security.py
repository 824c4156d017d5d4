import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from delayedpa.gf2 import BitVector
import delayedpa.security
import delayedpa.suites
from delayedpa.security import (
    _bank_epsilons,
    _grouped_views,
    _hash_values,
    _popcount,
    MAX_QUANTUM_N,
    CqJoint,
    SecurityReport,
    bank_tables,
    cq_epsilon,
    delayed_pa_epsilons_quantum,
    enumerate_row_spaces,
    eve_table,
    load_eve_bank,
    random_eve_states,
    sweep_delayed_pa,
)
from oracles import (
    BinaryMatrix,
    ClassicalJoint,
    _full_rank_matrix,
    classical_epsilon,
    delayed_pa_epsilons,
    enumerate_pa_matrices,
    matrix_from_rows,
    matvec,
    random_matrix,
    ref_enumerate_row_spaces,
    row_reduce,
)


# ------------------------------------------------------------- classical

def test_classical_epsilon_ideal_key():
    joint = ClassicalJoint(np.full((2, 2), 0.25))
    assert classical_epsilon(joint) == 0.0


def test_classical_epsilon_eve_knows_key():
    joint = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert abs(classical_epsilon(joint) - 0.5) <= 1e-15


def test_classical_epsilon_constant_key():
    joint = ClassicalJoint(np.array([[1.0], [0.0]]))
    assert abs(classical_epsilon(joint) - 0.5) <= 1e-15


def test_classical_joint_validation():
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        ClassicalJoint(np.array([[np.nan, 1.0]]))


def test_classical_epsilon_relabel_invariant():
    rng = np.random.default_rng(0)
    p = rng.random((4, 6))
    p /= p.sum()
    base = classical_epsilon(ClassicalJoint(p))
    perm = rng.permutation(6)
    assert abs(classical_epsilon(ClassicalJoint(p[:, perm])) - base) <= 1e-14


def test_classical_epsilon_independent_append():
    rng = np.random.default_rng(1)
    p = rng.random((4, 5))
    p /= p.sum()
    base = classical_epsilon(ClassicalJoint(p))
    # adjoin a uniform 3-valued symbol independent of everything
    appended = np.kron(p, np.full((1, 3), 1.0 / 3.0))
    assert abs(classical_epsilon(ClassicalJoint(appended)) - base) <= 1e-14


def test_classical_epsilon_data_processing():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.random((4, 8))
        p /= p.sum()
        base = classical_epsilon(ClassicalJoint(p))
        g = rng.integers(0, 3, size=8)  # deterministic postprocessing of the view
        merged = np.zeros((4, 3))
        for e in range(8):
            merged[:, g[e]] += p[:, e]
        assert classical_epsilon(ClassicalJoint(merged)) <= base + 1e-12


def test_epsilon_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.random((3, 4))
        p /= p.sum()
        eps = classical_epsilon(ClassicalJoint(p))
        assert -1e-12 <= eps <= 1.0 + 1e-12


# ------------------------------------------------------------- quantum

def test_cq_epsilon_identical_conditionals():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    joint = CqJoint(np.stack([0.5 * rho, 0.5 * rho]))
    assert cq_epsilon(joint) <= 1e-15


def test_cq_epsilon_orthogonal_conditionals():
    r0 = np.diag([1.0, 0.0]).astype(complex)
    r1 = np.diag([0.0, 1.0]).astype(complex)
    joint = CqJoint(np.stack([0.5 * r0, 0.5 * r1]))
    got = cq_epsilon(joint)
    assert abs(got - 0.5) <= 1e-12
    # embedded classical case agrees
    classical = classical_epsilon(ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]])))
    assert abs(got - classical) <= 1e-12


def test_cq_epsilon_overlapping_conditionals():
    r0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    joint = CqJoint(np.stack([0.5 * r0, 0.5 * plus]))
    assert abs(cq_epsilon(joint) - math.sqrt(2) / 4) <= 1e-12


def test_cq_joint_validation():
    good = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        CqJoint(np.stack([0.6 * good, 0.6 * good]))
    with pytest.raises(ValueError):
        CqJoint(np.stack([0.5 * np.eye(2, dtype=complex), 0.5 * good]))
    with pytest.raises(ValueError, match="non-finite"):
        CqJoint(np.stack([np.nan * good, 0.5 * good]))
    with pytest.raises(ValueError, match="non-finite"):
        CqJoint(np.stack([0.5 * good, 0.5 * np.full((2, 2), np.nan, dtype=complex)]))


def test_cq_joint_rejects_malformed_blocks():
    good = np.eye(2, dtype=complex) / 4
    with pytest.raises(ValueError, match="shape"):
        CqJoint(np.full((2, 2, 3), 1 / 12))  # blocks not square
    with pytest.raises(ValueError, match="shape"):
        CqJoint(np.eye(2) / 2)  # ndim < 3: no block axes
    with pytest.raises(ValueError, match="trace is not 1"):
        CqJoint(np.stack([good, good, good]))
    with pytest.raises(ValueError, match="Hermitian"):
        CqJoint(np.stack([good, good + np.array([[0, 0.1], [0, 0]])]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        CqJoint(np.stack([good, np.diag([0.6, -0.1])]))


# smallest eigenvalue: (accepted, eigvalsh fallbacks); see test_quantum.py
PSD_BOUNDARY = {-0.5e-10: (True, 0), -1e-10: (True, 1), -2e-10: (False, 1)}


@pytest.mark.parametrize("low", PSD_BOUNDARY)
def test_cq_joint_psd_boundary(low, monkeypatch):
    accepted, fallbacks = PSD_BOUNDARY[low]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    sigma = np.stack([np.diag([0.5, 0.0]), np.diag([0.5 - low, low])]).astype(complex)
    if accepted:
        CqJoint(sigma)
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            CqJoint(sigma)
    assert calls == [sigma.shape] * fallbacks


def test_cq_epsilon_blocks_match_block_diagonal():
    # sigma[k, b] are the diagonal blocks of the key-k state; the reference
    # builds each key's block-diagonal matrix and takes its full trace norm
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_keys, blocks, d = rng.integers(1, 5), rng.integers(1, 9), rng.integers(1, 5)
        m = rng.normal(size=(n_keys, blocks, d, d)) + 1j * rng.normal(size=(n_keys, blocks, d, d))
        sigma = m @ m.conj().swapaxes(-1, -2)
        sigma /= np.trace(sigma, axis1=-2, axis2=-1).sum()
        want = ref_cq_epsilon([block_diagonal(sigma[k]) for k in range(n_keys)])
        assert abs(cq_epsilon(CqJoint(sigma)) - want) <= 1e-12


# ------------------------------------------------------------- verifier

def test_blind_adversary_gives_zero():
    m = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("blind", 3))
    assert eps_key <= 1e-15
    assert eps_msg <= 1e-15


def test_parity_hash_hides_first_bit_view():
    m = matrix_from_rows([[1, 1]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("bit", 2, index=0))
    assert eps_key <= 1e-15
    assert eps_msg <= 1e-15


def test_first_bit_hash_leaks_against_first_bit_view():
    m = matrix_from_rows([[1, 0]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("bit", 2, index=0))
    assert abs(eps_key - 0.5) <= 1e-12
    assert abs(eps_msg - 0.5) <= 1e-12


def test_verifier_rejects_dependent_rows():
    m = matrix_from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="rows not independent"):
        delayed_pa_epsilons(m, eve_table("blind", 2))


def test_verifier_rejects_large_instance():
    m = matrix_from_rows([[1] + [0] * 7])
    with pytest.raises(ValueError, match="too large"):
        delayed_pa_epsilons(m, np.ones((256, 1)))


def test_equivalence_with_nonuniform_prior():
    rng = np.random.default_rng(4)
    m = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    prior = rng.random(8)
    prior /= prior.sum()
    for rule in ("bit", "parity", "copy"):
        eps_key, eps_msg = delayed_pa_epsilons(m, eve_table(rule, 3), prior)
        assert abs(eps_key - eps_msg) <= 1e-12


def test_exhaustive_small_sweep():
    result = sweep_delayed_pa(3, 2)
    assert result["cases"] > 0
    assert result["max_gap"] <= 1e-12
    scenarios = result["worst"]["scenarios"]
    assert {s["scenario"] for s in scenarios} == {"normal-PA", "delayed-PA"}
    for s in scenarios:
        assert 0.0 <= s["epsilon"] <= 1.0


def test_enumerate_pa_matrices_counts():
    # independent ordered row tuples: (2^n - 1)(2^n - 2)...
    assert sum(1 for _ in enumerate_pa_matrices(2, 1)) == 3
    assert sum(1 for _ in enumerate_pa_matrices(3, 2)) == 7 * 6
    assert sum(1 for _ in enumerate_pa_matrices(4, 2)) == 15 * 14


def words_of(matrices):
    """The row words of matrices of one shape, as the verifier takes them: shape (R, rows)."""
    return np.array([m.row_words for m in matrices], dtype=np.int64).reshape(len(matrices), -1)


def row_space_matrices_of(rows, n):
    """Each hash of a row-word array as an oracle matrix over n columns."""
    return [BinaryMatrix(rows.shape[1], n, tuple(r)) for r in rows.tolist()]


def row_space_matrices(n, k):
    """enumerate_row_spaces(n, k), one oracle matrix per row space."""
    return row_space_matrices_of(enumerate_row_spaces(n, k), n)


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of GF(2)^n."""
    return math.prod((1 << n) - (1 << i) for i in range(k)) // math.prod(
        (1 << k) - (1 << i) for i in range(k)
    )


def test_enumerate_row_spaces_counts_and_echelon_form():
    # 35 at (4, 2), 63 at (6, 5), 11,811 at (7, 3)
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(6, 5) == 63
    assert gaussian_binomial(7, 3) == 11811
    for n in range(1, 8):
        for k in range(0, min(n, 3) + 1):
            words = enumerate_row_spaces(n, k)
            assert words.dtype == np.int64 and words.shape == (gaussian_binomial(n, k), k), (n, k)
            spaces = row_space_matrices(n, k)
            assert len(spaces) == len(set(spaces)) == gaussian_binomial(n, k), (n, k)
            for matrix in spaces:
                assert (matrix.rows, matrix.cols) == (k, n)
                assert row_reduce(matrix).upper == matrix


def test_enumerate_row_spaces_is_one_per_ordered_row_space():
    # the oracle: reduce every ordered independent-row matrix to its row space
    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            spaces = row_space_matrices(n, k)
            want = {row_reduce(m).upper for m in enumerate_pa_matrices(n, k)}
            assert len(spaces) == len(set(spaces))
            assert set(spaces) == want, (n, k)


def test_enumerate_row_spaces_keeps_the_reference_order():
    # the sweep's tie-break (ties go to the last case) and the quantum
    # trials' drawn index both read this order
    for n in range(1, 7):
        for k in range(1, n):
            got = enumerate_row_spaces(n, k)
            want = [list(rows) for rows in ref_enumerate_row_spaces(n, k)]
            assert got.dtype == np.int64 and got.shape == (len(want), k), (n, k)
            assert got.tolist() == want, (n, k)


def test_ordered_matrices_score_as_their_row_space():
    # f and A f differ by a bijective relabelling of the key, which moves
    # neither epsilon
    bank = load_eve_bank()
    for n in range(1, 5):
        tables = [t for _, t in bank_tables(bank, n)]
        for k in range(1, min(n, 3) + 1):
            by_space = {
                m: [delayed_pa_epsilons(m, t) for t in tables] for m in row_space_matrices(n, k)
            }
            for matrix in enumerate_pa_matrices(n, k):
                want = by_space[row_reduce(matrix).upper]
                for table, (key_r, msg_r) in zip(tables, want):
                    eps_key, eps_msg = delayed_pa_epsilons(matrix, table)
                    assert abs(eps_key - key_r) <= 1e-15
                    assert abs(eps_msg - msg_r) <= 1e-15


def test_bank_epsilons_equal_one_model_at_a_time():
    # one grouping for the whole bank scores each model bit for bit as
    # delayed_pa_epsilons scores it alone
    bank = load_eve_bank()
    for n in range(1, 6):
        tables = [t for _, t in bank_tables(bank, n)]
        views = np.concatenate(tables, axis=1)
        widths = [t.shape[1] for t in tables]
        for k in range(1, min(n, 2) + 1):
            eps_key, eps_msg = _bank_epsilons(enumerate_row_spaces(n, k), n, views, widths)
            spaces = row_space_matrices(n, k)
            for matrix, keys, msgs in zip(spaces, eps_key.tolist(), eps_msg.tolist()):
                got = list(zip(keys, msgs))
                assert got == [delayed_pa_epsilons(matrix, t) for t in tables], (n, k, matrix)


def test_row_space_sweep_matches_ordered_sweep():
    bank = load_eve_bank()
    max_gap = 0.0
    for n in range(2, 5):
        tables = [t for _, t in bank_tables(bank, n)]
        for n_pa in range(1, min(2, n - 1) + 1):
            for matrix in enumerate_pa_matrices(n, n_pa):
                for table in tables:
                    eps_key, eps_msg = delayed_pa_epsilons(matrix, table)
                    max_gap = max(max_gap, abs(eps_key - eps_msg))
    result = sweep_delayed_pa(4, 2, bank)
    assert result["max_gap"] == max_gap
    # (3 + 7 + 7 + 15 + 35) row spaces, each against every model
    assert result["cases"] == 67 * len(bank)
    worst = result["worst"]
    rows = BinaryMatrix(worst["n_pa"], worst["n"], tuple(worst["rows"]))
    assert row_reduce(rows).upper == rows
    table = dict(bank_tables(bank, worst["n"]))[worst["eve_model"]]
    assert [s["epsilon"] for s in worst["scenarios"]] == list(delayed_pa_epsilons(rows, table))


def test_sweep_hashes_once_per_row_space(monkeypatch):
    calls = []

    def counting(rows, n):
        calls.extend(row_space_matrices_of(rows, n))
        return _hash_values(rows, n)

    monkeypatch.setattr(delayedpa.security, "_hash_values", counting)
    result = sweep_delayed_pa(4, 2)
    assert len(calls) == 67
    spaces = {
        m for n in range(2, 5) for k in range(1, min(2, n - 1) + 1) for m in row_space_matrices(n, k)
    }
    assert set(calls) == spaces
    assert result["cases"] == 67 * len(load_eve_bank())


# eve_table's and random_eve_states's former loops, verbatim, as their oracles

def ref_eve_table(rule: str, n: int, **params) -> np.ndarray:
    size = 1 << n
    if rule == "blind":
        return np.ones((size, 1))
    if rule == "bit":
        index = params.get("index", 0)
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
        q = params.get("flip_prob", 0.25)
        t = np.empty((size, size))
        for a in range(size):
            for e in range(size):
                dist = bin(a ^ e).count("1")
                t[a, e] = (q ** dist) * ((1 - q) ** (n - dist))
        return t
    if rule == "noisy-parity":
        q = params.get("flip_prob", 0.1)
        t = np.empty((size, 2))
        for a in range(size):
            par = bin(a).count("1") & 1
            t[a, par] = 1 - q
            t[a, 1 - par] = q
        return t


def ref_random_eve_states(n, dim, rng):
    states = []
    for _ in range(1 << n):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        states.append(rho / np.trace(rho))
    return states


EVE_RULES = [
    ("blind", {}),
    ("bit", {}),
    ("bit", {"index": -1}),
    ("bit", {"index": 9}),
    ("parity", {}),
    ("copy", {}),
    ("noisy-copy", {}),
    ("noisy-copy", {"flip_prob": 0.1}),
    ("noisy-copy", {"flip_prob": 1 / 3}),
    ("noisy-copy", {"flip_prob": 1}),
    ("noisy-parity", {}),
    ("noisy-parity", {"flip_prob": 0.3}),
]


@pytest.mark.parametrize("rule, params", EVE_RULES)
def test_eve_table_matches_loop_oracle(rule, params):
    for n in range(1, 8):
        got = eve_table(rule, n, **params)
        want = ref_eve_table(rule, n, **params)
        assert got.dtype == want.dtype and np.array_equal(got, want), (rule, params, n)


def test_popcount_counts_every_byte_and_keeps_the_shape():
    # eve_table counts at most 7 bits; values past one byte take the
    # table once per byte, and n = 0 still gives one count per entry
    x = np.random.default_rng(7).integers(0, 1 << 40, size=1000)
    got = _popcount(x, 40)
    assert got.dtype == x.dtype and got.tolist() == [bin(v).count("1") for v in x.tolist()]
    assert _popcount(np.arange(1), 0).tolist() == [0]
    assert np.array_equal(eve_table("parity", 0), np.eye(2)[[0]])


def test_random_eve_states_match_per_state_oracle():
    for n, dim in [(1, 1), (2, 1), (3, 4), (4, 4), (4, 8), (2, 9), (1, 32)]:
        rng, ref_rng = np.random.default_rng(n * 100 + dim), np.random.default_rng(n * 100 + dim)
        got = random_eve_states(n, dim, rng)
        want = ref_random_eve_states(n, dim, ref_rng)
        assert len(got) == len(want) == 1 << n
        for a, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), (n, dim, a)
        # the next trial's draws continue the same stream
        assert rng.normal() == ref_rng.normal()


def test_bank_has_at_least_five_models():
    bank = load_eve_bank()
    tables = bank_tables(bank, 3)
    assert len(tables) >= 5
    for _, t in tables:
        assert np.allclose(t.sum(axis=1), 1.0)


# ------------------------------------------------------------- quantum side

def test_quantum_identical_states_give_zero():
    m = matrix_from_rows([[1, 1]])
    rho = np.eye(2, dtype=complex) / 2
    eps_key, eps_msg = delayed_pa_epsilons_quantum(m.row_words, [rho] * 4)
    assert eps_key <= 1e-12
    assert eps_msg <= 1e-12


def test_quantum_matches_classical_embedding():
    m = matrix_from_rows([[1, 0]])
    table = eve_table("bit", 2, index=0)
    states = [np.diag(table[a]).astype(complex) for a in range(4)]
    c_key, c_msg = delayed_pa_epsilons(m, table)
    q_key, q_msg = delayed_pa_epsilons_quantum(m.row_words, states)
    assert abs(c_key - q_key) <= 1e-9
    assert abs(c_msg - q_msg) <= 1e-9


def test_quantum_equivalence_random_models():
    rng = np.random.default_rng(5)
    m = matrix_from_rows([[1, 0, 1]])
    for _ in range(10):
        states = random_eve_states(3, 4, rng)
        eps_key, eps_msg = delayed_pa_epsilons_quantum(m.row_words, states)
        assert abs(eps_key - eps_msg) <= 1e-9
        assert 0.0 <= eps_key <= 1.0 + 1e-12


def test_quantum_rejects_large_instance():
    m = matrix_from_rows([[1, 0, 0, 0, 1]])
    with pytest.raises(ValueError, match="too large"):
        delayed_pa_epsilons_quantum(m.row_words, [np.eye(2, dtype=complex) / 2] * 32)


@pytest.mark.parametrize("rows", [(0b1000,), (0b11, 8), (-1,), (0b11, -2)])
def test_quantum_rejects_row_words_outside_the_input_width(rows):
    # eight states fix n = 3: a word must lie in [0, 8)
    with pytest.raises(ValueError, match="row words"):
        delayed_pa_epsilons_quantum(rows, [np.eye(2, dtype=complex) / 2] * 8)


@pytest.mark.parametrize("rows", [(1.7,), (1, 2.0), (np.float64(1.0),)])
def test_quantum_rejects_row_words_that_are_not_integers(rows):
    # 1.7 lies in [0, 4) and used to be scored as row word 1
    with pytest.raises(TypeError):
        delayed_pa_epsilons_quantum(rows, [np.eye(2, dtype=complex) / 2] * 4)


@pytest.mark.parametrize("count", [6, 1, 0])
def test_quantum_rejects_a_state_count_that_is_not_a_power_of_two(count):
    with pytest.raises(ValueError, match="need 2\\^n states"):
        delayed_pa_epsilons_quantum((1,), [np.eye(2, dtype=complex) / 2] * count)


def test_security_report_bounds():
    with pytest.raises(ValueError):
        SecurityReport(1.5, "normal-PA", 4, 2, (1, 2), "blind")
    r = SecurityReport(0.25, "delayed-PA", 4, 2, (1, 2), "blind")
    assert r.scenario == "delayed-PA"


# ------------------------------------------------------------- loop references
# The verifier's former implementations, kept as oracles: f(a) by one matvec
# per raw key, the delayed table by one np.add.at per pad, and the quantum
# blocks summed one raw key at a time and scored by the trace norm of each
# key's full block-diagonal matrix.

def block_diagonal(blocks):
    """The (b d) x (b d) matrix with the b given d x d blocks on its diagonal."""
    b, d = len(blocks), blocks[0].shape[0]
    out = np.zeros((b * d, b * d), dtype=complex)
    for i, block in enumerate(blocks):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    return out


def ref_cq_epsilon(joint):
    """Half the trace norm of sigma_k - sum_j sigma_j / |K|, one full matrix per key."""
    ideal = sum(joint) / len(joint)
    return 0.5 * sum(float(np.abs(np.linalg.eigvalsh(s - ideal)).sum()) for s in joint)


def ref_hash_values(matrix):
    n = matrix.cols
    return np.array(
        [matvec(matrix, BitVector(n, a)).bits for a in range(1 << n)], dtype=np.int64
    )


def ref_delayed_pa_epsilons(matrix, table, prior=None):
    n, n_pa = matrix.cols, matrix.rows
    size = 1 << n
    t = np.asarray(table, dtype=float)
    p_a = np.full(size, 1.0 / size) if prior is None else np.asarray(prior, dtype=float)
    weighted = p_a[:, None] * t
    f_vals = ref_hash_values(matrix)
    n_keys = 1 << n_pa
    key_joint = np.zeros((n_keys, t.shape[1]))
    np.add.at(key_joint, f_vals, weighted)
    idx = np.arange(size)
    delayed = np.zeros((n_keys, size, t.shape[1]))
    for c in range(size):
        np.add.at(delayed[:, c, :], f_vals[idx ^ c], weighted)
    delayed /= size
    return (
        classical_epsilon(ClassicalJoint(key_joint)),
        classical_epsilon(ClassicalJoint(delayed.reshape(n_keys, -1))),
    )


def ref_delayed_pa_epsilons_quantum(matrix, eve_states, prior=None):
    n, n_pa = matrix.cols, matrix.rows
    size = 1 << n
    rhos = [np.asarray(r, dtype=complex) for r in eve_states]
    d = rhos[0].shape[0]
    p_a = np.full(size, 1.0 / size) if prior is None else np.asarray(prior, dtype=float)
    f_vals = ref_hash_values(matrix)
    n_keys = 1 << n_pa
    blocks = [np.zeros((d, d), dtype=complex) for _ in range(n_keys)]
    for a in range(size):
        blocks[f_vals[a]] += p_a[a] * rhos[a]
    eps_key = ref_cq_epsilon(blocks)
    # the delayed view is (c, E): key m' holds one d x d block per pad c
    msg = []
    for mp in range(n_keys):
        pads = []
        for c in range(size):
            s = np.zeros((d, d), dtype=complex)
            for a in range(size):
                if f_vals[a ^ c] == mp:
                    s += p_a[a] * rhos[a]
            pads.append(s / size)
        msg.append(block_diagonal(pads))
    eps_msg = ref_cq_epsilon(msg)
    return eps_key, eps_msg


def _random_prior(rng, size):
    p = rng.random(size)
    return p / p.sum()


def test_hash_values_match_matvec_reference():
    rng = random.Random(11)
    for n in range(1, 13):
        for rows in range(1, n + 1):
            matrix = random_matrix(rows, n, rng)
            assert _hash_values(words_of([matrix]), n)[0].tolist() == ref_hash_values(matrix).tolist()


def test_verifier_matches_loop_reference_on_every_small_matrix():
    # every ordered independent-row matrix with n <= 4 and n_pa <= 2, against
    # every default bank model, under the uniform prior and one random prior
    rng = np.random.default_rng(12)
    bank = load_eve_bank()
    cases = 0
    for n in range(1, 5):
        tables = [t for _, t in bank_tables(bank, n)]
        prior = _random_prior(rng, 1 << n)
        for n_pa in range(1, min(2, n) + 1):
            for matrix in enumerate_pa_matrices(n, n_pa):
                for table in tables:
                    for p in (None, prior):
                        got = delayed_pa_epsilons(matrix, table, p)
                        want = ref_delayed_pa_epsilons(matrix, table, p)
                        assert abs(got[0] - want[0]) <= 1e-12
                        assert abs(got[1] - want[1]) <= 1e-12
                        cases += 1
    assert cases == (1 + 3 + 6 + 7 + 42 + 15 + 210) * len(bank) * 2


def test_quantum_verifier_matches_loop_reference():
    rng = np.random.default_rng(13)
    pyrng = random.Random(13)
    for i in range(32):
        n = pyrng.randint(1, 4)
        rows = pyrng.randint(1, n)
        matrix = _full_rank_matrix(rows, n, pyrng)
        states = random_eve_states(n, pyrng.randint(1, 4), rng)
        prior = _random_prior(rng, 1 << n) if i % 2 else None
        got = delayed_pa_epsilons_quantum(matrix.row_words, states, prior)
        want = ref_delayed_pa_epsilons_quantum(matrix, states, prior)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12


def _balanced_tables(rng, rows: int, size: int, n_keys: int) -> np.ndarray:
    """A stack of random hash tables, each value taken by size / n_keys inputs."""
    return np.stack([rng.permuted(np.arange(size) % n_keys) for _ in range(rows)])


def _assert_grouped_views_are_sums(f_vals, n_keys, weighted, key, msg):
    size = len(weighted)
    for f, f_key, f_msg in zip(f_vals, key, msg):
        for k in range(n_keys):
            want = sum(weighted[a] for a in range(size) if f[a] == k)
            assert np.abs(f_key[k] - want).max() <= 1e-12
            for c in range(size):
                want = sum(weighted[a] for a in range(size) if f[a ^ c] == k) / size
                assert np.abs(f_msg[k, c] - want).max() <= 1e-12


@pytest.mark.parametrize("trailing, complex_views", [((3,), False), ((2, 2), True)])
def test_grouped_views_use_no_linearity(trailing, complex_views):
    # a random balanced hash table is not additive: f(a ^ c) != f(a) ^ f(c)
    # for most pairs, so a helper that assumed additivity would miss these sums
    rng = np.random.default_rng(14)
    size, n_keys = 16, 4
    f_vals = _balanced_tables(rng, 3, size, n_keys)
    for f in f_vals:
        assert any(f[a ^ c] != f[a] ^ f[c] for a in range(size) for c in range(size))
    weighted = rng.random((size,) + trailing)
    if complex_views:
        weighted = weighted + 1j * rng.random((size,) + trailing)
    key, msg = _grouped_views(f_vals, n_keys, weighted)
    _assert_grouped_views_are_sums(f_vals, n_keys, weighted, key, msg)


def test_grouped_views_in_runs_equal_one_scatter(monkeypatch):
    # five tables of views too wide for one chunk are grouped two or four
    # tables at a time; every cell still sums over a in increasing order, so
    # the result is the one-run result bit for bit
    rng = np.random.default_rng(15)
    size, n_keys = 32, 4
    f_vals = _balanced_tables(rng, 5, size, n_keys)
    for weighted in (rng.random((size, 100)), rng.random((size, 7, 2, 2)) + 1j * rng.random((size, 7, 2, 2))):
        runs = _grouped_views(f_vals, n_keys, weighted)
        with monkeypatch.context() as m:
            m.setattr(delayedpa.security, "_SCATTER_ENTRIES", size * size * weighted[0].size * 2)
            whole = _grouped_views(f_vals, n_keys, weighted)
        for got, want in zip(runs, whole):
            assert np.array_equal(got, want)


def test_grouped_views_short_last_run_match_sums(monkeypatch):
    # a chunk of 3 (table, pad) pairs of n_keys x 10 entries each: 16 pads
    # in runs of 3 leave a last run of one pad per table
    rng = np.random.default_rng(16)
    size, n_keys = 16, 4
    f_vals = _balanced_tables(rng, 2, size, n_keys)
    weighted = rng.random((size, 5)) + 1j * rng.random((size, 5))
    monkeypatch.setattr(delayedpa.security, "_SCATTER_ENTRIES", 3 * n_keys * weighted[0].size * 2)
    key, msg = _grouped_views(f_vals, n_keys, weighted)
    _assert_grouped_views_are_sums(f_vals, n_keys, weighted, key, msg)


# ------------------------------------------------------------- batched kernel
# The one-matrix scatter-add grouping the batched kernel replaced, verbatim,
# as its oracle: np.bincount sums every cell over a in increasing order, so
# the gather over fibers must match it bit for bit.

# the oracle's own scatter-run bound, fixed here so that patching the
# kernel's bound leaves the oracle alone
_SCATTER_ENTRIES = 1 << 15


def ref_grouped_views(f_vals: np.ndarray, n_keys: int, weighted: np.ndarray):
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


def ref_bank_epsilons(matrix, views, widths):
    """One matrix grouped by the oracle, each model's columns scored as one ClassicalJoint."""
    size = 1 << matrix.cols
    weighted = np.full(size, 1.0 / size)[:, None] * views
    key, msg = ref_grouped_views(ref_hash_values(matrix), 1 << matrix.rows, weighted)
    out = []
    stop = 0
    for width in widths:
        start, stop = stop, stop + width
        out.append((
            classical_epsilon(ClassicalJoint(key[:, start:stop].copy())),
            classical_epsilon(ClassicalJoint(msg[:, :, start:stop].reshape(len(msg), -1))),
        ))
    return out


def _bank_views(n):
    tables = [t for _, t in bank_tables(load_eve_bank(), n)]
    return np.concatenate(tables, axis=1), [t.shape[1] for t in tables]


def test_grouped_views_match_scatter_oracle_on_every_small_row_space():
    for n in range(1, 6):
        views, _ = _bank_views(n)
        weighted = views / (1 << n)
        for k in range(1, n + 1):
            spaces = row_space_matrices(n, k)
            key, msg = _grouped_views(_hash_values(enumerate_row_spaces(n, k), n), 1 << k, weighted)
            assert key.shape == (len(spaces), 1 << k, views.shape[1])
            for i, matrix in enumerate(spaces):
                want_key, want_msg = ref_grouped_views(ref_hash_values(matrix), 1 << k, weighted)
                assert np.array_equal(key[i], want_key), (n, k, matrix)
                assert np.array_equal(msg[i], want_msg), (n, k, matrix)


def test_grouped_views_chunks_match_scatter_oracle(monkeypatch):
    # chunks of 3 (row space, pad) pairs leave a last chunk of one pad
    # (16 = 5 * 3 + 1); chunks of 3 whole row spaces leave one of one row
    # space (7 = 2 * 3 + 1)
    rng = np.random.default_rng(18)
    size, n_keys, rows = 16, 4, 7
    weighted = rng.random((size, 5)) + 1j * rng.random((size, 5))
    width = weighted[0].size * 2
    linear = _hash_values(enumerate_row_spaces(4, 2)[:rows], 4)
    for f_vals in (linear, _balanced_tables(rng, rows, size, n_keys)):
        whole = _grouped_views(f_vals, n_keys, weighted)
        for pairs in (3, 3 * size):
            with monkeypatch.context() as m:
                m.setattr(delayedpa.security, "_SCATTER_ENTRIES", pairs * n_keys * width)
                key, msg = _grouped_views(f_vals, n_keys, weighted)
            assert np.array_equal(key, whole[0]) and np.array_equal(msg, whole[1])
            for i in range(rows):
                want_key, want_msg = ref_grouped_views(f_vals[i], n_keys, weighted)
                assert np.array_equal(key[i], want_key)
                assert np.array_equal(msg[i], want_msg)


class _TakeSpy(np.ndarray):
    """An array that records, for each ``take``, whether it reads a C-contiguous array."""

    receivers: list[bool] = []

    def take(self, *args, **kwargs):
        _TakeSpy.receivers.append(self.flags.c_contiguous)
        return self.view(np.ndarray).take(*args, **kwargs)


def test_grouped_views_gather_from_a_c_contiguous_copy_of_an_f_ordered_stack(monkeypatch):
    # _bank_epsilons hands the grouping views[:, columns]; advanced indexing
    # after a slice returns it F-ordered, and gathering whole rows from that
    # layout made every take strided
    n, k = 5, 2
    views, _ = _bank_views(n)
    columns = np.arange(views.shape[1])[::-1].copy()
    stack = views[:, columns] / (1 << n)
    assert stack.flags.f_contiguous and not stack.flags.c_contiguous
    spaces = row_space_matrices(n, k)
    receivers = []
    monkeypatch.setattr(_TakeSpy, "receivers", receivers)
    key, msg = _grouped_views(_hash_values(words_of(spaces), n), 1 << k, stack.view(_TakeSpy))
    assert receivers and all(receivers)
    for i, matrix in enumerate(spaces):
        want_key, want_msg = ref_grouped_views(ref_hash_values(matrix), 1 << k, stack)
        assert np.array_equal(key[i], want_key), matrix
        assert np.array_equal(msg[i], want_msg), matrix


def _model_gaps(f, prior, n):
    """|eps_key - eps_msg| of each default bank model for one hash table f."""
    views, widths = _bank_views(n)
    key, msg = _grouped_views(f[None], 2, prior[:, None] * views)
    starts = list(itertools.accumulate(widths, initial=0))
    gaps = []
    for lo, hi in zip(starts, starts[1:]):
        eps_key = classical_epsilon(ClassicalJoint(key[0][:, lo:hi].copy()))
        eps_msg = classical_epsilon(ClassicalJoint(msg[0][:, :, lo:hi].reshape(2, -1)))
        gaps.append(abs(eps_key - eps_msg))
    return gaps


@pytest.mark.parametrize("n", [3, 4])
def test_balanced_non_additive_f_is_caught_only_by_a_biased_prior(n):
    # f(a) = a0 ^ a1 a2 is balanced but not additive.  Under the uniform
    # prior every default model scores it like a linear hash, so the sweep
    # at its defaults cannot tell the two apart; i.i.d. bits with P(1) = 0.3
    # can, while a linear f still scores a zero gap under that prior
    a = np.arange(1 << n)
    bent = (a & 1) ^ ((a >> 1) & (a >> 2) & 1)
    linear = _hash_values(np.array([[0b11]]), n)[0]  # a0 ^ a1
    ones = np.array([bin(x).count("1") for x in a])
    uniform, biased = np.full(1 << n, 1.0 / (1 << n)), 0.3 ** ones * 0.7 ** (n - ones)
    assert max(_model_gaps(bent, uniform, n)) <= 1e-12
    assert max(_model_gaps(bent, biased, n)) > 1e-3
    assert max(_model_gaps(linear, biased, n)) <= 1e-12


def test_bank_epsilons_equal_scatter_oracle_on_every_small_row_space():
    # every (row space, model) pair with n <= 5, including n_pa = n, where the
    # one-column blind model's key joint has up to 32 rows
    for n in range(1, 6):
        views, widths = _bank_views(n)
        for k in range(1, n + 1):
            spaces = row_space_matrices(n, k)
            eps_key, eps_msg = _bank_epsilons(words_of(spaces), n, views, widths)
            for matrix, keys, msgs in zip(spaces, eps_key.tolist(), eps_msg.tolist()):
                want = ref_bank_epsilons(matrix, views, widths)
                assert list(zip(keys, msgs)) == want, (n, k, matrix)


# equal widths apart in bank order: width 8 (copy, noisy-copy), width 2
# (first-bit, the table entry, parity, noisy-parity) and width 1 (blind)
INTERLEAVED_BANK = [
    {"name": "copy", "rule": "copy"},
    {"name": "first-bit", "rule": "bit", "params": {"index": 0}},
    {"name": "blind", "rule": "blind"},
    {"name": "table", "rule": "table", "n": 3,
     "table": [[0.5 + 0.05 * a, 0.5 - 0.05 * a] for a in range(8)]},
    {"name": "noisy-copy", "rule": "noisy-copy", "params": {"flip_prob": 0.2}},
    {"name": "parity", "rule": "parity"},
    {"name": "noisy-parity", "rule": "noisy-parity", "params": {"flip_prob": 0.3}},
]


@pytest.mark.parametrize("entries", [None, 1 << 9])
def test_width_grouped_bank_epsilons_equal_each_model_alone(entries, monkeypatch):
    # models of one width are scored together, a few at a time under a
    # small entry bound; each eps must still be classical_epsilon's of its
    # own ClassicalJoint, in bank order
    if entries is not None:
        monkeypatch.setattr(delayedpa.security, "_SCATTER_ENTRIES", entries)
    tables = [t for _, t in bank_tables(INTERLEAVED_BANK, 3)]
    assert [t.shape[1] for t in tables] == [8, 2, 1, 2, 8, 2, 2]
    views = np.concatenate(tables, axis=1)
    widths = [t.shape[1] for t in tables]
    for k in range(1, 4):
        spaces = row_space_matrices(3, k)
        eps_key, eps_msg = _bank_epsilons(words_of(spaces), 3, views, widths)
        for matrix, keys, msgs in zip(spaces, eps_key.tolist(), eps_msg.tolist()):
            assert list(zip(keys, msgs)) == ref_bank_epsilons(matrix, views, widths), (k, matrix)


def test_bank_epsilons_under_a_prior_equal_each_model_alone():
    # a prior leaves the blind model's key joint off the dyadic grid, and
    # numpy sums the key axis of a one-view joint of 8 keys or more
    # pairwise, not in order; the bank's scoring must centre it alike
    n = 5
    views, widths = _bank_views(n)
    starts = list(itertools.accumulate(widths, initial=0))
    prior = np.random.default_rng(51).random(1 << n)
    prior /= prior.sum()
    for k in range(3, n + 1):
        spaces = row_space_matrices(n, k)
        eps_key, eps_msg = _bank_epsilons(words_of(spaces), n, views, widths, prior)
        for matrix, keys, msgs in zip(spaces, eps_key.tolist(), eps_msg.tolist()):
            key, msg = ref_grouped_views(ref_hash_values(matrix), 1 << k, prior[:, None] * views)
            want = [
                (classical_epsilon(ClassicalJoint(key[:, lo:hi].copy())),
                 classical_epsilon(ClassicalJoint(msg[:, :, lo:hi].reshape(len(msg), -1))))
                for lo, hi in zip(starts, starts[1:])
            ]
            assert list(zip(keys, msgs)) == want, (k, matrix)


# ------------------------------------------------------------- closed forms
# Values derived by hand, sharing no code with the verifier.

@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5])
def test_noisy_copy_epsilons_match_closed_form(q):
    # the parity of the bits S of a, seen through a copy of a with each bit
    # flipped with probability q, is biased by (1 - 2q)^|S| given the copy:
    # eps = |1 - 2q|^|S| / 2, on both sides
    for n in range(1, 6):
        table = eve_table("noisy-copy", n, flip_prob=q)
        for row in range(1, 1 << n):
            want = 0.5 * abs(1 - 2 * q) ** bin(row).count("1")
            eps_key, eps_msg = delayed_pa_epsilons(BinaryMatrix(1, n, (row,)), table)
            assert abs(eps_key - want) <= 1e-15, (n, row)
            assert abs(eps_msg - want) <= 1e-15, (n, row)


@pytest.mark.parametrize("overlap", [0.0, 0.6, 0.95])
def test_product_state_epsilons_match_closed_form(overlap):
    # sigma_a is the product of one pure qubit state per bit of a, the two at
    # trace distance delta; the parity of the bits S gives
    # rho_0 - rho_1 = 2^(1 - |S|) (sigma_0 - sigma_1)^(x |S|) beside a common
    # factor, so eps = delta^|S| / 2, on both sides
    kets = [np.array([1.0, 0.0]), np.array([overlap, math.sqrt(1 - overlap ** 2)])]
    qubit = [np.outer(v, v).astype(complex) for v in kets]
    delta = math.sqrt(1 - overlap ** 2)
    for n in range(1, MAX_QUANTUM_N + 1):
        states = []
        for a in range(1 << n):
            rho = np.ones((1, 1), dtype=complex)
            for i in range(n):
                rho = np.kron(rho, qubit[(a >> i) & 1])
            states.append(rho)
        for row in range(1, 1 << n):
            want = 0.5 * delta ** bin(row).count("1")
            eps_key, eps_msg = delayed_pa_epsilons_quantum((row,), states)
            assert abs(eps_key - want) <= 1e-15, (n, row)
            assert abs(eps_msg - want) <= 1e-15, (n, row)


# ------------------------------------------------------------- rank check

def test_stack_with_one_dependent_matrix_is_rejected():
    views, widths = _bank_views(3)
    spaces = row_space_matrices(3, 2)
    dependent = matrix_from_rows([[1, 1, 0], [1, 1, 0]])
    _bank_epsilons(words_of(spaces), 3, views, widths)
    with pytest.raises(ValueError, match="rows not independent"):
        _bank_epsilons(words_of(spaces[:3] + [dependent] + spaces[3:]), 3, views, widths)


def test_quantum_verifier_rejects_dependent_rows():
    m = matrix_from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])  # row 3 = row 1 + row 2
    with pytest.raises(ValueError, match="rows not independent"):
        delayed_pa_epsilons_quantum(m.row_words, [np.eye(2, dtype=complex) / 2] * 8)


def test_delayed_pa_suite_quantum_trials_draw_uniform_row_spaces(monkeypatch):
    # each trial draws its row count, then one row space, from the suite's
    # numpy stream: at n = 3 every one of the 7 + 7 spaces turns up, each
    # in its reduced form, and no other matrix does
    seen = []
    score = delayedpa.suites.delayed_pa_epsilons_quantum
    monkeypatch.setattr(
        delayedpa.suites,
        "delayed_pa_epsilons_quantum",
        lambda rows, states: seen.append(BinaryMatrix(len(rows), 3, tuple(rows.tolist()))) or score(rows, states),
    )
    payload, passed = delayedpa.suites.suite_delayed_pa(
        n=2, n_pa=1, quantum_trials=300, quantum_n=3, quantum_dim=1, seed=3
    )
    assert passed and payload["quantum"]["trials"] == len(seen) == 300
    spaces = [*row_space_matrices(3, 1), *row_space_matrices(3, 2)]
    assert set(seen) == set(spaces) and len(spaces) == 14


def test_fiber_count_rank_check_agrees_with_row_reduce():
    # every matrix of up to 3 rows and 3 columns, dependent and zero rows included
    for cols in range(1, 4):
        table = eve_table("blind", cols)
        for rows in range(1, 4):
            for words in itertools.product(range(1 << cols), repeat=rows):
                matrix = BinaryMatrix(rows, cols, words)
                if row_reduce(matrix).rank == rows:
                    assert delayed_pa_epsilons(matrix, table) == (0.0, 0.0)
                else:
                    with pytest.raises(ValueError, match="rows not independent"):
                        delayed_pa_epsilons(matrix, table)


# ------------------------------------------------------------- joint checks

@pytest.mark.parametrize("fault, message", [
    (np.nan, "non-finite probability"),
    (-1e-3, "negative probability"),
    (0.0, "probabilities do not sum to 1"),
])
def test_sweep_rejects_a_fault_in_one_msg_entry(fault, message, monkeypatch):
    # the sweep checks every joint it scores: one faulty entry of a msg
    # table, its largest, stops it with that check's message
    grouped_views = delayedpa.security._grouped_views

    def faulty(*args):
        key, msg = grouped_views(*args)
        msg[np.unravel_index(msg.argmax(), msg.shape)] = fault
        return key, msg

    monkeypatch.setattr(delayedpa.security, "_grouped_views", faulty)
    with pytest.raises(ValueError, match=message):
        sweep_delayed_pa(3, 2)


# ------------------------------------------------------------- memory

def test_one_wide_row_space_stays_within_memory_bound():
    # one n = 7, n_pa = 6 row space against the default bank: the joint table
    # is 64 keys x 128 pads x 265 views (16.6 MiB); scoring centres it in
    # place, then copies out one model's block (at most 8 MiB) at a time for
    # its last sum.  The batched kernel peaks at 25.0 MiB under tracemalloc;
    # the one-matrix scatter-add verifier it replaced peaked at 40.9 MiB.
    views, widths = _bank_views(7)
    rows = enumerate_row_spaces(7, 6)[:1]
    tracemalloc.start()
    try:
        _bank_epsilons(rows, 7, views, widths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 << 20
