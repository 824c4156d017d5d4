import math
import random

import numpy as np
import pytest

from delayedpa.gf2 import BinaryMatrix, BitVector, matvec, row_reduce
import delayedpa.security
from delayedpa.security import (
    _bank_epsilons,
    _grouped_views,
    _hash_values,
    ClassicalJoint,
    CqJoint,
    SecurityReport,
    bank_tables,
    classical_epsilon,
    cq_epsilon,
    delayed_pa_epsilons,
    delayed_pa_epsilons_quantum,
    enumerate_pa_matrices,
    enumerate_row_spaces,
    eve_table,
    load_eve_bank,
    random_eve_states,
    sweep_delayed_pa,
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
    with pytest.raises(ValueError, match="total trace"):
        CqJoint(np.stack([good, good, good]))
    with pytest.raises(ValueError, match="Hermitian"):
        CqJoint(np.stack([good, good + np.array([[0, 0.1], [0, 0]])]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        CqJoint(np.stack([good, np.diag([0.6, -0.1])]))


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
    m = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("blind", 3))
    assert eps_key <= 1e-15
    assert eps_msg <= 1e-15


def test_parity_hash_hides_first_bit_view():
    m = BinaryMatrix.from_rows([[1, 1]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("bit", 2, index=0))
    assert eps_key <= 1e-15
    assert eps_msg <= 1e-15


def test_first_bit_hash_leaks_against_first_bit_view():
    m = BinaryMatrix.from_rows([[1, 0]])
    eps_key, eps_msg = delayed_pa_epsilons(m, eve_table("bit", 2, index=0))
    assert abs(eps_key - 0.5) <= 1e-12
    assert abs(eps_msg - 0.5) <= 1e-12


def test_verifier_rejects_dependent_rows():
    m = BinaryMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="rows not independent"):
        delayed_pa_epsilons(m, eve_table("blind", 2))


def test_verifier_rejects_large_instance():
    m = BinaryMatrix.from_rows([[1] + [0] * 7])
    with pytest.raises(ValueError, match="too large"):
        delayed_pa_epsilons(m, np.ones((256, 1)))


def test_equivalence_with_nonuniform_prior():
    rng = np.random.default_rng(4)
    m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
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
            spaces = list(enumerate_row_spaces(n, k))
            assert len(spaces) == len(set(spaces)) == gaussian_binomial(n, k), (n, k)
            for matrix in spaces:
                assert (matrix.rows, matrix.cols) == (k, n)
                assert row_reduce(matrix).upper == matrix


def test_enumerate_row_spaces_is_one_per_ordered_row_space():
    # the oracle: reduce every ordered independent-row matrix to its row space
    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            spaces = list(enumerate_row_spaces(n, k))
            want = {row_reduce(m).upper for m in enumerate_pa_matrices(n, k)}
            assert len(spaces) == len(set(spaces))
            assert set(spaces) == want, (n, k)


def test_ordered_matrices_score_as_their_row_space():
    # f and A f differ by a bijective relabelling of the key, which moves
    # neither epsilon
    bank = load_eve_bank()
    for n in range(1, 5):
        tables = [t for _, t in bank_tables(bank, n)]
        for k in range(1, min(n, 3) + 1):
            by_space = {
                m: [delayed_pa_epsilons(m, t) for t in tables] for m in enumerate_row_spaces(n, k)
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
            for matrix in enumerate_row_spaces(n, k):
                got = _bank_epsilons(matrix, views, widths)
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

    def counting(matrix):
        calls.append(matrix)
        return _hash_values(matrix)

    monkeypatch.setattr(delayedpa.security, "_hash_values", counting)
    result = sweep_delayed_pa(4, 2)
    assert len(calls) == 67
    assert result["cases"] == 67 * len(load_eve_bank())


def test_bank_has_at_least_five_models():
    bank = load_eve_bank()
    tables = bank_tables(bank, 3)
    assert len(tables) >= 5
    for _, t in tables:
        assert np.allclose(t.sum(axis=1), 1.0)


# ------------------------------------------------------------- quantum side

def test_quantum_identical_states_give_zero():
    m = BinaryMatrix.from_rows([[1, 1]])
    rho = np.eye(2, dtype=complex) / 2
    eps_key, eps_msg = delayed_pa_epsilons_quantum(m, [rho] * 4)
    assert eps_key <= 1e-12
    assert eps_msg <= 1e-12


def test_quantum_matches_classical_embedding():
    m = BinaryMatrix.from_rows([[1, 0]])
    table = eve_table("bit", 2, index=0)
    states = [np.diag(table[a]).astype(complex) for a in range(4)]
    c_key, c_msg = delayed_pa_epsilons(m, table)
    q_key, q_msg = delayed_pa_epsilons_quantum(m, states)
    assert abs(c_key - q_key) <= 1e-9
    assert abs(c_msg - q_msg) <= 1e-9


def test_quantum_equivalence_random_models():
    rng = np.random.default_rng(5)
    m = BinaryMatrix.from_rows([[1, 0, 1]])
    for _ in range(10):
        states = random_eve_states(3, 4, rng)
        eps_key, eps_msg = delayed_pa_epsilons_quantum(m, states)
        assert abs(eps_key - eps_msg) <= 1e-9
        assert 0.0 <= eps_key <= 1.0 + 1e-12


def test_quantum_rejects_large_instance():
    m = BinaryMatrix.from_rows([[1, 0, 0, 0, 1]])
    with pytest.raises(ValueError, match="too large"):
        delayed_pa_epsilons_quantum(m, [np.eye(2, dtype=complex) / 2] * 32)


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
            matrix = BinaryMatrix.random(rows, n, rng)
            assert _hash_values(matrix).tolist() == ref_hash_values(matrix).tolist()


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
        while True:
            matrix = BinaryMatrix.random(rows, n, pyrng)
            if row_reduce(matrix).rank == rows:
                break
        states = random_eve_states(n, pyrng.randint(1, 4), rng)
        prior = _random_prior(rng, 1 << n) if i % 2 else None
        got = delayed_pa_epsilons_quantum(matrix, states, prior)
        want = ref_delayed_pa_epsilons_quantum(matrix, states, prior)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12


@pytest.mark.parametrize("trailing, complex_views", [((3,), False), ((2, 2), True)])
def test_grouped_views_use_no_linearity(trailing, complex_views):
    # a random hash table is not additive: f(a ^ c) != f(a) ^ f(c) for most
    # pairs, so a helper that assumed additivity would miss these sums
    rng = np.random.default_rng(14)
    size, n_keys = 16, 4
    f_vals = rng.integers(0, n_keys, size)
    assert any(f_vals[a ^ c] != f_vals[a] ^ f_vals[c] for a in range(size) for c in range(size))
    weighted = rng.random((size,) + trailing)
    if complex_views:
        weighted = weighted + 1j * rng.random((size,) + trailing)
    key, msg = _grouped_views(f_vals, n_keys, weighted)
    for k in range(n_keys):
        want = sum(weighted[a] for a in range(size) if f_vals[a] == k)
        assert np.abs(key[k] - want).max() <= 1e-12
        for c in range(size):
            want = sum(weighted[a] for a in range(size) if f_vals[a ^ c] == k) / size
            assert np.abs(msg[k, c] - want).max() <= 1e-12


def test_grouped_views_in_runs_equal_one_scatter(monkeypatch):
    # views too wide for one scatter-add are grouped a run of pads at a time;
    # every cell still sums over a in increasing order, so the result is the
    # one-run result bit for bit
    rng = np.random.default_rng(15)
    size, n_keys = 32, 4
    f_vals = rng.integers(0, n_keys, size)
    for weighted in (rng.random((size, 100)), rng.random((size, 7, 2, 2)) + 1j * rng.random((size, 7, 2, 2))):
        runs = _grouped_views(f_vals, n_keys, weighted)
        with monkeypatch.context() as m:
            m.setattr(delayedpa.security, "_SCATTER_ENTRIES", size * size * weighted[0].size * 2)
            whole = _grouped_views(f_vals, n_keys, weighted)
        for got, want in zip(runs, whole):
            assert np.array_equal(got, want)


def test_grouped_views_short_last_run_match_sums(monkeypatch):
    # 16 pads in runs of 3 leave a last run of one pad, whose weights are a
    # prefix of the full runs' weights
    rng = np.random.default_rng(16)
    size, n_keys = 16, 4
    f_vals = rng.integers(0, n_keys, size)
    weighted = rng.random((size, 5)) + 1j * rng.random((size, 5))
    monkeypatch.setattr(delayedpa.security, "_SCATTER_ENTRIES", 3 * size * weighted[0].size * 2)
    key, msg = _grouped_views(f_vals, n_keys, weighted)
    for k in range(n_keys):
        want = sum(weighted[a] for a in range(size) if f_vals[a] == k)
        assert np.abs(key[k] - want).max() <= 1e-12
        for c in range(size):
            want = sum(weighted[a] for a in range(size) if f_vals[a ^ c] == k) / size
            assert np.abs(msg[k, c] - want).max() <= 1e-12
