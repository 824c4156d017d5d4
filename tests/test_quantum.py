import math
import warnings

import numpy as np
import pytest

import delayedpa.quantum
import delayedpa.suites
from delayedpa.quantum import (
    _blocks_2c,
    _blocks_2d,
    _check_density_blocks,
    basis_ket,
    pauli,
    verify_2c_2d_stack,
)
from delayedpa.suites import EQUIV_TOL, SWAP_TOL, suite_protocol_2c2d
from oracles import (
    BasisDecomposition,
    DensityMatrix,
    PureState,
    build_2c_state,
    build_2d_state,
    decompose,
    partial_trace,
    projector,
    random_pure_state,
    tensor,
    verify_2c_2d,
)

S = 1.0 / math.sqrt(2.0)


def reassemble(d):
    """sum_a lambda_a |a>_basis (x) companion_a, the state d decomposes."""
    amps = sum(
        d.lambdas[a] * np.kron(basis_ket(a, d.basis), d.companions[a].amps) for a in (0, 1)
    )
    return PureState(amps, (2,) + d.companions[0].dims, ("A",) + d.companions[0].labels)


def bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = S  # |0>|0>
    amps[3] = S  # |1>|1>
    return PureState(amps, (2, 2), ("A", "Abar"))


def product_state(qubit_amps, chi):
    amps = np.kron(np.asarray(qubit_amps, dtype=complex), np.asarray(chi, dtype=complex))
    return PureState(amps, (2, len(chi)), ("A", "Abar"))


def kron_2c_state(psi, basis):
    """Oracle: the 2c joint state summed one Kronecker product at a time."""
    block = psi.amps.reshape(2, psi.dim // 2)
    comps = [basis_ket(a, basis).conj() @ block for a in (0, 1)]
    dim = 2 * psi.dim
    acc = np.zeros((dim, dim), dtype=complex)
    for a in (0, 1):
        for m in (0, 1):
            vec = np.kron(basis_ket(m, "z"), np.kron(basis_ket(m ^ a, basis), comps[a]))
            acc += 0.5 * np.outer(vec, vec.conj())
    return acc


def kron_2d_state(psi, op_order="xz"):
    """Oracle: the 2d joint state summed one Kronecker product at a time."""
    block = psi.amps.reshape(2, psi.dim // 2)
    dim = 4 * psi.dim
    acc = np.zeros((dim, dim), dtype=complex)
    x, z = pauli("X"), pauli("Z")
    for m1 in (0, 1):
        for m2 in (0, 1):
            if op_order == "xz":
                u = np.linalg.matrix_power(x, m1) @ np.linalg.matrix_power(z, m2)
            else:
                u = np.linalg.matrix_power(z, m2) @ np.linalg.matrix_power(x, m1)
            encoded = (u @ block).reshape(psi.dim)
            vec = np.kron(basis_ket(m1, "z"), np.kron(basis_ket(m2, "z"), encoded))
            acc += 0.25 * np.outer(vec, vec.conj())
    return acc


# ---------------------------------------------------------------- paulis

def test_pauli_anticommutation():
    x, z = pauli("X"), pauli("Z")
    assert np.allclose(x @ z, -(z @ x))


def test_pauli_y_is_i_x_z():
    assert np.allclose(pauli("Y"), 1j * pauli("X") @ pauli("Z"))
    assert np.allclose(pauli("Y"), np.array([[0, -1j], [1j, 0]]))


def test_pauli_x_flips_z_eigenstate():
    assert np.allclose(pauli("X") @ basis_ket(0, "z"), basis_ket(1, "z"))


def test_pauli_unknown_name():
    with pytest.raises(ValueError):
        pauli("H")


# ---------------------------------------------------------------- projector

def test_projector_z0():
    p = projector(PureState.qubit(0, "z"))
    assert np.allclose(p.mat, np.diag([1.0, 0.0]))


def test_projector_idempotent():
    rng = np.random.default_rng(1)
    phi = random_pure_state((2, 3), ("A", "B"), rng)
    p = projector(phi).mat
    assert np.abs(p @ p - p).max() <= 1e-12


def test_projector_plus_state():
    p = projector(PureState.qubit(0, "x"))
    assert np.allclose(p.mat, np.full((2, 2), 0.5))


def test_projector_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,), ("A",))


# ------------------------------------------------------- tensor/ptrace

def test_partial_trace_of_product_returns_factor():
    rng = np.random.default_rng(2)
    a = random_pure_state((2,), ("A",), rng)
    b = random_pure_state((3,), ("Abar",), rng)
    rho = projector(tensor([a, b]))
    reduced = partial_trace(rho, ["A"])
    assert np.abs(reduced.mat - projector(a).mat).max() <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    psi = random_pure_state((2, 2, 3), ("A", "B", "C"), rng)
    rho = projector(psi)
    for keep in (["A"], ["B"], ["C"], ["A", "C"], ["A", "B", "C"]):
        reduced = partial_trace(rho, keep)
        assert abs(np.trace(reduced.mat) - 1.0) <= 1e-12


def test_partial_trace_bell_gives_maximally_mixed():
    rho = projector(bell_state())
    for keep in ("A", "Abar"):
        reduced = partial_trace(rho, [keep])
        assert np.abs(reduced.mat - np.eye(2) / 2).max() <= 1e-12


def test_partial_trace_unknown_label():
    rho = projector(bell_state())
    with pytest.raises(ValueError):
        partial_trace(rho, ["Q"])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]), (2,), ("A",))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,), ("A",))  # trace 2
    # the same rule on block stacks, the form of the 2c/2d states
    valid = np.stack([np.diag([0.25, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    _check_density_blocks(valid)
    not_hermitian = valid.copy()
    not_hermitian[1, 0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        _check_density_blocks(not_hermitian)
    with pytest.raises(ValueError, match="trace"):
        _check_density_blocks(2 * valid)  # total trace 2
    negative = valid.copy()
    negative[1] = np.diag([0.5 + 2e-10, -2e-10])  # trace kept, one eigenvalue below -1e-10
    with pytest.raises(ValueError, match="positive semidefinite"):
        _check_density_blocks(negative)


# ---------------------------------------------------------------- decompose

def test_decompose_product_state():
    chi = np.array([0.6, 0.8], dtype=complex)
    psi = product_state(basis_ket(0, "z"), chi)
    d = decompose(psi, "z")
    assert abs(d.lambdas[0] - 1.0) <= 1e-12
    assert abs(d.lambdas[1]) <= 1e-12
    assert np.abs(d.companions[0].amps - chi).max() <= 1e-12


def test_decompose_bell():
    d = decompose(bell_state(), "z")
    assert abs(d.lambdas[0] - S) <= 1e-12
    assert abs(d.lambdas[1] - S) <= 1e-12
    assert np.abs(d.companions[0].amps - basis_ket(0, "z")).max() <= 1e-12
    assert np.abs(d.companions[1].amps - basis_ket(1, "z")).max() <= 1e-12


def test_decompose_reassembly_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        psi = random_pure_state((2, dim), ("A", "Abar"), rng)
        for basis in ("z", "x"):
            d = decompose(psi, basis)
            assert np.abs(reassemble(d).amps - psi.amps).max() <= 1e-12
            assert abs(sum(abs(l) ** 2 for l in d.lambdas) - 1.0) <= 1e-12


def test_decompose_component_matches_bra_contraction():
    rng = np.random.default_rng(5)
    psi = random_pure_state((2, 4), ("A", "Abar"), rng)
    block = psi.amps.reshape(2, 4)
    for basis in ("z", "x"):
        d = decompose(psi, basis)
        for a in (0, 1):
            direct = basis_ket(a, basis).conj() @ block
            assert np.abs(d.lambdas[a] * d.companions[a].amps - direct).max() <= 1e-12


# ---------------------------------------------------------------- 2c build

def test_build_2c_product_state_hides_message():
    chi = np.array([0.6, 0.8j], dtype=complex)
    psi = product_state(basis_ket(0, "z"), chi)
    rho = build_2c_state(psi, "z")
    # direct 2-term construction: 1/2 sum_m P(|m> |m_z> |chi>)
    expect = np.zeros((8, 8), dtype=complex)
    for m in (0, 1):
        vec = np.kron(basis_ket(m, "z"), np.kron(basis_ket(m, "z"), chi))
        expect += 0.5 * np.outer(vec, vec.conj())
    assert np.abs(rho.mat - expect).max() <= 1e-12
    assert rho.labels == ("M", "A", "Abar")


def test_build_2c_message_marginal_is_uniform():
    rng = np.random.default_rng(6)
    for _ in range(5):
        psi = random_pure_state((2, 3), ("A", "Abar"), rng)
        for basis in ("z", "x"):
            rho = build_2c_state(psi, basis)
            m = partial_trace(rho, ["M"])
            assert np.abs(m.mat - np.eye(2) / 2).max() <= 1e-12


def test_build_2c_bell_four_terms():
    rho = build_2c_state(bell_state(), "z")
    expect = np.zeros((8, 8), dtype=complex)
    for a in (0, 1):
        for m in (0, 1):
            vec = np.kron(
                basis_ket(m, "z"),
                np.kron(basis_ket(m ^ a, "z"), basis_ket(a, "z")),
            )
            expect += 0.25 * np.outer(vec, vec.conj())
    assert np.abs(rho.mat - expect).max() <= 1e-12


# ---------------------------------------------------------------- 2d build

def test_build_2d_carried_marginal_is_depolarized():
    rng = np.random.default_rng(7)
    psi = random_pure_state((2, 4), ("A", "Abar"), rng)
    rho = build_2d_state(psi)
    reduced = partial_trace(rho, ["A", "Abar"])
    # oracle: average the four Pauli conjugations directly
    block = psi.amps.reshape(2, 4)
    expect = np.zeros((8, 8), dtype=complex)
    for name in ("I", "X", "Y", "Z"):
        vec = (pauli(name) @ block).reshape(8)
        expect += 0.25 * np.outer(vec, vec.conj())
    assert np.abs(reduced.mat - expect).max() <= 1e-12


def test_build_2d_message_marginal_uniform_for_product():
    psi = product_state(basis_ket(1, "x"), np.array([1.0, 0.0]))
    rho = build_2d_state(psi)
    m1m2 = partial_trace(rho, ["M1", "M2"])
    assert np.abs(m1m2.mat - np.eye(4) / 4).max() <= 1e-12


def test_build_2d_operator_order_swap():
    rng = np.random.default_rng(8)
    for _ in range(10):
        psi = random_pure_state((2, int(rng.integers(1, 9))), ("A", "Abar"), rng)
        d = np.abs(build_2d_state(psi, "xz").mat - build_2d_state(psi, "zx").mat).max()
        assert d <= 1e-12


def test_block_states_match_kron_oracle():
    rng = np.random.default_rng(11)
    for dim in range(1, 9):
        for _ in range(3):
            psi = random_pure_state((2, dim), ("A", "Abar"), rng)
            for basis in ("z", "x"):
                assert np.array_equal(build_2c_state(psi, basis).mat, kron_2c_state(psi, basis))
            for order in ("xz", "zx"):
                assert np.array_equal(build_2d_state(psi, order).mat, kron_2d_state(psi, order))


def test_block_states_reject_bad_input():
    with pytest.raises(ValueError):
        build_2d_state(bell_state(), "xy")
    with pytest.raises(ValueError):
        build_2c_state(PureState.qubit(0, "z"), "z")  # no remainder subsystem


# ---------------------------------------------------------------- verify

def test_verify_product_state_exact():
    psi = product_state(basis_ket(0, "z"), np.array([0.8, 0.6]))
    dz, dx = verify_2c_2d(psi)
    assert dz <= 1e-12
    assert dx <= 1e-12


def test_verify_bell_state():
    dz, dx = verify_2c_2d(bell_state())
    assert dz <= 1e-12
    assert dx <= 1e-12


def test_verify_bell_against_hand_expansion():
    # hand-built marginal over M1: weights 1/2 on each decomposition branch,
    # message bit XORed onto the carried qubit, companion untouched
    rho_2d = build_2d_state(bell_state())
    got = partial_trace(rho_2d, ["M1", "A", "Abar"]).mat
    expect = np.zeros((8, 8), dtype=complex)
    lam = {0: S, 1: S}
    for m1 in (0, 1):
        for a in (0, 1):
            vec = np.kron(
                basis_ket(m1, "z"),
                np.kron(basis_ket(m1 ^ a, "z"), lam[a] * basis_ket(a, "z")),
            )
            expect += 0.5 * np.outer(vec, vec.conj())
    assert np.abs(got - expect).max() <= 1e-12


def test_verify_random_states():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(1, 9))
        psi = random_pure_state((2, dim), ("A", "Abar"), rng)
        dz, dx = verify_2c_2d(psi)
        worst = max(worst, dz, dx)
    assert worst <= 1e-10


def test_verify_matches_partial_trace_oracle():
    # generic partial_trace by label on the kron-loop matrices, then the norm
    rng = np.random.default_rng(13)
    for dim in range(1, 9):
        psi = random_pure_state((2, dim), ("A", "Abar"), rng)
        rho_2d = DensityMatrix(kron_2d_state(psi), (2, 2) + psi.dims, ("M1", "M2") + psi.labels)
        rest = list(psi.labels)
        m1 = partial_trace(rho_2d, ["M1"] + rest).mat
        m2 = partial_trace(rho_2d, ["M2"] + rest).mat
        oracle = (
            np.linalg.norm(m1 - kron_2c_state(psi, "z")),
            np.linalg.norm(m2 - kron_2c_state(psi, "x")),
        )
        dz, dx = verify_2c_2d(psi)
        assert abs(dz - oracle[0]) <= 1e-15
        assert abs(dx - oracle[1]) <= 1e-15


def test_verify_ignores_preparation_basis():
    # the 2d construction takes no basis argument; its marginals reproduce
    # both 2c bases from the state alone
    rng = np.random.default_rng(10)
    psi = random_pure_state((2, 2), ("A", "Abar"), rng)
    rho = build_2d_state(psi)
    m1 = partial_trace(rho, ["M1", "A", "Abar"]).mat
    m2 = partial_trace(rho, ["M2", "A", "Abar"]).mat
    assert np.abs(m1 - build_2c_state(psi, "z").mat).max() <= 1e-10
    assert np.abs(m2 - build_2c_state(psi, "x").mat).max() <= 1e-10


def test_reassembly_type():
    d = decompose(bell_state(), "x")
    assert isinstance(d, BasisDecomposition)
    assert d.basis == "x"


# ---------------------------------------------------------------- stacks

def ref_blocks_2c(psi, basis):
    """The one-state 2c block stack, built as before states were stacked."""
    block = psi.amps.reshape(2, psi.dim // 2)
    comps = np.array([basis_ket(a, basis).conj() @ block for a in (0, 1)])
    kets = np.array([basis_ket(b, basis) for b in (0, 1)])
    w = (kets[[[0, 1], [1, 0]], :, None] * comps[:, None, :]).reshape(2, 2, psi.dim)
    terms = 0.5 * (w[..., :, None] * w.conj()[..., None, :])
    return terms[:, 0] + terms[:, 1]


def ref_blocks_2d(psi, op_order="xz"):
    """The one-state 2d block stack, built as before states were stacked."""
    paulis = {"xz": pauli("X") @ pauli("Z"), "zx": pauli("Z") @ pauli("X")}[op_order]
    message_paulis = np.array([[pauli("I"), pauli("Z")], [pauli("X"), paulis]])
    block = psi.amps.reshape(2, psi.dim // 2)
    encoded = (message_paulis @ block).reshape(2, 2, psi.dim)
    return 0.25 * (encoded[..., :, None] * encoded.conj()[..., None, :])


def ref_verify_2c_2d(psi):
    blocks_2d, blocks_z, blocks_x = ref_blocks_2d(psi), ref_blocks_2c(psi, "z"), ref_blocks_2c(psi, "x")
    for blocks in (blocks_2d, blocks_z, blocks_x):
        _check_density_blocks(blocks)
    delta_z = float(np.linalg.norm(blocks_2d.sum(axis=1) - blocks_z))
    delta_x = float(np.linalg.norm(blocks_2d.sum(axis=0) - blocks_x))
    return delta_z, delta_x


def ref_suite_protocol_2c2d(trials=100, abar_dim=8, seed=0):
    """The 2c/2d suite as one certificate per trial, in trial order."""
    rng = np.random.default_rng(seed)
    max_dz = max_dx = max_swap = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, abar_dim + 1))
        psi = random_pure_state((2, dim), ("A", "Abar"), rng)
        dz, dx = ref_verify_2c_2d(psi)
        swap = float(np.abs(ref_blocks_2d(psi, "xz") - ref_blocks_2d(psi, "zx")).max())
        max_dz, max_dx, max_swap = max(max_dz, dz), max(max_dx, dx), max(max_swap, swap)
    passed = max(max_dz, max_dx) <= EQUIV_TOL and max_swap <= SWAP_TOL
    payload = {
        "trials": trials,
        "abar_dim": abar_dim,
        "max_delta_z": max_dz,
        "max_delta_x": max_dx,
        "max_order_swap": max_swap,
        "tolerance": EQUIV_TOL,
        "swap_tolerance": SWAP_TOL,
    }
    return payload, passed


def test_block_stacks_match_one_state_builds_bit_for_bit():
    rng = np.random.default_rng(21)
    for dim in range(1, 17):
        psis = [random_pure_state((2, dim), ("A", "Abar"), rng) for _ in range(5)]
        amps = np.stack([psi.amps.reshape(2, dim) for psi in psis])
        stacks = {
            "2c z": (_blocks_2c(amps, "z"), lambda p: ref_blocks_2c(p, "z")),
            "2c x": (_blocks_2c(amps, "x"), lambda p: ref_blocks_2c(p, "x")),
            "2d xz": (_blocks_2d(amps, "xz"), lambda p: ref_blocks_2d(p, "xz")),
            "2d zx": (_blocks_2d(amps, "zx"), lambda p: ref_blocks_2d(p, "zx")),
        }
        for name, (stack, ref) in stacks.items():
            for state, psi in zip(stack, psis):
                assert np.array_equal(state, ref(psi)), (name, dim)


def test_verify_stack_equals_each_state_bit_for_bit():
    rng = np.random.default_rng(22)
    for dim in (1, 2, 3, 8, 16, 40):
        psis = [random_pure_state((2, dim), ("A", "Abar"), rng) for _ in range(7)]
        dz, dx, swap = verify_2c_2d_stack(np.stack([psi.amps.reshape(2, dim) for psi in psis]))
        assert dz.shape == dx.shape == swap.shape == (7,)
        for i, psi in enumerate(psis):
            assert (dz[i], dx[i]) == verify_2c_2d(psi) == ref_verify_2c_2d(psi)
            assert swap[i] == np.abs(ref_blocks_2d(psi, "xz") - ref_blocks_2d(psi, "zx")).max()


# |0>, |1>, |+> and |+i> with a one-dimensional remainder, shape (4, 2, 1)
QUBIT_SPANNING_STATES = np.array([[1, 0], [0, 1], [S, S], [S, 1j * S]], dtype=complex)[:, :, None]


@pytest.mark.parametrize("swap_2c_basis", [False, True], ids=["blocks", "2c-basis-swapped"])
def test_four_qubit_states_certify_every_state(swap_2c_basis, monkeypatch):
    # both builders act on rho = psi psi+ as (a map on the leading qubit) (x)
    # id on the remainder, and the projectors on these four states span every
    # 2x2 operator, so equality on them certifies every state of every
    # dimension; the certificate alone must reject a 2c build in the wrong basis
    if swap_2c_basis:
        blocks_2c = delayedpa.quantum._blocks_2c
        monkeypatch.setattr(
            delayedpa.quantum, "_blocks_2c", lambda amps, basis: blocks_2c(amps, {"z": "x", "x": "z"}[basis])
        )
    dz, dx, _ = verify_2c_2d_stack(QUBIT_SPANNING_STATES)
    assert (max(dz.max(), dx.max()) <= EQUIV_TOL) is not swap_2c_basis


def test_check_density_blocks_validates_each_state_of_a_stack():
    one = np.stack([np.diag([0.25, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    _check_density_blocks(np.stack([one, one]), states=1)
    # two half-trace states sum to one as a single state, but neither is one
    half = one / 2
    _check_density_blocks(np.stack([half, half]))
    with pytest.raises(ValueError, match="trace"):
        _check_density_blocks(np.stack([half, half]), states=1)
    bad = np.stack([one, one])
    bad[1, 0, 0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        _check_density_blocks(bad, states=1)
    negative = np.stack([one, one])
    negative[1, 1] = np.diag([0.5 + 2e-10, -2e-10])
    with pytest.raises(ValueError, match="positive semidefinite"):
        _check_density_blocks(negative, states=1)


# The PSD rule's boundary: a smallest eigenvalue at or above -1e-10 passes.
# Shifted by 1e-10 I, the first block is positive definite and Cholesky
# decides it; the second has an exactly zero pivot and the third a negative
# one, so the smallest eigenvalue decides them.
PSD_BOUNDARY = {-0.5e-10: (True, 0), -1e-10: (True, 1), -2e-10: (False, 1)}


def counting_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record each call; returns the record."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("low", PSD_BOUNDARY)
def test_density_matrix_psd_boundary(low, monkeypatch):
    accepted, fallbacks = PSD_BOUNDARY[low]
    calls = counting_eigvalsh(monkeypatch)
    mat = np.diag([1.0 - low, low]).astype(complex)
    if accepted:
        DensityMatrix(mat, (2,), ("A",))
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(mat, (2,), ("A",))
    assert len(calls) == fallbacks


@pytest.mark.parametrize("low", PSD_BOUNDARY)
def test_check_density_blocks_psd_boundary_in_a_stack_of_states(low, monkeypatch):
    accepted, fallbacks = PSD_BOUNDARY[low]
    calls = counting_eigvalsh(monkeypatch)
    one = np.stack([np.diag([0.25, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    stack = np.stack([one, one, one])
    stack[1, 1] = np.diag([0.5 - low, low])
    if accepted:
        _check_density_blocks(stack, states=1)
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            _check_density_blocks(stack, states=1)
    # the fallback sees the whole stack, as one eigvalsh call did before
    assert calls == [stack.shape] * fallbacks


# Non-finite entries every comparison against a tolerance lets through: a
# NaN anywhere, or infs whose Hermitian difference inf - inf is NaN while
# the trace stays finite or NaN.  Each is rejected by the Hermitian test.
NONFINITE_ENTRIES = {
    "nan-diagonal": {(0, 0): np.nan},
    "nan-off-diagonal": {(0, 1): np.nan, (1, 0): np.nan},
    "inf-off-diagonal": {(0, 1): np.inf, (1, 0): np.inf},
    "inf-minus-inf-diagonal": {(0, 0): np.inf, (1, 1): -np.inf},
}


def _with_entries(mat, entries):
    mat = mat.copy()
    for index, value in entries.items():
        mat[index] = value
    return mat


@pytest.mark.parametrize("case", NONFINITE_ENTRIES)
def test_density_matrix_rejects_nonfinite_entries(case):
    mat = _with_entries(np.diag([0.5, 0.5]).astype(complex), NONFINITE_ENTRIES[case])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(mat, (2,), ("A",))


@pytest.mark.parametrize("case", NONFINITE_ENTRIES)
def test_check_density_blocks_rejects_one_nonfinite_state_of_a_stack(case):
    one = np.stack([np.diag([0.25, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    stack = np.stack([one, one, one])
    stack[1, 0] = _with_entries(stack[1, 0], NONFINITE_ENTRIES[case])
    with pytest.raises(ValueError, match="Hermitian"):
        _check_density_blocks(stack, states=1)


# an inf amplitude alone has an inf norm, which the norm test always caught
NONFINITE_AMPLITUDES = {
    "nan": np.nan,
    "nan-imaginary": complex(0.0, np.nan),
    "inf-nan": complex(np.inf, np.nan),
}


@pytest.mark.parametrize("case", NONFINITE_AMPLITUDES)
def test_pure_state_rejects_nonfinite_amplitudes(case):
    amps = np.array([NONFINITE_AMPLITUDES[case], 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        PureState(amps, (2, 2), ("A", "Abar"))


@pytest.mark.parametrize("case", NONFINITE_AMPLITUDES)
def test_verify_2c_2d_rejects_nonfinite_states(case):
    amps = np.array([NONFINITE_AMPLITUDES[case], 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        verify_2c_2d(PureState(amps, (2, 2), ("A", "Abar")))
    # the stack form takes raw amplitudes, so its density checks must catch it
    good = np.array([1, 0, 0, 0], dtype=complex)
    stack = np.stack([good, amps, good]).reshape(3, 2, 2)
    with pytest.raises(ValueError, match="Hermitian"):
        verify_2c_2d_stack(stack)


@pytest.mark.parametrize("case", NONFINITE_AMPLITUDES)
def test_verify_2c_2d_stack_rejects_nonfinite_states_before_any_build(case, monkeypatch):
    built = []
    monkeypatch.setattr(delayedpa.quantum, "_blocks_2c", lambda *args: built.append("2c"))
    monkeypatch.setattr(delayedpa.quantum, "_blocks_2d", lambda *args: built.append("2d"))
    good = np.array([1, 0, 0, 0], dtype=complex)
    bad = np.array([NONFINITE_AMPLITUDES[case], 0, 0, 0], dtype=complex)
    stack = np.stack([good, bad, good]).reshape(3, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarnings fail the test
        with pytest.raises(ValueError, match="non-finite amplitude"):
            verify_2c_2d_stack(stack)
    assert built == []


@pytest.mark.parametrize("abar_dim", [1, 2, 8, 16])
@pytest.mark.parametrize("seed", range(20))
def test_protocol_2c2d_suite_matches_trial_loop(seed, abar_dim):
    assert suite_protocol_2c2d(abar_dim=abar_dim, seed=seed) == ref_suite_protocol_2c2d(
        abar_dim=abar_dim, seed=seed
    )


def test_protocol_2c2d_suite_keeps_every_stack_within_its_byte_budget(monkeypatch):
    # with the budget lowered to one trial at dim 16, dimensions above 8 fit
    # one trial per stack and smaller ones several, so 300 trials split
    # unevenly into stacks
    monkeypatch.setattr(delayedpa.suites, "_STACK_BYTES", 256 * 16**2)
    shapes = []

    def recording_stack(amps):
        shapes.append(amps.shape)
        return verify_2c_2d_stack(amps)

    monkeypatch.setattr(delayedpa.suites, "verify_2c_2d_stack", recording_stack)
    payload, passed = suite_protocol_2c2d(trials=300, abar_dim=16, seed=3)
    assert passed
    assert sum(count for count, _, _ in shapes) == 300
    assert all(count * 256 * dim**2 <= 256 * 16**2 for count, _, dim in shapes)
    assert any(count == 1 and dim > 8 for count, _, dim in shapes)
    assert max(count for count, _, _ in shapes) > 1
    assert payload == ref_suite_protocol_2c2d(trials=300, abar_dim=16, seed=3)[0]
