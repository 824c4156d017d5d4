"""The dense certificate that protocol variants 2c and 2d give the same marginals.

Two backward-line protocol variants carry the encrypted message on the
quantum channel: 2c measures and re-prepares in the same basis, and 2d
skips the measurement and applies a message-controlled Pauli pair.
:func:`verify_2c_2d_stack` measures, at desk scale, how far apart their
marginals are.  The Pauli matrices and basis kets it builds from also
serve the encoding-table suite.

Both joint states are block diagonal over their classical message registers,
so they are built as stacks of blocks, one per message value (shape
``(2, d, d)`` for 2c and ``(2, 2, d, d)`` for 2d), the form
``security.CqJoint`` also takes.  Tracing out a message register sums its
block axis.  One rule, :func:`_check_density_blocks`, validates a stack and
a ``security.CqJoint`` alike: a single density matrix is a stack of one
block.

A state enters as its amplitudes over its leading qubit, the one the
protocol carries, and the remainder: an array of shape (2, d/2).  The block
builders accept any number of leading state axes, and
:func:`verify_2c_2d_stack` certifies many states of one dimension with one
batched build, one batched positive-semidefiniteness check per stack and one
Frobenius norm per state, each distance bit for bit what the state alone
gives.

That rule's positive-semidefiniteness test, :func:`_is_psd`, factors the
stack shifted by the tolerance in one batched Cholesky call and runs the
eigensolver only on a stack that fails it.  The blocks here are PSD by
construction, so the factorization alone passes a valid stack.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ATOL_BUILD",
    "pauli",
    "basis_ket",
    "verify_2c_2d_stack",
]

ATOL_BUILD = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI["Y"] = 1j * _PAULI["X"] @ _PAULI["Z"]

# the 2d encodings U[m1, m2]: X^m1 Z^m2 for "xz", Z^m2 X^m1 for "zx"
_MESSAGE_PAULIS = {
    "xz": np.array([[_PAULI["I"], _PAULI["Z"]], [_PAULI["X"], _PAULI["X"] @ _PAULI["Z"]]]),
    "zx": np.array([[_PAULI["I"], _PAULI["Z"]], [_PAULI["X"], _PAULI["Z"] @ _PAULI["X"]]]),
}

_KETS = {
    ("z", 0): np.array([1, 0], dtype=complex),
    ("z", 1): np.array([0, 1], dtype=complex),
    ("x", 0): np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    ("x", 1): np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
}


def _check_density_blocks(blocks: np.ndarray, states: int = 0) -> None:
    """Raise unless a stack of d x d blocks, shape (..., d, d), is a state.

    Every block is Hermitian and positive semidefinite, and the traces of
    all blocks sum to 1.  A density matrix is the stack of one block.  With
    ``states`` > 0 the leading ``states`` axes index separate states, and
    the blocks of each must sum to trace 1.  A NaN or inf entry fails the
    Hermitian test before any arithmetic touches it.
    """
    if not np.isfinite(blocks).all():
        raise ValueError("non-finite entry: matrix is not Hermitian")
    if not np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max() <= ATOL_BUILD:
        raise ValueError("matrix is not Hermitian")
    traces = np.trace(blocks, axis1=-2, axis2=-1)
    trace = traces.reshape(traces.shape[:states] + (-1,)).sum(axis=-1)
    if not (
        np.all(np.abs(trace.real - 1.0) <= ATOL_BUILD) and np.all(np.abs(trace.imag) <= ATOL_BUILD)
    ):
        raise ValueError("trace is not 1")
    if not _is_psd(blocks, 1e-10):
        raise ValueError("matrix is not positive semidefinite")


def _is_psd(blocks: np.ndarray, tol: float) -> bool:
    """Whether no block of a stack, shape (..., d, d), has an eigenvalue below -tol.

    The blocks are taken as Hermitian from their lower triangles, as
    ``eigvalsh`` takes them.  One batched Cholesky factorization of a copy
    shifted by tol I decides it when it succeeds: it does exactly when every
    shifted block is positive definite, up to rounding.  Only when it fails
    (a zero or negative pivot, or a NaN) does the smallest eigenvalue decide,
    so a block within rounding of -tol may get the other verdict than
    ``eigvalsh`` alone would give it.
    """
    try:
        np.linalg.cholesky(blocks + tol * np.eye(blocks.shape[-1]))
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(blocks).min() >= -tol)


def pauli(name: str) -> np.ndarray:
    """The 2x2 Pauli matrix I, X, Y, or Z."""
    try:
        return _PAULI[name].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli {name!r}") from None


def basis_ket(bit: int, basis: str) -> np.ndarray:
    """Eigenstate |bit_basis> for basis in {x, z}."""
    try:
        return _KETS[(basis, bit)].copy()
    except KeyError:
        raise ValueError(f"unknown basis state ({bit}, {basis!r})") from None


def _blocks_2c(amps: np.ndarray, basis: str) -> np.ndarray:
    """The 2c joint state as one block per message value, shape (..., 2, d, d).

    ``amps`` holds each state's amplitudes over its leading qubit and the
    remainder, shape (..., 2, d/2); leading axes index separate states.
    The leading qubit of each is measured in ``basis`` (outcome a), a uniform message bit m
    is XORed on, and |(m^a)_basis> is re-prepared:

        block[m] = 1/2 sum_a P( |(m^a)_basis>  <a_basis|psi> )

    The remainder components are left unnormalized; their squared norms
    sum to one, so each state's blocks' traces sum to one.
    """
    # comps[..., a, :] = <a_basis|psi, one vector-matrix product per state
    comps = np.stack([basis_ket(a, basis).conj() @ amps for a in (0, 1)], axis=-2)
    kets = np.array([basis_ket(b, basis) for b in (0, 1)])
    # w[..., m, a, :] = |(m^a)_basis> (x) <a_basis|psi
    w = kets[[[0, 1], [1, 0]], :, None] * comps[..., None, :, None, :]
    w = w.reshape(amps.shape[:-2] + (2, 2, 2 * amps.shape[-1]))
    terms = 0.5 * (w[..., :, None] * w.conj()[..., None, :])
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def _blocks_2d(amps: np.ndarray, op_order: str = "xz") -> np.ndarray:
    """The 2d joint state as one block per message pair, shape (..., 2, 2, d, d).

    ``amps`` is shaped as for :func:`_blocks_2c`.  Two uniform message bits
    (m1, m2) control a Pauli pair on the leading qubit:

        block[m1, m2] = 1/4 U |psi><psi| U+

    with U = X^m1 Z^m2 (``op_order="xz"``) or Z^m2 X^m1 (``"zx"``); the two
    orders give the same mixture because swapping contributes -1 twice.
    """
    if op_order not in _MESSAGE_PAULIS:
        raise ValueError("op_order must be 'xz' or 'zx'")
    encoded = _MESSAGE_PAULIS[op_order] @ amps[..., None, None, :, :]
    encoded = encoded.reshape(amps.shape[:-2] + (2, 2, 2 * amps.shape[-1]))
    return 0.25 * (encoded[..., :, None] * encoded.conj()[..., None, :])


def verify_2c_2d_stack(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius distances certifying that the 2d marginals match 2c, per state.

    ``amps`` has shape (states, 2, d/2): each state's amplitudes over its
    leading qubit and the remainder.  delta_z compares the M2-traced 2d
    state against the 2c state built in basis z (message register M1
    standing in for M); delta_x does the same with M1 traced and basis x.
    Both should vanish for every input state, independent of any
    preparation basis.  Returns the arrays of every state's delta_z,
    delta_x and order-swap distance, the largest entry of |xz - zx| between
    its 2d stacks built in the two operator orders.  Tracing a message
    register out sums the 2d stack over its axis, and the distances are
    taken over the block stacks: every off-diagonal block is zero on both
    sides.  Non-finite amplitudes are rejected before any stack is built,
    the "xz" and 2c stacks are validated per state (a "zx" stack within
    the swap tolerance of its "xz" one needs no check of its own), and
    each distance is the norm of that state's own slice, so it equals the
    one-state value bit for bit.
    """
    if not np.isfinite(amps).all():
        raise ValueError("non-finite amplitude: matrix is not Hermitian")
    blocks_2d, blocks_z, blocks_x = _blocks_2d(amps), _blocks_2c(amps, "z"), _blocks_2c(amps, "x")
    for blocks in (blocks_2d, blocks_z, blocks_x):
        _check_density_blocks(blocks, states=1)
    delta_z = np.array([np.linalg.norm(d) for d in blocks_2d.sum(axis=-3) - blocks_z])
    delta_x = np.array([np.linalg.norm(d) for d in blocks_2d.sum(axis=-4) - blocks_x])
    swap = np.abs(blocks_2d - _blocks_2d(amps, "zx")).reshape(len(amps), -1).max(axis=1)
    return delta_z, delta_x, swap
