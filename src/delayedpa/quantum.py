"""Small dense complex-matrix engine with named subsystems.

Everything here is desk scale (total dimension up to ~128): pure states and
density matrices carry an ordered list of subsystem labels so partial traces
are requested by name rather than by position.  On top of the generic pieces
sit the joint states of the two backward-line protocol variants that carry
the encrypted message on the quantum channel -- variant 2c (measure, then
re-prepare in the same basis) and variant 2d (skip the measurement and apply
a message-controlled Pauli pair) -- plus the numerical certificate that their
marginals coincide.

Both joint states are block diagonal over their classical message registers,
so they are built as stacks of blocks, one per message value (shape
``(2, d, d)`` for 2c and ``(2, 2, d, d)`` for 2d), the form
``security.CqJoint`` also takes.  Tracing out a message register sums its
block axis.  One rule, :func:`_check_density_blocks`, validates a stack and a
:class:`DensityMatrix` alike: a single matrix is a stack of one block.

The certificates take stacks of states as well: the block builders accept
any number of leading state axes, and :func:`verify_2c_2d_stack` certifies
many states of one dimension with one batched build, one batched
positive-semidefiniteness check per stack and one Frobenius norm per state,
each distance bit for bit what the state alone gives.  :func:`verify_2c_2d`
is its stack of one.

The positive-semidefiniteness rule, :func:`_is_psd`, which
``security.CqJoint`` shares, factors the stack shifted by the tolerance in
one batched Cholesky call and runs the eigensolver only on a stack that
fails it.  The blocks here are PSD by construction, so the factorization
alone passes a valid stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL_BUILD",
    "PureState",
    "DensityMatrix",
    "BasisDecomposition",
    "pauli",
    "basis_ket",
    "projector",
    "tensor",
    "partial_trace",
    "decompose",
    "build_2c_state",
    "build_2d_state",
    "verify_2c_2d",
    "verify_2c_2d_stack",
    "random_pure_state",
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
    ("y", 0): np.array([_SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
    ("y", 1): np.array([_SQRT_HALF, -1j * _SQRT_HALF], dtype=complex),
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
    """Eigenstate |bit_basis> for basis in {x, y, z}."""
    try:
        return _KETS[(basis, bit)].copy()
    except KeyError:
        raise ValueError(f"unknown basis state ({bit}, {basis!r})") from None


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ordered, named subsystems."""

    amps: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        if math.prod(self.dims) != amps.shape[0]:
            raise ValueError("product of dims does not match vector length")
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate subsystem labels")
        # written so that a NaN norm fails it
        if not abs(np.linalg.norm(amps) - 1.0) <= ATOL_BUILD:
            raise ValueError("state is not normalized")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def qubit(cls, bit: int, basis: str, label: str = "A") -> "PureState":
        return cls(basis_ket(bit, basis), (2,), (label,))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with labels."""

    mat: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError("matrix shape does not match dims")
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate subsystem labels")
        _check_density_blocks(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def projector(phi: PureState) -> DensityMatrix:
    """Rank-1 projector |phi><phi|."""
    mat = np.outer(phi.amps, phi.amps.conj())
    return DensityMatrix(mat, phi.dims, phi.labels)


def tensor(parts):
    """Tensor product of pure states or of density matrices (not mixed)."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor needs at least one factor")
    if all(isinstance(p, PureState) for p in parts):
        amps = parts[0].amps
        for p in parts[1:]:
            amps = np.kron(amps, p.amps)
        dims = tuple(d for p in parts for d in p.dims)
        labels = tuple(l for p in parts for l in p.labels)
        return PureState(amps, dims, labels)
    if all(isinstance(p, DensityMatrix) for p in parts):
        mat = parts[0].mat
        for p in parts[1:]:
            mat = np.kron(mat, p.mat)
        dims = tuple(d for p in parts for d in p.dims)
        labels = tuple(l for p in parts for l in p.labels)
        return DensityMatrix(mat, dims, labels)
    raise ValueError("cannot mix pure states and density matrices in tensor")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem whose label is not in ``keep``.

    Kept subsystems stay in their original relative order.
    """
    keep = set([keep] if isinstance(keep, str) else keep)
    unknown = keep - set(rho.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    k = len(rho.dims)
    kept_idx = [i for i, lbl in enumerate(rho.labels) if lbl in keep]
    t = rho.mat.reshape(rho.dims + rho.dims)
    sub = list(range(k)) + [k + i if i in kept_idx else i for i in range(k)]
    out = [i for i in kept_idx] + [k + i for i in kept_idx]
    reduced = np.einsum(t, sub, out)
    d = math.prod(rho.dims[i] for i in kept_idx)
    return DensityMatrix(
        reduced.reshape(d, d),
        tuple(rho.dims[i] for i in kept_idx),
        tuple(rho.labels[i] for i in kept_idx),
    )


def _leading_qubit_block(psi: PureState) -> np.ndarray:
    """The amplitudes of ``psi`` as a (2, rest) array over the leading qubit."""
    if len(psi.dims) < 2:
        raise ValueError("state must have a remainder subsystem")
    if psi.dims[0] != 2:
        raise ValueError("leading subsystem must be a qubit")
    return psi.amps.reshape(2, psi.dim // 2)


def _leading_qubit_components(psi: PureState, basis: str):
    """Unnormalized remainder vectors <a_basis| psi for a = 0, 1.

    The first subsystem must be a qubit; the remainder keeps its own
    dims/labels.
    """
    block = _leading_qubit_block(psi)
    return [basis_ket(a, basis).conj() @ block for a in (0, 1)]


def decompose(psi: PureState, basis: str) -> "BasisDecomposition":
    """Split |psi> = sum_a lambda_a |a_basis> |e_a> over the leading qubit.

    The companions |e_a> are normalized (but generally not orthogonal); the
    weights are returned real and nonnegative with any phase absorbed into
    the companion.
    """
    comps = _leading_qubit_components(psi, basis)
    rest_dims = psi.dims[1:]
    rest_labels = psi.labels[1:]
    lambdas = []
    companions = []
    for vec in comps:
        lam = float(np.linalg.norm(vec))
        if lam > 0:
            companions.append(PureState(vec / lam, rest_dims, rest_labels))
        else:
            fallback = np.zeros(vec.shape[0], dtype=complex)
            fallback[0] = 1.0
            companions.append(PureState(fallback, rest_dims, rest_labels))
        lambdas.append(complex(lam))
    total = sum(abs(l) ** 2 for l in lambdas)
    if abs(total - 1.0) > ATOL_BUILD:
        raise ValueError("weights do not sum to 1")
    return BasisDecomposition(
        basis=basis,
        lambdas=(lambdas[0], lambdas[1]),
        companions=(companions[0], companions[1]),
    )


@dataclass(frozen=True)
class BasisDecomposition:
    basis: str
    lambdas: tuple[complex, complex]
    companions: tuple[PureState, PureState]


def _blocks_2c(amps: np.ndarray, basis: str) -> np.ndarray:
    """The 2c joint state as one block per message value, shape (..., 2, d, d).

    ``amps`` holds states as :func:`_leading_qubit_block` gives them, shape
    (..., 2, d/2); leading axes index separate states.  The leading qubit
    of each is measured in ``basis`` (outcome a), a uniform message bit m
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


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (k d) x (k d) matrix with the k blocks of a stack on its diagonal."""
    d = blocks.shape[-1]
    flat = blocks.reshape(-1, d, d)
    k = len(flat)
    mat = np.zeros((k, d, k, d), dtype=complex)
    mat[np.arange(k), :, np.arange(k), :] = flat
    return mat.reshape(k * d, k * d)


def build_2c_state(psi: PureState, basis: str) -> DensityMatrix:
    """Joint state of message register, carried qubit, and remainder for the
    measure-and-reprepare variant (2c).

    The block-diagonal form of the stack :func:`_blocks_2c`:

        rho = 1/2 sum_{a,m} P( |m>  |(m^a)_basis>  <a_basis|psi> )
    """
    mat = _block_diagonal(_blocks_2c(_leading_qubit_block(psi), basis))
    return DensityMatrix(mat, (2,) + psi.dims, ("M",) + psi.labels)


def build_2d_state(psi: PureState, op_order: str = "xz") -> DensityMatrix:
    """Joint state for the no-measurement variant (2d).

    The block-diagonal form of the stack :func:`_blocks_2d`:

        rho = 1/4 sum_{m1,m2} P(|m1 m2>) (x) U |psi><psi| U+
    """
    mat = _block_diagonal(_blocks_2d(_leading_qubit_block(psi), op_order))
    return DensityMatrix(mat, (2, 2) + psi.dims, ("M1", "M2") + psi.labels)


def verify_2c_2d(psi: PureState) -> tuple[float, float]:
    """Frobenius distances certifying that the 2d marginals match 2c.

    delta_z compares the M2-traced 2d state against the 2c state built in
    basis z (message register M1 standing in for M); delta_x does the same
    with M1 traced and basis x.  Both should vanish for every input state,
    independent of any preparation basis.  This is
    :func:`verify_2c_2d_stack` on the stack of one state.
    """
    delta_z, delta_x = verify_2c_2d_stack(_leading_qubit_block(psi)[None])
    return float(delta_z[0]), float(delta_x[0])


def verify_2c_2d_stack(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`verify_2c_2d` for a stack of states, shape (states, 2, d/2).

    Each state's leading-qubit amplitudes are one (2, d/2) slice, as
    :func:`_leading_qubit_block` gives them.  Returns the arrays of every
    state's delta_z and delta_x.  Tracing a message register out sums the
    2d stack over its axis, and the distances are taken over the block
    stacks: every off-diagonal block is zero on both sides.  Non-finite
    amplitudes are rejected before any stack is built, every stack is
    validated per state, and each distance is the norm of that state's own
    slice, so it equals the one-state value bit for bit.
    """
    if not np.isfinite(amps).all():
        raise ValueError("non-finite amplitude: matrix is not Hermitian")
    blocks_2d, blocks_z, blocks_x = _blocks_2d(amps), _blocks_2c(amps, "z"), _blocks_2c(amps, "x")
    for blocks in (blocks_2d, blocks_z, blocks_x):
        _check_density_blocks(blocks, states=1)
    delta_z = np.array([np.linalg.norm(d) for d in blocks_2d.sum(axis=-3) - blocks_z])
    delta_x = np.array([np.linalg.norm(d) for d in blocks_2d.sum(axis=-4) - blocks_x])
    return delta_z, delta_x


def random_pure_state(dims, labels, rng: np.random.Generator) -> PureState:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    d = math.prod(dims)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    return PureState(amps, tuple(dims), tuple(labels))
