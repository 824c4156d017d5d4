"""Verification suites behind ``delayedpa verify``.

Each suite returns ``(payload, passed)``: a JSON-ready payload of the
measured deviations plus the overall pass flag at the suite's pinned
tolerances.  The preimage-uniformity gate runs on ``pa.expand_message``,
the draw that sessions run, for every value of its one random word.
"""

from __future__ import annotations

import math

import numpy as np

from delayedpa.gf2 import BitVector
from delayedpa.pa import AdditivePaFunction, expand_message, pa_apply_many
from delayedpa.protocols import decode_key_bit
from delayedpa.quantum import basis_ket, pauli, verify_2c_2d_stack
from delayedpa.security import (
    MAX_ABAR_DIM,
    MAX_QUANTUM_DIM,
    MAX_QUANTUM_N,
    delayed_pa_epsilons_quantum,
    enumerate_row_spaces,
    load_eve_bank,
    random_eve_states,
    sweep_delayed_pa,
)
from delayedpa.stream import BitStream

__all__ = [
    "suite_table1",
    "suite_preimage_uniformity",
    "suite_protocol_2c2d",
    "suite_delayed_pa",
]

CLASSICAL_GAP_TOL = 1e-12
QUANTUM_GAP_TOL = 1e-9
EQUIV_TOL = 1e-10
SWAP_TOL = 1e-12

# draws counted per histogram update, so memory does not grow with --draws
_DRAW_CHUNK = 1 << 13
# 2c/2d trials drawn before they are grouped by dimension; their amplitudes
# take at most 32 * MAX_ABAR_DIM bytes each
_TRIAL_CHUNK = 256
# the 2d blocks of one stack of 2c/2d trials take at most this, unless one
# trial alone takes more, so a run peaks within a few stacks' worth of what
# certifying its largest trial alone takes
_STACK_BYTES = 1 << 22

# one freed 1 MiB block that malloc had mapped raises glibc's mmap threshold
# to 1 MiB and its heap trim threshold to 2 MiB; at the 128 KiB defaults the
# heap top is handed back after each suite and faulted in again by the next,
# which made in-process verify ops 10-25% slower; elsewhere it does nothing
np.empty(1 << 17)


def _chi2_sf(x: float, k: int) -> float:
    """P(chi-square with k degrees of freedom >= x), for odd k.

    The uniformity suite's k = 2^(n - n_pa) - 1 is always odd, and for odd
    k the tail is erfc(sqrt(x/2)) plus a finite sum (Abramowitz & Stegun
    26.4.4).  Each term is formed in logs, so none overflows at k = 2047.
    """
    if x <= 0:
        return 1.0
    half = x / 2
    log_half = math.log(half)
    return math.erfc(math.sqrt(half)) + sum(
        math.exp((j - 0.5) * log_half - half - math.lgamma(j + 0.5))
        for j in range(1, (k - 1) // 2 + 1)
    )


def suite_table1() -> tuple[dict, bool]:
    """Exhaustive one-signal round trips against the encoding table.

    Independent route: numpy Pauli matrices and basis kets rather than the
    simulator's fast path.
    """
    cases = []
    for basis in ("x", "z"):
        for op in ("I", "X", "Y", "Z"):
            expected = decode_key_bit(basis, op)
            ok = True
            for bob_bit in (0, 1):
                state = pauli(op) @ basis_ket(bob_bit, basis)
                probs = [abs(np.vdot(basis_ket(o, basis), state)) ** 2 for o in (0, 1)]
                deterministic = max(probs) > 1.0 - 1e-12
                outcome = 0 if probs[0] > probs[1] else 1
                ok = ok and deterministic and (outcome ^ bob_bit) == expected
            cases.append({"basis": basis, "op": op, "expected_bit": expected, "pass": ok})
    passed = all(c["pass"] for c in cases)
    return {"cases": cases, "passed_cases": sum(c["pass"] for c in cases), "total_cases": 8}, passed


class _StubRng:
    """An rng whose ``getrandbits`` returns ``g`` and records each call's width."""

    def __init__(self, g: int) -> None:
        self.g, self.calls = g, []

    def getrandbits(self, k: int) -> int:
        self.calls.append(k)
        return self.g


def suite_preimage_uniformity(
    n: int = 8, n_pa: int = 3, draws: int = 32000, alpha: float = 0.001, seed: int = 0
) -> tuple[dict, bool]:
    """Exact gate on ``expand_message``, beside a chi-square fit to uniform.

    Draws an [I | T] hash and a y, then runs
    ``expand_message`` for every g in [0, 2^k), k = n - n_pa, with a stub
    rng that returns g: ``bijective`` holds when each draw makes one
    ``getrandbits(k)`` call and the images are distinct and each hash to y,
    so the images are the preimage, each once, and a uniform g gives an
    exactly uniform draw.  The fit counts the g that each of ``draws``
    draws would read, per g, and sums in g order, so every bijective draw
    gives the same payload; the tail is Abramowitz & Stegun 26.4.4.
    """
    if n > 12:
        raise ValueError("limits exceeded: uniformity suite enumerates up to n = 12")
    # alpha 0 or below passes any p-value, and 1 or above fails nearly all
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # PCG64 refuses a negative seed too, in words that do not name the flag
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    stream = BitStream(seed)
    f = AdditivePaFunction.draw(n_pa, n, stream)  # refuses a shape without 1 <= n_pa < n
    k = n - n_pa
    cells = 1 << k
    # below 5 expected draws per cell the chi-square p-value is meaningless
    if draws < 5 * cells:
        raise ValueError(
            f"draws must be at least 5 per preimage cell: {draws} draws over {cells} cells"
        )
    y = BitVector.random(n_pa, stream)
    stubs = [_StubRng(g) for g in range(cells)]
    images = [expand_message(f, y, stub) for stub in stubs]
    in_preimage = np.array([h == y for h in pa_apply_many(f, images)])
    one_call = all(stub.calls == [k] for stub in stubs)
    distinct = len({x.bits for x in images}) == cells
    bijective = bool(one_call and distinct and in_preimage.all())
    per_g = np.zeros(cells, dtype=np.int64)
    for lo in range(0, draws, _DRAW_CHUNK):
        # a draw's getrandbits(k), k <= 64, reads the low k bits of one raw word
        g = stream.words(min(_DRAW_CHUNK, draws - lo)) & np.uint64(cells - 1)
        per_g += np.bincount(g.astype(np.intp), minlength=cells)
    counts = np.where(in_preimage, per_g, 0)
    stray = draws - int(counts.sum())
    # counts.mean() unless draws stray, and not 0 when every draw does
    mean = draws / cells
    chi2 = float(((counts - mean) ** 2 / mean).sum())
    p_value = _chi2_sf(chi2, cells - 1)
    passed = bool(bijective and stray == 0 and p_value >= alpha)
    payload = {
        "n": n,
        "n_pa": n_pa,
        "draws": draws,
        "cells": cells,
        "bijective": bijective,
        "chi2": chi2,
        "p_value": p_value,
        "alpha": alpha,
        "samples_outside_preimage": stray,
    }
    return payload, passed


def suite_protocol_2c2d(trials: int = 100, abar_dim: int = 8, seed: int = 0) -> tuple[dict, bool]:
    """Random-state certificates for the 2c/2d marginal equality.

    Also checks the operator-order-swap identity for the no-measurement
    construction, block by block over the message pairs.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if abar_dim < 1:
        raise ValueError(f"abar_dim must be at least 1, got {abar_dim}")
    if abar_dim > MAX_ABAR_DIM:
        raise ValueError(
            f"limits exceeded: abar_dim must be at most {MAX_ABAR_DIM}, got {abar_dim}"
        )
    stream = BitStream(seed)
    max_dz = max_dx = max_swap = 0.0
    for lo in range(0, trials, _TRIAL_CHUNK):
        # the states are drawn in trial order, then certified a dimension at a time
        by_dim: dict[int, list[np.ndarray]] = {}
        for _ in range(min(_TRIAL_CHUNK, trials - lo)):
            dim = 1 + stream.randbelow(abar_dim)
            # normalized complex Gaussian amplitudes: the real parts are drawn first
            amps = stream.normal(2 * dim) + 1j * stream.normal(2 * dim)
            amps /= np.linalg.norm(amps)
            by_dim.setdefault(dim, []).append(amps.reshape(2, dim))
        for dim, states in by_dim.items():
            # a trial's 2d stack is 256 dim^2 bytes
            step = max(1, _STACK_BYTES // (256 * dim * dim))
            for s0 in range(0, len(states), step):
                amps = np.stack(states[s0 : s0 + step])
                dz, dx, swap = verify_2c_2d_stack(amps)
                max_dz, max_dx = max(max_dz, float(dz.max())), max(max_dx, float(dx.max()))
                max_swap = max(max_swap, float(swap.max()))
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


def suite_delayed_pa(
    n: int = 4,
    n_pa: int = 2,
    eve_bank_path=None,
    quantum_trials: int = 50,
    quantum_n: int = 3,
    quantum_dim: int = 4,
    seed: int = 0,
) -> tuple[dict, bool]:
    """Security-equivalence sweep: exhaustive classical plus random quantum.

    Classical: every independent-row matrix up to (n, n_pa) against every
    bank model, gap tolerance 1e-12.  Quantum: random adversary state tables,
    gap tolerance 1e-9.
    """
    # the classical sweep covers 2 <= width <= n and 1 <= rows <= n_pa
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if n_pa < 1:
        raise ValueError(f"n_pa must be at least 1, got {n_pa}")
    if quantum_n > MAX_QUANTUM_N:
        raise ValueError("limits exceeded: quantum sweep supports n <= 4")
    if quantum_n < 2:
        raise ValueError(f"quantum_n must be at least 2, got {quantum_n}")
    if quantum_dim < 1:
        raise ValueError(f"quantum_dim must be at least 1, got {quantum_dim}")
    if quantum_dim > MAX_QUANTUM_DIM:
        raise ValueError(
            f"limits exceeded: quantum_dim must be at most {MAX_QUANTUM_DIM}, got {quantum_dim}"
        )
    if quantum_trials < 0:
        raise ValueError(f"quantum_trials must be non-negative, got {quantum_trials}")
    bank = load_eve_bank(eve_bank_path)
    classical = sweep_delayed_pa(n, n_pa, bank)
    if classical["cases"] == 0:
        raise ValueError(f"the eve bank has no model for any width from 2 to {n}")

    stream = BitStream(seed)
    # a uniform row space has the law of a uniform matrix with independent rows
    spaces = {}
    q_max = 0.0
    for _ in range(quantum_trials):
        n_rows = 1 + stream.randbelow(min(2, quantum_n - 1))
        if n_rows not in spaces:
            spaces[n_rows] = enumerate_row_spaces(quantum_n, n_rows)
        rows = spaces[n_rows][stream.randbelow(len(spaces[n_rows]))]
        states = random_eve_states(quantum_n, quantum_dim, stream)
        eps_key, eps_msg = delayed_pa_epsilons_quantum(rows, states)
        q_max = max(q_max, abs(eps_key - eps_msg))

    passed = classical["max_gap"] <= CLASSICAL_GAP_TOL and q_max <= QUANTUM_GAP_TOL
    payload = {
        "classical": {
            "max_n": n,
            "max_n_pa": n_pa,
            "cases": classical["cases"],
            "models": [entry["name"] for entry in bank],
            "max_gap": classical["max_gap"],
            "worst": classical["worst"],
            "tolerance": CLASSICAL_GAP_TOL,
        },
        "quantum": {
            "trials": quantum_trials,
            "n": quantum_n,
            "eve_dim": quantum_dim,
            "max_gap": q_max,
            "tolerance": QUANTUM_GAP_TOL,
        },
    }
    return payload, passed
