"""Key-length ledgers and test-bit error estimates.

Error correction is settled by an ideal authenticated oracle: the receiving
side's string is overwritten with the sender's, and the ledger is charged
ceil(N * h(e)) pre-shared bits for the measured (or observed) error rate e.
This isolates the key accounting from any particular reconciliation code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ErrorEstimate",
    "KeyLedger",
    "binary_entropy",
    "build_ledger",
    "estimate_errors",
    "key_length",
    "two_way_rate_single_line",
    "with_roundtrip",
]


def binary_entropy(e: float) -> float:
    """h(e) = -e log2 e - (1-e) log2 (1-e), with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("rate outside [0, 1]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class KeyLedger:
    """Bit accounting for one run: N_key = N_PA - N_EC, abort when <= 0."""

    n: int
    n_test: int
    n_pa: int
    n_ec: int
    n_key: int
    preshared_consumed: int
    pool_consumed: int
    h_roundtrip: float
    h_ep: float
    h_eb: float | None
    abort: bool


def _clamp_rate(e: float) -> float:
    # rates past 1/2 carry no distillable key; the clamped ledger still aborts
    return min(max(e, 0.0), 0.5)


def build_ledger(n: int, n_test: int, e_roundtrip: float, e_p: float,
                 e_b: float | None = None, forward_reconciled: bool = False) -> KeyLedger:
    """The one ledger builder: N_PA = floor(N(1 - h(e_p))) and N_EC =
    ceil(N h(e_roundtrip)), plus ceil(N h(e_b)) when the forward raw keys
    were reconciled first, all paid in pre-shared bits.  Every rate is
    clamped to [0, 1/2] first."""
    h_rt = binary_entropy(_clamp_rate(e_roundtrip))
    h_ep = binary_entropy(_clamp_rate(e_p))
    h_eb = None if e_b is None else binary_entropy(_clamp_rate(e_b))
    n_pa = math.floor(n * (1.0 - h_ep))
    n_ec = math.ceil(n * h_rt) + (math.ceil(n * h_eb) if forward_reconciled else 0)
    return KeyLedger(
        n=n, n_test=n_test, n_pa=n_pa, n_ec=n_ec, n_key=n_pa - n_ec,
        preshared_consumed=n_ec, pool_consumed=0, h_roundtrip=h_rt, h_ep=h_ep,
        h_eb=h_eb, abort=n_pa - n_ec <= 0,
    )


def key_length(n: int, e_roundtrip: float, e_p: float) -> KeyLedger:
    """Ledger for the two-way rate N[1 - h(e_roundtrip) - h(e_p)].

    Conservative integer accounting: N_PA = floor(N(1 - h(e_p))) and
    N_EC = ceil(N h(e_roundtrip)), the latter paid in pre-shared bits.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for rate in (e_roundtrip, e_p):
        if not 0.0 <= rate <= 0.5:
            raise ValueError("rate outside [0, 0.5]")
    return build_ledger(n, 0, e_roundtrip, e_p)


def two_way_rate_single_line(e_b: float, e_p: float) -> float:
    """Asymptotic rate 1 - h(2 e_b) - h(e_p) when both lines share rate e_b
    and their errors may be fully correlated; the bound needs e_b <= 1/4."""
    if not 0.0 <= e_b <= 0.25:
        raise ValueError(f"single-line rate e_b outside [0, 0.25], got {e_b}")
    return 1.0 - binary_entropy(2.0 * e_b) - binary_entropy(e_p)


@dataclass
class ErrorEstimate:
    """Per-basis test-bit error rates and their derived averages."""

    e_x: float
    e_z: float
    e_b: float
    e_p: float
    count_x: int
    count_z: int
    se_x: float
    se_z: float
    se_b: float
    se_p: float
    e_roundtrip: float | None = None
    count_roundtrip: int = 0
    se_roundtrip: float | None = None


def _stderr(e: float, count: int) -> float:
    return math.sqrt(e * (1.0 - e) / count) if count else 0.0


def estimate_errors(count_x: int, errors_x: int, count_z: int, errors_z: int) -> ErrorEstimate:
    """Rates from the test bits of each basis: how many there are and how
    many of them the two ends disagree on.

    e_x and e_z come from the disjoint per-basis subsets; the averaged bit
    and phase rates are both (e_x + e_z) / 2 (phase errors of one basis show
    up as bit errors of the other).
    """
    for name, count in (("x", count_x), ("z", count_z)):
        if count == 0:
            raise ValueError(f"no test bits in basis {name}")
    e_x = errors_x / count_x
    e_z = errors_z / count_z
    se_x = _stderr(e_x, count_x)
    se_z = _stderr(e_z, count_z)
    avg = (e_x + e_z) / 2.0
    se_avg = 0.5 * math.sqrt(se_x ** 2 + se_z ** 2)
    return ErrorEstimate(
        e_x=e_x, e_z=e_z, e_b=avg, e_p=avg,
        count_x=count_x, count_z=count_z,
        se_x=se_x, se_z=se_z, se_b=se_avg, se_p=se_avg,
    )


def with_roundtrip(est: ErrorEstimate, count: int, errors: int) -> ErrorEstimate:
    """``est`` with the round-trip rate of ``count`` tested code bits, ``errors``
    of which came back wrong."""
    e = errors / count
    return replace(est, e_roundtrip=e, count_roundtrip=count, se_roundtrip=_stderr(e, count))
