#!/usr/bin/env python3
"""Rewrite tests/golden.json, the digests of a fixed set of seeded outputs.

Each report entry runs one ``delayedpa`` command line in-process and hashes
its report bytes with the ``timing`` field removed; each session entry
hashes ``DelayedPaSession.to_json()`` for the README example at one raw-key
length.  ``tests/test_golden.py`` recomputes every digest, so an RNG stream
or a report field that changes by accident fails tier-1.  The delayed-pa
quantum epsilons are left out (eigenvalues move in the last bits between
LAPACK builds), so that suite runs with ``--quantum-trials 0``; the
protocol-2c2d distances pass through no eigensolver and are kept.

Rewrite the file only for a change that alters a stream or a report on
purpose, and say so in CHANGES.md:

    python scripts/regen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from delayedpa import AdditivePaFunction, BitVector, DelayedPaSession  # noqa: E402
from delayedpa import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden.json"

_SIM = ("--n", "2000", "--seed", "104729")

# entry name -> argv; every run is seeded, so every report is replayable
COMMANDS = {
    "simulate bb84": ("simulate", "bb84", "--noise-fwd", "bsc:0.02", *_SIM),
    "simulate bb84 no-quantum-memory": (
        "simulate", "bb84", "--no-quantum-memory", "--noise-fwd", "depolarizing:0.04", *_SIM),
    "simulate bb84 intercept-resend": (
        "simulate", "bb84", "--eve", "intercept-resend", *_SIM),
    "simulate dqkd": (
        "simulate", "dqkd", "--noise-fwd", "bsc:0.02", "--noise-bwd", "depolarizing:0.03", *_SIM),
    "simulate dqkd intercept-resend": (
        "simulate", "dqkd", "--eve", "intercept-resend", *_SIM),
    "simulate integrated-2": ("simulate", "integrated-2", "--noise-fwd", "bsc:0.02", *_SIM),
    "simulate integrated-2b": ("simulate", "integrated-2b", "--noise-fwd", "bsc:0.02", *_SIM),
    "simulate integrated-2c": (
        "simulate", "integrated-2c", "--noise-fwd", "bsc:0.02", "--noise-bwd", "bsc:0.01", *_SIM),
    "simulate integrated-2d": (
        "simulate", "integrated-2d", "--noise-fwd", "depolarizing:0.03",
        "--noise-bwd", "depolarizing:0.03", *_SIM),
    "simulate relay": ("simulate", "relay", "--noise-fwd", "bsc:0.02", *_SIM),
    "simulate relay normal-scheme": (
        "simulate", "relay", "--normal-scheme", "--noise-fwd", "bsc:0.02", *_SIM),
    "keyrate": ("keyrate", "--n", "1000", "--eb-roundtrip", "0.1", "--ep", "0.05",
                "--eb-single", "0.05"),
    "keyrate abort": ("keyrate", "--n", "1000", "--eb-roundtrip", "0.25", "--ep", "0.25"),
    "verify table1": ("verify", "--suite", "table1", "--seed", "5"),
    "verify preimage-uniformity": (
        "verify", "--suite", "preimage-uniformity", "--n", "6", "--npa", "2",
        "--draws", "2000", "--seed", "5"),
    # 20,000 draws cross the 8,192-draw chunk and end on a short one
    "verify preimage-uniformity chunks": (
        "verify", "--suite", "preimage-uniformity", "--draws", "20000", "--seed", "5"),
    "verify protocol-2c2d": ("verify", "--suite", "protocol-2c2d", "--trials", "30", "--seed", "5"),
    "verify delayed-pa": (
        "verify", "--suite", "delayed-pa", "--n", "3", "--npa", "2",
        "--quantum-trials", "0", "--seed", "5"),
}

SESSION_SIZES = (64, 256, 1024)
SESSION_SEED = 7


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(argv) -> str:
    """Digest of the report one command line prints, ``timing`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    report = json.loads(out.getvalue())
    report.pop("timing")
    return _sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")


def session_digest(n: int) -> str:
    """Digest of the README session's JSON at raw-key length n, n_pa = 0.7 n."""
    rng = random.Random(SESSION_SEED)
    n_pa = (7 * n) // 10
    f = AdditivePaFunction.draw(n_pa=n_pa, n=n, rng=rng)
    m_prime = BitVector.random(n_pa, rng)
    raw_key = BitVector.random(n, rng)
    return _sha256(DelayedPaSession.create(f, m_prime, raw_key, rng).to_json())


def digests() -> dict[str, str]:
    out = {name: report_digest(argv) for name, argv in COMMANDS.items()}
    out.update({f"session n={n}": session_digest(n) for n in SESSION_SIZES})
    return out


def main() -> int:
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
    print(f"wrote {len(COMMANDS) + len(SESSION_SIZES)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
