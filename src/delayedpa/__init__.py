"""Delayed privacy amplification over GF(2) and two-way deterministic QKD.

The package bundles the bit-packed GF(2) toolkit, additive privacy
amplification with uniform preimage expansion, the exhaustive
security-equivalence verifier, a small dense quantum engine for the
protocol-equivalence certificates, seeded protocol simulations, and the
``delayedpa`` command-line front end.
"""

from delayedpa.gf2 import BinaryMatrix, BitVector
from delayedpa.ledger import binary_entropy, key_length
from delayedpa.pa import AdditivePaFunction, DelayedPaSession, expand_message
from delayedpa.protocols import (
    Bb84Config,
    ChannelModel,
    DqkdConfig,
    EveModel,
    IntegratedConfig,
    RelayConfig,
    run_bb84,
    run_dqkd,
    run_integrated,
    run_relay,
)

__all__ = [
    "BinaryMatrix",
    "BitVector",
    "AdditivePaFunction",
    "DelayedPaSession",
    "expand_message",
    "Bb84Config",
    "ChannelModel",
    "DqkdConfig",
    "EveModel",
    "IntegratedConfig",
    "RelayConfig",
    "binary_entropy",
    "key_length",
    "run_bb84",
    "run_dqkd",
    "run_integrated",
    "run_relay",
]

__version__ = "0.1.0"
