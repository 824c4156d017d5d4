"""Delayed privacy amplification over GF(2) and two-way deterministic QKD.

The package bundles the bit-packed GF(2) toolkit, additive privacy
amplification with uniform preimage expansion, the exhaustive
security-equivalence verifier, a small dense quantum engine for the
protocol-equivalence certificates, seeded protocol simulations, and the
``delayedpa`` command-line front end.
"""

from delayedpa.gf2 import (
    BinaryMatrix,
    BitVector,
    RowReduction,
    kernel_basis,
    matvec,
    row_reduce,
    sample_preimage,
    toeplitz_from_seed,
)
from delayedpa.pa import (
    AdditivePaFunction,
    DelayedPaSession,
    dpa_encrypt,
    dpa_recover_via_key,
    dpa_recover_via_rawkey,
    expand_imperfect_key,
    expand_message,
    pa_apply,
)
from delayedpa.protocols import (
    Bb84Config,
    ChannelModel,
    DqkdConfig,
    EveModel,
    IntegratedConfig,
    RelayConfig,
    binary_entropy,
    key_length,
    run_bb84,
    run_dqkd,
    run_integrated,
    run_relay,
)

__all__ = [
    "BinaryMatrix",
    "BitVector",
    "RowReduction",
    "kernel_basis",
    "matvec",
    "row_reduce",
    "sample_preimage",
    "toeplitz_from_seed",
    "AdditivePaFunction",
    "DelayedPaSession",
    "dpa_encrypt",
    "dpa_recover_via_key",
    "dpa_recover_via_rawkey",
    "expand_imperfect_key",
    "expand_message",
    "pa_apply",
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
