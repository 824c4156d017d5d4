"""Command-line front end: key-rate accounting, protocol runs, verification.

Exit codes: 0 success, 2 protocol abort, 3 config error (an ``--out``
path that cannot be written included, found before any work is done), 4
verification failure.  Every report carries the seed actually used, so any
run can be replayed byte-identically (timing aside) by passing ``--seed``
back in.

``main(argv)`` may be called any number of times in one process: it builds
the argument parser on its first call and reuses it, since parsing leaves
no state on the parser.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import random
import sys
import time

from delayedpa import reports
from delayedpa.protocols import (
    Bb84Config,
    DqkdConfig,
    IntegratedConfig,
    RelayConfig,
    key_length,
    run_bb84,
    run_dqkd,
    run_integrated,
    run_relay,
    two_way_rate_single_line,
)

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_CONFIG = 3
EXIT_VERIFY_FAILED = 4

SUITES = ("table1", "preimage-uniformity", "protocol-2c2d", "delayed-pa")


class _Parser(argparse.ArgumentParser):
    # distinguish usage/config problems (3) from protocol aborts (2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fresh_seed() -> int:
    return random.SystemRandom().randrange(2**32)


def _error(command: str, message) -> int:
    print(f"delayedpa {command}: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _check_out(out_path: str | None) -> None:
    """Raise the OSError that writing ``--out`` would raise, without writing.

    Run before any work, so an unwritable path costs nothing; nothing is
    created or truncated, so a run that then stops on a config error leaves
    the path as it was.
    """
    if not out_path:
        return
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)
    if not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out_path)


def _emit(report: dict, out_path: str | None) -> None:
    text = reports.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="delayedpa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    kr = sub.add_parser("keyrate", help="two-way key-length ledger from error rates")
    kr.add_argument("--n", type=int, required=True)
    kr.add_argument("--eb-roundtrip", type=float, required=True, dest="eb_roundtrip")
    kr.add_argument("--ep", type=float, required=True)
    kr.add_argument("--eb-single", type=float, dest="eb_single",
                    help="also evaluate the correlated-lines rate 1 - h(2e_b) - h(e_p)")
    kr.add_argument("--out")

    sim = sub.add_parser("simulate", help="run a seeded protocol simulation")
    sim.add_argument("protocol", choices=reports.PROTOCOLS)
    sim.add_argument("--config", help="JSON config document; flags override its fields")
    sim.add_argument("--n", type=int)
    sim.add_argument("--n-test", type=int, dest="n_test")
    sim.add_argument("--noise-fwd", dest="noise_fwd", help="forward channel, e.g. bsc:0.02")
    sim.add_argument("--noise-bwd", dest="noise_bwd", help="backward channel")
    sim.add_argument("--eve", help="none or intercept-resend[:forward,backward]")
    sim.add_argument("--seed", type=int)
    sim.add_argument(
        "--pa-seed", dest="pa_seed",
        help="fixed hash seed as BITS:HEX of n - 1 bits, n as configured; bb84 without "
        "quantum memory hashes with its first (sifted count) - 1 bits",
    )
    sim.add_argument("--check-fraction", type=float, dest="check_fraction")
    sim.add_argument("--pool", type=int, help="relay: pre-shared pool size")
    sim.add_argument("--normal-scheme", action="store_true", dest="normal_scheme",
                     help="relay: pad with the hashed key instead of delaying")
    sim.add_argument("--no-quantum-memory", action="store_true", dest="no_quantum_memory")
    sim.add_argument("--out")

    ver = sub.add_parser("verify", help="run a verification suite",
                         description="A flag left out takes the suite's own default.")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--n", type=int, help="delayed-pa: max input width; preimage-uniformity: input width")
    ver.add_argument("--npa", type=int, dest="n_pa", metavar="NPA",
                     help="delayed-pa: max output width; preimage-uniformity: output width")
    ver.add_argument("--trials", type=int)
    ver.add_argument(
        "--abar-dim", type=int,
        help="protocol-2c2d: max Abar dimension (at most 512); one trial at 512 took "
        "0.17-0.74 s of suite time on a 2-vCPU host, so the default trials take tens of seconds",
    )
    ver.add_argument(
        "--draws", type=int,
        help="preimage-uniformity: draws in the chi-square fit, which runs beside the "
        "exact gate on expand_message (at least 5 per preimage element)",
    )
    ver.add_argument(
        "--alpha", type=float,
        help="preimage-uniformity: the chi-square fit fails below this p-value "
        "(in (0, 1)); the exact gate on expand_message takes no level",
    )
    ver.add_argument("--quantum-trials", type=int)
    ver.add_argument("--quantum-n", type=int)
    ver.add_argument("--quantum-dim", type=int)
    ver.add_argument("--eve-bank", dest="eve_bank_path", metavar="EVE_BANK")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--out")
    return parser


def _cmd_keyrate(args) -> int:
    start = time.perf_counter()
    try:
        ledger = key_length(args.n, args.eb_roundtrip, args.ep)
        single = None
        if args.eb_single is not None:
            single = two_way_rate_single_line(args.eb_single, args.ep)
    except ValueError as exc:
        return _error("keyrate", exc)
    report = reports.keyrate_report(
        args.n, args.eb_roundtrip, args.ep, ledger, single, time.perf_counter() - start
    )
    try:
        _emit(report, args.out)
    except OSError as exc:
        return _error("keyrate", exc)
    return EXIT_ABORT if ledger.abort else EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        doc = reports.config_doc_from_args(args.protocol, args)
        if "seed" not in doc:
            doc["seed"] = _fresh_seed()
        cfg = reports.build_config(doc)
    except (ValueError, OSError, KeyError) as exc:
        return _error("simulate", exc)
    # looked up per call, so a function rebound on its module (as a tracer
    # does) is the one called
    run, build_report = {
        Bb84Config: (run_bb84, reports.transcript_report),
        DqkdConfig: (run_dqkd, reports.transcript_report),
        IntegratedConfig: (run_integrated, reports.transcript_report),
        RelayConfig: (run_relay, reports.relay_report),
    }[type(cfg)]
    start = time.perf_counter()
    try:
        result = run(cfg)
    except ValueError as exc:
        return _error("simulate", exc)
    report = build_report(result, doc, time.perf_counter() - start)
    try:
        _emit(report, args.out)
    except OSError as exc:
        return _error("simulate", exc)
    return EXIT_ABORT if report["abort"] else EXIT_OK


def _cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:
        return _error("verify", f"seed must be non-negative, got {args.seed}")
    seed = args.seed if args.seed is not None else _fresh_seed()
    # suites pulls in quantum and security (about 20 ms to import), which
    # only verify needs
    from delayedpa import suites

    # each suite with its parameters: a flag's dest names the parameter it
    # sets, and a flag left unset leaves the suite's own default
    table = {
        "table1": (suites.suite_table1, ()),
        "preimage-uniformity": (suites.suite_preimage_uniformity, ("n", "n_pa", "draws", "alpha", "seed")),
        "protocol-2c2d": (suites.suite_protocol_2c2d, ("trials", "abar_dim", "seed")),
        "delayed-pa": (suites.suite_delayed_pa, (
            "n", "n_pa", "eve_bank_path", "quantum_trials", "quantum_n", "quantum_dim", "seed",
        )),
    }
    suite, params = table[args.suite]
    flags = {**vars(args), "seed": seed}
    # a flag that only other suites take would run unused; --seed is every suite's
    for name in dict.fromkeys(p for _, names in table.values() for p in names):
        if name not in (*params, "seed") and flags[name] is not None:
            option = {"n_pa": "npa", "eve_bank_path": "eve-bank"}.get(name, name.replace("_", "-"))
            return _error("verify", f"{args.suite} takes no flag --{option}")
    kwargs = {name: flags[name] for name in params if flags[name] is not None}
    start = time.perf_counter()
    try:
        payload, passed = suite(**kwargs)
    except (ValueError, OSError) as exc:
        return _error("verify", exc)
    report = reports.verify_report(args.suite, seed, passed, payload, time.perf_counter() - start)
    try:
        _emit(report, args.out)
    except OSError as exc:
        return _error("verify", exc)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


@functools.cache
def _parser() -> _Parser:
    # one parser per process: parse_args returns a fresh Namespace each call,
    # and no action keeps state (no append actions, no mutable defaults)
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
    except OSError as exc:
        return _error(args.command, exc)
    if args.command == "keyrate":
        return _cmd_keyrate(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
