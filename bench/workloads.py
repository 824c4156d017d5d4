"""Workloads: seeded op generators, op execution and output checks.

An op is one run a user would launch: a ``delayedpa`` command line executed
in-process through ``delayedpa.cli.main``, or one library session from the
README example.  Each workload yields cycles of ops; a cycle always holds
the same mix of configurations, and every op in it gets its own ``--seed``
(and channel parameters) drawn from the workload seed, so the program only
ever sees the generated argv.  Work units are computed from the inputs,
never read from a program counter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import jsonschema

import delayedpa.cli
import delayedpa.gf2
import delayedpa.pa

# Tolerances pinned by the verify suites; a report is checked against these,
# not against the tolerance it prints about itself.
CLASSICAL_GAP_TOL = 1e-12
QUANTUM_GAP_TOL = 1e-9
EQUIV_TOL = 1e-10
SWAP_TOL = 1e-12

EXIT_OK, EXIT_ABORT = 0, 2


@dataclass
class Outcome:
    """What one op produced: exit code and stdout, or the session objects."""

    code: int | None = None
    text: str = ""
    error: str | None = None
    session: tuple | None = None


# ------------------------------------------------------------------ ops

@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    work: int
    expect_code: int = EXIT_OK

    @property
    def label(self) -> str:
        return " ".join(self.argv[: self.argv.index("--seed")])

    @property
    def seed(self) -> int:
        return int(self.argv[self.argv.index("--seed") + 1])

    def run(self) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = delayedpa.cli.main(list(self.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # any exception is a failed op, not a crash
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        if code != self.expect_code and err.getvalue():
            return Outcome(code=code, text=out.getvalue(), error=err.getvalue().strip())
        return Outcome(code=code, text=out.getvalue())

    def replay(self, replay_text: str) -> Outcome:
        """Run again with the seed the report printed."""
        argv = list(self.argv)
        argv[argv.index("--seed") + 1] = str(json.loads(replay_text)["seed"])
        return CliOp(tuple(argv), self.work, self.expect_code).run()

    def replay_text(self, outcome: Outcome) -> str:
        """Report bytes that must replay exactly: everything but ``timing``."""
        report = json.loads(outcome.text)
        report.pop("timing", None)
        return json.dumps(report, sort_keys=True)


@dataclass(frozen=True)
class SessionOp:
    """The README library example at raw-key length n, n_pa = floor(0.7 n)."""

    n: int
    seed: int

    @property
    def work(self) -> int:
        return self.n

    @property
    def label(self) -> str:
        return f"session n={self.n}"

    def run(self) -> Outcome:
        try:
            rng = random.Random(self.seed)
            n, n_pa = self.n, (7 * self.n) // 10
            bv = delayedpa.gf2.BitVector
            f = delayedpa.pa.AdditivePaFunction.from_toeplitz_seed(
                bv.random(n + n_pa - 1, rng), n_pa=n_pa, n=n
            )
            m_prime = bv.random(n_pa, rng)
            raw_key = bv.random(n, rng)
            session = delayedpa.pa.DelayedPaSession.create(f, m_prime, raw_key, rng)
            via_key = session.recover_via_key()
            via_raw = session.recover_via_rawkey()
            text = session.to_json()
            back = delayedpa.pa.DelayedPaSession.from_json(text)
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(text=text, session=(f, m_prime, session, via_key, via_raw, back))

    def replay(self, replay_text: str) -> Outcome:
        return self.run()

    def replay_text(self, outcome: Outcome) -> str:
        return outcome.text


# ------------------------------------------------------------------ checks

class Checker:
    """Output checks that hold for every correct version of the program.

    No golden digests: RNG streams and digests may change on purpose.
    """

    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.validators.validator_for(schema)(schema)

    def problems(self, op, outcome: Outcome) -> list[str]:
        if outcome.error is not None:
            return [outcome.error]
        try:
            if isinstance(op, SessionOp):
                return self._session(outcome)
            problems = []
            if outcome.code != op.expect_code:
                problems.append(f"exit {outcome.code}, expected {op.expect_code}")
            report = json.loads(outcome.text)
            problems += [f"schema: {e.message}" for e in self._validator.iter_errors(report)][:3]
            if report["seed"] != op.seed:
                problems.append(f"report seed {report['seed']} is not the seed passed, {op.seed}")
            check = self._simulate if op.argv[0] == "simulate" else self._verify
            return problems + check(op, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    @staticmethod
    def _simulate(op: CliOp, report: dict) -> list[str]:
        problems = []
        aborted = report["abort"]
        if aborted != (op.expect_code == EXIT_ABORT):
            problems.append(f"abort={aborted} ({report['abort_reason']})")
        if (report["key_digest"] is None) != aborted:
            problems.append("key_digest must be null exactly when the run aborts")
        ledger = report["key_ledger"]
        if ledger is not None and ledger["n_key"] != ledger["n_pa"] - ledger["n_ec"]:
            problems.append("n_key != n_pa - n_ec")
        if report["protocol"] == "relay" and report["bob_key_digest"] != report["charlie_key_digest"]:
            problems.append("relay: bob and charlie keys differ")
        return problems

    @staticmethod
    def _verify(op: CliOp, report: dict) -> list[str]:
        payload = report["payload"]
        if not report["passed"]:
            return ["suite did not pass"]
        suite = report["suite"]
        if suite == "delayed-pa":
            gaps = [
                (payload["classical"]["max_gap"], CLASSICAL_GAP_TOL, "classical"),
                (payload["quantum"]["max_gap"], QUANTUM_GAP_TOL, "quantum"),
            ]
        elif suite == "protocol-2c2d":
            gaps = [
                (payload["max_delta_z"], EQUIV_TOL, "delta_z"),
                (payload["max_delta_x"], EQUIV_TOL, "delta_x"),
                (payload["max_order_swap"], SWAP_TOL, "order swap"),
            ]
        else:
            gaps = [(payload["samples_outside_preimage"], 0, "samples outside preimage")]
        return [f"{name} gap {gap} > {tol}" for gap, tol, name in gaps if not gap <= tol]

    @staticmethod
    def _session(outcome: Outcome) -> list[str]:
        f, m_prime, session, via_key, via_raw, back = outcome.session
        checks = {
            "recover_via_key != m'": via_key == m_prime,
            "recover_via_rawkey != m'": via_raw == m_prime,
            "f(m) != m'": f(session.m) == m_prime,
            "from_json(to_json(s)) != s": back == session,
        }
        return [name for name, ok in checks.items() if not ok]


# ------------------------------------------------------------------ workloads

def certified_pairs(max_n: int, max_n_pa: int, bank: list[dict]) -> int:
    """(ordered independent-row matrix, bank model) pairs a delayed-pa sweep
    must certify: sum over widths of prod_i (2^n - 2^i) times models(n)."""
    total = 0
    for n in range(2, max_n + 1):
        models = sum(1 for e in bank if e.get("rule") != "table" or e.get("n") == n)
        for n_pa in range(1, min(max_n_pa, n - 1) + 1):
            total += math.prod((1 << n) - (1 << i) for i in range(n_pa)) * models
    return total


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(31))


def _bsc(rng):
    return f"bsc:{rng.uniform(0.01, 0.03):.4f}"


def _depol(rng):
    return f"depolarizing:{rng.uniform(0.02, 0.06):.4f}"


def _noiseless(rng):
    return "noiseless"


# protocol and flags, forward and backward channel draws, whether it must abort
SIM_SWEEP_GRID = (
    (("bb84",), _bsc, None, False),
    (("bb84", "--no-quantum-memory"), _depol, None, False),
    (("bb84", "--eve", "intercept-resend"), _noiseless, None, True),
    (("dqkd",), _bsc, _bsc, False),
    (("dqkd",), _depol, _noiseless, False),
    (("dqkd", "--eve", "intercept-resend"), _noiseless, _noiseless, True),
    (("integrated-2",), _noiseless, None, False),
    (("integrated-2b",), _bsc, None, False),
    (("integrated-2c",), _bsc, _bsc, False),
    (("integrated-2d",), _depol, _depol, False),
)
SIM_SWEEP_N = 4000

# relay is left out of both simulate workloads: its report prints the seed of
# its inner bb84 run, not the --seed it was given, so it fails the seed and
# replay checks on every op.
SIM_LARGE_PROTOCOLS = ("dqkd", "bb84", "integrated-2b", "integrated-2c")
SIM_LARGE_N = 30_000
SIM_LARGE_CHANNEL = "bsc:0.02"
_TWO_LINES = ("dqkd", "integrated-2c")

# (suite, max n, max n_pa, quantum trials at --quantum-n 4); other suites
# certify no pairs.  The (4, 2) sweeps carry no random quantum trials, so
# they cost the same every time, and they are 5 of 8 ops, so the median and
# p75 fall inside their group rather than on its edge.
VERIFY_CYCLE = (
    ("delayed-pa", 4, 2, 0),
    ("delayed-pa", 4, 2, 0),
    ("delayed-pa", 5, 1, 8),
    ("delayed-pa", 4, 2, 0),
    ("protocol-2c2d", None, None, None),
    ("delayed-pa", 4, 2, 0),
    ("preimage-uniformity", None, None, None),
    ("delayed-pa", 4, 2, 0),
)
# The suite's 0.001 level would fail a correct sampler once in a thousand
# ops; 1e-6 keeps a biased sampler failing (32000 draws over 32 cells).
PREIMAGE_ALPHA = "1e-6"

SESSION_SIZES = (512, 1024, 2048)


def _sim_sweep_cycle(rng, bank):
    ops = []
    for flags, fwd, bwd, aborts in SIM_SWEEP_GRID:
        argv = ["simulate", *flags, "--n", str(SIM_SWEEP_N), "--noise-fwd", fwd(rng)]
        if bwd is not None:
            argv += ["--noise-bwd", bwd(rng)]
        argv += ["--seed", _seed(rng)]
        ops.append(CliOp(tuple(argv), SIM_SWEEP_N, EXIT_ABORT if aborts else EXIT_OK))
    return ops


def _sim_large_cycle(rng, bank):
    ops = []
    for protocol in SIM_LARGE_PROTOCOLS:
        argv = ["simulate", protocol, "--n", str(SIM_LARGE_N), "--noise-fwd", SIM_LARGE_CHANNEL]
        if protocol in _TWO_LINES:
            argv += ["--noise-bwd", SIM_LARGE_CHANNEL]
        argv += ["--seed", _seed(rng)]
        ops.append(CliOp(tuple(argv), SIM_LARGE_N))
    return ops


def _verify_cycle(rng, bank):
    ops = []
    for suite, n, n_pa, trials in VERIFY_CYCLE:
        argv = ["verify", "--suite", suite]
        work = 0
        if suite == "delayed-pa":
            argv += ["--n", str(n), "--npa", str(n_pa), "--quantum-n", "4", "--quantum-trials", str(trials)]
            work = certified_pairs(n, n_pa, bank)
        elif suite == "preimage-uniformity":
            argv += ["--alpha", PREIMAGE_ALPHA]
        argv += ["--seed", _seed(rng)]
        ops.append(CliOp(tuple(argv), work))
    return ops


def _session_cycle(rng, bank):
    return [SessionOp(n, rng.getrandbits(63)) for n in SESSION_SIZES]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    make_cycle: object
    # seconds per cycle on the 2-vCPU host the benchmark was written on;
    # sizes the fixed op list of a run from --seconds
    nominal_cycle_s: float

    def cycles(self, seed: int, bank: list[dict]):
        """Endless cycles of ops, all drawn from one seeded generator."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.make_cycle(rng, bank)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-sweep", "configured key bits n", _sim_sweep_cycle, 0.30),
        Workload("sim-large", "configured key bits n", _sim_large_cycle, 2.5),
        Workload("verify-sweep", "certified (matrix, bank model) pairs", _verify_cycle, 2.0),
        Workload("dpa-sessions", "raw-key bits n", _session_cycle, 1.0),
    )
}
