"""Benchmark of the delayedpa package: one workload per invocation.

    python3 bench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Ops run closed-loop from one client in this one process (each op
starts when the previous one has ended), so there are no queues or threads
and no layer has a wait time.

Both modes run a fixed op list: ``round(seconds / nominal cycle time)``
cycles (half that when traced), about ``--seconds`` of work at the speed the
benchmark was written at.  The same seed and ``--seconds`` give the same
ops, so two versions of the program are timed on identical inputs.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then the ops after one untimed warm-up op.  ``--trace 1``
runs the ops with every layer boundary traced, then again untraced: it
reports per-layer calls, self time and errors and the tracing overhead, and
fails any op whose traced report differs from its untraced one.

Times are reported at a fixed reference speed.  The shared host this was
written on runs the same code up to 1.8 times slower from one minute to the
next, so between ops the benchmark times a fixed pure-Python loop, and every
time is multiplied by (nominal loop time / median measured loop time).
Raw times and the factor are printed beside each value.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
SETUP_CODE = (
    "import delayedpa.cli\n"
    "from delayedpa.security import load_eve_bank\n"
    "load_eve_bank()\n"
)
REPLAYS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 2.0
# median reference_work() time on the 2-vCPU Xeon host the benchmark was
# written on; only the ratio to it matters, so it never changes
REFERENCE_NOMINAL_S = 0.004


def fail(message: str) -> int:
    print(f"bench: error: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ stats

def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", percentile(values, p)
    return "max", max(values)


def reference_work() -> int:
    """Fixed pure-Python integer loop.  Of the loops tried (big-int shifts,
    object churn, this), its time tracked the ops' time most closely."""
    total = 0
    for i in range(60000):
        total += i * i
    return total


class SpeedProbe:
    """Times ``reference_work`` between ops to track the host's speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def maybe_sample(self, force: bool = False) -> None:
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= REFERENCE_EVERY_S:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def scale(self, at: float | None = None) -> float:
        """Multiply a time measured at ``at`` (or anywhere in the run, when
        None) by this to get it at reference speed.  Uses the samples within
        REFERENCE_WINDOW_S of ``at``, or the nearest one."""
        if at is None:
            near = [d for _, d in self.samples]
        else:
            near = [d for t, d in self.samples if abs(t - at) <= REFERENCE_WINDOW_S]
            near = near or [min(self.samples, key=lambda s: abs(s[0] - at))[1]]
        return REFERENCE_NOMINAL_S / statistics.median(near)


# ------------------------------------------------------------------ phases

@dataclass
class Result:
    op: object
    start: float
    seconds: float
    outcome: object = None  # dropped once checked, so it cannot grow RSS
    problems: list | None = None
    replay_text: str | None = None


def measure_setup(probe: SpeedProbe) -> list[tuple[float, float]]:
    """(start, wall time) of fresh interpreters that import the CLI and load
    the default eve bank, as every ``delayedpa`` invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        probe.maybe_sample(force=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        times.append((start, time.perf_counter() - start))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    probe.maybe_sample(force=True)
    return times


def run_ops(ops, probe: SpeedProbe, checker=None) -> list[Result]:
    """Run ops back to back.  With a checker, each output is checked right
    after its op, outside the op's time, and then dropped."""
    results = []
    for op in ops:
        probe.maybe_sample()
        start = time.perf_counter()
        outcome = op.run()
        result = Result(op, start, time.perf_counter() - start, outcome)
        if checker is not None:
            check(checker, result)
        results.append(result)
    return results


def check(checker, result: Result) -> None:
    result.problems = checker.problems(result.op, result.outcome)
    if not result.problems:
        result.replay_text = result.op.replay_text(result.outcome)
    result.outcome = None


def fail_replay(result: Result, again, why: str) -> None:
    """Fail a passing op unless a second run gave the same report bytes."""
    if result.problems:
        return
    try:
        same = again.error is None and result.op.replay_text(again) == result.replay_text
    except ValueError:
        same = False
    if not same:
        result.problems = [why]


def plan(workload, cycles, seconds: float) -> list:
    n_cycles = max(1, round(seconds / workload.nominal_cycle_s))
    return [op for _ in range(n_cycles) for op in next(cycles)]


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    if not (SRC / "delayedpa" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Checker

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    bank = json.loads((SRC / "delayedpa" / "data" / "eve_bank.json").read_text())
    checker = Checker(SRC / "delayedpa" / "schemas" / "report.schema.json")
    cycles = workload.cycles(args.seed, bank)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}, seed {args.seed}: {why}")
    print("closed loop, 1 client, 1 process; no queues or threads, so no wait time is recorded")

    if args.trace:
        metrics, results = run_traced(workload, cycles, args.seconds, checker)
        wanted = spec["per_layer"]
    else:
        metrics, results = run_untraced(workload, cycles, args.seconds, args.seed, checker)
        wanted = spec["end_to_end"]

    failed = [r for r in results if r.problems]
    for r in failed[:10]:
        print(f"FAIL {r.op.label} (seed {r.op.seed}): {'; '.join(r.problems)}", file=sys.stderr)
    print(f"fail_ratio   {len(failed) / len(results):.6g} ratio  "
          f"({len(failed)} failed of {len(results)} attempted; not a JSON metric, it reads 0 when correct)")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": out}))
    return 0


def run_untraced(workload, cycles, seconds, seed, checker):
    probe = SpeedProbe()
    setup = measure_setup(probe)
    ops = plan(workload, cycles, seconds)
    run_ops(next(cycles)[:1], probe)  # untimed warm-up: lazy imports, caches
    results = run_ops(ops, probe, checker)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i in random.Random(f"replay:{seed}").sample(range(len(results)), min(REPLAYS, len(results))):
        r = results[i]
        if not r.problems:
            fail_replay(r, r.op.replay(r.replay_text),
                        "replay with the printed seed gave different report bytes")

    def at_reference(start, seconds):
        return seconds * probe.scale(start + seconds / 2)

    raw = [r.seconds for r in results]
    latencies = [at_reference(r.start, r.seconds) for r in results]
    setup_s = statistics.median(at_reference(*t) for t in setup)
    work = sum(r.op.work for r in results)
    tail_name, tail_s = tail(latencies)
    n = len(results)
    metrics = {
        "setup_s": setup_s,
        "work_per_s": work / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    print(f"speed scale  {probe.scale():.4f}  (nominal {REFERENCE_NOMINAL_S * 1e3:.3f} ms / median "
          f"{REFERENCE_NOMINAL_S / probe.scale() * 1e3:.3f} ms of {len(probe.samples)} reference samples; "
          "each time is scaled by the samples within 2 s of it)")
    print(f"setup_s      {setup_s:.4f} s  (median of {len(setup)} fresh interpreters; raw "
          + ", ".join(f"{t:.3f}" for _, t in setup) + ")")
    print(f"work_per_s   {metrics['work_per_s']:.6g} work/s  (raw {work / sum(raw):.6g}; work unit: "
          f"{workload.work_unit}; {work} units)")
    print(f"op_p50_s     {metrics['op_p50_s']:.6f} s  (raw {statistics.median(raw):.6f}; n={n})")
    print(f"op_tail_s    {tail_s:.6f} s  (raw {tail(raw)[1]:.6f}; {tail_name}, n={n})")
    print(f"peak_rss_mb  {rss_mb:.1f} MiB  (ru_maxrss of this process)")
    return metrics, results


def run_traced(workload, cycles, seconds, checker):
    from tracer import Tracer, per_layer_metrics, print_layers

    probe = SpeedProbe()
    ops = plan(workload, cycles, seconds / 2)
    run_ops(next(cycles)[:1], probe)  # untimed warm-up
    # Each op runs traced and untraced back to back, in alternating order,
    # so a change in the host's speed hits both passes alike.  Checks call
    # into the package, so they wait until tracing is off.
    tracer = Tracer()
    traced, plain = [], []
    for i, op in enumerate(ops):
        for traced_pass in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_pass:
                with tracer:
                    traced += run_ops([op], probe)
            else:
                plain += run_ops([op], probe)
    for r, other in zip(traced, plain):
        check(checker, r)
        fail_replay(r, other.outcome, "traced report differs from the untraced one")

    traced_s = sum(r.seconds * probe.scale(r.start + r.seconds / 2) for r in traced)
    plain_s = sum(r.seconds * probe.scale(r.start + r.seconds / 2) for r in plain)
    scale = traced_s / sum(r.seconds for r in traced)
    metrics = per_layer_metrics(tracer, ops, traced_s, plain_s, scale)
    print(f"traced run: {len(ops)} ops, fixed by --seconds and the seed; times at reference speed "
          f"(traced phase scale {scale:.4f})")
    print_layers(tracer, metrics)
    return metrics, traced


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        sys.exit(fail(str(exc)))
