#!/usr/bin/env python3
"""Time two revisions with bench/run.py in alternating pairs; write BENCH_<label>.json.

Both revisions are checked out alike, as detached git worktrees under the
gitignored ``.bench_build/``, and a worktree the script added is removed
again at the end.  So commit a change before timing it.

Pair i runs both revisions on seed i of ``--seeds``, the base first in even
pairs and the head first in odd ones, so a drift of the host's speed hits
both alike.  The seed list must include 104729.  The file holds the argv,
both revisions, every run's metrics, and per metric the medians, the IQRs
(the spread between the first and third quartiles, linearly interpolated)
and the pairs the head won.  Runs are untraced (``--trace 0``), and every
end-to-end metric of BENCHMARK.json gets two verdicts, both reported and
not enforced:

- ``gain_holds``, the rule a claimed gain is held to: at least ten pairs,
  the head wins at least 9 of 10 of them and the gap between the medians
  is larger than the base's IQR.
- ``bound_status``, the no-regression check against the metric's bound:
  "worse" when the head's median is worse than the base's by more than
  the bound (a fraction of the base median), else "unresolved" when either
  side's IQR exceeds the bound times its median and the head did not beat
  every base run, else "within".

``noise`` flags a gap between the medians smaller than the metric's noise
floor, as a fraction of the base median.  Only ``setup_s`` has one, 15%:
alternating runs of identical set-up code have read that far apart.

Usage:
    python scripts/bench_compare.py --base 904c7a0 --head HEAD --workload sim-large \\
        --seeds 104729,1,2,3,4,5,6,7,8,9 --seconds 16 --label modified_toeplitz
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
REQUIRED_SEED = 104729
MIN_PAIRS = 10
CLAIM = "work_per_s"  # the metric whose gain the verdict line reports
NOISE = {"setup_s": 0.15}


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(
    base: list[float], head: list[float], better: str, bound: float, noise: float = 0.0
) -> dict:
    """Pair wins, medians, IQRs, whether a gain claim holds and the bound check.

    ``base[i]`` and ``head[i]`` are pair i; ``better`` is "higher" or
    "lower"; ``bound`` is the metric's allowed relative worsening and
    ``noise`` its noise floor.  The claim holds when there are at least ten
    pairs, the head wins at least 9 of 10 of them (ties count for neither
    side), and its median is better than the base's by more than the base's
    IQR.  The bound check and the noise flag are described in the module
    docstring.
    """
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two equal-length lists of at least two runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    base_median, head_median = statistics.median(base), statistics.median(head)
    gap = sign * (head_median - base_median)
    base_iqr, head_iqr = iqr(base), iqr(head)
    wide = base_iqr > bound * abs(base_median) or head_iqr > bound * abs(head_median)
    head_beats_all = min(head) > max(base) if better == "higher" else max(head) < min(base)
    if -gap > bound * abs(base_median):
        status = "worse"
    elif wide and not head_beats_all:
        status = "unresolved"
    else:
        status = "within"
    return {
        "better": better,
        "base": {"median": base_median, "iqr": base_iqr},
        "head": {"median": head_median, "iqr": head_iqr},
        "head_wins": wins,
        "pairs": len(base),
        "ratio": head_median / base_median if base_median else None,
        "gain_holds": len(base) >= MIN_PAIRS and 10 * wins >= 9 * len(base) and gap > base_iqr,
        "bound": bound,
        "bound_status": status,
        "noise": abs(gap) < noise * abs(base_median),
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _checkout(rev: str, made: list[Path]) -> tuple[Path, dict]:
    """The worktree to run for ``rev`` and what the file records about it.

    A worktree this call adds is appended to ``made``.  ``src_tree`` is the
    git tree of ``src/``, which a later commit of the same sources keeps.
    """
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / commit[:12]
    if not tree.exists():
        _git("worktree", "add", "--detach", str(tree), commit)
        made.append(tree)
    return tree, {"rev": rev, "commit": commit, "src_tree": _git("rev-parse", f"{commit}:src")}


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--head", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help=f"comma-separated, including {REQUIRED_SEED}")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if REQUIRED_SEED not in seeds:
        parser.error(f"--seeds must include {REQUIRED_SEED}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    made: list[Path] = []
    try:
        trees, revisions = {}, {}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side], revisions[side] = _checkout(rev, made)
        runs = []
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"pair": i, "seed": seed, "order": list(order)}
            for side in order:
                pair[side] = _bench(trees[side], args.workload, seed, args.seconds)
                print(f"pair {i} seed {seed} {side}: {CLAIM} = "
                      f"{pair[side]['metrics'][CLAIM]}", flush=True)
            runs.append(pair)
    finally:
        for tree in made:
            _git("worktree", "remove", "--force", str(tree))

    metrics = {}
    for name, m in end_to_end.items():
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        metrics[name] = verdict(base, head, m["better"], m["bound"], NOISE.get(name, 0.0))
    doc = {
        "label": args.label,
        "argv": sys.argv if argv is None else ["scripts/bench_compare.py", *argv],
        "workload": args.workload,
        "seconds": args.seconds,
        "base": revisions["base"],
        "head": revisions["head"],
        "runs": runs,
        "metrics": metrics,
        "claim": {"metric": CLAIM, **metrics[CLAIM]},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")

    for name, v in metrics.items():
        flag = f"  (gap under {NOISE[name]:.0%}: noise)" if v["noise"] else ""
        print(f"{name:12s} base {v['base']['median']:.6g} (IQR {v['base']['iqr']:.3g})  "
              f"head {v['head']['median']:.6g} (IQR {v['head']['iqr']:.3g})  "
              f"head wins {v['head_wins']}/{v['pairs']}  ratio {v['ratio'] or float('nan'):.3f}  "
              f"bound {v['bound']}: {v['bound_status']}{flag}")
    failed = sum(not r[side]["correct"] for r in runs for side in ("base", "head"))
    if failed:
        print(f"warning: {failed} runs had failed ops; see runs[].*.failed")
    claim = metrics[CLAIM]
    print(f"verdict: {CLAIM} gain {'holds' if claim['gain_holds'] else 'does not hold'} "
          f"(needs >= {MIN_PAIRS} pairs, >= 9/10 pair wins and a median gap above the base IQR)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
