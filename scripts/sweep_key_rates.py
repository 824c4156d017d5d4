#!/usr/bin/env python3
"""Sweep two-way runs over a channel-error grid and emit a ledger CSV.

For each crossover probability e on both lines, runs the two-way
deterministic protocol with independent bsc(e) channels and records the full
key ledger (one CSV row per run).  The analytic expectations next to the
measured columns make it easy to eyeball the 2e(1-e) round-trip composition
and the N[1 - h(e_rt) - h(e_p)] key length.

Usage:
    python scripts/sweep_key_rates.py --n 10000 --n-test 2000 \
        --emax 0.11 --steps 12 --seed 7 --out sweep.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from delayedpa.ledger import binary_entropy
from delayedpa.protocols import ChannelModel, DqkdConfig, run_dqkd
from delayedpa.reports import ledger_csv_header, ledger_csv_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--n-test", type=int, default=2000, dest="n_test")
    parser.add_argument("--emax", type=float, default=0.11)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    rows = []
    header = ledger_csv_header() + [
        "e_line", "e_roundtrip_measured", "e_roundtrip_expected", "e_p_measured",
    ]
    for i in range(args.steps):
        e = round(args.emax * i / max(args.steps - 1, 1), 6)
        cfg = DqkdConfig(
            n=args.n,
            n_test=args.n_test,
            forward=ChannelModel.bsc(e),
            backward=ChannelModel.bsc(e),
            seed=args.seed + i,
        )
        t = run_dqkd(cfg)
        expected_rt = 2 * e * (1 - e)
        est = t.estimate
        rows.append(
            ledger_csv_row(t)
            + [e, None if est is None else est.e_roundtrip, expected_rt,
               None if est is None else est.e_p]
        )
        status = "abort" if t.abort else f"n_key={t.ledger.n_key}"
        print(f"e={e:0.3f}  {status}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")

    e = 0.05
    rate = 1 - binary_entropy(2 * e) - binary_entropy(e)
    print(f"correlated-lines reference rate at e=0.05: {rate:0.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
