#!/usr/bin/env python3
"""Compare pool consumption of the normal and delayed relay schemes.

Bob shares a key with Charlie through relay Alice.  In the normal scheme the
relay hashes its raw key first and pads N_PA pool bits; in the delayed
scheme it pads N raw bits and leaves the hashing to Bob and Charlie, trading
extra pool consumption for the relay never having to learn or apply the hash
(whose seed alone is N - 1 bits of coordination).

Usage:
    python scripts/relay_demo.py --n 4096 --error 0.03 --seed 5
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from delayedpa.protocols import ChannelModel, RelayConfig, run_relay
from delayedpa.reports import key_digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4096)
    parser.add_argument("--error", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    channel = ChannelModel.bsc(args.error) if args.error > 0 else ChannelModel.noiseless()
    for delayed in (False, True):
        cfg = RelayConfig(
            n=args.n,
            pool_size=4 * args.n,
            n_test=max(256, args.n // 8),
            channel=channel,
            seed=args.seed,
            delayed=delayed,
        )
        t = run_relay(cfg)
        name = "delayed" if delayed else "normal "
        if t.abort:
            print(f"{name}: abort ({t.abort_reason})")
            continue
        assert t.bob_key == t.charlie_key
        print(
            f"{name}: key bits {len(t.bob_key):5d}  pool consumed {t.pool_consumed:5d}  "
            f"digest {key_digest(t.bob_key)[:16]}..."
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
