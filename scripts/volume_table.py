#!/usr/bin/env python3
"""Reproduce the spherical-volume fraction table for chordless cycles.

Estimates, for each cycle size m, which fraction of the PSD cone with the
m-cycle zero pattern is covered by the image of the edge parametrization.

Usage:
    python scripts/volume_table.py
    python scripts/volume_table.py --samples 100000 --seed 7 --workers 8
    python scripts/volume_table.py --m-max 9 --json out.json
"""

import argparse
import json
import sys
import time

from psdcone.volume import format_table, volume_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--m-min", type=int, default=3)
    ap.add_argument("--m-max", type=int, default=7)
    ap.add_argument("--json", help="also write the estimates to this JSON file")
    args = ap.parse_args()

    t0 = time.time()
    estimates = volume_table(args.samples, args.seed,
                             ms=range(args.m_min, args.m_max + 1),
                             workers=args.workers, progress=True)
    elapsed = time.time() - t0
    print(format_table(estimates))
    print(f"# {args.samples} PSD samples per m, seed {args.seed}, "
          f"{args.workers} worker(s), {elapsed:.1f}s", file=sys.stderr)
    for est in estimates:
        print(f"# m={est.m}: {est.draws} draws, acceptance {est.acceptance_rate:.3g}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([e.to_json_dict() for e in estimates], fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
