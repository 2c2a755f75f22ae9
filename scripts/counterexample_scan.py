#!/usr/bin/env python3
"""Scan the one-parameter counterexample family across its parameter window.

For each cycle size m, the family has unit diagonal, 1/2 on all cycle edges
except rho/2 at the wrap edge.  Inside the window (rho between 1 and
1 + 2/(m-1) for odd m, mirrored negative for even m) the matrix is PSD but
outside the image cone; this script prints the determinant, the membership
slack, and the verdict along a rho grid so the window is visible.

Exits 1 when a grid point inside the window, more than 2 tol from its edges,
is judged a member, or a PSD point outside the window is judged a non-member.

Usage:
    python scripts/counterexample_scan.py --m 5 --points 13
"""

import argparse
import sys

import numpy as np

from psdcone.cycle import (counterexample_det, counterexample_sigma,
                           cycle_membership)
from psdcone.errors import NotPsd
from psdcone.linalg import DEFAULT_TOL, is_psd


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--pad", type=float, default=0.3,
                    help="extend the scan beyond the window edges by this much")
    args = ap.parse_args()

    m = args.m
    lo, hi = (1.0, 1.0 + 2.0 / (m - 1)) if m % 2 else (-1.0 - 2.0 / (m - 1), -1.0)
    grid = np.linspace(lo - args.pad, hi + args.pad, args.points)
    print(f"# m={m}  PSD-but-non-member window: rho in ({lo:+.4f}, {hi:+.4f})")
    print(f"{'rho':>9} {'det(closed)':>13} {'min_eig':>10} {'slack':>10}  verdict")
    wrong = 0
    for rho in grid:
        sig = counterexample_sigma(m, float(rho))
        det = counterexample_det(m, float(rho))
        dense = sig.to_symmetric()
        if not is_psd(dense):
            verdict = "not PSD"
            slack = float("nan")
        else:
            try:
                v = cycle_membership(sig)
                verdict = "member" if v.member else "NON-MEMBER"
                slack = v.slack
            except NotPsd:
                verdict = "not PSD"
                slack = float("nan")
        min_eig = float(np.linalg.eigvalsh(dense.a)[0])
        near_edge = min(abs(rho - lo), abs(rho - hi)) <= 2 * DEFAULT_TOL
        if verdict != "not PSD" and not near_edge and (lo < rho < hi) == (verdict == "member"):
            verdict += "  <- wrong"
            wrong += 1
        print(f"{rho:+9.4f} {det:13.3e} {min_eig:10.3e} "
              f"{slack:10.3e}  {verdict}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
