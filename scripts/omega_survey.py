#!/usr/bin/env python3
"""Survey the maximal-orbit order over a modulus range.

For each m, report max omega_m(a) over the unit class, whether the value
phi(m) is attained, and whether the units modulo m form a cyclic group —
the survey exhibits that the two coincide.

Usage: python3 scripts/omega_survey.py [--hi 150]
"""
import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from idemod.arith import build_modulus, multiplicative_order
from idemod.congruence import omega_value


def units_cyclic(m: int) -> bool:
    phi = build_modulus(m).phi
    return any(
        math.gcd(u, m) == 1 and multiplicative_order(u, m) == phi
        for u in range(1, m + 1)
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hi", type=int, default=150)
    args = ap.parse_args()

    mismatches = 0
    print(f"{'m':>4} {'phi':>5} {'max omega':>9} {'attained':>8} {'cyclic':>6}")
    for m in range(2, args.hi + 1):
        mod = build_modulus(m)
        units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
        best = max(omega_value(m, a) for a in units)
        attained = best == mod.phi
        cyc = units_cyclic(m)
        if attained != cyc:
            mismatches += 1
        mark = "" if attained == cyc else "  <-- MISMATCH"
        print(f"{m:>4} {mod.phi:>5} {best:>9} {str(attained):>8} {str(cyc):>6}{mark}")

    print(f"\n{mismatches} mismatches on [2,{args.hi}] "
          "(expected 0: phi is attained exactly when the units are cyclic)")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
