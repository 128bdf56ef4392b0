"""Acceptance gate: one check (and one reported pass/fail line) per
criterion, each at its stated range and runtime tolerance."""
import math
import os
import time

from idemod.arith import build_modulus, canon
from idemod.idempotents import enumerate_idempotents, idem_class, order, tower_mod
from idemod.oracle import oracle_idempotents, oracle_regular_set
from idemod.residues import is_regular
from conftest import (
    algebra_sweep,
    audit_100,
    bc01_sweep,
    counting_sweep,
    quadratic_sweep,
    record_acceptance,
)


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def test_criterion_1_tower_reproduction():
    def work():
        facts = (
            tower_mod(100, 42, 100),
            order(100, 42).order,
            idem_class(100, 42),
            order(20, 42).order,
            order(4, 42).order,
        )
        return facts == (56, 20, 76, 4, 2)

    ok, dt = _timed(work)
    ok = ok and dt < 1.0
    record_acceptance("criterion-1 tower", ok, f"tower(100,42,100)=56 chain, {dt:.2f}s")
    assert ok


def test_criterion_2_idempotent_census():
    def work():
        for m in range(1, 2001):
            es = enumerate_idempotents(m).elements
            if list(es) != oracle_idempotents(m):
                return False
            if len(es) != 2 ** build_modulus(m).omega:
                return False
        return True

    ok, dt = _timed(work)
    ok = ok and dt < 30.0
    record_acceptance("criterion-2 idempotent census", ok, f"m<=2000, {dt:.1f}s")
    assert ok


def test_criterion_3_regular_census():
    def work():
        for m in range(2, 1001):
            by_def = set(oracle_regular_set(m))
            by_div = {a for a in range(1, m + 1) if is_regular(m, a)}
            mm = m
            by_gcd = {
                a for a in range(1, m + 1)
                if math.gcd(a, mm // math.gcd(a, mm)) == 1
            }
            if not (by_def == by_div == by_gcd):
                return False
            mod = build_modulus(m)
            formula = math.prod(
                1 + p ** (al - 1) * (p - 1) for p, al in mod.factorization.factors
            )
            if len(by_def) != formula:
                return False
            if (len(by_def) == m) != mod.square_free:
                return False
        return True

    ok, dt = _timed(work)
    ok = ok and dt < 60.0
    record_acceptance("criterion-3 regular census", ok, f"m<=1000, {dt:.1f}s")
    assert ok


def test_criterion_4_main_result_equivalence():
    mismatches, dt = _timed(bc01_sweep)
    ok = mismatches == [] and dt < 300.0
    record_acceptance(
        "criterion-4 solvability criterion", ok,
        f"m<=150, k<=30, {len(mismatches)} mismatches, {dt:.1f}s",
    )
    assert ok


def test_criterion_5_counting_closed_forms():
    failures, dt = _timed(counting_sweep)

    def mult():
        for m in range(2, 501):
            mod = build_modulus(m)
            if not mod.weakly_even:
                continue
            one = canon(1, m)
            from idemod.counting import r_count, rho_count
            phi = mod.phi
            bound = min(phi, 40)
            rv = {k: r_count(m, one, k) for k in range(1, bound + 1)}
            pv = {k: rho_count(m, one, k) for k in range(1, bound + 1)}
            for k1 in range(1, bound + 1):
                for k2 in range(k1, bound // k1 + 1):
                    if math.gcd(k1, k2) != 1:
                        continue
                    if rv[k1 * k2] != rv[k1] * rv[k2]:
                        return False
                    if pv[k1 * k2] != pv[k1] * pv[k2]:
                        return False
        return True

    ok2, dt2 = _timed(mult)
    ok = failures == [] and ok2 and dt + dt2 < 120.0
    record_acceptance(
        "criterion-5 counting closed forms", ok,
        f"weakly even m<=500, k<=60, {len(failures)} failures, {dt + dt2:.1f}s",
    )
    assert ok


def test_criterion_6_algebra_laws():
    failures, dt = _timed(algebra_sweep)
    ok = failures == [] and dt < 120.0
    record_acceptance(
        "criterion-6 algebra laws", ok,
        f"m<=1000, {len(failures)} failing moduli, {dt:.1f}s",
    )
    assert ok


def test_criterion_7_quadratic_structure():
    failures, dt = _timed(quadratic_sweep)
    ok = failures == [] and dt < 120.0
    record_acceptance(
        "criterion-7 quadratic structure", ok,
        f"odd m<=299, {len(failures)} failures, {dt:.1f}s",
    )
    assert ok


def test_criterion_8_audit_findings_pinned():
    report, dt = _timed(audit_100)
    by_id = {r.theorem_id: r for r in report.results}

    fs05_hits = {
        (f.modulus, f.witness.get("e"), f.witness.get("k"), f.expected, f.actual)
        for f in by_id["fs05"].findings
    }
    pin_a = (12, 1, 2, 6, 4) in fs05_hits

    nn08_hits = {
        (f.modulus, f.witness.get("a"), f.expected, f.actual)
        for f in by_id["nn08-third"].findings
    }
    pin_b = (12, 2, 2, 8) in nn08_hits

    # rn17's reverse implication is a corollary of the same false identity
    # the nn08-third pin captures; its findings are the documented erratum.
    allowed = {"fs05", "nn08-third", "rn17"}
    strays = sorted(
        r.theorem_id for r in report.results
        if r.findings and r.theorem_id not in allowed
    )

    ok = pin_a and pin_b and not strays
    record_acceptance(
        "criterion-8 audit findings pinned", ok,
        f"[2,100]: fs05 pin {pin_a}, nn08-third pin {pin_b}, "
        f"stray findings {strays or 'none'}, {dt:.0f}s",
    )
    assert ok


def test_criterion_9_property_suites_present():
    here = os.path.dirname(__file__)
    expected = [
        "test_arith.py",
        "test_idempotents.py",
        "test_residues.py",
        "test_congruence.py",
        "test_counting.py",
        "test_algebra.py",
        "test_quadratic.py",
        "test_oracle_audit.py",
        "test_cli.py",
    ]
    missing = [f for f in expected if not os.path.exists(os.path.join(here, f))]
    ok = not missing
    record_acceptance(
        "criterion-9 property suites", ok,
        f"per-module invariant suites present ({len(expected)} files)",
    )
    assert ok
