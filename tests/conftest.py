"""Shared sweeps, cached so the property suite and the acceptance gate pay
for each expensive computation once per session.  Brute-force references
come from idemod.oracle, the layer the audit uses too."""
from functools import lru_cache

import pytest

from idemod.arith import build_modulus, canon, max_enum, set_max_enum
from idemod.audit import run_audit
from idemod.algebra import verify_algebra
from idemod.counting import rho_closed_form
from idemod.congruence import solvable_bc01
from idemod.residues import class_product, mu, structure_table
from idemod.quadratic import sqrt_structure

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(criterion: str, ok: bool, detail: str):
    ACCEPTANCE_LINES.append(
        f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def enum_cap():
    """set_max_enum for one test: enum_cap(n) sets the enumeration cap,
    and the cap it found is put back when the test ends."""
    saved = max_enum()
    yield set_max_enum
    set_max_enum(saved)


def no_findings(check, moduli):
    """Assert that an audit check reports nothing on any of the moduli; a
    failure shows (m, (witness, expected, actual)) pairs."""
    bad = [(m, f) for m in moduli for f in check(m)]
    assert not bad, bad[:5]


@lru_cache(maxsize=None)
def power_image(m: int, k: int) -> frozenset[int]:
    """{x^k mod m} in 0..m-1 form."""
    return frozenset(pow(x, k, m) for x in range(1, m + 1))


@lru_cache(maxsize=1)
def bc01_sweep(bound: int = 150, kmax: int = 30):
    """Criterion verdict vs exhaustive solvability for regular a."""
    mismatches = []
    for m in range(2, bound + 1):
        table = structure_table(m)
        for k in range(1, kmax + 1):
            img = power_image(m, k)
            for a in table.regulars:
                if solvable_bc01(m, k, a) != (a % m in img):
                    mismatches.append((m, k, a))
    return mismatches


@lru_cache(maxsize=1)
def algebra_sweep(bound: int = 1000):
    """Moduli at which any operator-algebra law fails."""
    failures = []
    for m in range(1, bound + 1):
        rep = verify_algebra(m)
        if not rep.ok:
            failures.append((m, [l.law for l in rep.laws if not l.passed]))
    return failures


@lru_cache(maxsize=1)
def counting_sweep(bound: int = 500, kmax: int = 60):
    """Closed-form rho failures on weakly even moduli."""
    failures = []
    for m in range(2, bound + 1):
        mod = build_modulus(m)
        if not mod.weakly_even:
            continue
        table = structure_table(m)
        unit_orders = [table.orders[a] for a in table.by_class[canon(1, m)]]
        for k in range(1, kmax + 1):
            direct = sum(1 for n in unit_orders if k % n == 0)
            if rho_closed_form(m, k) != direct:
                failures.append((m, k, direct, rho_closed_form(m, k)))
    return failures


@lru_cache(maxsize=1)
def quadratic_sweep(bound: int = 299):
    """Square-root structure and class-product failures on odd moduli."""
    failures = []
    for m in range(3, bound + 1, 2):
        table = structure_table(m)
        for e in table.idempotents.elements:
            rep = sqrt_structure(m, e)
            if len(rep.roots) != rep.size_formula:
                failures.append((m, e, "size", len(rep.roots), rep.size_formula))
            if rep.product != rep.product_formula:
                failures.append((m, e, "product", rep.product, rep.product_formula))
            om = build_modulus(mu(m, e)).omega
            sign = (-1) ** (2 ** (om - 1)) if om >= 1 else -1
            if class_product(m, e) != canon(sign * e, m):
                failures.append((m, e, "class-product", class_product(m, e)))
    return failures


@lru_cache(maxsize=1)
def audit_100():
    return run_audit(2, 100)
