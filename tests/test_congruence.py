"""Power-congruence solvability, omega, generalized primitive roots."""
import sys

import pytest

from idemod import congruence
from idemod.arith import build_modulus
from idemod.congruence import (
    _omega,
    _omega_cache,
    gen_primitive_roots,
    omega_info,
    omega_set,
    omega_value,
    solvable_bc01,
    solve,
)
from idemod.oracle import oracle_omega, oracle_solve
from idemod.residues import order_table, orbit, regular_set, structure_table
from idemod import audit as _audit
from conftest import bc01_sweep, no_findings

SWEEP_150 = range(2, 151)


def walk_omega(m):
    """{a: (|a|_m, omega_m(a))} over the regular residues a in 1..m, from
    one power walk per residue b: b is regular when its powers return to b,
    and then each power a takes the largest |b| among the orbits holding
    it."""
    orders, best = {}, {}
    for b in range(1, m + 1):
        orb, x = [b % m], b * b % m
        while x != b % m and len(orb) <= m:
            orb.append(x)
            x = x * b % m
        if x != b % m:
            continue
        orders[b] = len(orb)
        for y in orb:
            best[y] = max(best.get(y, 0), len(orb))
    return {a: (n, best[a % m]) for a, n in orders.items()}


def test_criterion_matches_exhaustive_solvability():
    assert bc01_sweep() == []


def test_solvability_necessary_condition_all_residues():
    no_findings(_audit.check_bc03, SWEEP_150)


def test_solvability_reduces_to_gcd_exponents():
    no_findings(_audit.check_bc09, SWEEP_150)


def test_solvability_joins_over_lcm_of_exponents():
    no_findings(_audit.check_bc08, SWEEP_150)


def test_index_divisibility_gives_solutions():
    no_findings(_audit.check_bc04, SWEEP_150)


def test_power_family_lands_in_solution_set():
    no_findings(_audit.check_bc05, SWEEP_150)


def test_regular_targets_have_regular_solutions():
    no_findings(_audit.check_bc07, SWEEP_150)
    no_findings(_audit.check_bc06, SWEEP_150)


def test_omega_maximizers_are_generalized_primitive_roots():
    no_findings(_audit.check_pr02, SWEEP_150)


def test_omega_constant_on_equivalence_classes():
    no_findings(_audit.check_pr03, SWEEP_150)


def test_primitive_roots_combine_componentwise():
    no_findings(_audit.check_pr04, SWEEP_150)


def test_maximizer_powers_and_inverses():
    no_findings(_audit.check_pr05, SWEEP_150)
    no_findings(_audit.check_pr06, SWEEP_150)


def test_omega_attains_phi_iff_unit_class_cyclic():
    no_findings(_audit.check_omega_phi_cyclic, SWEEP_150)


def test_omega_divides_both_totients():
    for m in SWEEP_150:
        mod = build_modulus(m)
        for a in regular_set(m):
            w = omega_info(m, a).omega_a
            assert mod.phi % w == 0
            assert mod.psi % w == 0


def test_omega_info_shape():
    info = omega_info(12, 1)
    assert info.omega_a == 2
    assert info.ind_sup == 2
    assert omega_set(12, 1) == info.omega_set
    for g in info.omega_set:
        assert 1 in orbit(12, g).elements


def test_omega_matches_oracle():
    for m in range(1, 121):
        for a in regular_set(m):
            info = omega_info(m, a)
            assert (info.omega_a, info.omega_set) == oracle_omega(m, a), (m, a)


def test_omega_closed_form_matches_orbit_walk():
    """Every m <= 300, and 2^alpha * k beside the non-cyclic U(2^alpha),
    where q = p = 2 meets the odd q of the other components."""
    moduli = set(range(1, 301)) | {
        2**alpha * k for alpha in range(10) for k in (1, 3, 5, 9, 15)
    }
    for m in sorted(moduli):
        for a, (n, w) in walk_omega(m).items():
            assert omega_value(m, a) == w, (m, a)
            assert omega_value(m, a - m) == w, (m, a)


def test_omega_rejects_irregular_argument():
    with pytest.raises(ValueError):
        omega_info(12, 2)
    with pytest.raises(ValueError):
        omega_value(12, 2)
    with pytest.raises(ValueError):
        solvable_bc01(12, 2, 2)


def test_solvable_bc01_rejects_bad_exponent():
    with pytest.raises(ValueError):
        solvable_bc01(12, 0, 5)


def test_solve_matches_oracle():
    for m in range(2, 101):
        for k in (1, 2, 3, 5, 12):
            for a in range(1, m + 1, max(1, m // 10)):
                res = solve(m, k, a)
                assert list(res.solutions) == oracle_solve(m, k, a)
                assert res.solvable == bool(res.solutions)
                assert all(x in res.solutions for x in res.regular_solutions)


def test_solve_matches_a_full_scan():
    """Every m <= 300, every right-hand side a and k = 2, 3: the solutions
    against one brute-force scan of x^k per (m, k), and the regular ones
    against order_table's nonzero entries."""
    for m in range(1, 301):
        orders = order_table(m)
        for k in (2, 3):
            roots: dict[int, list[int]] = {}
            for x in range(1, m + 1):
                roots.setdefault(pow(x, k, m), []).append(x)
            for a in range(1, m + 1):
                res = solve(m, k, a)
                sols = roots.get(a % m, [])
                assert res.solutions == tuple(sols), (m, k, a)
                assert res.regular_solutions == tuple(x for x in sols if orders[x])
        order_table.cache_clear()


def test_solve_verdict_only_for_regular_targets():
    res = solve(12, 2, 2)  # 2 is not regular mod 12
    assert res.bc01_verdict is None
    res = solve(12, 2, 4)
    assert res.bc01_verdict is not None
    assert res.bc01_verdict == res.solvable


def test_solve_example_unsolvable():
    res = solve(12, 2, 5)
    assert res.solutions == () and not res.solvable


def test_generalized_primitive_roots_nonempty():
    for m in SWEEP_150:
        gs = gen_primitive_roots(m)
        assert gs, m
        brute = tuple(g for g, (n, w) in walk_omega(m).items() if n == w)
        assert gs == brute, m


def test_generalized_primitive_roots_are_the_closed_form_omega_fixed_points():
    """The CRT fold of unit-log masks gives exactly the regular g with
    omega_m(g) = |g|_m in closed form, for every m <= 2000 and beside the
    non-cyclic U(2^alpha), alpha <= 10."""
    moduli = set(range(1, 2001)) | {
        2**alpha * k for alpha in range(11) for k in (1, 3, 5, 9, 15)
    }
    for m in sorted(moduli):
        orders, mod = order_table(m), build_modulus(m)
        want = tuple(g for g in regular_set(m) if _omega(mod, g, orders[g]) == orders[g])
        assert gen_primitive_roots(m) == want, m
        order_table.cache_clear()
        gen_primitive_roots.cache_clear()


def test_generalized_primitive_roots_take_no_omega(monkeypatch):
    """gen_primitive_roots reads G_m off one fold, with no omega per
    residue."""
    moduli = [1, 2, 4, 8, 12, 360, 2048 * 15, 3**7, 2 * 5**4, 9699690 // 19]
    want = {m: gen_primitive_roots(m) for m in moduli}

    def no_omega(*args):
        raise AssertionError("gen_primitive_roots took omega")

    monkeypatch.setattr(congruence, "_omega", no_omega)
    gen_primitive_roots.cache_clear()
    for m in moduli:
        assert gen_primitive_roots(m) == want[m], m
    gen_primitive_roots.cache_clear()


def test_omega_info_builds_no_orbit_set(monkeypatch):
    """omega_info tests its maximizers against a byte mask of orb(a), with
    no frozenset of the orbit's ints."""
    queries = [(12, 5), (360, 7), (2003, 2), (2**10 * 45, 7), (3**7, 1)]
    want = {q: omega_info(*q) for q in queries}

    def no_powers(*args):
        raise AssertionError("omega_info built an orbit set")

    for name, module in list(sys.modules.items()):
        if name.startswith("idemod") and hasattr(module, "_powers"):
            monkeypatch.setattr(module, "_powers", no_powers)
    _omega_cache.cache_clear()
    for q in queries:
        assert omega_info(*q) == want[q], q
    _omega_cache.cache_clear()


def test_generalized_primitive_roots_match_sympy():
    """G_p of a prime p is its primitive roots and p, the zero class."""
    sympy = pytest.importorskip("sympy")
    p = 20011
    roots = {g for g in range(1, p) if sympy.ntheory.is_primitive_root(g, p)}
    assert set(gen_primitive_roots(p)) == roots | {p}


def test_solution_counts_match_rho_when_solvable():
    from idemod.counting import rho_count
    from idemod.idempotents import idem_class

    for m in range(2, 151):
        table = structure_table(m)
        for k in (2, 3, 6, 12, 30):
            reg_count: dict[int, int] = {}
            for x in table.regulars:
                t = pow(x, k, m)
                reg_count[t] = reg_count.get(t, 0) + 1
            for a in table.regulars:
                n = reg_count.get(a % m, 0)
                if n:
                    assert n == rho_count(m, idem_class(m, a), k)
