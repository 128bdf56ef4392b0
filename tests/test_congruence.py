"""Power-congruence solvability, omega, generalized primitive roots."""
import pytest

from idemod.arith import build_modulus
from idemod.congruence import (
    gen_primitive_roots,
    omega_info,
    omega_set,
    omega_value,
    solvable_bc01,
    solve,
)
from idemod.oracle import oracle_omega, oracle_solve
from idemod.residues import orbit, regular_set, structure_table
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
