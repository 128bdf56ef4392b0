"""Power-congruence solvability, omega, generalized primitive roots."""
import random
import sys
import time

import pytest

from idemod import congruence, units
from idemod.arith import EnumerationCapError, build_modulus
from idemod.congruence import (
    _omega,
    gen_primitive_roots,
    omega_info,
    omega_set,
    omega_value,
    solvable_bc01,
    solve,
)
from idemod.idempotents import idem_class
from idemod.oracle import oracle_is_regular, oracle_omega, oracle_solve
from idemod.residues import (
    class_members,
    is_regular,
    mu,
    orbit,
    regular_set,
    structure_table,
)
from idemod import audit as _audit
from conftest import bc01_sweep, no_findings, walked_orders

SWEEP_150 = range(2, 151)


def walk_omega(m):
    """{a: (|a|_m, omega_m(a), maximizers)} over the regular residues a in
    1..m, from one power walk per residue b: b is regular when its powers
    return to b, and then each power a takes the largest |b| among the
    orbits holding it, and the b of that order, ascending.  This is
    oracle_omega's scan, with each orbit walked once for all the a in it."""
    orders, best = {}, {}
    for b in range(1, m + 1):
        orb, x = [b % m], b * b % m
        while x != b % m and len(orb) <= m:
            orb.append(x)
            x = x * b % m
        if x != b % m:
            continue
        n = orders[b] = len(orb)
        for y in orb:
            w, maximizers = best.get(y, (0, []))
            if n > w:
                best[y] = n, [b]
            elif n == w:
                maximizers.append(b)
    return {a: (n, *best[a % m]) for a, n in orders.items()}


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


def test_omega_info_matches_the_oracle_to_400():
    """omega and the maximizers of every regular a of every m <= 400,
    against oracle_omega's scan with each orbit walked once per modulus
    (oracle_omega itself walks every orbit once per a: 18 s at m = 397),
    and that scan against oracle_omega where it is quick."""
    for m in range(1, 401):
        walked = walk_omega(m)
        for a, (_, w, maximizers) in walked.items():
            info = omega_info(m, a)
            assert (info.omega_a, info.omega_set) == (w, tuple(maximizers)), (m, a)
            if m <= 60:
                assert oracle_omega(m, a) == (w, tuple(maximizers)), (m, a)


def _odd_prime_power(n):
    factors = build_modulus(n).factorization.factors
    return len(factors) == 1 and factors[0][0] != 2


def test_omega_on_a_cyclic_class_is_its_generators():
    """On p^alpha and 2 p^alpha <= 4100, p odd, every class R_m^e = U(mu)
    is cyclic (Gauss): omega is phi(mu), and the maximizers are the
    members of order phi(mu), walked.  8 seeded regular a per modulus,
    against class_members."""
    rng = random.Random(4100)
    for m in range(3, 4101):
        if not (_odd_prime_power(m) or m % 4 == 2 and _odd_prime_power(m // 2)):
            continue
        generators, regular = {}, regular_set(m)
        for a in rng.sample(regular, min(8, len(regular))):
            phi = build_modulus(mu(m, a)).phi
            e = idem_class(m, a)
            if e not in generators:
                orders = walked_orders(m, class_members(m, e))
                generators[e] = tuple(b for b, n in sorted(orders.items()) if n == phi)
            info = omega_info(m, a)
            assert info.omega_a == phi, (m, a)
            assert info.omega_set == generators[e], (m, a)


def test_omega_on_a_cyclic_class_scans_nothing(monkeypatch):
    """omega_info on p^alpha and 2 p^alpha reads the generators off the
    subgroups of q-th powers, with no class scan, orbit mask or closed
    form; the a include a unit, an even unit modulo p^alpha, p^alpha
    itself and the zero."""
    moduli = [3, 9, 2 * 3, 2 * 27, 2003, 2 * 2003, 5**4, 2 * 5**4, 3**7, 2 * 3**7]
    queries = [(m, a) for m in moduli for a in (1, 2, 7, m // 2, m)
               if is_regular(m, a)]
    want = {q: omega_info(*q) for q in queries}

    def no_scan(*args):
        raise AssertionError("omega_info scanned a cyclic class")

    for name in ("class_members", "_orbit_mask", "_omega"):
        monkeypatch.setattr(congruence, name, no_scan)
    for q in queries:
        assert omega_info(*q) == want[q], q


def test_omega_closed_form_matches_orbit_walk():
    """Every m <= 300, and 2^alpha * k beside the non-cyclic U(2^alpha),
    where q = p = 2 meets the odd q of the other components."""
    moduli = set(range(1, 301)) | {
        2**alpha * k for alpha in range(10) for k in (1, 3, 5, 9, 15)
    }
    for m in sorted(moduli):
        for a, (n, w, _) in walk_omega(m).items():
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
    against regular_set."""
    for m in range(1, 301):
        regular = set(regular_set(m))
        for k in (2, 3):
            roots: dict[int, list[int]] = {}
            for x in range(1, m + 1):
                roots.setdefault(pow(x, k, m), []).append(x)
            for a in range(1, m + 1):
                res = solve(m, k, a)
                sols = roots.get(a % m, [])
                assert res.solutions == tuple(sols), (m, k, a)
                assert res.regular_solutions == tuple(x for x in sols if x in regular)


def test_solve_matches_a_scan_for_each_exponent_to_8():
    """Every m <= 200, every a and every k <= 8: the roots, the regular
    ones, the flag and the verdict, against one scan of x^k per (m, k)."""
    for m in range(1, 201):
        regular = [None] + [oracle_is_regular(m, x) for x in range(1, m + 1)]
        for k in range(1, 9):
            roots: dict[int, list[int]] = {}
            for x in range(1, m + 1):
                roots.setdefault(pow(x, k, m), []).append(x)
            for a in range(1, m + 1):
                res = solve(m, k, a)
                sols = tuple(roots.get(a % m, ()))
                assert res.solutions == sols, (m, k, a)
                assert res.regular_solutions == tuple(x for x in sols if regular[x])
                assert res.solvable == bool(sols)
                assert res.bc01_verdict == (bool(sols) if regular[a] else None)


def test_local_roots_of_prime_powers():
    """Every p^alpha <= 4096 with alpha >= 2, every a and every k <= 12:
    the roots modulo p^alpha, and their count, against one scan of x^k per
    (p^alpha, k).  These reach the zero, the p^v u and the 2-adic cases."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        alpha = 2
        while p**alpha <= 4096:
            q = p**alpha
            for k in range(1, 13):
                roots: dict[int, list[int]] = {}
                for x in range(q):
                    roots.setdefault(pow(x, k, q), []).append(x)
                for a in range(q):
                    count, listing = units.local_roots(p, alpha, k, a)
                    want = roots.get(a, [])
                    assert (count, sorted(listing())) == (len(want), want), (q, k, a)
            alpha += 1


def test_solve_matches_sympy_on_large_moduli():
    """Seeded random 40-64-bit moduli and k-th powers (and some other
    right-hand sides): the roots against sympy's nthroot_mod, and the
    criterion's verdict against whether there are any."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20160)
    for _ in range(60):
        m = rng.randrange(2**40, 2**64)
        k = rng.randrange(2, 7)
        a = rng.randrange(1, m)
        if rng.random() < 0.8:
            a = pow(a, k, m)
        res = solve(m, k, a)
        want = sympy.ntheory.residue_ntheory.nthroot_mod(a, k, m, all_roots=True)
        assert res.solutions == tuple(sorted(x or m for x in want)), (m, k, a)
        if res.bc01_verdict is not None:
            assert res.bc01_verdict == res.solvable


def test_solve_answers_a_61_bit_prime_at_once():
    t0 = time.perf_counter()
    res = solve(2**61 - 1, 3, 8)
    assert res.solutions == (2, 1033321771269002679, 1272521237944691270)
    assert res.regular_solutions == res.solutions and res.bc01_verdict
    assert time.perf_counter() - t0 < 1


def test_solve_is_priced_by_its_roots(enum_cap):
    """x^12 = 0 (mod 4096) has the 2^11 multiples of 2 as roots."""
    enum_cap(2047)
    with pytest.raises(EnumerationCapError):
        solve(4096, 12, 0)
    assert solve(4096, 12, 1).solvable  # 2^2 roots, of a modulus over the cap
    enum_cap(2048)
    assert len(solve(4096, 12, 0).solutions) == 2048


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
    """G_m is nonempty and is the regular g with omega_m(g) = |g|_m, both
    walked by walk_omega, for every m <= 600."""
    for m in range(1, 601):
        gs = gen_primitive_roots(m)
        assert gs, m
        brute = tuple(g for g, (n, w, _) in walk_omega(m).items() if n == w)
        assert gs == brute, m


def test_generalized_primitive_roots_are_the_closed_form_omega_fixed_points():
    """The CRT fold of nonpower masks gives exactly the regular g with
    omega_m(g) = |g|_m in closed form, for every m <= 2000 and beside the
    non-cyclic U(2^alpha), alpha <= 10."""
    moduli = set(range(1, 2001)) | {
        2**alpha * k for alpha in range(11) for k in (1, 3, 5, 9, 15)
    }
    for m in sorted(moduli):
        mod, regular = build_modulus(m), regular_set(m)
        orders = walked_orders(m, regular)
        want = tuple(g for g in regular if _omega(mod, g, orders[g]) == orders[g])
        assert gen_primitive_roots(m) == want, m


def test_generalized_primitive_roots_take_no_omega(monkeypatch):
    """gen_primitive_roots reads G_m off one fold, with no omega per
    residue."""
    moduli = [1, 2, 4, 8, 12, 360, 2048 * 15, 3**7, 2 * 5**4, 9699690 // 19]
    want = {m: gen_primitive_roots(m) for m in moduli}

    def no_omega(*args):
        raise AssertionError("gen_primitive_roots took omega")

    monkeypatch.setattr(congruence, "_omega", no_omega)
    for m in moduli:
        assert gen_primitive_roots(m) == want[m], m


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
    for q in queries:
        assert omega_info(*q) == want[q], q


def test_generalized_primitive_roots_match_sympy():
    """G_p of a prime p is its primitive roots and p, the zero class."""
    sympy = pytest.importorskip("sympy")
    p = 20011
    roots = {g for g in range(1, p) if sympy.ntheory.is_primitive_root(g, p)}
    assert set(gen_primitive_roots(p)) == roots | {p}


def test_solution_counts_match_rho_when_solvable():
    from idemod.counting import rho_count

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
