"""Normal/regular classification, class groups, orbits, relative orders.

The exhaustive per-element statements run for every m <= 300.  The
pairwise-orbit statements (which scan pairs of regular residues per class)
run for every m <= 120 with the audit layer's deterministic subsampling;
beyond that the quadratic pair cost dominates the suite budget.
"""
import math
import sys
import tracemalloc

import pytest

from idemod import residues, units
from idemod.congruence import _omega_cache, omega_info
from idemod.counting import orbit_union_size, r_count, rho_count
from idemod.arith import EnumerationCapError, build_modulus, multiplicative_order
from idemod.idempotents import enumerate_idempotents, idem_class, order, signed_power
from idemod.quadratic import sqrt_structure
from idemod.residues import (
    class_members,
    classify,
    class_product,
    equivalent,
    is_normal,
    is_regular,
    join_witness,
    mu,
    normal_set,
    orbit,
    orbit_gcd,
    order_table,
    regular_set,
    relative_order,
    structure_table,
    _orbit_gcd,
)
from idemod.units import _lift_root
from idemod import audit as _audit
from idemod.oracle import (
    oracle_normal_set,
    oracle_orbit_gcd,
    oracle_order,
    oracle_regular_set,
)
from conftest import no_findings


SWEEP_300 = range(2, 301)
SWEEP_120 = range(2, 121)


def test_normality_power_congruence_characterization():
    no_findings(_audit.check_nn02, SWEEP_300)


def test_order_of_powers_of_normal_elements():
    no_findings(_audit.check_nn03, SWEEP_300)


def test_normality_combines_over_lcm_decompositions():
    no_findings(_audit.check_nn04, SWEEP_300)


def test_powers_of_normal_are_normal():
    no_findings(_audit.check_nn05, SWEEP_300)


def test_order_divides_along_divisor_chains():
    no_findings(_audit.check_nn06, SWEEP_300)


def test_regular_implies_normal():
    no_findings(_audit.check_rn02, SWEEP_300)


def test_regular_power_congruence_both_directions():
    no_findings(_audit.check_rn03, SWEEP_300)


def test_class_groups_are_abelian_groups():
    no_findings(_audit.check_rn06, SWEEP_300)


def test_signed_power_exponent_arithmetic():
    no_findings(_audit.check_rn07, SWEEP_300)


def test_regularity_characterizations_coincide():
    no_findings(_audit.check_rn16, SWEEP_300)


def test_fixed_point_power_characterization():
    no_findings(_audit.check_rn21, SWEEP_300)


def test_double_inverse_of_regular_is_identity():
    # Forward direction only: regular a always returns under double
    # inversion.  The reverse implication is false (see the pinned
    # counterexample below), so it is audited, not asserted.
    for m in SWEEP_300:
        for a in regular_set(m):
            assert signed_power(m, signed_power(m, a, -1), -1) == a


def test_double_inverse_reverse_direction_counterexample():
    # m=12, a=2: normal, double inverse returns 2, yet 2 is not regular.
    assert is_normal(12, 2) and not is_regular(12, 2)
    assert signed_power(12, signed_power(12, 2, -1), -1) == 2


def test_phi_shifted_powers_and_regularity():
    no_findings(_audit.check_rn18, SWEEP_300)


def test_all_residues_regular_iff_square_free():
    no_findings(_audit.check_rn19, SWEEP_300)
    # the heavy per-modulus scratch tables are skipped for the larger range
    for m in range(301, 1001):
        assert (len(regular_set(m)) == m) == build_modulus(m).square_free


def test_class_groups_as_scaled_stabilizers():
    no_findings(_audit.check_rn31, SWEEP_300)


def test_class_isomorphic_to_unit_class_of_mu():
    no_findings(_audit.check_rn36, SWEEP_300)


def test_regularity_combines_over_lcm_decompositions():
    no_findings(_audit.check_rn22, SWEEP_300)


def test_regularity_and_order_componentwise():
    no_findings(_audit.check_rn23, SWEEP_300)


def test_orbit_gcd_divisibility_relations():
    no_findings(_audit.check_rn09, SWEEP_120)
    no_findings(_audit.check_rn11, SWEEP_120)
    no_findings(_audit.check_rn13, SWEEP_120)


def test_order_relations_for_products():
    no_findings(_audit.check_rn14, SWEEP_120)


def test_join_witness_exists():
    no_findings(_audit.check_rn15, SWEEP_120)


def test_index_transfer():
    no_findings(_audit.check_rn24, SWEEP_120)
    no_findings(_audit.check_rn25, SWEEP_120)


def test_orbit_inclusion_criteria():
    no_findings(_audit.check_rn26, SWEEP_120)
    no_findings(_audit.check_rn27, SWEEP_120)
    no_findings(_audit.check_rn28, SWEEP_120)
    no_findings(_audit.check_rn29, SWEEP_120)


def test_order_counts_within_orbits():
    no_findings(_audit.check_rn30, SWEEP_120)
    no_findings(_audit.check_rn38, SWEEP_120)


def test_coprime_order_orbits_meet_in_identity():
    no_findings(_audit.check_rn32, SWEEP_120)


def test_orbit_gcd_identities():
    no_findings(_audit.check_rn33, SWEEP_120)


def test_relative_order_identities():
    no_findings(_audit.check_rn35, SWEEP_120)


def test_equivalence_relation():
    no_findings(_audit.check_rn40, SWEEP_120)
    no_findings(_audit.check_rn41, SWEEP_120)


def test_class_product_sign_formula_odd_moduli():
    no_findings(_audit.check_rn42, range(3, 300, 2))


# ---------------------------------------------------------------- API shape


def test_classify_example():
    c = classify(12, 2)
    assert (c.is_normal, c.is_regular) == (True, False)
    assert (c.order, c.idem_class, c.mu, c.delta) == (2, 4, 3, 2)


def test_classify_reads_order_parts_once(monkeypatch):
    """classify derives every field from one order_parts, and each field
    equals the query it stands for, on every residue of every m <= 300."""
    for m in range(1, 301):
        for a in range(1, m + 1):
            info = order(m, a)
            assert classify(m, a) == residues.ResidueClassification(
                info.modulus, a, is_normal(m, a), is_regular(m, a), info.order,
                info.idem_class, mu(m, a), residues.delta(m, a))
    real = residues.order_parts
    calls = []
    monkeypatch.setattr(residues, "order_parts",
                        lambda mod, a: calls.append(a) or real(mod, a))
    assert classify(4294967291 * 4294967279, 3).is_regular
    assert calls == [3]


def test_mu_delta_edge_cases():
    assert mu(12, 12) == 1
    assert mu(12, 1) == 12
    assert classify(7, 7).delta == 1
    assert classify(8, 2).delta == 3


def test_set_filters_reject_non_idempotent_class():
    with pytest.raises(ValueError):
        regular_set(12, 5)
    with pytest.raises(ValueError):
        normal_set(12, 5)


def test_class_filters_partition():
    for m in range(2, 80):
        es = enumerate_idempotents(m).elements
        all_regular = regular_set(m)
        assert sorted(x for e in es for x in regular_set(m, e)) == all_regular
        all_normal = normal_set(m)
        assert sorted(x for e in es for x in normal_set(m, e)) == all_normal


def test_orbit_contents():
    assert orbit(12, 5).elements == frozenset({1, 5})
    assert orbit(1, 1).elements == frozenset({1})
    for m in range(2, 60):
        for a in range(1, m + 1):
            ob = orbit(m, a).elements
            assert idem_class(m, a) in ob
            assert len(ob) == order(m, a).order


def test_orbit_gcd_rejects_mixed_or_irregular_operands():
    with pytest.raises(ValueError):
        orbit_gcd(12, 2, 5)  # 2 is not regular
    with pytest.raises(ValueError):
        orbit_gcd(12, 5, 2)
    with pytest.raises(ValueError):
        relative_order(12, 5, 2)
    with pytest.raises(ValueError):
        orbit_gcd(12, 5, 8)  # classes 1 and 4


def test_orbit_gcd_matches_oracle():
    """D_m(b, c) equals the full walk for every same-class pair, m <= 80;
    for m <= 50 every a in orb(b) ∩ orb(c) also gets a join witness of
    order lcm(|b|, |c|) whose orbit holds a (every a up to m = 80 would
    cost ten times as much)."""
    for m in range(1, 81):
        table = structure_table(m)
        for members in table.by_class.values():
            orbs = {x: orbit(m, x).elements for x in members}
            for b in members:
                for c in members:
                    assert orbit_gcd(m, b, c) == oracle_orbit_gcd(m, b, c)
                    if m > 50:
                        continue
                    target = math.lcm(table.orders[b], table.orders[c])
                    for a in orbs[b] & orbs[c]:
                        d = join_witness(m, b, c, a)
                        assert table.orders[d] == target and a in orbs[d]


def test_relative_order_symmetric_on_sample():
    for m in (12, 20, 45, 60):
        for members in structure_table(m).by_class.values():
            for a in members:
                for b in members:
                    assert relative_order(m, a, b) == relative_order(m, b, a)
                    assert relative_order(m, a, b) == len(
                        orbit(m, a).elements & orbit(m, b).elements
                    )


def test_equivalent_requires_regular():
    with pytest.raises(ValueError):
        equivalent(12, 2, 5)
    assert equivalent(12, 5, 5)


def test_equivalent_matches_definition():
    """a ~ b (tested as D(a, b) = 1) against the literal definition: same
    class, same order, a among b^1..b^|b|, for every regular pair, m <= 60."""
    for m in range(1, 61):
        regs = oracle_regular_set(m)
        orders = {x: oracle_order(m, x) for x in regs}
        classes = {x: pow(x, orders[x], m) for x in regs}
        walks = {x: {pow(x, n, m) for n in range(1, orders[x] + 1)} for x in regs}
        for a in regs:
            for b in regs:
                literal = (
                    classes[a] == classes[b]
                    and orders[a] == orders[b]
                    and a % m in walks[b]
                )
                assert equivalent(m, a, b) == literal, (m, a, b)


def test_orbit_gcd_memo_is_bounded_and_canonical():
    _orbit_gcd.cache_clear()
    assert orbit_gcd(12, 5, 7) == orbit_gcd(12, 17, 19)
    info = _orbit_gcd.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize is not None


def test_orbit_gcd_memo_still_validates():
    """The memo checks a pair once and keeps no answer for a rejected one:
    operands of different classes, or an irregular one, raise on every
    call, also once valid pairs of the same modulus are memoized."""
    _orbit_gcd.cache_clear()
    assert orbit_gcd(12, 5, 7) == 2 and orbit_gcd(12, 8, 4) == 2
    size = _orbit_gcd.cache_info().currsize
    for _ in range(3):
        for fn in (orbit_gcd, _orbit_gcd):
            for b, c in ((5, 8), (2, 5), (5, 2)):  # classes 1 and 4; 2 irregular
                with pytest.raises(ValueError):
                    fn(12, b, c)
    assert _orbit_gcd.cache_info().currsize == size


def test_sweep_memos_are_bounded():
    """An audit sweep asks order and omega_info about every residue of its
    range; bounded memos keep it from holding all the answers."""
    for memo in (order, _omega_cache):
        assert memo.cache_info().maxsize is not None, memo.__name__


@pytest.mark.parametrize(
    "name, wrong, check, kinds",
    [
        # |a, b| = 1 whenever b = a^2, which lies in orb(a).
        ("relative_order",
         lambda m, a, b: 1 if a != b and a * a % m == b else relative_order(m, a, b),
         _audit.check_rn35, {"fifth", "sixth"}),
        # D(b, c) = 2 where b lies in orb(c).
        ("orbit_gcd",
         lambda m, b, c: 2 if b != c and orbit_gcd(m, b, c) == 1 else orbit_gcd(m, b, c),
         _audit.check_rn33, {"fourth", "fifth"}),
        # a^z read as a^(z+1) for z <= -3.
        ("signed_power",
         lambda m, a, z: signed_power(m, a, z + 1 if z < -2 else z),
         _audit.check_rn07, {"n", "i"}),
    ],
)
def test_orbit_checks_catch_a_wrong_library(monkeypatch, name, wrong, check, kinds):
    """Each check reports a library answer that is wrong on a few inputs
    through the statements inside its exponent loops."""
    monkeypatch.setattr(_audit, name, wrong)
    for m in (13, 15):
        seen = set().union(*(witness for witness, _, _ in check(m)))
        assert kinds <= seen, (m, seen)


def test_rn35_reports_its_self_statement_once_per_element(monkeypatch):
    """|a, a| = |a| does not depend on b: with relative_order wrong only on
    (a, a), rn35 reports one self finding per a, not one per pair."""
    monkeypatch.setattr(_audit, "relative_order",
                        lambda m, a, b: relative_order(m, a, b) + (a == b))
    for m in (13, 15):  # every regular a is sampled
        selfs = [witness["a"] for witness, _, _ in _audit.check_rn35(m)
                 if "self" in witness]
        assert sorted(selfs) == regular_set(m), (m, selfs)


def test_join_witness_validates_preconditions():
    with pytest.raises(ValueError):
        join_witness(12, 5, 8, 1)  # different classes
    with pytest.raises(ValueError):
        join_witness(12, 5, 7, 8)  # 8 not in the orbits
    with pytest.raises(ValueError):
        join_witness(12, 5, 7, 2)  # 2 is not regular
    with pytest.raises(ValueError):
        join_witness(12, 5, 7, 4)  # idempotent of class 4, not class 1


def test_class_product_rejects_non_idempotent():
    with pytest.raises(ValueError):
        class_product(12, 5)


def test_structure_table_consistency():
    for m in range(2, 80):
        table = structure_table(m)
        assert list(table.regulars) == oracle_regular_set(m)
        for a in table.regulars:
            assert table.orders[a] == order(m, a).order
            assert a in table.by_class[idem_class(m, a)]
            assert len(orbit(m, a).elements) == table.orders[a]
        assert sorted(table.by_class) == list(table.idempotents.elements)
        for e in table.idempotents.elements:
            assert list(table.by_class[e]) == [
                a for a in oracle_regular_set(m) if idem_class(m, a) == e
            ]


def test_structure_table_memory_is_linear():
    """The table stores O(m) entries: no per-residue orbits."""
    residues._order_table.cache_clear()
    tracemalloc.start()
    try:
        structure_table(2003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


# Every m up to 2000; 2^alpha beside the odd prime power 9 and the prime 5
# up to alpha = 10; and 487^2, where 10 is a primitive root mod 487 but
# 10^486 = 1 (mod 487^2).
AGREEMENT_MODULI = sorted(
    {*range(1, 2001), *(2**alpha * 45 for alpha in range(1, 11)), 487**2}
)


def test_table_matches_point_queries_exhaustively():
    """For every residue, the CRT-built table's regular flag and order are
    is_regular's and order()'s (0 off R_m), by_class groups R_m by
    order()'s class in first-seen order, and regular_set and normal_set,
    whole and for every class, are the residues is_regular and is_normal
    accept.  The point queries take each residue on its own, with no
    table."""
    for m in AGREEMENT_MODULI:
        table = structure_table(m)
        regular = [a for a in range(1, m + 1) if is_regular(m, a)]
        normal = [a for a in range(1, m + 1) if is_normal(m, a)]
        assert list(table.regulars) == regular_set(m) == regular, m
        assert normal_set(m) == normal, m
        flags, normal_flags = set(regular), set(normal)
        groups: dict[int, list[int]] = {}
        normal_groups: dict[int, list[int]] = {}
        for a in range(1, m + 1):
            info = order(m, a)
            assert table.orders[a] == (info.order if a in flags else 0), (m, a)
            if a in flags:
                groups.setdefault(info.idem_class, []).append(a)
            if a in normal_flags:
                normal_groups.setdefault(info.idem_class, []).append(a)
        assert [(e, list(c)) for e, c in table.by_class.items()] == list(groups.items())
        for e in table.idempotents.elements:
            assert regular_set(m, e) == groups[e], (m, e)
            assert normal_set(m, e) == normal_groups[e], (m, e)
        # Otherwise the caches would hold every residue of the sweep.
        order.cache_clear()
        residues._order_table.cache_clear()


def test_normal_set_matches_oracle_beside_powers_of_two():
    """normal_set, whole and per class, against the exhaustive oracle on
    2^alpha and 2^alpha * 45 up to the sizes the oracle's O(m * phi) scan
    affords (m <= 500 is test_oracle_audit's)."""
    moduli = [2**alpha for alpha in range(9, 13)]
    moduli += [2**alpha * 45 for alpha in range(4, 8)]
    for m in moduli:
        normal = oracle_normal_set(m)
        assert normal_set(m) == normal, m
        for e in enumerate_idempotents(m).elements:
            assert normal_set(m, e) == [a for a in normal if idem_class(m, a) == e]


def test_root_lift_mod_487_squared():
    """10 generates U(487) but not U(487^2); the lift 10 + 487 does.  The
    least primitive root (3 for 487) first needs the lift at p = 40487,
    where test_units checks generator; the lift is tested here directly."""
    assert multiplicative_order(10, 487) == 486
    assert multiplicative_order(10, 487**2) == 486
    assert _lift_root(10, 487, 2) == 497
    assert multiplicative_order(497, 487**2) == 486 * 487
    assert _lift_root(10, 487, 1) == 10
    assert _lift_root(3, 487, 2) == 3


def test_unit_logs_are_logs_of_one_generator():
    """For every prime power q = p^alpha <= 3000, each unit r is g^t (odd
    p, g the unit of log 1) or +-5^t (p = 2, the sign that of r mod 4) for
    t = logs[r] < n, with n the order of g or of 5; the non-units read n."""
    for q in range(2, 3001):
        factors = build_modulus(q).factorization.factors
        if len(factors) != 1:
            continue
        (p, alpha), = factors
        n, logs = units.unit_logs(p, alpha)
        g = 5 % q if p == 2 else logs.index(1)
        assert multiplicative_order(g, q) == n, q
        for r in range(q):
            if r % p == 0:
                assert logs[r] == n, (q, r)
                continue
            x = pow(g, logs[r], q)
            assert logs[r] < n and (q - x if r % 4 == 3 and p == 2 else x) == r, (q, r)
    units.unit_logs.cache_clear()


def test_near_cap_table_memory():
    """structure_table(999983) holds a few arrays of m entries: it peaks
    under 50 MiB (it took 418 MiB RSS with one OrderInfo per residue)."""
    residues._order_table.cache_clear()
    tracemalloc.start()
    try:
        structure_table(999983)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        residues._order_table.cache_clear()
    assert peak < 50 * 2**20, peak


def test_whole_modulus_sets_refuse_before_factoring(monkeypatch):
    """Above the cap the sets and the table exit at the cap check: a 90-bit
    semiprime is never handed to the factorizer (Brent's rho needs about
    0.8 s for this one)."""
    def no_factoring(m):
        raise AssertionError(f"factored {m} above the cap")

    monkeypatch.setattr(residues, "build_modulus", no_factoring)
    big = 17592186044423 * 35184372088891
    for query in (regular_set, normal_set, structure_table):
        with pytest.raises(EnumerationCapError):
            query(big)


def test_class_members_and_order_table_are_the_tables_pieces():
    """structure_table's by_class and orders are class_members' and
    order_table's arrays themselves, so its agreement with the point queries
    over AGREEMENT_MODULI above covers them too; here they also match the
    brute-force oracle where its O(sum |a|) walks are affordable."""
    for m in AGREEMENT_MODULI:
        table = structure_table(m)
        assert order_table(m) is table.orders, m
        for e, members in table.by_class.items():
            assert class_members(m, e) is members, (m, e)
            assert class_members(m, e - m) is members, (m, e)
    residues._class_members.cache_clear()
    residues._order_table.cache_clear()
    for m in [*range(1, 301), *(2**alpha * 45 for alpha in range(1, 7))]:
        orders = order_table(m)
        regular = oracle_regular_set(m)
        assert [a for a in range(1, m + 1) if orders[a]] == regular, m
        groups: dict[int, list[int]] = {}
        for a in regular:
            n = oracle_order(m, a)
            assert orders[a] == n, (m, a)
            groups.setdefault(pow(a, n, m) or m, []).append(a)
        for e, members in groups.items():
            assert list(class_members(m, e)) == members, (m, e)
        assert sorted(groups) == list(enumerate_idempotents(m).elements), m
    residues._class_members.cache_clear()
    residues._order_table.cache_clear()


def _clear_query_caches():
    for cache in (residues._class_members, residues._order_table, _omega_cache):
        cache.cache_clear()


def test_class_queries_build_no_structure_table(monkeypatch):
    """The queries that read one class, with or without its orders, build
    no structure table; their answers are the table's."""
    moduli = [45, 105, 360, 1001, 2025, 2003]
    want = {}
    for m in moduli:
        table = structure_table(m)
        for e, members in table.by_class.items():
            orders = [table.orders[a] for a in members]
            a = members[len(members) // 2]
            want[m, e] = (list(members), orders.count(2),
                          sum(1 for n in orders if 4 % n == 0),
                          orbit_union_size(m, e, 2), a, _omega_cache(m, a))

    def no_table(m):
        raise AssertionError(f"structure_table({m}) was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("idemod") and hasattr(module, "structure_table"):
            monkeypatch.setattr(module, "structure_table", no_table)
    _clear_query_caches()
    for (m, e), (members, r2, rho4, union, a, omega) in want.items():
        assert regular_set(m, e) == members
        assert (r_count(m, e, 2), rho_count(m, e, 4)) == (r2, rho4)
        assert orbit_union_size(m, e, 2) == union
        assert omega_info(m, a) == omega
        if m % 2:
            assert sqrt_structure(m, e).roots == tuple(
                x for x in members if x * x % m == e % m)
    _clear_query_caches()


def test_sqrt_structure_walks_no_unit_group(monkeypatch):
    """sqrt_structure joins the local roots of x^2 = 1 by CRT, so it walks
    no generator's powers, even for a prime near the cap."""
    def no_walk(p, alpha):
        raise AssertionError(f"walked U({p}^{alpha})")

    monkeypatch.setattr(units, "unit_orders", no_walk)
    monkeypatch.setattr(units, "unit_logs", no_walk)
    _clear_query_caches()
    assert sqrt_structure(999983, 1).roots == (1, 999982)
    assert sqrt_structure(3**4 * 5**2 * 7, 1).size_formula == 8
    for e in enumerate_idempotents(2025).elements:
        rep = sqrt_structure(2025, e)
        assert len(rep.roots) == rep.size_formula, e
    _clear_query_caches()


def test_class_queries_refuse_before_factoring(monkeypatch):
    """Above the cap a class or order query exits at the cap check, before
    the modulus is factored."""
    def no_factoring(m):
        raise AssertionError(f"factored {m} above the cap")

    monkeypatch.setattr(residues, "build_modulus", no_factoring)
    big = 17592186044423 * 35184372088891
    for query in (class_members, regular_set):
        with pytest.raises(EnumerationCapError):
            query(big, 1)
    with pytest.raises(EnumerationCapError):
        order_table(big)
