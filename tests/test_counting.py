"""Order counting in the regular classes and arithmetic-function classes."""
import math

import pytest

from idemod import cli, counting, residues
from idemod.arith import EnumerationCapError, build_modulus
from idemod.counting import (
    builtin_function,
    classify_function,
    lcm_lift,
    orbit_union_size,
    r_count,
    rho_closed_form,
    rho_count,
    rho_prime_power,
)
from idemod.idempotents import enumerate_idempotents
from idemod.oracle import oracle_r_count, oracle_rho_count, oracle_union_size
from idemod.residues import class_members, order_table, structure_table
from idemod import audit as _audit
from conftest import counting_sweep, no_findings


def test_counts_reduce_to_unit_class_of_mu():
    no_findings(_audit.check_fs02, range(2, 301))


def test_rho_closed_form_weakly_even():
    assert counting_sweep() == []


def test_prime_power_rho_formula():
    no_findings(_audit.check_fs03, range(2, 501))


def test_rho_closed_form_full_exponent_sweep():
    no_findings(_audit.check_fs04, range(2, 201))


def test_rho_division_invariant_on_domain():
    no_findings(_audit.check_fs12, range(2, 301))


def test_rho_closed_form_rejects_other_moduli():
    with pytest.raises(ValueError):
        rho_closed_form(8, 2)
    with pytest.raises(ValueError):
        rho_prime_power(8, 2, 1)
    with pytest.raises(ValueError):
        rho_prime_power(12, 5, 1)  # 5 does not divide psi(12)=2


def test_counts_reject_non_idempotent_class():
    with pytest.raises(ValueError):
        r_count(12, 5, 2)
    with pytest.raises(ValueError):
        rho_count(12, 5, 2)
    with pytest.raises(ValueError):
        orbit_union_size(12, 5, 2)


def test_counts_sum_over_divisors():
    for m in range(2, 151):
        table = structure_table(m)
        for e in table.idempotents.elements:
            psi = build_modulus(m).psi
            for k in (1, 2, 6, psi, 2 * psi):
                assert rho_count(m, e, k) == sum(
                    r_count(m, e, d) for d in range(1, k + 1) if k % d == 0
                )


def test_orbit_union_reports_truth_and_formula_side_by_side():
    res = orbit_union_size(12, 1, 2)
    assert res.true_size == 4
    assert res.formula_value == 6
    res13 = orbit_union_size(13, 1, 12)
    assert res13.true_size == res13.formula_value == 12


def _agree_with_oracle(m, ks):
    """r, rho and the orbit union (with its formula value) of every class
    of m at each k against the brute-force walks."""
    for e in enumerate_idempotents(m).elements:
        for k in ks:
            union = orbit_union_size(m, e, k)
            r = oracle_r_count(m, e, k)
            assert (r_count(m, e, k), rho_count(m, e, k), union.true_size,
                    union.formula_value) == (
                r, oracle_rho_count(m, e, k), oracle_union_size(m, e, k),
                k * r // build_modulus(k).phi), (m, e, k)


def test_counts_match_the_oracle():
    for m in range(1, 301):
        _agree_with_oracle(m, range(1, 41))


def test_counts_match_the_oracle_on_two_power_multiples():
    """2^alpha k, whose unit group has the two factors <-1> and <5>."""
    for alpha in range(3, 12):
        for c in (1, 3, 5, 7, 9, 15):
            if 2**alpha * c <= 4096:
                _agree_with_oracle(2**alpha * c, range(1, 41))


def test_unit_counts_match_one_pass_of_order_table():
    """Every m <= 2000, e = 1 and every k dividing lambda(m): r and rho
    against the orders of the unit class, read once per m."""
    for m in range(1, 2001):
        orders = order_table(m)
        seen: dict[int, int] = {}
        for a in class_members(m, 1):
            seen[orders[a]] = seen.get(orders[a], 0) + 1
        lam = math.lcm(*seen)
        for k in (d for d in range(1, lam + 1) if lam % d == 0):
            assert r_count(m, 1, k) == seen.get(k, 0), (m, k)
            assert rho_count(m, 1, k) == sum(
                c for n, c in seen.items() if k % n == 0), (m, k)
        residues._order_table.cache_clear()
        residues._class_members.cache_clear()


def test_counts_read_no_residue_table(monkeypatch, capsys):
    """The counts are products over the unit group's cyclic factors: they
    answer with every per-residue piece unreadable, on a modulus far past
    the cap."""
    def unreadable(*args):
        raise AssertionError("a count read a per-residue table")

    for name in ("order_table", "class_members", "_powers"):
        for module in (residues, counting):
            monkeypatch.setattr(module, name, unreadable, raising=False)
    assert (r_count(360, 136, 4), rho_count(360, 136, 4)) == (4, 8)
    assert orbit_union_size(360, 136, 4).true_size == 6
    p = 2**61 - 1
    assert cli.main(["--max-enum", "10", "counts", str(p), "1", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"r_{p}^1(6) = 2", f"rho_{p}^1(6) = 6",
        "orbit union size = 6 (formula: 6)",
    ]


def test_orbit_union_multiplicative_on_weakly_even_range():
    no_findings(_audit.check_fs06, range(2, 101))


def test_function_classifier_known_profiles():
    phi = classify_function(builtin_function("phi"), 150)
    assert phi.is_m and phi.is_di and phi.is_di_pp and not phi.is_qm
    psi = classify_function(builtin_function("psi"), 150)
    assert psi.is_qm and psi.is_di and not psi.is_m
    ident = classify_function(builtin_function("identity"), 150)
    assert ident.is_m and ident.is_qm and ident.is_di and ident.is_di_pp
    const = classify_function(builtin_function("const"), 150)
    assert const.is_m and const.is_qm and const.is_di
    g = classify_function(builtin_function("gcd:30"), 150)
    assert g.is_m and g.is_qm and g.is_di


def test_classifier_witnesses_are_counterexamples():
    cls = classify_function(builtin_function("phi"), 150)
    a, b, got, want = cls.witnesses["QM"]
    assert got != want


# (function, n) -> (is_m, is_qm, is_di, is_di_pp, witnesses) for the
# corpus the audit classifies, at bounds on both sides of its first
# counterexamples; every other pair classifies as all True with none.
_CLASSIFIER_GOLDEN = {
    **{("phi", n): (True, False, True, True, {"QM": (3, 4, 4, 2)})
       for n in (30, 120, 300)},
    **{("psi", n): (False, True, True, True, {"M": (3, 4, 2, 4)})
       for n in (30, 120, 300)},
}


@pytest.mark.parametrize("name", _audit._FS_CORPUS)
def test_classifier_golden_values(name):
    for n in (1, 2, 7, 30, 120, 300):
        cls = classify_function(builtin_function(name), n)
        got = (cls.is_m, cls.is_qm, cls.is_di, cls.is_di_pp, cls.witnesses)
        assert cls.domain_bound == n
        assert got == _CLASSIFIER_GOLDEN.get((name, n), (True,) * 4 + ({},))


@pytest.mark.parametrize("f, witnesses", [
    (lambda x: x // 2 + 1, [("M", (3, 4, 7, 6)), ("QM", (2, 3, 4, 2)),
                            ("DI", (2, 4, 2, 3)), ("DIpp", (2, 4, 2, 3))]),
    (lambda x: 2 ** (x % 5), [("M", (1, 1, 2, 4)), ("QM", (1, 5, 1, 2)),
                              ("DI", (1, 5, 2, 1)), ("DIpp", (4, 8, 16, 8))]),
    (lambda x: x if x % 11 else 1, [("M", (2, 11, 1, 2)), ("QM", (2, 11, 1, 2)),
                                    ("DI", (2, 22, 2, 1))]),
], ids=["half", "pow2", "skip11"])
def test_classifier_first_witness_per_label(f, witnesses):
    """Each search reports the first counterexample in its scan order, and
    the labels come in the order M, QM, DI, DIpp."""
    cls = classify_function(f, 60)
    assert list(cls.witnesses.items()) == witnesses
    assert [cls.is_m, cls.is_qm, cls.is_di, cls.is_di_pp] == [
        label not in cls.witnesses for label in ("M", "QM", "DI", "DIpp")]


@pytest.mark.parametrize("f", [
    *map(builtin_function, _audit._FS_CORPUS), lambda x: x // 2 + 1,
    lambda x: 2 ** (x % 5),
], ids=[*_audit._FS_CORPUS, "half", "pow2"])
def test_qm_search_yields_every_witness_of_a_full_scan(f):
    """The QM search visits only the pairs with lcm(a, b) <= n, and yields
    the witnesses of a scan of every pair a <= b <= n, in the scan's order,
    for each n <= 200.  The scan is made once, at n = 200: its pairs with
    lcm <= n, in order, are the scan at n."""
    vals = [None, *map(f, range(1, 201))]
    scan = [
        (l, (a, b, vals[l], math.lcm(vals[a], vals[b])))
        for a in range(1, 201)
        for b in range(a, 201)
        if (l := math.lcm(a, b)) <= 200 and vals[l] != math.lcm(vals[a], vals[b])
    ]
    for n in range(1, 201):
        want = [w for l, w in scan if l <= n]
        assert list(counting._quasimultiplicative(vals[: n + 1], n)) == want, n


def test_classifier_domain_counts_against_the_cap():
    """The classifier tabulates f on all of 1..n, so n is checked against
    the enumeration cap before f is called once."""
    def never(x):
        raise AssertionError(f"f({x}) was called")

    with pytest.raises(EnumerationCapError):
        classify_function(never, 10**12)


def test_quasimultiplicative_characterization():
    no_findings(_audit.check_fs09, [0])


def test_division_invariant_characterization():
    no_findings(_audit.check_fs10, [0])


def test_injective_qm_reflects_divisibility():
    no_findings(_audit.check_fs11, [0])


def test_lcm_lift_is_quasimultiplicative():
    no_findings(_audit.check_fs13, [0])


def test_lcm_lift_values():
    assert lcm_lift(lambda q: q, 12) == 12
    assert lcm_lift(lambda q: build_modulus(q).phi, 12) == build_modulus(12).psi
    assert lcm_lift(lambda q: q, 1) == 1
    with pytest.raises(ValueError):
        lcm_lift(lambda q: q, 0)


def test_phi_and_psi_leave_no_modulus_in_the_cache():
    """classify-fn tabulates f on all of 1..n; phi and psi compute each value
    from an uncached Modulus, so the table does not fill build_modulus's
    cache, and they classify as the cached values do."""
    build_modulus.cache_clear()
    for name in ("phi", "psi"):
        cls = classify_function(builtin_function(name), 2000)
        assert build_modulus.cache_info().currsize == 0
        cached = classify_function(lambda x: getattr(build_modulus(x), name), 2000)
        assert cls == cached
        build_modulus.cache_clear()


def test_builtin_function_names():
    assert builtin_function("gcd:6")(4) == 2
    with pytest.raises(ValueError):
        builtin_function("nope")
