"""Order counting in the regular classes and arithmetic-function classes."""
import pytest

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
from idemod.residues import structure_table
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


def test_builtin_function_names():
    assert builtin_function("gcd:6")(4) == 2
    with pytest.raises(ValueError):
        builtin_function("nope")
