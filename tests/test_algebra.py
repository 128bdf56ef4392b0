"""Operator algebra on the idempotents and the subset correspondence."""
from collections import Counter
from itertools import product

import pytest

from idemod import algebra
from idemod.algebra import (
    basis_map,
    circ,
    complement,
    idem_op,
    otimes,
    simdiff,
    verify_algebra,
)
from idemod.arith import canon
from idemod.idempotents import enumerate_idempotents
from conftest import algebra_sweep


def test_all_laws_hold_up_to_1000():
    assert algebra_sweep() == []


def test_translation_is_bijective():
    for m in range(1, 1001, 7):
        es = enumerate_idempotents(m).elements
        for e2 in es:
            assert len({circ(m, e2, e) for e in es}) == len(es)


def test_basis_bijection_and_size():
    for m in range(1, 1001, 3):
        bm = basis_map(m)
        es = enumerate_idempotents(m).elements
        assert len(set(bm.member_sets.values())) == len(es)
        assert len(es) == 2 ** len(bm.basis)


def test_operator_values_mod_12():
    # E_12 = {1, 4, 9, 12}; the subsets of {4, 3} mirror the operators.
    assert complement(12, 4) == 9
    assert circ(12, 4, 9) == 12
    assert circ(12, 4, 4) == 1
    assert otimes(12, 4, 9) == 1
    assert otimes(12, 4, 12) == 4
    assert simdiff(12, 4, 9) == 4
    assert simdiff(12, 4, 4) == 1


def test_operators_reject_non_idempotent_operands():
    with pytest.raises(ValueError):
        complement(12, 5)
    with pytest.raises(ValueError):
        circ(12, 4, 5)
    with pytest.raises(ValueError):
        idem_op(12, "circ", 4)
    with pytest.raises(ValueError):
        idem_op(12, "complement", 4, 9)
    with pytest.raises(ValueError):
        idem_op(12, "nope", 4, 9)


def test_report_records_all_laws():
    rep = verify_algebra(60)
    assert rep.ok
    assert [l.law for l in rep.laws] == [
        "mixing-product",
        "mixing-power",
        "closure",
        "circ-group",
        "circ-translation-injective",
        "otimes-ring",
        "identity-catalog",
        "otimes-nary",
        "basis-map",
    ]


def _product(m, e1, e2):
    return canon(e1 * e2, m)


def _failed(rep):
    return {l.law for l in rep.laws if l.counterexample is not None}


def test_laws_fail_on_a_wrong_operator(monkeypatch):
    """The product of idempotents is idempotent but is neither the meet nor
    the group operation: in place of otimes, exactly the laws about otimes
    report a counterexample, and otimes and idem_op both answer with it; in
    place of circ, the group laws fail.  The sum of idempotents need not be
    idempotent, so in place of simdiff it fails closure."""
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_otimes", _product)
        rep = verify_algebra(12)
        assert idem_op(12, "otimes", 4, 9) == otimes(12, 4, 9) == 12
    assert _failed(rep) == {"otimes-ring", "identity-catalog", "otimes-nary",
                            "basis-map"}
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_circ", _product)
        assert "circ-group" in _failed(verify_algebra(12))
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_simdiff", lambda m, e1, e2: canon(e1 + e2, m))
        assert "closure" in _failed(verify_algebra(12))
    # A product outside E_m has no member set: a counterexample to the
    # basis map, not a KeyError.
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_product", lambda m, e1, e2: canon(e1 + e2 - 1, m))
        assert "basis-map" in _failed(verify_algebra(12))


def test_laws_evaluate_each_operator_once_per_pair(monkeypatch):
    """The cubic laws read circ and otimes through tables that live for one
    verify_algebra call, so each formula runs O(|E|^2) times, not |E|^3."""
    calls = Counter()
    for name in ("_circ", "_otimes"):
        def counted(m, e1, e2, name=name, formula=getattr(algebra, name)):
            calls[name] += 1
            return formula(m, e1, e2)

        monkeypatch.setattr(algebra, name, counted)
    rep = verify_algebra(2310)
    size = len(enumerate_idempotents(2310).elements)
    assert size == 32
    assert len(rep.laws) == 9 and rep.ok
    assert set(calls) == {"_circ", "_otimes"}
    assert max(calls.values()) < 16 * size**2


def test_laws_hold_on_e_30030():
    rep = verify_algebra(30030)
    assert len(enumerate_idempotents(30030).elements) == 64
    assert rep.ok


def _wrong_at(name, x, y):
    """The formula algebra.<name> with its value at the operands {x, y}, in
    either order, replaced by that value's complement: still in E_m, so
    the byte-row screens stay on, but wrong at exactly that pair."""
    formula = getattr(algebra, name)

    def patched(m, e1, e2):
        value = formula(m, e1, e2)
        return canon(1 - value, m) if {e1, e2} == {x, y} else value

    return patched


def _first_circ_group(m, es, C, O, P):
    one = canon(1, m)
    for e in es:
        if C(m, e, one) != e or C(m, e, e) != one:
            return ("identity/involution", e)
    for e1, e2 in product(es, repeat=2):
        if C(m, e1, e2) != C(m, e2, e1):
            return ("commutativity", e1, e2)
        for e3 in es:
            if C(m, C(m, e1, e2), e3) != C(m, e1, C(m, e2, e3)):
                return ("associativity", e1, e2, e3)


def _first_otimes_ring(m, es, C, O, P):
    for e1, e2 in product(es, repeat=2):
        if O(m, e1, e2) != O(m, e2, e1):
            return ("otimes-commutativity", e1, e2)
        o, p = O(m, e1, e2), P(m, e1, e2)
        for e3 in es:
            if O(m, o, e3) != O(m, e1, O(m, e2, e3)):
                return ("otimes-associativity", e1, e2, e3)
            if P(m, e1, O(m, e2, e3)) != O(m, p, P(m, e1, e3)):
                return ("mul-distributes-over-otimes", e1, e2, e3)
            if O(m, e1, C(m, e2, e3)) != C(m, o, O(m, e1, e3)):
                return ("otimes-distributes-over-circ", e1, e2, e3)


def _first_shift(m, es, C, O, P):
    for e1, e2 in product(es, repeat=2):
        o = O(m, e1, e2)
        ob = O(m, canon(1 - e1, m), canon(1 - e2, m))
        for e in es:
            if O(m, C(m, e1, e), C(m, e2, e)) != canon(o * e + ob * (1 - e), m):
                return ("shift-decomposition", e1, e2, e)


@pytest.mark.parametrize("law, name, first, kind", [
    ("circ-group", "_circ", _first_circ_group, "associativity"),
    ("otimes-ring", "_otimes", _first_otimes_ring, "otimes-associativity"),
    ("otimes-ring", "_product", _first_otimes_ring,
     "mul-distributes-over-otimes"),
    ("otimes-ring", "_circ", _first_otimes_ring,
     "otimes-distributes-over-circ"),
    ("otimes-nary", "_circ", _first_shift, "shift-decomposition"),
])
def test_screened_laws_report_the_first_witness(monkeypatch, law, name, first,
                                                kind):
    """With a formula wrong at one pair of E_2310, and every value still in
    E_m, a law screened by byte rows reports the counterexample that a plain
    nested scan of that law finds first."""
    m = 2310
    es = enumerate_idempotents(m).elements
    monkeypatch.setattr(algebra, name, _wrong_at(name, es[5], es[19]))
    expected = first(m, es, algebra._circ, algebra._otimes, algebra._product)
    assert expected is not None and expected[0] == kind
    (report,) = [l for l in verify_algebra(m).laws if l.law == law]
    assert report.counterexample == expected
