"""Operator algebra on the idempotents and the subset correspondence."""
from collections import Counter

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
