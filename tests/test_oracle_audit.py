"""Oracle/fast-path agreement and the audit harness contract."""
import json

import pytest

from idemod.arith import EnumerationCapError
from idemod.audit import THEOREMS, run_audit
from idemod.oracle import (
    oracle_delta,
    oracle_idempotents,
    oracle_is_normal,
    oracle_is_regular,
    oracle_mu,
    oracle_normal_set,
    oracle_regular_set,
    oracle_solve,
)
from idemod.residues import delta, is_normal, is_regular, mu, normal_set, regular_set


def test_delta_mu_agreement():
    for m in range(2, 501):
        for a in range(1, m + 1, max(1, m // 60)):
            assert delta(m, a) == oracle_delta(m, a)
            assert mu(m, a) == oracle_mu(m, a)


def test_regular_set_agreement():
    for m in range(2, 501):
        assert regular_set(m) == oracle_regular_set(m)


def test_normal_set_agreement():
    for m in range(2, 501):
        assert normal_set(m) == oracle_normal_set(m)


def test_pointwise_classification_agreement():
    for m in range(2, 301):
        for a in range(1, m + 1):
            assert is_regular(m, a) == oracle_is_regular(m, a)
            assert is_normal(m, a) == oracle_is_normal(m, a)


def test_solvability_agreement():
    for m in range(2, 101, 3):
        for k in (1, 2, 3, 7):
            for a in range(1, m + 1, max(1, m // 8)):
                scan = set(oracle_solve(m, k, a))
                direct = {x for x in range(1, m + 1) if pow(x, k, m) == a % m}
                assert scan == direct


def test_oracles_honor_enumeration_cap(monkeypatch):
    monkeypatch.setenv("IDEM_MAX_ENUM", "50")
    with pytest.raises(EnumerationCapError):
        oracle_idempotents(51)
    with pytest.raises(EnumerationCapError):
        oracle_solve(51, 2, 1)
    assert oracle_idempotents(50)


def test_audit_determinism():
    a = run_audit(2, 40)
    b = run_audit(2, 40)
    assert a.dumps() == b.dumps()


def test_audit_report_shape():
    rep = run_audit(2, 20, ["in02", "fs05"])
    doc = rep.to_json()
    assert doc["range"] == [2, 20]
    assert [t["id"] for t in doc["theorems"]] == ["in02", "fs05"]
    for t in doc["theorems"]:
        assert t["status"] in ("verified-on-range", "counterexamples")
        assert (t["status"] == "counterexamples") == bool(t["findings"])
    json.loads(rep.dumps())  # serialization is valid JSON


def test_audit_findings_sorted_and_structured():
    rep = run_audit(2, 20, ["fs05"])
    findings = rep.results[0].findings
    assert findings
    keys = [f.sort_key() for f in findings]
    assert keys == sorted(keys)
    doc = findings[0].to_json()
    assert set(doc) == {"theorem", "modulus", "witness", "expected", "actual"}


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError):
        run_audit(5, 2)
    with pytest.raises(ValueError):
        run_audit(1, 10)
    with pytest.raises(ValueError):
        run_audit(2, 10, ["nope"])


def test_registry_covers_every_family():
    families = {tid.rstrip("0123456789").split("-")[0] for tid in THEOREMS}
    assert {"in", "nn", "rn", "bc", "pr", "fs", "ia", "sd"} <= families
