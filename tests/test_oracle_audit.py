"""Oracle/fast-path agreement and the audit harness contract."""
import gc
import hashlib
import json

import pytest

from idemod.algebra import verify_algebra
from idemod.arith import EnumerationCapError
from idemod import audit
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
from conftest import audit_100


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


def test_oracles_honor_enumeration_cap(enum_cap):
    enum_cap(50)
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
    with pytest.raises(ValueError):
        run_audit(2, 10, [])


def test_audit_names_findings_from_the_registry(monkeypatch):
    """A check yields bare (witness, expected, actual) tuples; the report
    files them under the registered id and the modulus the sweep passed
    (0 for a global claim)."""
    monkeypatch.setitem(THEOREMS, "zz-sweep", ("sweep", lambda m: [({"m": m}, 1, 2)]))
    monkeypatch.setitem(THEOREMS, "zz-global", ("global", lambda m: [({}, 1, m)]))
    sweep, glob = run_audit(5, 6, ["zz-sweep", "zz-global"]).results
    assert [f.to_json() for f in sweep.findings] == [
        {"theorem": "zz-sweep", "modulus": m, "witness": {"m": m},
         "expected": 1, "actual": 2}
        for m in (5, 6)
    ]
    assert [f.to_json() for f in glob.findings] == [
        {"theorem": "zz-global", "modulus": 0, "witness": {}, "expected": 1,
         "actual": 0}
    ]


def test_ia_claims_ask_only_about_reported_laws(monkeypatch):
    """Each law name an ia claim passes to _failed_laws is a law that
    verify_algebra reports; a name it does not report would never fail."""
    asked = set()

    def record(m, *laws):
        asked.update(laws)
        return iter(())

    monkeypatch.setattr(audit, "_failed_laws", record)
    for tid, (_, check) in THEOREMS.items():
        if tid.startswith("ia"):
            list(check(12))
    assert asked and asked <= {law.law for law in verify_algebra(12).laws}


def test_audit_keeps_one_modulus_context_alive():
    run_audit(2, 30)
    gc.collect()
    assert sum(isinstance(o, audit._Ctx) for o in gc.get_objects()) <= 1


def test_audit_json_pinned():
    """The digest of `idemod audit 2..100 --json`: every claim's status and
    every finding, not only the three pinned errata."""
    doc = json.dumps(audit_100().to_json()) + "\n"
    assert hashlib.md5(doc.encode()).hexdigest() == "75ba622a5053dce1a3c4fb16215e3d49"


def test_registry_covers_every_family():
    families = {tid.rstrip("0123456789").split("-")[0] for tid in THEOREMS}
    assert {"in", "nn", "rn", "bc", "pr", "fs", "ia", "sd"} <= families
