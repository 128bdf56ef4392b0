"""Oracle/fast-path agreement and the audit harness contract."""
import gc
import hashlib
import json
import sys
from functools import lru_cache
from types import SimpleNamespace

import pytest

from idemod.algebra import verify_algebra
from idemod.arith import EnumerationCapError, build_modulus, canon
from idemod import algebra, audit
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
from idemod.idempotents import enumerate_idempotents, idem_class, order
from idemod.residues import (
    class_members,
    delta,
    is_normal,
    is_regular,
    mu,
    normal_set,
    regular_set,
)
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


def test_audit_refuses_a_range_past_the_cap_before_any_check(monkeypatch, enum_cap):
    """Each modulus of the sweep counts against the cap, so under a cap of 50
    the range 45..51 is refused before a check runs on 45..50."""
    called = []
    for tid, (scope, check) in list(THEOREMS.items()):
        def record(m, _tid=tid, _check=check):
            called.append((_tid, m))
            return _check(m)

        monkeypatch.setitem(THEOREMS, tid, (scope, record))
    enum_cap(50)
    with pytest.raises(EnumerationCapError):
        run_audit(45, 51)
    assert not called, called[:5]


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


# The fast paths the audit's context must not read, by defining module.
_FAST_PATHS = {
    "units": ["crt_join", "nonpowers"],
    "residues": ["class_members", "structure_table", "regular_set", "normal_set"],
    "idempotents": ["enumerate_idempotents"],
}


def test_context_reads_only_the_oracle(monkeypatch):
    """_Ctx builds its tables, the lazy ones too, with every fast path it
    checks raising, in every idemod namespace that binds one, so no check
    compares a fast path with itself."""
    modules = [mod for name, mod in sys.modules.items() if name.startswith("idemod")]
    for short, names in _FAST_PATHS.items():
        for name in names:
            real = getattr(sys.modules[f"idemod.{short}"], name)

            def refuse(*args, _name=name):
                raise AssertionError(f"the context called {_name}{args}")

            for mod in modules:
                if vars(mod).get(name) is real:
                    monkeypatch.setattr(mod, name, refuse)
    for m in range(2, 61):
        c = audit._Ctx(m)
        _ = c.ind, c.orbits, c.repeats, c.images(2)


def test_context_tables_match_the_library():
    """The audit compares its context with the library only through the
    claims, so the context's tables are checked against the fast paths
    here."""
    for m in range(2, 201):
        c = audit._Ctx(m)
        assert c.E == list(enumerate_idempotents(m).elements), m
        assert c.R == regular_set(m), m
        assert c.N == normal_set(m), m
        assert c.orders == [order(m, a).order if a in c.Rset else 0
                            for a in range(m + 1)], m
        assert c.classes == [idem_class(m, a) if a in c.Rset else 0
                             for a in range(m + 1)], m
        least = sorted(c.E, key=lambda e: class_members(m, e)[0])
        assert list(c.by_class.items()) == [
            (e, list(class_members(m, e))) for e in least], m


def test_audit_json_pinned():
    """The digest of `idemod audit 2..100 --json`: every claim's status and
    every finding, not only the three pinned errata."""
    doc = json.dumps(audit_100().to_json()) + "\n"
    assert hashlib.md5(doc.encode()).hexdigest() == "75ba622a5053dce1a3c4fb16215e3d49"


def test_audit_findings_pinned_on_larger_moduli():
    """The sampled checks (a stride of len(R) // 14 and the like) take
    strides above 1 only past the range the 2..100 pin covers.  The sha256
    of the (id, status, findings) projection of run_audit(m, m) for six such
    moduli."""
    doc = [[m, [{k: t[k] for k in ("id", "status", "findings")}
                for t in run_audit(m, m).to_json()["theorems"]]]
           for m in (120, 128, 144, 210, 240, 360)]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "0e19cdc24ec3690f6f0dbd684892408837a335007993e3daca79aa292ae336a7"


def _library_names():
    """The library functions audit.py binds, by name, canon left out."""
    return [name for name, fn in vars(audit).items()
            if callable(fn) and not isinstance(fn, type) and name != "canon"
            and getattr(fn, "__module__", "").startswith("idemod.")
            and fn.__module__ != audit.__name__]


# For each claim, the first 16 hex digits of the sha256 of its sorted distinct
# (library name, m, args) over m <= 16 and m = 29 (m = 0 for the global
# claims), taken when every check still asked each repeated question again;
# in06's since it compares the context's oracle idempotents with
# enumerate_idempotents.  29 is the least modulus with a class of 28 members,
# where rn33 and rn35 first sample with a stride of 2.
_QUESTIONS = dict(zip(*[iter("""
in02 e3b0c44298fc1c14   in03 e3b0c44298fc1c14   in05 6a2abcc7a5ff6e53
in06 e00d94fcbda096b5   in07 6872a9e5fceda795   in08 e3b0c44298fc1c14
in11 e3b0c44298fc1c14   in12 e3b0c44298fc1c14   nn02 44d5f19d794e9875
nn03 8cd480998df86a10   nn04 4360ec235e67ae15   nn05 e3b0c44298fc1c14
nn06 035f09f269c25f4b   nn07 f6186d84f4d52605   nn08 87578e013996d770
nn08-third b98c208db4ee0478   rn02 e3b0c44298fc1c14   rn03 44d5f19d794e9875
rn06 b9d111cf9b8d3aca   rn07 2051b00be8d80ef4   rn09 e3b0c44298fc1c14
rn11 3195dbd00a6fd6f3   rn13 e3b0c44298fc1c14   rn14 e3b0c44298fc1c14
rn15 db79a991af61d395   rn16 ada836f69eb17a09   rn17 aff30f70cc1988d4
rn18 c224dba335ca5226   rn19 e3b0c44298fc1c14   rn20 ada836f69eb17a09
rn21 e3b0c44298fc1c14   rn22 718bec222e92ccc9   rn23 e6aa9d1855129094
rn24 5f631e48b662f80b   rn25 e3b0c44298fc1c14   rn26 e3b0c44298fc1c14
rn27 e3b0c44298fc1c14   rn28 e3b0c44298fc1c14   rn29 e3b0c44298fc1c14
rn30 e3b0c44298fc1c14   rn31 44d5f19d794e9875   rn32 e3b0c44298fc1c14
rn33 7ae79209d9d1112b   rn35 9fd42ca8e739f87e   rn36 31a0539ddb090db8
rn38 7da572468870dc12   rn40 e3b0c44298fc1c14   rn41 8cd480998df86a10
rn42 71b701158874a0e4   bc01 77e59b0f88cdce85   bc03 e3b0c44298fc1c14
bc04 e3b0c44298fc1c14   bc05 9dd7147db494e232   bc06 e3b0c44298fc1c14
bc07 e3b0c44298fc1c14   bc08 e3b0c44298fc1c14   bc09 e3b0c44298fc1c14
pr02 712fc8be12c442d5   pr03 f4d603cf38ef6c99   pr04 809df55193c9c416
pr05 0e5acccc5d1308b6   pr06 6bcfc559b6fdd15a   omega-phi-cyclic f329382fd99ace99
fs02 578157b2c8dfd5b4   fs03 f8b4bd97886900b8   fs04 5e9e3246840307a8
fs05 dfccfca17b9996db   fs06 4f5fa0d86868c53a   fs09 50d1be33dbd99b1a
fs10 50d1be33dbd99b1a   fs11 b39d5ab97334601a   fs12 0ad93ca99ffb523e
fs13 3a633596e09504fc   ia02 e3b0c44298fc1c14   ia03 e3b0c44298fc1c14
ia05 e3b0c44298fc1c14   ia06 e3b0c44298fc1c14   ia07 e3b0c44298fc1c14
ia08 e3b0c44298fc1c14   ia09 e3b0c44298fc1c14   ia10 e3b0c44298fc1c14
ia11 e3b0c44298fc1c14   sd02 e3b0c44298fc1c14   sd03 503be6c2f72f4684
sd04 e3b0c44298fc1c14   sd05 e3b0c44298fc1c14   sd07 e112967458bae5cd
sd08 46a267c63ba3eacb   sd10 e17d0e6cc01d3ad7   sd11 2a0cb605a61f04c9
sd12 dc4e1bc28b6f159c   sd13 46a267c63ba3eacb   sd14 ab6df8508de0aebe
sd15 efd31b0a0fda7e37
""".split())] * 2))


def test_checks_ask_the_same_distinct_questions(monkeypatch):
    """A check that keeps library answers to reuse them still asks every
    distinct question it asked before, and no new one: each library name
    audit.py binds is wrapped in audit's namespace, as perfbench's tracer
    does, and records (name, m, args), a callable argument by its qualified
    name.  The per-modulus context is built before recording starts."""
    log = None

    def recorder(name, fn):
        def record(*args):
            if log is not None:
                log.add(repr((name, m, [getattr(x, "__qualname__", x) for x in args])))
            return fn(*args)

        return record

    for name in _library_names():
        monkeypatch.setattr(audit, name, recorder(name, getattr(audit, name)))
    asked = {tid: set() for tid in THEOREMS}
    for m in (0, *range(2, 17), 29):
        if m:
            audit._ctx(m).algebra
        for tid, (scope, check) in THEOREMS.items():
            if (scope == "global") == (m == 0):
                audit._fs_corpus.cache_clear()
                log = asked[tid]
                list(check(m))
                log = None
    audit._fs_corpus.cache_clear()
    digests = {tid: hashlib.sha256("\n".join(sorted(qs)).encode()).hexdigest()[:16]
               for tid, qs in asked.items()}
    assert digests == _QUESTIONS, {tid: d for tid, d in digests.items()
                                   if d != _QUESTIONS.get(tid)}


# Faults for test_checks_catch_a_fault.  Each makes one value that a check
# compares wrong on small moduli: a table or relation of the per-modulus
# context, a library function as the audit module binds it, or a formula
# or the enumeration that algebra.verify_algebra reads (the ia claims).  rn07, rn33
# and rn35 are test_residues.py's test_orbit_checks_catch_a_wrong_library.


def _ctx_fault(change):
    """Build each modulus's context afresh, then change(ctx, m) it."""

    def install(monkeypatch):
        @lru_cache(maxsize=1)
        def ctx(m):
            c = audit._Ctx(m)
            _ = c.ind, c.orbits  # walk the true powers before a table changes
            change(c, m)
            return c

        monkeypatch.setattr(audit, "_ctx", ctx)

    return install


def _lib_fault(name, wrap):
    """Replace audit.<name> (or a _Ctx method) by wrap(the original)."""

    def install(monkeypatch):
        owner = audit._Ctx if hasattr(audit._Ctx, name) else audit
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))

    return install


def _algebra_fault(name, wrap):
    """Replace algebra.<name>, which verify_algebra reads at call time, by
    wrap(the original).  A sound E_m scans no law past the basis map, so a
    wrong formula reaches the ia claims through the basis map's verdict."""

    def install(monkeypatch):
        monkeypatch.setattr(algebra, name, wrap(getattr(algebra, name)))

    return install


def _as_product(real):
    return algebra._product


def _as_sum(real):
    return lambda m, e1, e2: canon(e1 + e2, m)


def _with_non_idempotent(real):
    """E_m with 2 appended, which is not idempotent modulo m > 2."""

    def enumerate_idempotents(m):
        idems = real(m)
        return SimpleNamespace(modulus=idems.modulus, elements=(*idems.elements, 2))

    return enumerate_idempotents


def _long_element(c):
    """The least regular residue of order at least 3, if any."""
    return next((x for x in c.R if c.orders[x] >= 3), None)


def _drop_unit_idempotent(c, m):
    c.Eset = c.Eset - {1}


def _all_idempotent(c, m):
    c.Eset = set(range(1, m + 1))


def _drop_unit_normal(c, m):
    c.Nset = c.Nset - {1}


def _drop_least_idempotent(c, m):
    c.E = c.E[1:]


def _drop_unit_regular(c, m):
    c.Rset = c.Rset - {1}


def _drop_first_regular(c, m):
    c.R = c.R[1:]


def _unit_in_zero_class(c, m):
    c.classes = list(c.classes)
    c.classes[1] = m


def _orbit_without_idempotent(c, m):
    x = _long_element(c)
    if x is not None:
        c.orbits = {**c.orbits, x: c.orbits[x] - {c.classes[x]}}


def _repeats_off(c, m):
    c.repeats = [r + 1 if r else 0 for r in c.repeats]


def _orders_off(c, m):
    x = _long_element(c)
    if x is not None:
        c.orders = list(c.orders)
        c.orders[x] += 1


def _order_off(real):
    def order(m, a):
        n = real(m, a).order
        return SimpleNamespace(order=n + (n > 1))

    return order


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _signed_power_off(real):
    def signed_power(m, a, z):
        x = real(m, a, z)
        return x % m + 1 if z == -1 else x

    return signed_power


def _circ_off(real):
    """r o 1 answered as r o 0, which is still in the kernel."""
    return lambda m, k, r, e, which: real(m, k, r, m if e == 1 else e, which)


def _circ_complement(real):
    """r o e answered as r o (1 - e): the bar identities still hold, and the
    composition law fails."""
    return lambda m, k, r, e, which: real(m, k, r, (1 - e) % m or m, which)


def _images_cut(real):
    return lambda c, k: real(c, k) if k <= 8 else frozenset()


def _images_all(real):
    return lambda c, k: frozenset(range(c.m)) if k == 2 else real(c, k)


def _elements_cut(real):
    return lambda m: SimpleNamespace(elements=real(m).elements[1:])


def _omega_set_cut(real):
    return lambda m, a: SimpleNamespace(omega_set=tuple(real(m, a).omega_set)[1:])


def _least_cut(real):
    return lambda m: real(m)[1:]


def _least_cut_past_one_prime(real):
    """G_m without its least element where m has two or more primes, so a
    modulus loses a root that its prime-power factors keep."""
    return lambda m: real(m)[1:] if len(build_modulus(m).prime_powers) > 1 else real(m)


def _plus_one_on_odd(real):
    """omega_value one too large at odd a, which some equivalent b is not."""
    return lambda m, a: real(m, a) + a % 2


def _negated(real):
    return lambda *args: not real(*args)


def _every_residue(real):
    return lambda m, e=None: list(range(1, m + 1))


def _flip(flag):
    def wrap(real):
        def classify(f, n):
            cls = real(f, n)
            flags = {k: getattr(cls, k) for k in ("is_m", "is_qm", "is_di", "is_di_pp")}
            flags[flag] = not flags[flag]
            return SimpleNamespace(**flags, witnesses=cls.witnesses)

        return classify

    return wrap


_CHECK_FAULTS = {
    "in02": _ctx_fault(_drop_unit_idempotent),
    "in03": _ctx_fault(_all_idempotent),
    "in06": _lib_fault("enumerate_idempotents", _elements_cut),
    "in07": _ctx_fault(_drop_least_idempotent),
    "in11": _ctx_fault(_drop_unit_idempotent),
    "in12": _ctx_fault(_drop_unit_idempotent),
    "nn02": _lib_fault("order", _order_off),
    "nn02-repeats": _ctx_fault(_repeats_off),
    "nn03": _lib_fault("order", _order_off),
    "nn04": _lib_fault("is_normal", _negated),
    "nn05": _ctx_fault(_drop_unit_normal),
    "nn06": _lib_fault("normal_set", _every_residue),
    "nn07": _ctx_fault(_all_idempotent),
    "nn08": _lib_fault("is_normal", _negated),
    "nn08-third": _lib_fault("order", _order_off),
    "rn02": _ctx_fault(_drop_unit_normal),
    "rn03": _lib_fault("order", _order_off),
    "rn03-repeats": _ctx_fault(_repeats_off),
    "rn06": _lib_fault("signed_power", _signed_power_off),
    "rn09": _ctx_fault(_orbit_without_idempotent),
    "rn11": _lib_fault("orbit_gcd", _plus_one),
    "rn13": _ctx_fault(_all_idempotent),
    "rn14": _ctx_fault(_orders_off),
    "rn15": _lib_fault("join_witness", lambda real: lambda m, b, c, a: b),
    "rn16": _lib_fault("is_regular", _negated),
    "rn17": _ctx_fault(_drop_unit_regular),
    "rn18": _lib_fault("is_regular", _negated),
    "rn19": _ctx_fault(_drop_first_regular),
    "rn20": _lib_fault("is_regular", _negated),
    "rn21": _ctx_fault(_drop_unit_regular),
    "rn22": _lib_fault("regular_set", _every_residue),
    "rn23": _ctx_fault(_drop_first_regular),
    "rn24": _lib_fault("index", lambda real: lambda m, b, a: None),
    "rn25": _ctx_fault(_orbit_without_idempotent),
    "rn26": _ctx_fault(_orbit_without_idempotent),
    "rn27": _ctx_fault(_orbit_without_idempotent),
    "rn28": _ctx_fault(_orbit_without_idempotent),
    "rn29": _ctx_fault(_orbit_without_idempotent),
    "rn30": _ctx_fault(_orders_off),
    "rn31": _lib_fault("order", _order_off),
    "rn32": _ctx_fault(_orbit_without_idempotent),
    "rn36": _ctx_fault(_unit_in_zero_class),
    "rn38": _ctx_fault(_orbit_without_idempotent),
    "rn40": _lib_fault("equivalent", lambda real: lambda c, x, y: x <= y),
    "rn41": _lib_fault("order", _order_off),
    "bc01": _lib_fault("solvable_bc01", _negated),
    "bc03": _lib_fault("images", _images_all),
    "bc04": _lib_fault("images", _images_cut),
    "bc05": _lib_fault("idem_class", lambda real: lambda m, a: m),
    "bc06": _ctx_fault(_drop_first_regular),
    "bc08": _lib_fault("images", _images_cut),
    "bc09": _lib_fault("images", _images_cut),
    "pr02": _lib_fault("gen_primitive_roots", _least_cut),
    "pr03": _lib_fault("omega_value", _plus_one_on_odd),
    "pr04": _lib_fault("gen_primitive_roots", _least_cut_past_one_prime),
    "pr05": _lib_fault("omega_info", _omega_set_cut),
    "pr06": _lib_fault("signed_power", _signed_power_off),
    "omega-phi-cyclic": _lib_fault("omega_value", _plus_one),
    "fs09": _lib_fault("classify_function", _flip("is_qm")),
    "fs10": _lib_fault("classify_function", _flip("is_di")),
    "ia02": _algebra_fault("enumerate_idempotents", _with_non_idempotent),
    "ia03": _algebra_fault("_simdiff", _as_sum),
    "ia05": _algebra_fault("_otimes", _as_product),
    "ia06": _algebra_fault("_circ", _as_product),
    "ia07": _algebra_fault("_otimes", _as_product),
    "ia08": _algebra_fault("_circ", _as_product),
    "ia09": _algebra_fault("_otimes", _as_product),
    "ia10": _algebra_fault("_otimes", _as_product),
    "ia11": _algebra_fault("_otimes", _as_product),
    "sd11": _lib_fault(
        "kernel", lambda real: lambda m, k: SimpleNamespace(solutions=range(1, m + 1))),
    "sd13": _lib_fault("kernel_op", _circ_off),
    "sd13-composition": _lib_fault("kernel_op", _circ_complement),
}


@pytest.mark.parametrize("case", _CHECK_FAULTS)
def test_checks_catch_a_fault(case, monkeypatch):
    """A check that computes its reference values once per modulus or per
    operand still compares them: with one compared value made wrong, it
    reports a finding on some small modulus (one it does not report with
    the value right, for the pinned errata).  The 2..100 pin cannot show a
    comparison turned vacuous, since with a correct library it reports
    nothing either way."""
    scope, check = THEOREMS[case if case in THEOREMS else case.rsplit("-", 1)[0]]
    moduli = [0] if scope == "global" else range(2, 31)
    clean = {m: list(check(m)) for m in moduli}
    _CHECK_FAULTS[case](monkeypatch)
    assert any((found := list(check(m))) and found != clean[m] for m in moduli)


def test_registry_covers_every_family():
    families = {tid.rstrip("0123456789").split("-")[0] for tid in THEOREMS}
    assert {"in", "nn", "rn", "bc", "pr", "fs", "ia", "sd"} <= families
