"""Factored-modulus arithmetic: totients, canonicalization, CRT, and the
int-modulus boundary of the public API."""
import copy
import inspect
import math
import random
from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import idemod
from idemod import arith
from idemod.arith import (
    EnumerationCapError,
    Factorization,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    crt_combine,
    factorize,
    mod_pow,
    multiplicative_order,
    valuation,
)
from idemod.congruence import gen_primitive_roots, omega_info, omega_set, solvable_bc01
from idemod.idempotents import signed_power
from idemod.quadratic import class_kernel_op, kernel, kernel_op
from idemod.residues import (
    class_members, normal_set, order_table, regular_set, structure_table)


def _brute_phi_sieve(n):
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


@lru_cache(maxsize=None)
def _brute_unit_count(q):
    """Number of units mod q, by direct gcd scan."""
    return sum(1 for u in range(1, q + 1) if math.gcd(u, q) == 1)


def test_phi_psi_brute_force_agreement_and_divisibility():
    phi = _brute_phi_sieve(2000)
    for m in range(1, 2001):
        mod = build_modulus(m)
        assert mod.phi == phi[m]
        brute_psi = math.lcm(
            *(_brute_unit_count(p**a) for p, a in mod.factorization.factors)
        )
        assert mod.psi == brute_psi
        assert mod.phi % mod.psi == 0


def test_omega_square_free_flags():
    for m in range(1, 2001):
        mod = build_modulus(m)
        assert mod.omega == len(mod.factorization.factors)
        assert mod.square_free == all(a == 1 for _, a in mod.factorization.factors)


def test_parity_flags_odd_m():
    for m in range(1, 1001, 2):
        mod = build_modulus(m)
        assert mod.weakly_even
        assert not mod.barely_even


def test_parity_flags_even_m():
    assert build_modulus(2).barely_even and build_modulus(2).weakly_even
    assert not build_modulus(4).barely_even and build_modulus(4).weakly_even
    assert not build_modulus(8).weakly_even
    assert build_modulus(12).weakly_even and not build_modulus(12).barely_even


@given(a=st.integers(-(10**9), 10**9), m=st.integers(1, 500))
def test_canonicalize_congruent_and_in_range(a, m):
    c = canonicalize(a, m)
    assert 1 <= c <= m
    assert (c - a) % m == 0


def test_canon_zero_class():
    assert canon(0, 12) == 12
    assert canon(12, 12) == 12
    assert canon(-12, 12) == 12
    assert canon(-1, 12) == 11


@given(st.data())
@settings(max_examples=200)
def test_crt_roundtrip(data):
    primes = [2, 3, 5, 7, 11, 13]
    chosen = data.draw(st.lists(st.sampled_from(primes), unique=True, min_size=1))
    pairs = []
    for p in chosen:
        exp = data.draw(st.integers(1, 3))
        q = p**exp
        pairs.append((data.draw(st.integers(0, q - 1)), q))
    x = crt_combine(pairs)
    assert 1 <= x <= math.prod(q for _, q in pairs)
    for a, q in pairs:
        assert x % q == a % q


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 4)])


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        Factorization(4, ((2, 0),))


@given(n=st.integers(1, 10**6))
@settings(max_examples=300)
def test_factorize_reconstructs(n):
    fact = factorize(n)
    assert math.prod(p**a for p, a in fact.factors) == n
    for p, _ in fact.factors:
        assert p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1)), p


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    fact = factorize(n)
    assert fact.factors == ((1000003, 1), (1000033, 1))
    # A repeated prime beyond trial division is split by its exact root.
    assert factorize(3 * 1000003**2).factors == ((3, 1), (1000003, 2))


def _no_rho(n):
    raise AssertionError(f"Pollard rho reached {n}")


def test_perfect_powers_never_reach_rho(monkeypatch):
    """An exact k-th power is split by its integer k-th root: rho on p^2
    needs about sqrt(p) steps, some 2^30 of them for p = 2^61 - 1."""
    monkeypatch.setattr(arith, "_brent_rho", _no_rho)
    for p in (1031, 65537, 1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1):
        for k in range(2, 7):
            assert factorize(p**k).factors == ((p, k),), (p, k)
    assert factorize(3 * 1000003**2).factors == ((3, 1), (1000003, 2))


def test_a_composite_root_is_split_once(monkeypatch):
    """The root r of a perfect power r^k is factored once, not k times:
    one rho split for (p*q)^3, two for (p*q*s)^2."""
    calls = []
    rho = arith._brent_rho

    def counted(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    p, q, s = 1000003, 1000033, 1000037
    for n, factors, splits in [
        ((p * q) ** 3, ((p, 3), (q, 3)), 1),
        ((p * q * s) ** 2, ((p, 2), (q, 2), (s, 2)), 2),
    ]:
        calls.clear()
        assert factorize(n).factors == factors
        assert len(calls) == splits, calls


def _random_prime(rng, bits):
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            return p


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    cases = [rng.randrange(1, 1 << 72) for _ in range(60)]
    for bits in range(20, 33, 2):  # balanced semiprimes
        cases.append(_random_prime(rng, bits) * _random_prime(rng, bits))
    for p in (1031, 65537, 1000003, _random_prime(rng, 24)):  # p > 2^10
        cases += [p**2, p**3]
    cases += [561, 41041, 825265]  # Carmichael numbers
    cases += [3 * 1000003**4, 1021 * 65537**3]  # small prime times prime power
    # A strong pseudoprime to the first 12 prime bases, so a composite that
    # Miller-Rabin on bases 2..37 takes for a prime.
    cases.append(399165290221 * 798330580441)
    # Powers that are not perfect, and perfect powers with a composite root.
    for p, q in ((1031, 1033), (65537, _random_prime(rng, 24))):
        cases += [p**2 * q, p**3 * q**2, (p * q) ** 2]
    for n in cases:
        assert dict(factorize(n).factors) == sympy.factorint(n), n


# Jaeschke's psi_t, the least strong pseudoprime to the first t prime bases,
# for t = 1..7 and 9; psi_8 = psi_7.
_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
        3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051)


@pytest.mark.parametrize("psi", _PSI)
def test_least_strong_pseudoprimes_are_composite(psi):
    """Miller-Rabin takes the fewest bases proven below n's size: psi_t
    itself needs one more base than the numbers below it."""
    assert not arith._is_probable_prime(psi)
    assert len(factorize(psi).factors) > 1


def _trial_factors(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_factorize_matches_trial_division_exhaustively():
    for n in range(1, 200_001):
        assert dict(factorize(n).factors) == _trial_factors(n), n


def test_factorize_matches_sympy_on_random_40_to_64_bit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4064)
    for _ in range(300):
        n = rng.randrange(1 << 39, 1 << 64)
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_mod_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        mod_pow(12, 5, 0)
    assert mod_pow(12, 5, 2) == 1
    assert mod_pow(12, -1, 2) == 1


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_multiplicative_order_matches_brute_force():
    for n in range(1, 200):
        for a in range(1, n + 1):
            if math.gcd(a, n) != 1:
                continue
            x = a % n
            k = 1
            while x != 1 % n:
                x = x * a % n
                k += 1
            assert multiplicative_order(a, n) == k


def test_enumeration_cap(enum_cap):
    enum_cap(100)
    with pytest.raises(EnumerationCapError):
        check_enum(101)
    check_enum(100)


# The library's entry points that are refused by m.  enumerate_idempotents
# is left out on purpose: it has no cap, since verify_algebra reads it on
# 40-64-bit moduli, and the idempotents command checks m itself.
_CAPPED_BY_M = {
    "omega_info": lambda: omega_info(50, 3),
    "omega_set": lambda: omega_set(50, 3),
    "gen_primitive_roots": lambda: gen_primitive_roots(50),
    "order_table": lambda: order_table(50),
    "class_members": lambda: class_members(50, 1),
    "regular_set-class": lambda: regular_set(50, 1),
    "structure_table": lambda: structure_table(50),
    "regular_set": lambda: regular_set(50),
    "normal_set": lambda: normal_set(50),
    "kernel": lambda: kernel(50, 3),
}


@pytest.mark.parametrize("name", _CAPPED_BY_M)
def test_a_lowered_cap_refuses_an_answer_held_in_a_memo(name, enum_cap):
    """Each entry point checks the cap on every call, before its memo: an
    answer given under the default cap is refused once the cap is lowered,
    as in a fresh process."""
    call = _CAPPED_BY_M[name]
    call()
    enum_cap(10)
    with pytest.raises(EnumerationCapError):
        call()


def test_public_api_takes_int_moduli():
    for name in idemod.__all__:
        fn = getattr(idemod, name)
        if not callable(fn):
            continue
        param = inspect.signature(fn).parameters.get("m")
        if param is not None:
            assert "Modulus" not in str(param.annotation), name
    idemod.order.cache_clear()
    idemod.order(12, 5)
    idemod.order(12, 5)
    info = idemod.order.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _outcome(fn, m, *args):
    """fn(m, *args), or the class and text of the ValueError it raises."""
    try:
        return fn(m, *args)
    except ValueError as exc:
        return ValueError, str(exc)


def _boundary_cases(m):
    """(entry point, base arguments) for the entry points that reduce their
    residues at the boundary, each wrapped to take m and residues only.
    The bases are canonical, and each residue position takes every value
    in 1..m in some base."""
    res = range(1, m + 1)
    kernels = {k: [r for r in res if r * r % m == k * r % m] for k in res}
    # Each list of valid operands, and one that fails where there is one.
    bad = {k: ks + [r for r in res if r not in ks][:1] for k, ks in kernels.items()}
    idems = bad[1]
    cases = [(lambda m, a: canonicalize(a, m), (a,)) for a in res]
    for fn in (idemod.is_idempotent, idemod.is_regular, idemod.mu):
        cases += [(fn, (a,)) for a in res]
    cases += [(lambda m, a: tuple(signed_power(m, a, z) for z in range(-3, 4)), (a,))
              for a in res]
    cases += [(lambda m, a: tuple(_outcome(solvable_bc01, m, k, a)
                                  for k in range(0, 5)), (a,)) for a in res]
    for fn in (idemod.index, idemod.orbit_gcd, idemod.relative_order):
        cases += [(fn, (b, c)) for b in res for c in res]
    cases += [(idemod.join_witness, (b, c, b)) for b in res for c in res]

    def kernel_ops(m, k, r, e):
        return tuple(_outcome(kernel_op, m, k, r, e, which)
                     for which in ("circ", "otimes", "neither"))

    def class_kernel_ops(m, e, r1, r2):
        return tuple(_outcome(class_kernel_op, m, e, r1, r2, which)
                     for which in ("circ", "otimes", "neither"))

    cases += [(kernel_ops, (k, r, e)) for k in res for r in bad[k] for e in idems]
    cases += [(kernel_ops, (m, m, e)) for e in res]
    cases += [(class_kernel_ops, (e, r, s))
              for e in res for r in bad[e] for s in bad[e][:1]]
    cases += [(class_kernel_ops, (e, bad[e][0], s)) for e in res for s in bad[e]]
    return cases


@pytest.mark.parametrize("m", range(1, 41))
def test_entry_points_reduce_any_integer_residue(m):
    """Each entry point that reduces its residues at the boundary answers,
    or raises the same error, with any residue argument moved to a value in
    -2m..3m as with its canonical residue, and with all of them moved at
    once."""
    for fn, base in _boundary_cases(m):
        want = _outcome(fn, m, *base)
        for j in (-3, -2, -1, 1, 2):
            moved = [(*base[:i], x + j * m, *base[i + 1:]) for i, x in enumerate(base)]
            moved.append(tuple(x + j * m for x in base))
            for args in moved:
                if min(args) >= -2 * m:
                    assert _outcome(fn, m, *args) == want, (fn, m, args)


@pytest.mark.parametrize("m", [0, -5])
@pytest.mark.parametrize("call", [
    lambda m: canonicalize(1, m),
    lambda m: idemod.is_idempotent(m, 1),
    lambda m: idemod.is_regular(m, 1),
    lambda m: idemod.mu(m, 1),
    lambda m: signed_power(m, 1, 2),
    lambda m: signed_power(m, 1, -1),
    lambda m: idemod.index(m, 1, 1),
    lambda m: idemod.orbit_gcd(m, 1, 1),
    lambda m: idemod.relative_order(m, 1, 1),
    lambda m: idemod.join_witness(m, 1, 1, 1),
    lambda m: kernel_op(m, 1, 1, 1, "circ"),
    lambda m: class_kernel_op(m, 1, 1, 1, "circ"),
    lambda m: solvable_bc01(m, 2, 1),
])
def test_entry_points_reject_a_modulus_below_1(call, m):
    with pytest.raises(ValueError, match="invalid modulus"):
        call(m)


def _record_samples():
    """One sample per record class of the package: (class, its field names
    in order, values for them)."""
    from idemod.algebra import AlgebraReport, BasisMap, LawReport
    from idemod.audit import AuditFinding, AuditReport, TheoremResult
    from idemod.units import UnitGroup

    mod = build_modulus(12)
    idems = idemod.IdempotentSet(mod, (1, 4, 9, 12))
    regs = array("l", [1, 4, 5])
    return [
        (Factorization, ("value", "factors"), (12, ((2, 2), (3, 1)))),
        (idemod.Modulus,
         ("m", "factorization", "phi", "psi", "omega", "square_free",
          "weakly_even", "barely_even"),
         (12, mod.factorization, 4, 2, 2, False, True, False)),
        (idemod.IdempotentSet, ("modulus", "elements"), (mod, (1, 4, 9, 12))),
        (idemod.OrderInfo, ("modulus", "a", "order", "idem_class"), (mod, 5, 2, 1)),
        (idemod.ResidueClassification,
         ("modulus", "a", "is_normal", "is_regular", "order", "idem_class",
          "mu", "delta"),
         (mod, 5, True, True, 2, 1, 12, 1)),
        (idemod.OrbitSet, ("modulus", "generator", "elements"),
         (mod, 5, frozenset({1, 5}))),
        (UnitGroup, ("q", "orders", "generators"), (16, (2, 4), (15, 5))),
        (idemod.StructureTable,
         ("modulus", "idempotents", "regulars", "orders", "by_class"),
         (mod, idems, regs, array("l", [0, 1, 2]), {1: array("l", [1, 5])})),
        (idemod.CongruenceSolution,
         ("modulus", "k", "a", "solutions", "regular_solutions", "solvable",
          "bc01_verdict"),
         (mod, 2, 4, (2, 4, 8, 10), (4, 8), True, None)),
        (idemod.OmegaInfo, ("modulus", "a", "omega_a", "omega_set", "ind_sup"),
         (mod, 5, 2, (5, 7), 1)),
        (idemod.OrbitUnionSize,
         ("modulus", "e", "k", "true_size", "formula_value"), (mod, 1, 2, 4, 6)),
        (idemod.FunctionClassification,
         ("domain_bound", "is_m", "is_qm", "is_di", "is_di_pp", "witnesses"),
         (30, False, True, True, True, {"m": (2, 4)})),
        (BasisMap, ("modulus", "basis", "member_sets"),
         (mod, (4, 3), {4: frozenset({4})})),
        (LawReport, ("law", "passed", "counterexample"), ("closure", False, (4, 9))),
        (AlgebraReport, ("modulus", "laws"),
         (mod, [LawReport("closure", True, counterexample=None)])),
        (idemod.QuadraticKernel, ("modulus", "k", "solutions"), (mod, 5, (5, 12))),
        (idemod.SqrtStructure,
         ("modulus", "e", "roots", "size_formula", "product", "product_formula"),
         (mod, 1, (1, 5, 7, 11), 4, 1, 1)),
        (AuditFinding, ("theorem_id", "modulus", "witness", "expected", "actual"),
         ("fs05", 12, {"a": 5}, 2, 3)),
        (TheoremResult, ("theorem_id", "status", "findings"),
         ("fs05", "counterexamples", [AuditFinding("fs05", 12, {}, 1, 2)])),
        (AuditReport, ("lo", "hi", "results"),
         (2, 12, [TheoremResult("fs05", "verified-on-range", findings=[])])),
    ]


_RECORDS = _record_samples()


@pytest.mark.parametrize("cls, fields, values", _RECORDS,
                         ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_records_are_values(cls, fields, values):
    """Each record builds from positional or keyword fields, compares equal
    only to a record of its own class with equal fields, hashes like the
    tuple of its fields, prints its fields in order and is read-only."""
    rec = cls(*values)
    assert all(getattr(rec, f) is v for f, v in zip(fields, values))
    assert rec == cls(**dict(zip(fields, values)))
    twin = cls(*copy.deepcopy(values))
    assert rec == twin and not rec != twin
    assert rec != values and values != rec and not rec == values

    class Lookalike(cls):
        pass

    assert rec != Lookalike(*values) and Lookalike(*values) != rec
    for bad in [(*values, 0), ()]:
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values, bogus=0)
    if cls is idemod.Modulus:
        assert repr(rec) == "Modulus(12)"
    else:
        assert repr(rec) == cls.__qualname__ + "(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    try:
        expected = hash(values)
    except TypeError:  # a dict or array field
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == expected
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert all(getattr(rec, f) is v for f, v in zip(fields, values))


def _record_classes(cls=arith.Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_records_take_generated_constructors():
    """No record of the package, the audit's included, has a hand-written
    __init__: each takes the one generated from its fields."""
    import idemod.audit  # noqa: F401  defines the audit's records

    records = [c for c in _record_classes() if c.__module__.startswith("idemod.")]
    assert len(records) >= 19
    for cls in records:
        code = cls.__init__.__code__
        assert code.co_filename == "<record>", cls
        assert code.co_varnames[1:code.co_argcount] == cls._fields, cls


def test_record_fields_are_all_required():
    """No record of the package, the audit's included, has a class attribute
    named after one of its fields, so leaving out any field is a TypeError."""
    import idemod.audit  # noqa: F401  defines the audit's records

    for cls in _record_classes():
        if cls.__module__.startswith("idemod."):
            assert not [f for f in cls._fields if hasattr(cls, f)], cls
    for cls, fields, values in _RECORDS:
        for left_out in fields:
            with pytest.raises(TypeError, match=left_out):
                cls(**{f: v for f, v in zip(fields, values) if f != left_out})


def test_record_subclass_builds_with_its_own_fields():
    """A record declared after its parent has built one adds its fields
    after the parent's and keeps the parent's __post_init__."""
    parent = Factorization(12, ((2, 2), (3, 1)))

    class Named(Factorization):
        name: str

    assert Named._fields == ("value", "factors", "name")
    rec = Named(12, ((2, 2), (3, 1)), "twelve")
    assert (rec.value, rec.factors, rec.name) == (12, parent.factors, "twelve")
    assert rec != parent
    with pytest.raises(TypeError):
        Named(12, ((2, 2), (3, 1)))
    assert Factorization(12, ((2, 2), (3, 1))) == parent
    with pytest.raises(TypeError):
        Factorization(12, ((2, 2), (3, 1)), "twelve")
    with pytest.raises(ValueError, match="do not multiply to 12"):
        Named(12, ((2, 1),), "twelve")


@pytest.mark.parametrize("value, factors, message", [
    (4, ((2, 0),), "nonpositive exponent"),
    (12, ((2, 1), (3, 1)), "do not multiply to 12"),
    (12, ((3, 1), (2, 2)), "distinct and ascending"),
    (36, ((2, 1), (2, 1), (3, 2)), "distinct and ascending"),
])
def test_factorization_rejects_each_bad_record(value, factors, message):
    with pytest.raises(ValueError, match=message):
        Factorization(value, factors)
    with pytest.raises(ValueError, match=message):
        Factorization(value=value, factors=factors)
