"""Operators on the idempotents and the subset isomorphism.

E_m carries four operators: the complement e -> (1-e), the group operation
e1 o e2 = e1*e2 + (1-e1)(1-e2), the meet e1 (x) e2 = complement of the
product of complements, and the difference-style simdiff.  Mapping each e to
the set of prime-power divisors of m dividing it turns these into the usual
set operations (symmetric difference, intersection, set minus), making E_m a
Boolean ring.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .arith import Modulus, canon, canonicalize
from .idempotents import enumerate_idempotents, is_idempotent

OPS = ("complement", "circ", "otimes", "simdiff")


def _check_idem(m: int, e: int) -> int:
    e = canonicalize(e, m)
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return e


def complement(m: int, e: int) -> int:
    return canon(1 - _check_idem(m, e), m)


def circ(m: int, e1: int, e2: int) -> int:
    e1 = _check_idem(m, e1)
    e2 = _check_idem(m, e2)
    return canon(e1 * e2 + (1 - e1) * (1 - e2), m)


def otimes(m: int, e1: int, e2: int) -> int:
    e1 = _check_idem(m, e1)
    e2 = _check_idem(m, e2)
    return canon(1 - (1 - e1) * (1 - e2), m)


def simdiff(m: int, e1: int, e2: int) -> int:
    """Named to avoid clashing with the equivalence relation on residues."""
    e1 = _check_idem(m, e1)
    e2 = _check_idem(m, e2)
    return canon(1 - (1 - e1) * e2, m)


def idem_op(m: int, op: str, e1: int, e2: int | None = None) -> int:
    if op == "complement":
        if e2 is not None:
            raise ValueError("complement takes a single operand")
        return complement(m, e1)
    if e2 is None:
        raise ValueError(f"{op} needs two operands")
    if op == "circ":
        return circ(m, e1, e2)
    if op == "otimes":
        return otimes(m, e1, e2)
    if op == "simdiff":
        return simdiff(m, e1, e2)
    raise ValueError(f"unknown operator {op!r}; choose one of {OPS}")


@dataclass(frozen=True)
class BasisMap:
    modulus: Modulus
    basis: tuple[int, ...]  # the prime-power divisors p^a || m
    member_sets: dict[int, frozenset[int]]  # e -> {q in basis : q | e}


def basis_map(m: int) -> BasisMap:
    idems = enumerate_idempotents(m)
    basis = idems.modulus.prime_powers
    sets = {e: frozenset(q for q in basis if e % q == 0) for e in idems.elements}
    return BasisMap(idems.modulus, basis, sets)


@dataclass
class LawReport:
    law: str
    passed: bool
    counterexample: tuple | None = None


@dataclass
class AlgebraReport:
    modulus: Modulus
    laws: list[LawReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(l.passed for l in self.laws)

    def record(self, law: str, witness: tuple | None):
        self.laws.append(LawReport(law, witness is None, witness))


def verify_algebra(m: int, sample: int = 40) -> AlgebraReport:
    """Check the group/ring laws and identity catalog on E_m.

    Universally quantified integer coefficients (the mixing identities) are
    sampled: every pair in Z_m for small m, a fixed-seed random sample
    beyond.  All idempotent-only laws are checked exhaustively.
    """
    idems = enumerate_idempotents(m)
    es = idems.elements
    rep = AlgebraReport(idems.modulus)

    # Mixing identities (ae + b(1-e))(ce + d(1-e)) = (ac)e + (bd)(1-e).
    if m <= 100:
        coeffs = [(a, b) for a in range(m) for b in range(m)]
    else:
        rng = random.Random(m)
        coeffs = [(rng.randrange(m), rng.randrange(m)) for _ in range(sample)]
    witness = None
    for e in es:
        eb = 1 - e
        for (a, b), (c, d) in zip(coeffs, reversed(coeffs)):
            lhs = (a * e + b * eb) * (c * e + d * eb) % m
            rhs = (a * c % m * e + b * d % m * eb) % m
            if lhs != rhs:
                witness = (e, a, b, c, d, lhs, rhs)
                break
        if witness:
            break
    rep.record("mixing-product", witness)

    witness = None
    for e in es:
        eb = 1 - e
        for (a, b) in coeffs[:sample]:
            n = (a + b) % 7 + 2
            lhs = pow(a * e + b * eb, n, m)
            rhs = (pow(a, n, m) * e + pow(b, n, m) * eb) % m
            if lhs != rhs:
                witness = (e, a, b, n, lhs, rhs)
                break
        if witness:
            break
    rep.record("mixing-power", witness)

    # Closure of all four operators.
    w = None
    for e1 in es:
        if not is_idempotent(m, complement(m, e1)):
            w = ("complement", e1)
            break
        for e2 in es:
            for op in ("circ", "otimes", "simdiff"):
                if not is_idempotent(m, idem_op(m, op, e1, e2)):
                    w = (op, e1, e2)
                    break
            if w:
                break
        if w:
            break
    rep.record("closure", w)

    # (E_m, o): Abelian group, identity 1, every element self-inverse.
    w = None
    one = canon(1, m)
    zero = m
    for e in es:
        if circ(m, e, one) != e or circ(m, e, e) != one:
            w = ("identity/involution", e)
            break
    if w is None:
        for e1 in es:
            for e2 in es:
                if circ(m, e1, e2) != circ(m, e2, e1):
                    w = ("commutativity", e1, e2)
                    break
                for e3 in es:
                    if circ(m, circ(m, e1, e2), e3) != circ(m, e1, circ(m, e2, e3)):
                        w = ("associativity", e1, e2, e3)
                        break
                if w:
                    break
            if w:
                break
    rep.record("circ-group", w)

    # Translation by a fixed element permutes E_m.
    w = None
    for e2 in es:
        if len({circ(m, e2, e) for e in es}) != len(es):
            w = ("translation", e2)
            break
    rep.record("circ-translation-injective", w)

    # otimes: commutative, associative, distributive laws.
    w = None
    for e1 in es:
        for e2 in es:
            if otimes(m, e1, e2) != otimes(m, e2, e1):
                w = ("otimes-commutativity", e1, e2)
                break
            for e3 in es:
                if otimes(m, otimes(m, e1, e2), e3) != otimes(m, e1, otimes(m, e2, e3)):
                    w = ("otimes-associativity", e1, e2, e3)
                    break
                if canon(e1 * otimes(m, e2, e3), m) != otimes(
                    m, canon(e1 * e2, m), canon(e1 * e3, m)
                ):
                    w = ("mul-distributes-over-otimes", e1, e2, e3)
                    break
                if otimes(m, e1, circ(m, e2, e3)) != circ(
                    m, otimes(m, e1, e2), otimes(m, e1, e3)
                ):
                    w = ("otimes-distributes-over-circ", e1, e2, e3)
                    break
            if w:
                break
        if w:
            break
    rep.record("otimes-ring", w)

    # Identity catalog: complement pairing, circ specials, otimes specials.
    w = None
    for e in es:
        eb = complement(m, e)
        checks = [
            canon(e * eb, m) == zero,
            canon(e + eb, m) == one,
            circ(m, e, eb) == zero,
            circ(m, e, zero) == eb,
            otimes(m, e, e) == e,
            otimes(m, e, one) == one,
            otimes(m, e, eb) == one,
            otimes(m, e, zero) == e,
        ]
        if not all(checks):
            w = ("specials", e, checks)
            break
    if w is None:
        for e1 in es:
            for e2 in es:
                eb1, eb2 = complement(m, e1), complement(m, e2)
                checks = [
                    complement(m, circ(m, e1, e2)) == circ(m, eb1, e2),
                    circ(m, eb1, e2) == circ(m, e1, eb2),
                    circ(m, e1, e2) == canon((e1 + eb2) * (eb1 + e2), m),
                    circ(m, e1, e2) == canon((e1 - eb2) ** 2, m),
                    canon(otimes(m, e1, e2) - otimes(m, eb1, eb2), m)
                    == canon(e1 * e2 - eb1 * eb2, m),
                    canon((otimes(m, e1, e2) - otimes(m, eb1, eb2)) ** 2, m)
                    == circ(m, e1, e2),
                    complement(m, otimes(m, eb1, eb2)) == canon(e1 * e2, m),
                    otimes(m, canon(e1 * e2, m), canon(eb1 * eb2, m))
                    == circ(m, e1, e2),
                    otimes(m, e1, e2) == canon(e1 + e2 - e1 * e2, m),
                ]
                if not all(checks):
                    w = ("pair-identities", e1, e2, checks)
                    break
            if w:
                break
    rep.record("identity-catalog", w)

    # (e1 o e)(x)(e2 o e) decomposition and the n-ary otimes form.
    w = None
    for e1 in es:
        for e2 in es:
            for e in es:
                lhs = otimes(m, circ(m, e1, e), circ(m, e2, e))
                rhs = canon(
                    otimes(m, e1, e2) * e
                    + otimes(m, complement(m, e1), complement(m, e2))
                    * (1 - e),
                    m,
                )
                if lhs != rhs:
                    w = ("shift-decomposition", e1, e2, e)
                    break
            if w:
                break
        if w:
            break
    if w is None and len(es) >= 2:
        for tup in itertools.islice(itertools.product(es, repeat=3), 512):
            acc = tup[0]
            prod = canon(1 - tup[0], m)
            for e in tup[1:]:
                acc = otimes(m, acc, e)
                prod = prod * (1 - e) % m
            if acc != canon(1 - prod, m):
                w = ("nary-otimes", tup)
                break
    rep.record("otimes-nary", w)

    # Basis bijection: five operator/set-operation correspondences.
    bm = basis_map(m)
    sets = bm.member_sets
    full = frozenset(bm.basis)
    w = None
    if len(set(sets.values())) != len(es):
        w = ("bijection",)
    if w is None:
        for e1 in es:
            for e2 in es:
                pairs = [
                    (sets[complement(m, e1)], full - sets[e1]),
                    (sets[canon(e1 * e2, m)], sets[e1] | sets[e2]),
                    (sets[otimes(m, e1, e2)], sets[e1] & sets[e2]),
                    (sets[simdiff(m, e1, e2)], sets[e1] - sets[e2]),
                    (sets[circ(m, e1, e2)], sets[e1] ^ sets[e2]),
                ]
                if any(x != y for x, y in pairs):
                    w = ("basis-identity", e1, e2)
                    break
            if w:
                break
    rep.record("basis-map", w)

    return rep
