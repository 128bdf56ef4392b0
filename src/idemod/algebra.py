"""Operators on the idempotents and the subset isomorphism.

E_m carries four operators: the complement e -> (1-e), the group operation
e1 o e2 = e1*e2 + (1-e1)(1-e2), the meet e1 (x) e2 = complement of the
product of complements, and the difference-style simdiff.  Mapping each e to
the set of prime-power divisors of m dividing it turns these into the usual
set operations (symmetric difference, intersection, set minus), making E_m a
Boolean ring.

verify_algebra checks nine laws by brute force on E_m.  The basis map
compares each operator's value at every pair with the set operation it
should be.  When it passes, the laws below hold, so they are scanned only
when it fails, and then in full: they are the only source of their
counterexamples.  With ab for the product, a' for 1 - a, o = a (x) b and
ob = a' (x) b':

  closure       a', a o b, a (x) b and simdiff(a, b) lie in E_m
  circ-group    a o 1 = a,  a o a = 1,  a o b = b o a,
                (a o b) o c = a o (b o c)
  circ-translation-injective   b -> a o b is one-to-one on E_m
  otimes-ring   a (x) b = b (x) a,  (a (x) b) (x) c = a (x) (b (x) c),
                a(b (x) c) = ab (x) ac,  a (x) (b o c) = (a (x) b) o (a (x) c)
  identity-catalog
                aa' = 0,  a + a' = 1,  a o a' = 0,  a o 0 = a',  a (x) a = a,
                a (x) 1 = 1,  a (x) a' = 1,  a (x) 0 = a;  (a o b)' = a' o b
                = a o b',  a o b = (a + b')(a' + b) = (a - b')^2 = (o - ob)^2,
                o - ob = ab - a'b',  ob' = ab,  ab (x) a'b' = a o b,
                o = a + b - ab
  otimes-nary   (a o e) (x) (b o e) = o e + ob e',
                (a (x) b) (x) c = 1 - a'b'c'

The premise is that the members of E_m that enumerate_idempotents returns
are idempotents.  The mixing laws test it (mixing-product's sides differ by
(a - b)(c - d)(e^2 - e)), and the audit's in06 compares the list with brute
force.  Given it:

- By CRT an idempotent is 0 or 1 in each prime-power component p^a of m, and
  its member set holds the components where it is 0.  On 0/1 components the
  formulas are the Boolean operations a' = 1 - a, ab, a o b = ab + a'b',
  a (x) b = 1 - a'b' and simdiff(a, b) = 1 - a'b.
- A passing basis map says that distinct members have distinct sets, and
  that at every pair each formula's value has a member set, the set
  operation on its operands' sets.  So every value lies in E_m (closure),
  with the 0/1 components its Boolean operation gives.
- Then each side of each equation above is, component by component, an
  integer polynomial in its operands' 0/1 components, and the equation holds
  modulo every p^a, hence modulo m, if its sides are equal integers at each
  of the 2, 4 or 8 assignments of 0 and 1.  They are.  Between operator
  terms alone this is Birkhoff's theorem (1935): a Boolean equation holds on
  the subsets of the omega prime powers iff it holds on {0, 1}.  The
  catalog's other sides, such as (a - b')^2 or ab - a'b' (which takes the
  value -1), equal their partners as integers at every assignment.
- Translation by a is symmetric difference with a's set, a permutation of
  the subsets, and distinct members have distinct sets: it is one-to-one.
"""
from __future__ import annotations

import random
from functools import partial
from itertools import islice, product

from .arith import Modulus, Record, canon, canonicalize
from .idempotents import enumerate_idempotents, is_idempotent

# Pairs sampled from Z_m^2 beyond m = 100, and for every m the size of
# mixing-power's prefix of the coefficient pairs and of its spread over them.
SAMPLE = 40


# The operator formulas, for operands known to be canonical idempotents.
def _complement(m: int, e: int) -> int:
    return canon(1 - e, m)


def _circ(m: int, e1: int, e2: int) -> int:
    return canon(e1 * e2 + (1 - e1) * (1 - e2), m)


def _otimes(m: int, e1: int, e2: int) -> int:
    return canon(1 - (1 - e1) * (1 - e2), m)


def _simdiff(m: int, e1: int, e2: int) -> int:
    return canon(1 - (1 - e1) * e2, m)


def _product(m: int, e1: int, e2: int) -> int:
    return canon(e1 * e2, m)


OPS = ("complement", "circ", "otimes", "simdiff")


def _check_idem(m: int, e: int) -> int:
    e = canonicalize(e, m)
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return e


def complement(m: int, e: int) -> int:
    return _complement(m, _check_idem(m, e))


def circ(m: int, e1: int, e2: int) -> int:
    return _circ(m, _check_idem(m, e1), _check_idem(m, e2))


def otimes(m: int, e1: int, e2: int) -> int:
    return _otimes(m, _check_idem(m, e1), _check_idem(m, e2))


def simdiff(m: int, e1: int, e2: int) -> int:
    """Named to avoid clashing with the equivalence relation on residues."""
    return _simdiff(m, _check_idem(m, e1), _check_idem(m, e2))


def idem_op(m: int, op: str, e1: int, e2: int | None = None) -> int:
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}; choose one of {OPS}")
    if op == "complement":
        if e2 is not None:
            raise ValueError("complement takes a single operand")
        return complement(m, e1)
    if e2 is None:
        raise ValueError(f"{op} needs two operands")
    return {"circ": circ, "otimes": otimes, "simdiff": simdiff}[op](m, e1, e2)


class BasisMap(Record):
    modulus: Modulus
    basis: tuple[int, ...]  # the prime-power divisors p^a || m
    member_sets: dict[int, frozenset[int]]  # e -> {q in basis : q | e}


def basis_map(m: int) -> BasisMap:
    idems = enumerate_idempotents(m)
    basis = idems.modulus.prime_powers
    sets = {e: frozenset(q for q in basis if e % q == 0) for e in idems.elements}
    return BasisMap(idems.modulus, basis, sets)


class LawReport(Record):
    law: str
    passed: bool
    counterexample: tuple | None


class AlgebraReport(Record):
    modulus: Modulus
    laws: list[LawReport]

    @property
    def ok(self) -> bool:
        return all(l.passed for l in self.laws)




def verify_algebra(m: int) -> AlgebraReport:
    """Check the group/ring laws and identity catalog on E_m.  Each law is a
    generator of its counterexamples, and the report records the first, in
    the laws' order.  The mixing identities take their integer coefficients
    from all of Z_m^2 for m <= 100 and from a fixed-seed sample beyond.

    The mixing laws and the basis map always run, and the basis map keeps no
    table.  The other laws hold when it passes (see the module docstring),
    so they scan E_m, in full and through the formulas, only when it fails:
    a sound E_m costs |E_m|^2 calls of each binary formula and O(|E_m|)
    memory."""
    idems = enumerate_idempotents(m)
    es = idems.elements
    one = canon(1, m)
    zero = m
    if m <= 100:
        coeffs = list(product(range(m), repeat=2))
    else:
        rng = random.Random(m)
        coeffs = [(rng.randrange(m), rng.randrange(m)) for _ in range(SAMPLE)]
    # The formulas are looked up here, so one patched on the module reaches
    # every law.
    comp = partial(_complement, m)
    C, O, S, P = (partial(f, m) for f in (_circ, _otimes, _simdiff, _product))

    def mixing_product():
        """(ae + b(1-e))(ce + d(1-e)) = (ac)e + (bd)(1-e)."""
        terms = [(a, b, c, d, a * c % m, b * d % m)
                 for (a, b), (c, d) in zip(coeffs, reversed(coeffs))]
        for e in es:
            for a, b, c, d, ac, bd in terms:
                lhs = (a * e + b * (1 - e)) * (c * e + d * (1 - e)) % m
                rhs = (ac * e + bd * (1 - e)) % m
                if lhs != rhs:
                    yield e, a, b, c, d, lhs, rhs

    def mixing_power():
        """(ae + b(1-e))^n = a^n e + b^n (1-e): first SAMPLE pairs, then a spread."""
        pairs = coeffs[:SAMPLE] + coeffs[SAMPLE::max(1, len(coeffs) // SAMPLE)]
        terms = []
        for a, b in pairs:
            n = (a + b) % 7 + 2
            terms.append((a, b, n, pow(a, n, m), pow(b, n, m)))
        for e, (a, b, n, an, bn) in product(es, terms):
            lhs = pow(a * e + b * (1 - e), n, m)
            rhs = (an * e + bn * (1 - e)) % m
            if lhs != rhs:
                yield e, a, b, n, lhs, rhs

    def closure():
        """All four operators map E_m into E_m."""
        binary = {"circ": C, "otimes": O, "simdiff": S}
        for e1 in es:
            if not is_idempotent(m, comp(e1)):
                yield "complement", e1
            for e2, op in product(es, binary):
                if not is_idempotent(m, binary[op](e1, e2)):
                    yield op, e1, e2

    def circ_group():
        """(E_m, o): Abelian group, identity 1, every element self-inverse."""
        for e in es:
            if C(e, one) != e or C(e, e) != one:
                yield "identity/involution", e
        for e1, e2 in product(es, repeat=2):
            c12 = C(e1, e2)
            if c12 != C(e2, e1):
                yield "commutativity", e1, e2
            for e3 in es:
                if C(c12, e3) != C(e1, C(e2, e3)):
                    yield "associativity", e1, e2, e3

    def circ_translation():
        """Translation by a fixed element permutes E_m."""
        for e2 in es:
            if len({C(e2, e) for e in es}) != len(es):
                yield "translation", e2

    def otimes_ring():
        """otimes: commutative, associative, distributive laws."""
        for e1, e2 in product(es, repeat=2):
            o, p = O(e1, e2), P(e1, e2)
            if o != O(e2, e1):
                yield "otimes-commutativity", e1, e2
            for e3 in es:
                o23 = O(e2, e3)
                if O(o, e3) != O(e1, o23):
                    yield "otimes-associativity", e1, e2, e3
                if P(e1, o23) != O(p, P(e1, e3)):
                    yield "mul-distributes-over-otimes", e1, e2, e3
                if O(e1, C(e2, e3)) != C(o, O(e1, e3)):
                    yield "otimes-distributes-over-circ", e1, e2, e3

    def identity_catalog():
        """Complement pairing, circ specials, otimes specials."""
        for e in es:
            eb = comp(e)
            checks = [
                P(e, eb) == zero,
                canon(e + eb, m) == one,
                C(e, eb) == zero,
                C(e, zero) == eb,
                O(e, e) == e,
                O(e, one) == one,
                O(e, eb) == one,
                O(e, zero) == e,
            ]
            if not all(checks):
                yield "specials", e, checks
        for e1, e2 in product(es, repeat=2):
            eb1, eb2 = comp(e1), comp(e2)
            c, o, ob = C(e1, e2), O(e1, e2), O(eb1, eb2)
            checks = [
                comp(c) == C(eb1, e2),
                C(eb1, e2) == C(e1, eb2),
                c == canon((e1 + eb2) * (eb1 + e2), m),
                c == canon((e1 - eb2) ** 2, m),
                canon(o - ob, m) == canon(e1 * e2 - eb1 * eb2, m),
                canon((o - ob) ** 2, m) == c,
                comp(ob) == P(e1, e2),
                O(P(e1, e2), P(eb1, eb2)) == c,
                o == canon(e1 + e2 - e1 * e2, m),
            ]
            if not all(checks):
                yield "pair-identities", e1, e2, checks

    def otimes_nary():
        """(e1 o e)(x)(e2 o e) decomposition; n-ary otimes on the first 512 triples."""
        for e1, e2 in product(es, repeat=2):
            o, ob = O(e1, e2), O(comp(e1), comp(e2))
            for e in es:
                if O(C(e1, e), C(e2, e)) != canon(o * e + ob * (1 - e), m):
                    yield "shift-decomposition", e1, e2, e
        if len(es) < 2:
            return
        for tup in islice(product(es, repeat=3), 512):
            x, y, z = tup
            if O(O(x, y), z) != canon(1 - (1 - x) * (1 - y) * (1 - z), m):
                yield "nary-otimes", tup

    def basis_bijection():
        """Basis bijection: five operator/set-operation correspondences, with
        each member set as a bitmask over the basis.  A result outside E_m
        has no set, so it is a counterexample too."""
        bm = basis_map(m)
        bits = {e: sum(1 << i for i, q in enumerate(bm.basis) if q in s)
                for e, s in bm.member_sets.items()}
        full = (1 << len(bm.basis)) - 1
        if len(set(bits.values())) != len(es):
            yield ("bijection",)
        for e1 in es:
            b1, bc = bits[e1], bits.get(comp(e1))
            for e2 in es:
                b2 = bits[e2]
                if (bc != full ^ b1 or bits.get(P(e1, e2)) != b1 | b2
                        or bits.get(O(e1, e2)) != b1 & b2
                        or bits.get(S(e1, e2)) != b1 & ~b2
                        or bits.get(C(e1, e2)) != b1 ^ b2):
                    yield "basis-identity", e1, e2

    witnesses = {"mixing-product": next(mixing_product(), None),
                 "mixing-power": next(mixing_power(), None)}
    basis_witness = next(basis_bijection(), None)
    for law, scan in {"closure": closure, "circ-group": circ_group,
                      "circ-translation-injective": circ_translation,
                      "otimes-ring": otimes_ring, "identity-catalog": identity_catalog,
                      "otimes-nary": otimes_nary}.items():
        witnesses[law] = None if basis_witness is None else next(scan(), None)
    witnesses["basis-map"] = basis_witness
    return AlgebraReport(idems.modulus, [LawReport(law, w is None, w)
                                         for law, w in witnesses.items()])
