"""Operators on the idempotents and the subset isomorphism.

E_m carries four operators: the complement e -> (1-e), the group operation
e1 o e2 = e1*e2 + (1-e1)(1-e2), the meet e1 (x) e2 = complement of the
product of complements, and the difference-style simdiff.  Mapping each e to
the set of prime-power divisors of m dividing it turns these into the usual
set operations (symmetric difference, intersection, set minus), making E_m a
Boolean ring.

verify_algebra checks the laws by brute force, over all pairs and triples of
E_m.  Each operator is evaluated once per pair, into a table.  When |E_m| is
at most 256, so that an element's index fits in a byte, and every value of
circ, otimes and the product lies in E_m, the tables are also held as byte
rows, and the cubic laws are screened: for each outer pair they compare the
rows of the law's two sides, composed by bytes.translate, and run their
scalar loop over the third operand only where the rows differ.  That scalar
loop is the only source of counterexamples, so a screened run reports the
same first counterexample as an unscreened one.  Past 256, or with a value
outside E_m, no rows are held and every law runs its scalar loop throughout.
"""
from __future__ import annotations

import random
from functools import partial
from itertools import islice, product
from operator import itemgetter

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


class _Memo(dict):
    """A dict that computes the value of a missing key with fn, once."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _table(m: int, formula) -> _Memo:
    """table[x][y] is formula(m, x, y), each computed on first use."""
    return _Memo(lambda x: _Memo(partial(formula, m, x)))


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


def _index_row(values: list[int], idx: dict[int, int]) -> bytes | None:
    """The indices of values in E_m as bytes, or None if one lies outside
    E_m, which has no index."""
    try:
        return bytes([idx[v] for v in values])
    except KeyError:
        return None


def _byte_rows(T: _Memo, es: tuple[int, ...],
               idx: dict[int, int]) -> dict[int, bytes] | None:
    """T's rows over E_m as bytes: rows[x][i] is the index of T[x][es[i]].
    None if a value of T lies outside E_m."""
    rows = {x: _index_row([T[x][e] for e in es], idx) for x in es}
    return None if None in rows.values() else rows


def _padded(rows: dict[int, bytes]) -> dict[int, bytes]:
    """T's rows, each padded to the 256 bytes bytes.translate takes as its
    table: for U's row r = rows_U[y], r.translate(tabs_T[x]) is the row of
    e -> T[x][U[y][e]]."""
    return {x: row.ljust(256, b"\0") for x, row in rows.items()}


def verify_algebra(m: int) -> AlgebraReport:
    """Check the group/ring laws and identity catalog on E_m.  Each law is a
    generator of its counterexamples, and the report records the first, so
    no law runs past it or holds E_m^3.  The idempotent-only laws range over
    all of E_m; the mixing identities take their integer coefficients from
    all of Z_m^2 for m <= 100 and from a fixed-seed sample beyond.

    Each binary operator, and the product, is evaluated once per operand
    pair: the laws read them through tables that live for this call, so the
    cubic laws cost |E_m|^2 formula evaluations, not |E_m|^3.

    The cubic laws, and closure, are screened by byte rows of the tables
    where those can be held (see the module docstring)."""
    idems = enumerate_idempotents(m)
    es = idems.elements
    one = canon(1, m)
    zero = m
    if m <= 100:
        coeffs = list(product(range(m), repeat=2))
    else:
        rng = random.Random(m)
        coeffs = [(rng.randrange(m), rng.randrange(m)) for _ in range(SAMPLE)]
    # C[x][y] is _circ(m, x, y); O, S and P hold otimes, simdiff and the
    # product, and comp[e] is e's complement.  The formulas are looked up
    # here, so one patched on the module reaches every law.  The cubic laws
    # read the rows that depend only on their outer operands once, outside
    # the innermost loop.
    C, O, S, P = (_table(m, f) for f in (_circ, _otimes, _simdiff, _product))
    comp = {e: _complement(m, e) for e in es}
    # The screens: rC[x] is C's row for x as bytes and tC[x] the same row as
    # a translate table (likewise for O and P); screen is False, and they are
    # not read, when the rows cannot be held.
    idx = {e: i for i, e in enumerate(es)}
    rows = [_byte_rows(T, es, idx) for T in (C, O, P)] if len(es) <= 256 else [None]
    screen = None not in rows
    if screen:
        rC, rO, rP = rows
        tC, tO, tP = map(_padded, rows)

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
        # Held rows index only elements of E_m: circ and otimes are closed.
        closed = screen and _byte_rows(S, es, idx) is not None
        for e1 in es:
            if not is_idempotent(m, comp[e1]):
                yield "complement", e1
            if closed:
                continue
            for e2, op in product(es, binary):
                if not is_idempotent(m, binary[op][e1][e2]):
                    yield op, e1, e2

    def circ_group():
        """(E_m, o): Abelian group, identity 1, every element self-inverse."""
        for e in es:
            if C[e][one] != e or C[e][e] != one:
                yield "identity/involution", e
        for e1, e2 in product(es, repeat=2):
            c12 = C[e1][e2]
            if c12 != C[e2][e1]:
                yield "commutativity", e1, e2
            if screen and rC[c12] == rC[e2].translate(tC[e1]):
                continue
            C1, C2, C12 = C[e1], C[e2], C[c12]
            for e3 in es:
                if C12[e3] != C1[C2[e3]]:
                    yield "associativity", e1, e2, e3

    def circ_translation():
        """Translation by a fixed element permutes E_m."""
        for e2 in es:
            if len({C[e2][e] for e in es}) != len(es):
                yield "translation", e2

    def otimes_ring():
        """otimes: commutative, associative, distributive laws."""
        for e1, e2 in product(es, repeat=2):
            o, p = O[e1][e2], P[e1][e2]
            if o != O[e2][e1]:
                yield "otimes-commutativity", e1, e2
            if (screen and rO[o] == rO[e2].translate(tO[e1])
                    and rO[e2].translate(tP[e1]) == rP[e1].translate(tO[p])
                    and rC[e2].translate(tO[e1]) == rO[e1].translate(tC[o])):
                continue
            O1, O2, P1, C2 = O[e1], O[e2], P[e1], C[e2]
            Oo, Op, Co = O[o], O[p], C[o]
            for e3 in es:
                o23 = O2[e3]
                if Oo[e3] != O1[o23]:
                    yield "otimes-associativity", e1, e2, e3
                if P1[o23] != Op[P1[e3]]:
                    yield "mul-distributes-over-otimes", e1, e2, e3
                if O1[C2[e3]] != Co[O1[e3]]:
                    yield "otimes-distributes-over-circ", e1, e2, e3

    def identity_catalog():
        """Complement pairing, circ specials, otimes specials."""
        for e in es:
            eb = comp[e]
            checks = [
                P[e][eb] == zero,
                canon(e + eb, m) == one,
                C[e][eb] == zero,
                C[e][zero] == eb,
                O[e][e] == e,
                O[e][one] == one,
                O[e][eb] == one,
                O[e][zero] == e,
            ]
            if not all(checks):
                yield "specials", e, checks
        for e1, e2 in product(es, repeat=2):
            eb1, eb2 = comp[e1], comp[e2]
            c, o, ob = C[e1][e2], O[e1][e2], O[eb1][eb2]
            checks = [
                _complement(m, c) == C[eb1][e2],
                C[eb1][e2] == C[e1][eb2],
                c == canon((e1 + eb2) * (eb1 + e2), m),
                c == canon((e1 - eb2) ** 2, m),
                canon(o - ob, m) == canon(e1 * e2 - eb1 * eb2, m),
                canon((o - ob) ** 2, m) == c,
                _complement(m, ob) == P[e1][e2],
                O[P[e1][e2]][P[eb1][eb2]] == c,
                o == canon(e1 + e2 - e1 * e2, m),
            ]
            if not all(checks):
                yield "pair-identities", e1, e2, checks

    def otimes_nary():
        """(e1 o e)(x)(e2 o e) decomposition; n-ary otimes on the first 512 triples."""
        if screen:
            # The left side's row for (e1, e2): H[j*n + i] is the index of
            # O[C[e1][es[i]]][es[j]], composed from O's columns, and at[e2]
            # reads O[C[e1][e]][C[e2][e]] off it for each e.  The right
            # side's row depends on the pair only through (o, ob).
            n = len(es)
            cols = [bytes(col).ljust(256, b"\0") for col in zip(*rO.values())]
            at = {e2: itemgetter(*(j * n + i for i, j in enumerate(rC[e2])))
                  for e2 in es}

            def rhs_row(key):
                o, ob = key
                return _index_row([canon(o * e + ob * (1 - e), m) for e in es], idx)

            rhs = _Memo(rhs_row)
        for e1 in es:
            if screen:
                H = b"".join(map(rC[e1].translate, cols))
            for e2 in es:
                o, ob = O[e1][e2], O[comp[e1]][comp[e2]]
                if screen and bytes(at[e2](H)) == rhs[o, ob]:
                    continue
                C1, C2 = C[e1], C[e2]
                for e in es:
                    if O[C1[e]][C2[e]] != canon(o * e + ob * (1 - e), m):
                        yield "shift-decomposition", e1, e2, e
        if len(es) < 2:
            return
        for tup in islice(product(es, repeat=3), 512):
            x, y, z = tup
            if O[O[x][y]][z] != canon(1 - (1 - x) * (1 - y) * (1 - z), m):
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
        for e1, e2 in product(es, repeat=2):
            b1, b2 = bits[e1], bits[e2]
            pairs = [
                (bits.get(comp[e1]), full ^ b1),
                (bits.get(P[e1][e2]), b1 | b2),
                (bits.get(O[e1][e2]), b1 & b2),
                (bits.get(S[e1][e2]), b1 & ~b2),
                (bits.get(C[e1][e2]), b1 ^ b2),
            ]
            if any(x != y for x, y in pairs):
                yield "basis-identity", e1, e2

    laws = {
        "mixing-product": mixing_product(),
        "mixing-power": mixing_power(),
        "closure": closure(),
        "circ-group": circ_group(),
        "circ-translation-injective": circ_translation(),
        "otimes-ring": otimes_ring(),
        "identity-catalog": identity_catalog(),
        "otimes-nary": otimes_nary(),
        "basis-map": basis_bijection(),
    }
    reports = []
    for law, counterexamples in laws.items():
        witness = next(counterexamples, None)
        reports.append(LawReport(law, witness is None, witness))
    return AlgebraReport(idems.modulus, reports)
