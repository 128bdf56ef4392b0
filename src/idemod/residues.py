"""Normal and regular residues, class groups, orbits, and relative orders.

A residue a is *regular* when a^(|a|+1) = a, i.e. its powers cycle through a
group with identity its idempotent class e.  R_m^e denotes the regular
residues with class e.  A residue is *normal* when a^k is idempotent exactly
for the multiples of |a|.  Regular implies normal.

Whole-modulus sets and tables are built by CRT from one array per prime power
q = p^alpha of m, indexed by the residue's component r = a mod q: a is regular
exactly when every component is 0 or a unit, |a| is then the lcm of the unit
components' orders, and its class is the idempotent that is 0 on the zero
components and 1 on the others.
"""
from __future__ import annotations

import math
import operator
from array import array
from functools import lru_cache
from itertools import chain, compress, repeat

from .arith import (
    EnumerationCapError,
    Modulus,
    Record,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    factorize,
    least_divisor,
    max_enum,
    valuation,
)
from .idempotents import (
    IdempotentSet,
    OrderInfo,
    enumerate_idempotents,
    is_idempotent,
    order,
    _order_parts,
)


class ResidueClassification(Record):
    modulus: Modulus
    a: int
    is_normal: bool
    is_regular: bool
    order: int
    idem_class: int
    mu: int
    delta: int


def mu(m: int, a: int) -> int:
    """The divisor m1 of m on which a's idempotent class is congruent to 1
    (the complementary divisor m/m1 carries the zero part)."""
    mod = build_modulus(m)
    a = canon(a, m)
    out = 1
    for p, alpha in mod.factorization.factors:
        if a % p != 0:
            out *= p**alpha
    return out


def delta(m: int, a: int) -> int:
    """Smallest n with a^n regular: max over shared primes p of
    ceil(alpha_p / v_p(a)), and 1 for (a, m) = 1."""
    mod = build_modulus(m)
    _, T = _order_parts(mod, canon(a, m))
    return T


def is_regular(m: int, a: int) -> bool:
    """Every prime of m dividing a must divide a to the full power in m."""
    mod = build_modulus(m)
    a = canon(a, m)
    return all(
        a % p != 0 or a % p**alpha == 0 for p, alpha in mod.factorization.factors
    )


def is_normal(m: int, a: int) -> bool:
    """Normal exactly when the tail length T does not exceed the cycle
    length L, so the idempotent exponents are the multiples of |a|."""
    mod = build_modulus(m)
    L, T = _order_parts(mod, canon(a, m))
    return T <= L


def classify(m: int, a: int) -> ResidueClassification:
    info = order(m, a)
    a = info.a
    return ResidueClassification(
        modulus=info.modulus,
        a=a,
        is_normal=is_normal(m, a),
        is_regular=is_regular(m, a),
        order=info.order,
        idem_class=info.idem_class,
        mu=mu(m, a),
        delta=delta(m, a),
    )


def regular_set(m: int, e: int | None = None) -> list[int]:
    """R_m, or the class R_m^e for an idempotent e, ascending."""
    if e is None:
        return list(structure_table(m).regulars)
    check_enum(m)
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return list(structure_table(m).by_class[canon(e, m)])


def normal_set(m: int, e: int | None = None) -> list[int]:
    """N_m, or its members of idempotent class e, ascending.  T <= L is
    is_normal's test, with L the lcm of the unit components' orders and T the
    largest component tail; the class of any a is 0 exactly on the
    components that p divides."""
    check_enum(m)
    if e is not None and not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    factors = build_modulus(m).factorization.factors
    cycles = []
    for p, alpha in factors:
        units = _unit_orders(p, alpha)
        cycles.append(array(units.typecode, map(max, repeat(1), units)))
    keep = map(
        operator.le,
        _crt_fold(max, 1, [_tails(p, alpha) for p, alpha in factors], "B"),
        _crt_fold(math.lcm, 1, cycles, _typecode(m)),
    )
    if e is not None:
        # Bit i of a pattern says that p_i divides a (e: that e is 0 there).
        bits = [
            _zero_bits(p, alpha, 1 << i, 1 << i)
            for i, (p, alpha) in enumerate(factors)
        ]
        want = sum(1 << i for i, (p, _) in enumerate(factors) if e % p == 0)
        pattern = _crt_fold(operator.or_, 0, bits, _typecode(1 << len(factors)))
        keep = map(operator.and_, keep, map(want.__eq__, pattern))
    return list(compress(range(m + 1), _by_residue(array("B", keep))))


class OrbitSet(Record):
    modulus: Modulus
    generator: int
    elements: frozenset[int]

    def __init__(self, modulus: Modulus, generator: int, elements: frozenset[int]):
        # Built by the thousand in an audit: see Record.
        init = object.__setattr__
        init(self, "modulus", modulus)
        init(self, "generator", generator)
        init(self, "elements", elements)


def orbit(m: int, a: int) -> OrbitSet:
    """orb_m(a) = {a^1, ..., a^|a|} mod m.  Its |a| <= m elements count
    against the enumeration cap, so a small orbit of a huge modulus still
    answers."""
    info = order(m, a)
    cap = max_enum()
    if info.order > cap:
        raise EnumerationCapError(m, cap)
    return OrbitSet(info.modulus, info.a, _powers(m, info.a, info.order))


def _powers(m: int, a: int, n: int) -> frozenset[int]:
    """{a^1, ..., a^n} mod m, canonical: orb_m(a) when n = |a|_m.  The
    frozenset is built from the powers as they come, with no set to copy;
    x or m is canon(x, m) for x in 0..m-1."""
    x = 1 % m
    return frozenset((x := x * a % m) or m for _ in range(n))


class StructureTable(Record):
    """Per-modulus tables over the residues 1..m, built by CRT from one power
    walk per prime power of m.  orders[a] is |a|_m and classes[a] is a's
    idempotent class when a is regular, and both are 0 when it is not (index
    0 is no residue and also reads 0).  regulars is R_m ascending, and
    by_class[e] is R_m^e ascending, with the classes in the order of their
    least members.  Orbits are not stored, since they total sum(|a|)
    entries; orbit(m, a) builds one."""

    modulus: Modulus
    idempotents: IdempotentSet
    regulars: array
    orders: array
    classes: array
    by_class: dict[int, array]


@lru_cache(maxsize=None)
def structure_table(m: int) -> StructureTable:
    check_enum(m)  # before build_modulus, which factors m
    mod = build_modulus(m)
    factors = mod.factorization.factors
    qs = mod.prime_powers
    tc = _typecode(m)
    irregular = 1 << len(qs)  # a pattern bit above the class bits
    cycles, patterns = [], []
    for i, (p, alpha) in enumerate(factors):
        units = _unit_orders(p, alpha)
        units[0] = 1  # a zero component adds nothing to the lcm
        cycles.append(units)
        patterns.append(_zero_bits(p, alpha, 1 << i, irregular))
    # lcm(0, n) = 0: a component that is neither 0 nor a unit zeroes |a|.
    orders = _by_residue(_crt_fold(math.lcm, 1, cycles, tc))
    # Bit i of a regular pattern says component i is 0, so the class is the
    # sum of ones[j] over the other components j; ones[j] is 1 mod q_j and 0
    # mod the other q.
    ones = [m // q * pow(m // q, -1, q) for q in qs]
    idems = [
        canon(sum(one for i, one in enumerate(ones) if not bits >> i & 1), m)
        for bits in range(irregular)
    ] + [0] * irregular
    pattern = _crt_fold(operator.or_, 0, patterns, _typecode(2 * irregular))
    classes = _by_residue(array(tc, map(idems.__getitem__, pattern)))
    # The members of a class are multiples of z, the product of the q on
    # which it is 0, and z itself is one, so ordering the classes by z orders
    # them by least member.
    by_class = {}
    for z, bits in sorted((_zero_part(qs, bits), bits) for bits in range(irregular)):
        e = idems[bits]
        by_class[e] = array(
            tc, compress(range(z, m + 1, z), map(e.__eq__, classes[z::z]))
        )
    return StructureTable(
        modulus=mod,
        idempotents=enumerate_idempotents(m),
        regulars=array(tc, compress(range(m + 1), orders)),
        orders=orders,
        classes=classes,
        by_class=by_class,
    )


def _zero_part(qs: tuple[int, ...], bits: int) -> int:
    return math.prod(q for i, q in enumerate(qs) if bits >> i & 1)


def _typecode(n: int) -> str:
    """The smallest unsigned array typecode holding 0..n."""
    return next(tc for tc in "BHIQ" if n >> 8 * array(tc).itemsize == 0)


def _crt_fold(fn, start: int, parts: list[array], typecode: str) -> array:
    """The array over x in 0..M-1, M the product of the parts' lengths q, of
    fn folded from start over part[x % q] for each part.  An array of period
    P run q times and one of period q run P times line up x mod P with
    x mod q, so each step is one map over the two."""
    out = array(typecode, [start])
    for part in parts:
        pairs = _runs(out, len(part)), _runs(part, len(out))
        out = array(typecode, map(fn, *pairs))
    return out


def _runs(xs: array, times: int):
    """The items of xs, times times over, without building the copy."""
    return chain.from_iterable(repeat(xs, times))


def _by_residue(xs: array) -> array:
    """xs over x in 0..m-1 indexed by the residues 1..m instead: the zero
    class moves from index 0 to index m, and index 0 reads 0."""
    xs.append(xs[0])
    xs[0] = 0
    return xs


def _least_primitive_root(p: int) -> int:
    """The least generator of U(p), for an odd prime p."""
    primes = [r for r, _ in build_modulus(p - 1).factorization.factors]
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in primes):
        g += 1
    return g


def _lift_root(g: int, p: int, alpha: int) -> int:
    """A generator of U(p^alpha) from a primitive root g modulo the odd prime
    p: g, unless g^(p-1) = 1 (mod p^2), and then g + p; either generates
    U(p^alpha) for every alpha.  The least primitive root first needs the
    lift at p = 40487."""
    if alpha >= 2 and pow(g, p - 1, p * p) == 1:
        return g + p
    return g


def _unit_orders(p: int, alpha: int) -> array:
    """|r| in U(p^alpha) at each unit r in 0..p^alpha - 1, and 0 at the
    non-units, from one walk over a generator's powers: in a cyclic group of
    order n, g^k has order n / gcd(k, n).  U(2^alpha) for alpha >= 3 is
    {+-5^k} (Gauss): the walk covers the 5^k, which are the units 1 mod 4,
    and -5^k has order lcm(2, |5^k|)."""
    q = p**alpha
    out = array(_typecode(q), [0]) * q
    if p == 2 and alpha <= 2:  # U(2) = {1}; U(4) = {1, 3}, |3| = 2
        out[1::2] = array(out.typecode, (1, 2)[:alpha])
        return out
    if p == 2:
        g, n = 5, q // 4
    else:
        g, n = _lift_root(_least_primitive_root(p), p, alpha), q - q // p
    x = 1
    for k_order in map(n.__floordiv__, map(math.gcd, range(n), repeat(n))):
        out[x] = k_order
        x = x * g % q
    if p == 2:  # -x for x = 1, 5, ..., q - 3 is q - 1, q - 5, ..., 3
        out[3::4] = array(out.typecode, map(max, repeat(2), reversed(out[1::4])))
    return out


def _tails(p: int, alpha: int) -> array:
    """T's component at each r in 0..p^alpha - 1: ceil(alpha / v_p(r)) where
    p divides r (1 at r = 0, where v = alpha), and 1 at the units."""
    q = p**alpha
    out = array("B", [1]) * q
    for v in range(1, alpha):
        out[:: p**v] = array("B", [-(-alpha // v)]) * (q // p**v)
    out[0] = 1
    return out


def _zero_bits(p: int, alpha: int, zero: int, other: int) -> array:
    """zero at r = 0, other at the other multiples of p in 0..p^alpha - 1,
    and 0 at the units."""
    q = p**alpha
    tc = _typecode(max(zero, other))
    out = array(tc, [0]) * q
    out[::p] = array(tc, [other]) * (q // p)
    out[0] = zero
    return out


def _regular_order(m: int, x: int) -> OrderInfo:
    """order(m, x) for a regular x, which is x * idem_class(x) = x, i.e.
    x^(|x|+1) = x; any other residue is rejected."""
    info = order(m, x)
    if info.a * info.idem_class % m != info.a % m:
        raise ValueError(f"{info.a} is not regular modulo {m}")
    return info


def _same_class(m: int, b: int, c: int) -> tuple[OrderInfo, OrderInfo]:
    ib = _regular_order(m, b)
    ic = _regular_order(m, c)
    if ib.idem_class != ic.idem_class:
        raise ValueError(
            f"operands {ib.a} and {ic.a} lie in different classes modulo {m} "
            f"({ib.idem_class} vs {ic.idem_class})"
        )
    return ib, ic


def orbit_gcd(m: int, b: int, c: int) -> int:
    """D_m(b, c): gcd of the exponents n <= |b| with b^n in orb(c).  Only
    defined for regular operands sharing an idempotent class; the memo
    _orbit_gcd checks that once per pair.

    orb(c) is a group, so the n with b^n in orb(c) are exactly the multiples
    of D, and D is the least divisor d of |b| with b^d in orb(c).  Hence
    D(b, c) = 1 exactly when b lies in orb(c): equivalent and join_witness
    test orbit membership this way."""
    # canonicalize also rejects a modulus below 1.
    return _orbit_gcd(m, canonicalize(b, m), canon(c, m))


@lru_cache(maxsize=4096)
def _orbit_gcd(m: int, b: int, c: int) -> int:
    """orbit_gcd on canonical operands.  It rejects operands that are
    irregular or of different classes, so a valid pair is checked once and
    a memo hit costs one lookup; lru_cache does not keep exceptions, so an
    invalid pair raises on every call.  The audit asks for the same few
    pairs of one modulus over and over; the bound keeps the memo from
    holding every pair of a sweep."""
    ib, _ = _same_class(m, b, c)
    target = orbit(m, c).elements
    return least_divisor(ib.order, lambda d: canon(pow(b, d, m), m) in target)


def relative_order(m: int, a: int, b: int) -> int:
    """|a,b|_m = |orb(a) ∩ orb(b)| = |a|_m / D_m(a, b)."""
    return order(m, a).order // orbit_gcd(m, a, b)


def equivalent(m: int, a: int, b: int) -> bool:
    """a ~ b: same idempotent class, same order, and a is a power of b,
    i.e. D_m(a, b) = 1."""
    ia = _regular_order(m, a)
    ib = _regular_order(m, b)
    return (
        ia.idem_class == ib.idem_class
        and ia.order == ib.order
        and _orbit_gcd(m, ia.a, ib.a) == 1
    )


def _coprime_split(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u | x, v | y, (u, v) = 1 and u*v = lcm(x, y): each prime
    of gcd(x, y) keeps its full power on the side holding more of it (x on a
    tie) and leaves the other side."""
    u, v = x, y
    for p, _ in factorize(math.gcd(x, y)).factors:
        if valuation(x, p) >= valuation(y, p):
            v //= p ** valuation(y, p)
        else:
            u //= p ** valuation(x, p)
    return u, v


def join_witness(m: int, b: int, c: int, a: int) -> int:
    """Given regular b, c with a common class and a in orb(b) ∩ orb(c),
    return d = b^(|b|/u) * c^(|c|/v), which has a in orb(d) and
    |d| = lcm(|b|, |c|), where (u, v) = _coprime_split(|b|, |c|).  The
    precondition on a is checked as D_m(a, b) = D_m(a, c) = 1.

    The class is an abelian group and orb(b), orb(c) are cyclic subgroups.
    The two factors have coprime orders u and v, so |d| = u*v = lcm and
    orb(d) contains both factors' orbits.  Each prime q keeps its full power
    of |b| or of |c| on one side, so orb(d) contains the whole q-part of
    orb(b) or of orb(c), hence the q-part of orb(b) ∩ orb(c).  That
    intersection is cyclic, the product of its q-parts, so it lies in orb(d)
    and a does too.
    """
    ib, ic = _same_class(m, b, c)
    if orbit_gcd(m, a, ib.a) != 1 or orbit_gcd(m, a, ic.a) != 1:
        raise ValueError(
            f"{canon(a, m)} is not in both orbits of {ib.a} and {ic.a} "
            f"modulo {m}"
        )
    u, v = _coprime_split(ib.order, ic.order)
    return canon(
        pow(ib.a, ib.order // u, m) * pow(ic.a, ic.order // v, m), m
    )


def class_product(m: int, e: int) -> int:
    """Product of all elements of R_m^e modulo m."""
    out = 1
    for a in regular_set(m, e):
        out = out * a % m
    return canon(out, m)
