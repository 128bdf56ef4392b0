"""Normal and regular residues, class groups, orbits, and relative orders.

A residue a is *regular* when a^(|a|+1) = a, i.e. its powers cycle through a
group with identity its idempotent class e.  R_m^e denotes the regular
residues with class e.  A residue is *normal* when a^k is idempotent exactly
for the multiples of |a|.  Regular implies normal.

R_m^e is a copy of the unit group U(m/z), z = gcd(e, m) the product of the
prime powers of m on which e is 0: it is exactly z * U(m/z), the z*y with
1 <= y <= m/z prime to m/z.  class_members builds it from a coprimality mask,
with no power walk.  regular_set, normal_set and G_m are built from byte
patterns (units.spread), per prime power q = p^alpha of m, indexed by the
residue's component r = a mod q: a is regular exactly when every component
is 0 or a unit.  |a| itself is always the point query order(m, a); no
query builds a table of orders.

Each enumerating query builds only the pieces it reads, on every call:
regular_set(m, e) and omega_info on a class that is not cyclic read class
members; G_m, and omega_info on a cyclic class, walk subgroups of q-th
powers (units.nonpowers).  structure_table composes regular_set and the
class members; only the tests read it.  The queries that build nothing per
residue, the counts, solve and the power tests of omega, read
units.unit_group instead.  Each public query checks the cap on every call,
before any memo.

A class R_m^e, a copy of U(mu), is cyclic exactly when the orders of the
cyclic factors of its U(p^alpha) are pairwise coprime (cyclic_class), and
then every subgroup is the one of its order.  So orbit_gcd there needs no
orbit: b^d lies in orb(c) exactly when |b| / gcd(|b|, d) divides |c|, and
the least such d dividing |b| is |b| / gcd(|b|, |c|).
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import compress

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    check_work,
    least_divisor,
    valuation,
)
from .idempotents import (
    IdempotentSet,
    OrderInfo,
    enumerate_idempotents,
    is_idempotent,
    order,
    order_info,
    order_parts,
)
from .units import listed, local_roots, multiples, spread, typecode, unit_group


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
    out = 1
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p:
            out *= p**alpha
    return out


def delta(m: int, a: int) -> int:
    """Smallest n with a^n regular: max over shared primes p of
    ceil(alpha_p / v_p(a)), and 1 for (a, m) = 1."""
    return order_parts(build_modulus(m), a % m or m)[1]


def is_regular(m: int, a: int) -> bool:
    """Every prime of m dividing a must divide a to the full power in m."""
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p == 0 and a % p**alpha:
            return False
    return True


def is_normal(m: int, a: int) -> bool:
    """Normal exactly when the tail length T does not exceed the cycle
    length L, so the idempotent exponents are the multiples of |a|."""
    L, T = order_parts(build_modulus(m), a % m or m)
    return T <= L


def classify(m: int, a: int) -> ResidueClassification:
    """Every property of a, from one order_parts (L, T): a is normal when
    T <= L, regular when T = 1, and delta is T."""
    mod = build_modulus(m)
    a = a % m or m
    L, T = order_parts(mod, a)
    info = order_info(mod, a, L, T)
    return ResidueClassification(
        modulus=mod,
        a=a,
        is_normal=T <= L,
        is_regular=T == 1,
        order=info.order,
        idem_class=info.idem_class,
        mu=mu(m, a),
        delta=T,
    )


def regular_set(m: int, e: int | None = None) -> list[int]:
    """R_m, or the class R_m^e for an idempotent e, ascending: the a whose
    every component is 0 or a unit."""
    if e is not None:
        return list(class_members(m, e))
    check_enum(m)  # before build_modulus, which factors m
    return listed(m, regular_mask(m))


def regular_mask(m: int) -> int:
    """R_m as a units.spread mask: 1 at the a whose components are 0 or units."""
    keep = spread(m, b"\x01")
    for p, alpha in build_modulus(m).factorization.factors:
        keep &= spread(m, multiples(p, p**alpha, 0, p**alpha))
    return keep


def normal_set(m: int, e: int | None = None) -> list[int]:
    """N_m, or its members of idempotent class e, ascending.  a is normal
    when T <= L (is_normal): L is the lcm of the unit components' orders,
    and T <= max alpha the largest tail, ceil(alpha / v) at a component
    p^v * u, 0 < v < alpha.  So a is not normal exactly when, for some
    d < max alpha, each unit component is a d-th root of 1 and some
    component has v < ceil(alpha / d).  The class of a is 0 exactly on the
    components that p divides."""
    if e is not None and not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    check_enum(m)
    factors = build_modulus(m).factorization.factors
    abnormal = 0
    for d in range(1, max((alpha for _, alpha in factors), default=1)):
        fits, long = -1, 0
        for p, alpha in factors:
            fits &= spread(m, _fits(p, alpha, d))
            long |= spread(m, multiples(p, p**alpha, 1, p ** -(-alpha // d)))
        abnormal |= fits & long
    keep = spread(m, b"\x01") ^ abnormal
    for p, alpha in factors if e is not None else ():
        keep &= spread(m, multiples(p, p**alpha, e % p == 0))
    return listed(m, keep)


def _fits(p: int, alpha: int, d: int) -> bytearray:
    """1 at the r in 0..p^alpha - 1 that are not units or have r^d = 1, and
    0 elsewhere."""
    out = bytearray(multiples(p, p**alpha, 1))
    for r in local_roots(p, alpha, d, 1)[1]():
        out[r] = 1
    return out


class OrbitSet(Record):
    modulus: Modulus
    generator: int
    elements: frozenset[int]


def orbit(m: int, a: int) -> OrbitSet:
    """orb_m(a) = {a^1, ..., a^|a|} mod m.  Its |a| <= m elements count
    against the enumeration cap, so a small orbit of a huge modulus still
    answers."""
    info = order(m, a)
    check_work(info.order, "orbit elements")
    return OrbitSet(info.modulus, info.a, _powers(m, info.a, info.order))


def _powers(m: int, a: int, n: int) -> frozenset[int]:
    """{a^1, ..., a^n} mod m, canonical: orb_m(a) when n = |a|_m.  The
    frozenset is built from the powers as they come, with no set to copy;
    x or m is canon(x, m) for x in 0..m-1."""
    x = 1 % m
    return frozenset((x := x * a % m) or m for _ in range(n))


def class_members(m: int, e: int) -> array:
    """R_m^e ascending, for an idempotent e: z * U(m/z), z = gcd(e, m), the
    z*y for y in 1..m/z prime to m/z.  A mask over the y, cleared at the
    multiples of each prime of m/z by one slice assignment, compresses the
    multiples of z."""
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    check_enum(m)  # before build_modulus, which factors m
    z = math.gcd(e, m)
    n = m // z
    keep = bytearray([1]) * n
    for p, _ in build_modulus(m).factorization.factors:
        if n % p == 0:
            keep[p - 1 :: p] = bytes(n // p)
    return array(typecode(m), compress(range(z, m + 1, z), keep))


class StructureTable(Record):
    """Per-modulus tables over the residues 1..m, composed from the pieces
    the queries read on their own.  regulars is R_m ascending, and
    by_class[e] is R_m^e = z * U(m/z) ascending, with the classes in the
    order of their least members z: regulars is regular_set(m), read off
    the same mask into an array, and by_class[e] is class_members(m, e).
    Orders and orbits are not stored; order(m, a) and orbit(m, a) answer
    for one residue."""

    modulus: Modulus
    idempotents: IdempotentSet
    regulars: array
    by_class: dict[int, array]


def structure_table(m: int) -> StructureTable:
    check_enum(m)  # before build_modulus, which factors m
    idempotents = enumerate_idempotents(m)
    # gcd(e, m) is the least member of R_m^e.
    by_class = {e: class_members(m, e)
                for e in sorted(idempotents.elements, key=lambda e: math.gcd(e, m))}
    regular = regular_mask(m).to_bytes(m, "big")
    return StructureTable(
        modulus=build_modulus(m),
        idempotents=idempotents,
        regulars=array(typecode(m), compress(range(1, m + 1), regular)),
        by_class=by_class,
    )


def regular_order(m: int, x: int) -> OrderInfo:
    """order(m, x) for a regular x, which is x * idem_class(x) = x, i.e.
    x^(|x|+1) = x; any other residue is rejected."""
    info = order(m, x)
    if info.a * info.idem_class % m != info.a % m:
        raise ValueError(f"{info.a} is not regular modulo {m}")
    return info


def _same_class(m: int, b: int, c: int) -> tuple[OrderInfo, OrderInfo]:
    ib, ic = regular_order(m, b), regular_order(m, c)
    if ib.idem_class != ic.idem_class:
        raise ValueError(
            f"operands {ib.a} and {ic.a} lie in different classes modulo {m} "
            f"({ib.idem_class} vs {ic.idem_class})")
    return ib, ic


def orbit_gcd(m: int, b: int, c: int) -> int:
    """D_m(b, c): gcd of the exponents n <= |b| with b^n in orb(c).  Only
    defined for regular operands sharing an idempotent class; the memo
    _orbit_gcd checks that once per pair.

    orb(c) is a group, so the n with b^n in orb(c) are exactly the multiples
    of D, and D is the least divisor d of |b| with b^d in orb(c).  Hence
    D(b, c) = 1 exactly when b lies in orb(c): equivalent and join_witness
    test orbit membership this way."""
    return _orbit_gcd(m, canonicalize(b, m), canonicalize(c, m))


@lru_cache(maxsize=4096)
def _orbit_gcd(m: int, b: int, c: int) -> int:
    """orbit_gcd on canonical operands.  It rejects operands that are
    irregular or of different classes, so a valid pair is checked once and
    a memo hit costs one lookup; lru_cache does not keep exceptions, so an
    invalid pair raises on every call.  The audit asks for the same few
    pairs of one modulus over and over; the bound keeps the memo from
    holding every pair of a sweep.  On a cyclic class D is read off the two
    orders, with no orbit (module docstring)."""
    ib, ic = _same_class(m, b, c)
    if cyclic_class(m, b):
        return ib.order // math.gcd(ib.order, ic.order)
    target = orbit(m, c).elements
    return least_divisor(ib.order, lambda d: (pow(b, d, m) or m) in target)


def cyclic_class(m: int, a: int) -> bool:
    """Whether a's class, a copy of U(mu), is cyclic: U(mu) is the product
    of the cyclic factors of the U(p^alpha) with p not dividing a, and is
    cyclic exactly when their orders are pairwise coprime, i.e. when
    lambda(mu) = phi(mu) (for mu = 1, 2, 4, p^alpha and 2 p^alpha, Gauss)."""
    orders = [n for p, alpha in build_modulus(m).factorization.factors if a % p
              for n in unit_group(p, alpha).orders]
    return math.lcm(*orders) == math.prod(orders)


def relative_order(m: int, a: int, b: int) -> int:
    """|a,b|_m = |orb(a) ∩ orb(b)| = |a|_m / D_m(a, b)."""
    a, b = canonicalize(a, m), canonicalize(b, m)
    return order(m, a).order // _orbit_gcd(m, a, b)


def equivalent(m: int, a: int, b: int) -> bool:
    """a ~ b: same idempotent class, same order, and a is a power of b,
    i.e. D_m(a, b) = 1."""
    ia = regular_order(m, a)
    ib = regular_order(m, b)
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
    for p, _ in build_modulus(math.gcd(x, y)).factorization.factors:
        px, py = p ** valuation(x, p), p ** valuation(y, p)
        if px >= py:
            v //= py
        else:
            u //= px
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
    ib, ic = _same_class(m, b, c)  # rejects a modulus below 1 first
    a = a % m or m
    if _orbit_gcd(m, a, ib.a) != 1 or _orbit_gcd(m, a, ic.a) != 1:
        raise ValueError(f"{a} is not in both orbits of {ib.a} and {ic.a} modulo {m}")
    u, v = _coprime_split(ib.order, ic.order)
    return pow(ib.a, ib.order // u, m) * pow(ic.a, ic.order // v, m) % m or m


def class_product(m: int, e: int) -> int:
    """Product of all elements of R_m^e modulo m."""
    out = 1
    for a in regular_set(m, e):
        out = out * a % m
    return canon(out, m)
