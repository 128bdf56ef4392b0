"""Normal and regular residues, class groups, orbits, and relative orders.

A residue a is *regular* when a^(|a|+1) = a, i.e. its powers cycle through a
group with identity its idempotent class e.  R_m^e denotes the regular
residues with class e.  A residue is *normal* when a^k is idempotent exactly
for the multiples of |a|.  Regular implies normal.

R_m^e is a copy of the unit group U(m/z), z = gcd(e, m) the product of the
prime powers of m on which e is 0: it is exactly z * U(m/z), the z*y with
1 <= y <= m/z prime to m/z.  class_members builds it from a coprimality mask,
with no power walk.  order_table is built by CRT from one array (_crt_fold
serves it alone), and regular_set, normal_set and G_m from byte patterns
(_spread), per prime power q = p^alpha of m, indexed by the residue's
component r = a mod q: a is regular exactly when every component is 0 or a
unit, and |a| is then the lcm of the unit components' orders.

Both the logs and the orders of the units of q come from one Python walk
over a generator's powers, cached per prime power in _unit_logs: logs[r] = t
with r = g^t for odd p, and r = +-5^t for q = 2^alpha (Gauss).  The orders
follow from the logs without a second walk, since g^t has order
n / gcd(t, n) in a cyclic group of order n: _unit_orders looks them up in
a table over t filled by slice assignments, one per divisor of n.

Each enumerating query builds only the pieces it reads, each cached on its
own: regular_set(m, e) reads class members, and omega_info reads them and
order_table on a class that is not cyclic; G_m, and omega_info on a cyclic
class, walk subgroups of q-th powers (congruence._nonpowers), not logs.
structure_table composes the class members and order_table; only the
tests read it.

The queries that build nothing per residue read _unit_group(p, alpha):
U(p^alpha) as a product of cyclic factors, with their orders, the
generators at hand and a unit's components in them.  The counts, solve,
and the power tests of omega read it, so none of them asks whether p = 2.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import chain, compress, repeat

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canon,
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
    _order_info,
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
    out = 1
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p:
            out *= p**alpha
    return out


def delta(m: int, a: int) -> int:
    """Smallest n with a^n regular: max over shared primes p of
    ceil(alpha_p / v_p(a)), and 1 for (a, m) = 1."""
    return _order_parts(build_modulus(m), a % m or m)[1]


def is_regular(m: int, a: int) -> bool:
    """Every prime of m dividing a must divide a to the full power in m."""
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p == 0 and a % p**alpha:
            return False
    return True


def is_normal(m: int, a: int) -> bool:
    """Normal exactly when the tail length T does not exceed the cycle
    length L, so the idempotent exponents are the multiples of |a|."""
    L, T = _order_parts(build_modulus(m), a % m or m)
    return T <= L


def classify(m: int, a: int) -> ResidueClassification:
    """Every property of a, from one _order_parts (L, T): a is normal when
    T <= L, regular when T = 1, and delta is T."""
    mod = build_modulus(m)
    a = a % m or m
    L, T = _order_parts(mod, a)
    info = _order_info(mod, a, L, T)
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
    return _listed(m, _regular_mask(m))


def _regular_mask(m: int) -> int:
    """R_m as a _spread mask: 1 at the a whose components are 0 or units."""
    keep = _spread(m, b"\x01")
    for p, alpha in build_modulus(m).factorization.factors:
        keep &= _spread(m, _multiples(p, p**alpha, 0, p**alpha))
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
            fits &= _spread(m, _fits(p, alpha, d))
            long |= _spread(m, _multiples(p, p**alpha, 1, p ** -(-alpha // d)))
        abnormal |= fits & long
    keep = _spread(m, b"\x01") ^ abnormal
    for p, alpha in factors if e is not None else ():
        keep &= _spread(m, _multiples(p, p**alpha, e % p == 0))
    return _listed(m, keep)


def _multiples(p: int, q: int, bit: int, step: int = 0) -> bytes:
    """The bytes over r in 0..q-1 that read bit at the multiples of p (but
    not at those of step, if given), and 1 - bit elsewhere."""
    out = bytearray([1 - bit]) * q
    out[::p] = bytes([bit]) * (q // p)
    if step:
        out[::step] = bytes([1 - bit]) * (q // step)
    return bytes(out)


def _spread(m: int, pattern: bytes) -> int:
    """pattern, over r in 0..q-1 for a q dividing m, read at a mod q for
    each residue a in 1..m, as an int whose byte a - 1 is for a: the bytes
    from r = 1 on, then r = 0, run m/q times.  The patterns of the prime
    powers of m so combine by CRT with & and |."""
    return int.from_bytes((pattern[1:] + pattern[:1]) * (m // len(pattern)), "big")


def _listed(m: int, keep: int) -> list[int]:
    """The residues a in 1..m whose byte a - 1 in keep is 1, ascending."""
    return list(compress(range(1, m + 1), keep.to_bytes(m, "big")))


def _fits(p: int, alpha: int, d: int) -> bytearray:
    """1 at the r in 0..p^alpha - 1 that are not units or have r^d = 1, and
    0 elsewhere.  The units with r^d = 1 are, in each cyclic factor of order
    n, the (n, d) powers of its generator to the n / (n, d)."""
    group = _unit_group(p, alpha)
    roots = [1]
    for n, gen in zip(group.orders, group.generators):
        k = math.gcd(n, d)
        gen = gen or _lift_root(_least_primitive_root(p), p, alpha)
        h = pow(gen, n // k, group.q)
        roots = [r * pow(h, i, group.q) % group.q for r in roots for i in range(k)]
    out = bytearray(_multiples(p, group.q, 1))
    for r in roots:
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


def _orbit_mask(m: int, a: int, n: int) -> bytearray:
    """1 at the x in 0..m-1 that are a^1, ..., a^n mod m, and 0 at the
    others: orb_m(a) in m bytes when n = |a|_m, where a frozenset of its
    ints takes tens of bytes per element."""
    mask = bytearray(m)
    x = 1 % m
    for _ in range(n):
        x = x * a % m
        mask[x] = 1
    return mask


def class_members(m: int, e: int) -> array:
    """R_m^e ascending, for an idempotent e: z * U(m/z), z = gcd(e, m).  The
    array is cached and shared, so it must not be modified."""
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return _class_members(m, math.gcd(e, m))


@lru_cache(maxsize=None)
def _class_members(m: int, z: int) -> array:
    """The z*y for y in 1..m/z prime to m/z, ascending, for a product z of
    prime powers of m: a mask over the y, cleared at the multiples of each
    prime of m/z by one slice assignment, compresses the multiples of z."""
    check_enum(m)  # before build_modulus, which factors m
    n = m // z
    keep = bytearray([1]) * n
    for p, _ in build_modulus(m).factorization.factors:
        if n % p == 0:
            keep[p - 1 :: p] = bytes(n // p)
    return array(_typecode(m), compress(range(z, m + 1, z), keep))


@lru_cache(maxsize=None)
def order_table(m: int) -> array:
    """|a|_m at each residue a in 1..m that is regular, and 0 at the others
    (index 0 is no residue and also reads 0): the lcm of the unit
    components' orders, folded by CRT from one power walk per prime power."""
    check_enum(m)  # before build_modulus, which factors m
    cycles = []
    for p, alpha in build_modulus(m).factorization.factors:
        units = _unit_orders(p, alpha)
        units[0] = 1  # a zero component adds nothing to the lcm
        cycles.append(units)
    # lcm(0, n) = 0: a component that is neither 0 nor a unit zeroes |a|.
    table = _crt_fold(math.lcm, 1, cycles, _typecode(m))
    table.append(table[0])  # the zero class reads at index m, and 0 at 0
    table[0] = 0
    return table


class StructureTable(Record):
    """Per-modulus tables over the residues 1..m, composed from the pieces
    the queries read on their own.  orders[a] is |a|_m when a is regular,
    and 0 when it is not (index 0 is no residue and also reads 0).
    regulars is R_m ascending, and by_class[e] is R_m^e = z * U(m/z)
    ascending, with the classes in the order of their least members z.
    orders is order_table(m) and by_class holds class_members' arrays, the
    same objects.  Orbits are not stored, since they total sum(|a|)
    entries; orbit(m, a) builds one."""

    modulus: Modulus
    idempotents: IdempotentSet
    regulars: array
    orders: array
    by_class: dict[int, array]


@lru_cache(maxsize=None)
def structure_table(m: int) -> StructureTable:
    check_enum(m)  # before build_modulus, which factors m
    # The idempotent 0 modulo a product z of prime powers of m and 1 modulo
    # m/z; z is the least member of its class.
    qs = build_modulus(m).prime_powers
    zs = sorted(math.prod(q for i, q in enumerate(qs) if bits >> i & 1)
                for bits in range(1 << len(qs)))
    by_class = {canon(z * pow(z, -1, m // z), m): _class_members(m, z) for z in zs}
    orders = order_table(m)
    return StructureTable(
        modulus=build_modulus(m),
        idempotents=enumerate_idempotents(m),
        regulars=array(orders.typecode, compress(range(m + 1), orders)),
        orders=orders,
        by_class=by_class,
    )


def _typecode(n: int) -> str:
    """The smallest unsigned array typecode holding 0..n."""
    return next(tc for tc in "BHIQ" if n >> 8 * array(tc).itemsize == 0)


def _crt_fold(fn, start: int, parts: list[array], typecode: str) -> array:
    """The array over x in 0..M-1, M the product of the parts' lengths q, of
    fn folded from start over part[x % q] for each part.  start must leave
    every value of the parts as it is, so the first step is a copy and a
    single part folds nothing.  An array of period P run q times and one of
    period q run P times line up x mod P with x mod q, so each later step is
    one map over the two."""
    if not parts:
        return array(typecode, [start])
    out = array(typecode, parts[0])
    for part in parts[1:]:
        pairs = _runs(out, len(part)), _runs(part, len(out))
        out = array(typecode, map(fn, *pairs))
    return out


def _runs(xs: array, times: int):
    """The items of xs, times times over, without building the copy."""
    return chain.from_iterable(repeat(xs, times))


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


class UnitGroup(Record):
    """U(q), q = p^alpha, as a direct product of cyclic factors: orders[i]
    is the order of factor i and generators[i] generates it, or is 0 where
    the factor is all of U(q) and no generator is at hand (odd p, where
    finding one needs the primes of p - 1).  split(x) gives a unit's
    components, one per factor, whose product is x."""

    q: int
    orders: tuple[int, ...]
    generators: tuple[int, ...]

    def split(self, x: int) -> tuple[int, ...]:
        """The components of the unit x in 0..q-1.  A group of two factors
        is <-1> x <5>, where x = -5^t exactly when x = 3 (mod 4)."""
        if len(self.orders) == 1:
            return (x,)
        return (self.q - 1, self.q - x) if x % 4 == 3 else (1, x)


@lru_cache(maxsize=None)
def _unit_group(p: int, alpha: int) -> UnitGroup:
    """The cyclic factors of U(p^alpha): one of order phi for odd p, which
    is cyclic; U(2) = {1} and U(4) = <-1>, cyclic of order phi too; and
    <-1> x <5>, of orders 2 and 2^(alpha-2), for 2^alpha with alpha >= 3
    (Gauss)."""
    q = p**alpha
    if p != 2:
        return UnitGroup(q, (q - q // p,), (0,))
    if alpha < 3:
        return UnitGroup(q, (q // 2,), (q - 1,))
    return UnitGroup(q, (2, q // 4), (q - 1, 5))


@lru_cache(maxsize=None)
def _unit_logs(p: int, alpha: int) -> tuple[int, array]:
    """(n, logs) for U(p^alpha), from the one walk over a generator's
    powers: logs[r] = t with r = g^t, t in 0..n-1, at each unit r in
    0..p^alpha - 1, and n at the non-units.  For odd p, U(p^alpha) is cyclic
    of order n = phi and g its least primitive root, lifted.  U(2^alpha) for
    alpha >= 2 is {+-5^t} (Gauss), with n = 2^(alpha-2) the order of 5: the
    walk covers the 5^t, which are the units 1 mod 4, and -5^t has the log t
    of 5^t; U(2) = {1} has n = 1.  The array is cached and shared, so it
    must not be modified."""
    q = p**alpha
    if p == 2:
        g, n = 5, max(1, q // 4)
    else:
        g, n = _lift_root(_least_primitive_root(p), p, alpha), q - q // p
    logs = array(_typecode(q), [n]) * q
    x = 1
    for t in range(n):
        logs[x] = t
        x = x * g % q
    if p == 2 and alpha >= 2:  # -x for x = 1, 5, ..., q - 3 is q - 1, ..., 3
        logs[3::4] = array(logs.typecode, reversed(logs[1::4]))
    return n, logs


def _unit_orders(p: int, alpha: int) -> array:
    """|r| in U(p^alpha) at each unit r in 0..p^alpha - 1, and 0 at the
    non-units, looked up by log: in a cyclic group of order n, g^t has order
    n / gcd(t, n), and in U(2^alpha), -5^t has order lcm(2, |5^t|)."""
    n, logs = _unit_logs(p, alpha)
    # Over the divisors d of n in ascending order, the last one to divide t
    # is gcd(t, n); by_log[n] = 0 is the order the non-units read.
    by_log = [n] * n
    for d in _divisors(n)[1:]:
        by_log[::d] = [n // d] * (n // d)
    by_log.append(0)
    out = array(logs.typecode, [by_log[t] for t in logs])
    if p == 2:
        out[3::4] = array(out.typecode, map(max, repeat(2), out[3::4]))
    return out


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending."""
    out = [1]
    for r, e in build_modulus(n).factorization.factors:
        out = [d * r**i for d in out for i in range(e + 1)]
    return sorted(out)


def _regular_order(m: int, x: int) -> OrderInfo:
    """order(m, x) for a regular x, which is x * idem_class(x) = x, i.e.
    x^(|x|+1) = x; any other residue is rejected."""
    info = order(m, x)
    if info.a * info.idem_class % m != info.a % m:
        raise ValueError(f"{info.a} is not regular modulo {m}")
    return info


def _same_class(m: int, b: int, c: int) -> tuple[OrderInfo, OrderInfo]:
    ib, ic = _regular_order(m, b), _regular_order(m, c)
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
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    return _orbit_gcd(m, b % m or m, c % m or m)


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
    return least_divisor(ib.order, lambda d: (pow(b, d, m) or m) in target)


def relative_order(m: int, a: int, b: int) -> int:
    """|a,b|_m = |orb(a) ∩ orb(b)| = |a|_m / D_m(a, b)."""
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    a, b = a % m or m, b % m or m
    return order(m, a).order // _orbit_gcd(m, a, b)


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
