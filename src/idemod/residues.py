"""Normal and regular residues, class groups, orbits, and relative orders.

A residue a is *regular* when a^(|a|+1) = a, i.e. its powers cycle through a
group with identity its idempotent class e.  R_m^e denotes the regular
residues with class e.  A residue is *normal* when a^k is idempotent exactly
for the multiples of |a|.  Regular implies normal.

R_m^e is a copy of the unit group U(m/z), z = gcd(e, m) the product of the
prime powers of m on which e is 0: it is exactly z * U(m/z), the z*y with
1 <= y <= m/z prime to m/z.  class_members builds it from a coprimality mask,
with no power walk.  order_table and normal_set are built by CRT from one
array per prime power q = p^alpha of m, indexed by the residue's component
r = a mod q: a is regular exactly when every component is 0 or a unit, and
|a| is then the lcm of the unit components' orders.

Both the logs and the orders of the units of q come from one Python walk
over a generator's powers, cached per prime power in _unit_logs: logs[r] = t
with r = g^t for odd p, and r = +-5^t for q = 2^alpha (Gauss).  The orders
follow from the logs without a second walk, since g^t has order
n / gcd(t, n) in a cyclic group of order n: _unit_orders looks them up in
a table over t filled by slice assignments, one per divisor of n.

Each enumerating query builds only the pieces it reads, each cached on its
own: regular_set and sqrt_structure read class members; r_count, rho_count,
orbit_union_size and omega_info read class members and order_table;
gen_primitive_roots reads the logs alone.  structure_table composes the
class members and order_table, with the class array, for the audit.
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
    """Every property of a, from one _order_parts (L, T): a is normal when
    T <= L, regular when T = 1, and delta is T."""
    mod = build_modulus(m)
    a = canon(a, m)
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
    """R_m, or the class R_m^e for an idempotent e, ascending."""
    if e is None:
        return _merged(_class_map(m))
    return list(class_members(m, e))


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
        bits = [_prime_bits(p, alpha, 1 << i) for i, (p, alpha) in enumerate(factors)]
        want = sum(1 << i for i, (p, _) in enumerate(factors) if e % p == 0)
        pattern = _crt_fold(operator.or_, 0, bits, _typecode(1 << len(factors)))
        keep = map(operator.and_, keep, map(want.__eq__, pattern))
    return list(compress(range(m + 1), _by_residue(array("B", keep))))


class OrbitSet(Record):
    modulus: Modulus
    generator: int
    elements: frozenset[int]


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


def _class_map(m: int) -> dict[int, array]:
    """{e: R_m^e} over the idempotents e of m, each 0 modulo a product z of
    prime powers of m and 1 modulo m/z.  The least member of R_m^e is z
    itself, so ordering the classes by z orders them by least member."""
    check_enum(m)  # before build_modulus, which factors m
    qs = build_modulus(m).prime_powers
    zs = sorted(_zero_part(qs, bits) for bits in range(1 << len(qs)))
    return {canon(z * pow(z, -1, m // z), m): _class_members(m, z) for z in zs}


def _merged(classes: dict[int, array]) -> list[int]:
    """R_m ascending from its classes, which sorted merges as one ascending
    run each."""
    return sorted(chain.from_iterable(classes.values()))


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
    return _by_residue(_crt_fold(math.lcm, 1, cycles, _typecode(m)))


class StructureTable(Record):
    """Per-modulus tables over the residues 1..m, composed from the pieces
    the queries read on their own.  orders[a] is |a|_m and classes[a] is a's
    idempotent class when a is regular, and both are 0 when it is not (index
    0 is no residue and also reads 0).  regulars is R_m ascending, and
    by_class[e] is R_m^e = z * U(m/z) ascending, with the classes in the
    order of their least members z.  orders is order_table(m) and by_class
    holds class_members' arrays, the same objects; classes is filled in
    from by_class here only, and only the audit reads it.  Orbits are not
    stored, since they total sum(|a|) entries; orbit(m, a) builds one."""

    modulus: Modulus
    idempotents: IdempotentSet
    regulars: array
    orders: array
    classes: array
    by_class: dict[int, array]


@lru_cache(maxsize=None)
def structure_table(m: int) -> StructureTable:
    check_enum(m)  # before build_modulus, which factors m
    tc = _typecode(m)
    by_class = _class_map(m)
    classes = array(tc, [0]) * (m + 1)
    for e, members in by_class.items():
        for a in members:
            classes[a] = e
    return StructureTable(
        modulus=build_modulus(m),
        idempotents=enumerate_idempotents(m),
        regulars=array(tc, _merged(by_class)),
        orders=order_table(m),
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
    for r, e in factorize(n).factors:
        out = [d * r**i for d in out for i in range(e + 1)]
    return sorted(out)


def _tails(p: int, alpha: int) -> array:
    """T's component at each r in 0..p^alpha - 1: ceil(alpha / v_p(r)) where
    p divides r (1 at r = 0, where v = alpha), and 1 at the units."""
    q = p**alpha
    out = array("B", [1]) * q
    for v in range(1, alpha):
        out[:: p**v] = array("B", [-(-alpha // v)]) * (q // p**v)
    out[0] = 1
    return out


def _prime_bits(p: int, alpha: int, bit: int) -> array:
    """bit at the multiples of p in 0..p^alpha - 1, and 0 at the units."""
    q = p**alpha
    out = array(_typecode(bit), [0]) * q
    out[::p] = array(out.typecode, [bit]) * (q // p)
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
