"""Normal and regular residues, class groups, orbits, and relative orders.

A residue a is *regular* when a^(|a|+1) = a, i.e. its powers cycle through a
group with identity its idempotent class e.  R_m^e denotes the regular
residues with class e.  A residue is *normal* when a^k is idempotent exactly
for the multiples of |a|.  Regular implies normal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    Modulus,
    build_modulus,
    canon,
    check_enum,
    factorize,
    least_divisor,
    valuation,
)
from .idempotents import (
    IdempotentSet,
    OrderInfo,
    enumerate_idempotents,
    idem_class,
    is_idempotent,
    order,
    _order_parts,
)


@dataclass(frozen=True)
class ResidueClassification:
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


def _class_members(m: int, e: int | None, keep) -> list[int]:
    """The a in 1..m passing keep(m, a), restricted to idempotent class e."""
    check_enum(m)
    if e is not None and not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return [
        a for a in range(1, m + 1)
        if keep(m, a) and (e is None or idem_class(m, a) == canon(e, m))
    ]


def regular_set(m: int, e: int | None = None) -> list[int]:
    """R_m, or the class R_m^e for an idempotent e."""
    return _class_members(m, e, is_regular)


def normal_set(m: int, e: int | None = None) -> list[int]:
    return _class_members(m, e, is_normal)


@dataclass(frozen=True)
class OrbitSet:
    modulus: Modulus
    generator: int
    elements: frozenset[int]


def orbit(m: int, a: int) -> OrbitSet:
    """orb_m(a) = {a^1, ..., a^|a|} mod m."""
    info = order(m, a)
    a = info.a
    elems = set()
    x = 1 % m
    for _ in range(info.order):
        x = x * a % m
        elems.add(canon(x, m))
    return OrbitSet(info.modulus, a, frozenset(elems))


@dataclass(frozen=True)
class StructureTable:
    """Per-modulus tables over the regular residues: each one's order and
    idempotent class, and the classes R_m^e themselves.  Orbits are not
    stored, since they total sum(|a|) entries; orbit(m, a) builds one."""

    modulus: Modulus
    idempotents: IdempotentSet
    regulars: tuple[int, ...]
    orders: dict[int, int]  # a -> |a|_m, over regulars
    classes: dict[int, int]  # a -> idem class, over regulars
    by_class: dict[int, tuple[int, ...]]  # e -> R_m^e ascending, first-seen e


@lru_cache(maxsize=None)
def structure_table(m: int) -> StructureTable:
    mod = build_modulus(m)
    check_enum(m)
    regs = tuple(regular_set(m))
    orders = {}
    classes = {}
    by_class: dict[int, list[int]] = {}
    for a in regs:
        info = order(m, a)
        orders[a] = info.order
        classes[a] = info.idem_class
        by_class.setdefault(info.idem_class, []).append(a)
    return StructureTable(
        modulus=mod,
        idempotents=enumerate_idempotents(m),
        regulars=regs,
        orders=orders,
        classes=classes,
        by_class={e: tuple(members) for e, members in by_class.items()},
    )


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
    defined for regular operands sharing an idempotent class.

    orb(c) is a group, so the n with b^n in orb(c) are exactly the multiples
    of D, and D is the least divisor d of |b| with b^d in orb(c).  Hence
    D(b, c) = 1 exactly when b lies in orb(c): equivalent and join_witness
    test orbit membership this way."""
    ib, ic = _same_class(m, b, c)
    return _orbit_gcd(m, ib.a, ic.a)


@lru_cache(maxsize=4096)
def _orbit_gcd(m: int, b: int, c: int) -> int:
    """orbit_gcd on canonical operands already checked to be regular and of
    one class.  The audit asks for the same few pairs of one modulus over
    and over; the bound keeps the memo from holding every pair of a sweep."""
    target = orbit(m, c).elements
    return least_divisor(
        order(m, b).order, lambda d: canon(pow(b, d, m), m) in target
    )


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
    # The public orbit_gcd also rejects an a that is irregular or of another
    # class; _orbit_gcd would not (an idempotent a has |a| = 1, so it
    # returns 1 without a membership test).
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
