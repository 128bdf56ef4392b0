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
    canonicalize,
    check_enum,
    factorize,
    valuation,
)
from .idempotents import (
    IdempotentSet,
    enumerate_idempotents,
    idem_class,
    index,
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


def _require_same_class(m: int, b: int, c: int) -> int:
    for x in (b, c):
        if not is_regular(m, x):
            raise ValueError(f"{x} is not regular modulo {m}")
    eb = idem_class(m, b)
    ec = idem_class(m, c)
    if eb != ec:
        raise ValueError(
            f"operands {b} and {c} lie in different classes modulo {m} "
            f"({eb} vs {ec})"
        )
    return eb


def orbit_gcd(m: int, b: int, c: int) -> int:
    """D_m(b, c): gcd of the exponents n <= |b| with b^n in orb(c).  Only
    defined for regular operands sharing an idempotent class."""
    b = canonicalize(b, m)
    c = canon(c, m)
    _require_same_class(m, b, c)
    target = orbit(m, c).elements
    g = 0
    x = 1 % m
    for n in range(1, order(m, b).order + 1):
        x = x * b % m
        if canon(x, m) in target:
            g = math.gcd(g, n)
    return g


def relative_order(m: int, a: int, b: int) -> int:
    """|a,b|_m = |orb(a) ∩ orb(b)| = |a|_m / D_m(a, b)."""
    return order(m, a).order // orbit_gcd(m, a, b)


def equivalent(m: int, a: int, b: int) -> bool:
    """a ~ b: same idempotent class, same order, and a is a power of b."""
    a = canonicalize(a, m)
    b = canon(b, m)
    for x in (a, b):
        if not is_regular(m, x):
            raise ValueError(f"{x} is not regular modulo {m}")
    ia = order(m, a)
    ib = order(m, b)
    return (
        ia.idem_class == ib.idem_class
        and ia.order == ib.order
        and index(m, b, a) is not None
    )


def _coprime_split(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u | x, v | y, (u, v) = 1 and u*v = lcm(x, y)."""
    u, v = x, y
    while True:
        g = math.gcd(u, v)
        if g == 1:
            return u, v
        # Move the shared part entirely to the side holding more of it.
        for p, _ in factorize(g).factors:
            if valuation(x, p) >= valuation(y, p):
                while v % p == 0:
                    v //= p
            else:
                while u % p == 0:
                    u //= p


def join_witness(m: int, b: int, c: int, a: int) -> int:
    """Given regular b, c with a common class and a in orb(b) ∩ orb(c),
    produce d in the same class with a in orb(d) and |d| = lcm(|b|, |c|).

    Construction: raise b and c to kill the shared part of their orders,
    leaving coprime orders whose product is the lcm; the product of those
    powers has the right order, and if a is not directly in its orbit an
    exhaustive scan over the class finds a valid witness.
    """
    b = canonicalize(b, m)
    c = canon(c, m)
    a = canon(a, m)
    e = _require_same_class(m, b, c)
    if not is_regular(m, a) or idem_class(m, a) != e:
        raise ValueError(f"{a} is not in the class of {b} and {c} modulo {m}")
    if a not in orbit(m, b).elements or a not in orbit(m, c).elements:
        raise ValueError(f"{a} is not in both orbits of {b} and {c} modulo {m}")
    nb = order(m, b).order
    nc = order(m, c).order
    target = math.lcm(nb, nc)
    u, v = _coprime_split(nb, nc)
    d = canon(pow(b, nb // u, m) * pow(c, nc // v, m), m)
    if order(m, d).order == target and a in orbit(m, d).elements:
        return d
    check_enum(m)
    for cand in regular_set(m, e):
        if order(m, cand).order == target and a in orbit(m, cand).elements:
            return cand
    raise AssertionError(
        f"no witness of order {target} through {a} modulo {m}"
    )


def class_product(m: int, e: int) -> int:
    """Product of all elements of R_m^e modulo m."""
    out = 1
    for a in regular_set(m, e):
        out = out * a % m
    return canon(out, m)
