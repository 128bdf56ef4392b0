"""Solvability of x^k = a (mod m): exhaustive solving, the idempotent-power
criterion for regular a, the omega invariant, and generalized primitive roots.

omega_m(a) is the largest order among regular residues whose orbit contains
a.  The solvability criterion for regular a reads: x^k = a is solvable iff
a^(omega/(k, omega)) is idempotent, and G_m = {g : omega_m(g) = |g|_m}.

omega is computed, not searched for.  Only a's class R_m^e can hold an orbit
through a, and it is a group isomorphic to U(mu), mu the product of the
p^alpha of m with p not dividing a.  In a finite abelian group the largest
cyclic subgroup through a splits over the primes q of its exponent
lambda(mu) (Carmichael): its q-part has order q^v_q(lambda) when q does not
divide |a|, and q^(v_q(|a|) + h) when it does, where h, the q-height of a,
is the largest h with a a q^h-th power; a is one exactly when it is one in
every component U(p^alpha).  omega_info's maximizers still need a scan, of
the members of a's class whose order is omega.  oracle.oracle_omega walks
the orbits.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    valuation,
)
from .idempotents import is_idempotent, order
from .residues import (
    _powers,
    _regular_order,
    class_members,
    is_regular,
    order_table,
    regular_set,
)


class CongruenceSolution(Record):
    modulus: Modulus
    k: int
    a: int
    solutions: tuple[int, ...]
    regular_solutions: tuple[int, ...]
    solvable: bool
    bc01_verdict: bool | None  # present only when a is regular


class OmegaInfo(Record):
    modulus: Modulus
    a: int
    omega_a: int
    omega_set: tuple[int, ...]  # the maximizing generators, sorted
    ind_sup: int  # omega_a / |a|_m

    def __init__(self, modulus: Modulus, a: int, omega_a: int,
                 omega_set: tuple[int, ...], ind_sup: int):
        # Built by the thousand in an audit: see Record.
        init = object.__setattr__
        init(self, "modulus", modulus)
        init(self, "a", a)
        init(self, "omega_a", omega_a)
        init(self, "omega_set", omega_set)
        init(self, "ind_sup", ind_sup)


@lru_cache(maxsize=1 << 12)
def _omega_cache(m: int, a: int) -> OmegaInfo:
    """omega_info's memo, bounded like order's, so that an audit sweep does
    not hold every residue of its range."""
    orders = order_table(m)
    a = canon(a, m)
    n = orders[a]
    if not n:
        raise ValueError(f"{a} is not regular modulo {m}")
    info = order(m, a)
    w = _omega(info.modulus, a, n)
    # orb(b) is cyclic, so it holds a exactly when b^(|b|/|a|), which
    # generates its one subgroup of order |a|, lies in orb(a).
    target = _powers(m, a, n)
    maximizers = tuple(
        b
        for b in class_members(m, info.idem_class)
        if orders[b] == w and canon(pow(b, w // n, m), m) in target
    )
    return OmegaInfo(info.modulus, a, w, maximizers, w // n)


def omega_info(m: int, a: int) -> OmegaInfo:
    return _omega_cache(m, canonicalize(a, m))


@lru_cache(maxsize=1024)
def omega_value(m: int, a: int) -> int:
    """omega_m(a) for a regular a, by the closed form alone.  The audit asks
    bc01 for the same a under 30 exponents; the bound keeps the memo from
    holding every residue of a sweep."""
    info = _regular_order(m, a)
    return _omega(info.modulus, info.a, info.order)


def _omega(mod: Modulus, a: int, n: int) -> int:
    """omega_m(a) for a regular a of order n = |a|_m: the product over the
    primes q of lambda(mu) of q^v_q(lambda) when q does not divide n, and of
    q^(v_q(n) + h) when it does, h being the largest with a a q^h-th power
    in every unit component p^alpha of mu."""
    units = [(p, alpha) for p, alpha in mod.factorization.factors if a % p]
    lam = math.lcm(*(_carmichael(p, alpha) for p, alpha in units))
    w = 1
    for q, e in build_modulus(lam).factorization.factors:
        v = valuation(n, q)
        if not v:
            w *= q**e
            continue
        h = 0
        while v + h < e and all(
            _is_power(a, p, alpha, q, h + 1) for p, alpha in units
        ):
            h += 1
        w *= q ** (v + h)
    return w


def _carmichael(p: int, alpha: int) -> int:
    """lambda(p^alpha), the exponent of U(p^alpha)."""
    if p == 2 and alpha >= 3:
        return 2 ** (alpha - 2)
    return p ** (alpha - 1) * (p - 1)


def _is_power(x: int, p: int, alpha: int, q: int, h: int) -> bool:
    """Whether the unit x is a q^h-th power modulo p^alpha, for h >= 1.
    U(p^alpha) is cyclic of order phi for odd p, where that holds exactly
    when x^(phi/(phi, q^h)) = 1.  U(2^alpha) = {+-5^k} is a 2-group, all of
    it q^h-th powers for odd q, and its 2^h-th powers are the units
    = 1 (mod 2^(h+2)), only 1 once h + 2 >= alpha."""
    if p == 2:
        return q != 2 or x % 2 ** min(h + 2, alpha) == 1
    phi = p ** (alpha - 1) * (p - 1)
    return pow(x, phi // math.gcd(phi, q**h), p**alpha) == 1


def solvable_bc01(m: int, k: int, a: int) -> bool:
    """Criterion for regular a: x^k = a solvable iff a^(w/(k,w)) is
    idempotent, where w = omega_m(a)."""
    a = canonicalize(a, m)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if not is_regular(m, a):
        raise ValueError(f"{a} is not regular modulo {m}: criterion inapplicable")
    w = omega_value(m, a)
    return is_idempotent(m, pow(a, w // math.gcd(k, w), m))


def solve(m: int, k: int, a: int) -> CongruenceSolution:
    """Exhaustive solution set of x^k = a, with the regular subset and, for
    regular a, the criterion verdict alongside."""
    check_enum(m)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    a = canon(a, m)
    sols = tuple(x for x in range(1, m + 1) if pow(x, k, m) == a % m)
    regs = tuple(x for x in sols if is_regular(m, x))
    verdict = solvable_bc01(m, k, a) if is_regular(m, a) else None
    return CongruenceSolution(
        build_modulus(m), k, a, sols, regs, bool(sols), verdict
    )


@lru_cache(maxsize=None)
def gen_primitive_roots(m: int) -> tuple[int, ...]:
    """G_m = {g regular: omega_m(g) = |g|_m}; always nonempty."""
    orders = order_table(m)
    mod = build_modulus(m)
    out = []
    for g in regular_set(m):
        n = orders[g]
        if _omega(mod, g, n) == n:
            out.append(g)
    return tuple(out)


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
