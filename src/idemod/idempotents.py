"""Idempotent residues, the generalized order, and the power calculus.

An idempotent modulo m is e with e^2 = e (mod m).  The generalized order
|a|_m is the smallest n >= 1 making a^n idempotent; it is defined for every
residue, not just units, and extends the classical multiplicative order.
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
    check_work,
    multiplicative_order,
    valuation,
)
from .units import crt_join


def is_idempotent(m: int, a: int) -> bool:
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    return a * a % m == a % m


class IdempotentSet(Record):
    modulus: Modulus
    elements: tuple[int, ...]  # sorted ascending

    def __contains__(self, a: int) -> bool:
        return is_idempotent(self.modulus.m, a)


@lru_cache(maxsize=None)
def enumerate_idempotents(m: int) -> IdempotentSet:
    """All 2^omega(m) idempotents, built as CRT combinations of 0/1 across
    the prime-power divisors of m."""
    mod = build_modulus(m)
    pps = mod.prime_powers
    return IdempotentSet(mod, crt_join(m, pps, [[0, 1]] * len(pps)))


class OrderInfo(Record):
    modulus: Modulus
    a: int
    order: int
    idem_class: int


def order_parts(mod: Modulus, a: int) -> tuple[int, int]:
    """(L, T): L = lcm of unit orders over prime powers coprime to a,
    T = max over shared primes of ceil(alpha_p / v_p(a)), each 1 if empty."""
    L = 1
    T = 1
    for p, alpha in mod.factorization.factors:
        q = p**alpha
        if a % p == 0:
            v = min(valuation(a, p), alpha)
            T = max(T, -(-alpha // v))
        else:
            L = math.lcm(L, multiplicative_order(a % q, q))
    return L, T


@lru_cache(maxsize=1 << 14)
def order(m: int, a: int) -> OrderInfo:
    """Generalized order |a|_m = L * ceil(T/L) together with the idempotent
    class a^{|a|_m}.  The bound keeps an audit sweep from holding every
    residue of its range."""
    mod = build_modulus(m)
    a = a % m or m
    if m == 1:
        return OrderInfo(mod, 1, 1, 1)
    return order_info(mod, a, *order_parts(mod, a))


def order_info(mod: Modulus, a: int, L: int, T: int) -> OrderInfo:
    """The OrderInfo of a, whose order_parts are (L, T)."""
    n = L * (-(-T // L))
    return OrderInfo(mod, a, n, pow(a, n, mod.m) or mod.m)


def idem_class(m: int, a: int) -> int:
    return order(m, a).idem_class


def signed_power(m: int, a: int, z: int) -> int:
    """a^z with the extended exponent conventions: a^0 := a^{|a|_m} (the
    idempotent class) and a^{-1} := a^{|a|_m - 1}, negative z iterating the
    latter."""
    a = canonicalize(a, m)
    if z >= 1:
        return pow(a, z, m) or m
    info = order(m, a)
    if z == 0:
        return info.idem_class
    # a^{-1}: when |a| = 1 the exponent |a|-1 is 0, which again means a^0.
    inv = pow(a, info.order - 1, m) if info.order > 1 else info.idem_class
    return pow(inv, -z, m) or m


def index(m: int, b: int, a: int) -> int | None:
    """Smallest k >= 1 with b^k = a (mod m), or None.  The powers of b are
    eventually periodic: they take T - 1 + L distinct values, a tail of
    T - 1 and a cycle of L (see order_parts), and at most m.  So a walk of
    that many steps meets every power; one longer than the enumeration cap
    is refused before it starts."""
    b, a = canonicalize(b, m), canonicalize(a, m)
    L, T = order_parts(build_modulus(m), b)
    check_work(T - 1 + L, "powers")
    x = b
    for k in range(1, T + L):
        if x == a:
            return k
        x = x * b % m or m
    return None


def tower_mod(m: int, base: int, height: int) -> int:
    """a_height mod m for the tower a_1 = base, a_n = base^{a_{n-1}}.

    When the exponent already exceeds the generalized order L of the base,
    b^(qL+r) = b^(r+L) (mod m) because b^L is idempotent, so the recursion
    can reduce exponents modulo L as long as it adds L back.
    """
    if height < 1:
        raise ValueError(f"tower height must be >= 1, got {height}")
    if base < 1:
        raise ValueError(f"tower base must be >= 1, got {base}")
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")

    def exact(h: int, cap: int) -> int | None:
        # True tower value when it stays below cap, else None.
        v = base
        for _ in range(h - 1):
            if base == 1:
                return 1
            if v > 64 or base**v >= cap:
                return None
            v = base**v
        return v if v < cap else None

    def rec(mm: int, h: int) -> int:
        if mm == 1:
            return 1
        b = canon(base, mm)
        if h == 1:
            return b
        L = order(mm, b).order
        small = exact(h - 1, 2 * mm + mm)  # exponent a_{h-1} when computable
        if small is not None:
            return canon(pow(b, small, mm), mm)
        e = rec(L, h - 1) + L
        return canon(pow(b, e, mm), mm)

    return rec(m, height)
