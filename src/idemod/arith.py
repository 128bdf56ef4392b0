"""Factored-modulus arithmetic.

Moduli are plain ints at every public boundary of the package; the factored
``Modulus`` record is derived from one by the cached ``build_modulus(m)``.
Residues are canonical integers in {1..m}, where the value m itself stands
for the residue class of 0.  Every public operation canonicalizes its integer
inputs at the boundary, so callers may pass arbitrary integers.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

DEFAULT_MAX_ENUM = 1_000_000

# Above this, trial division alone is too slow and Pollard rho takes over.
_TRIAL_DIVISION_LIMIT = 10**12


class EnumerationCapError(Exception):
    """A full-set enumeration was requested for a modulus beyond the cap."""

    def __init__(self, m: int, cap: int):
        super().__init__(f"modulus {m} exceeds enumeration cap {cap}")
        self.m = m
        self.cap = cap


def max_enum() -> int:
    """Current enumeration cap (env IDEM_MAX_ENUM, default 1,000,000)."""
    return int(os.environ.get("IDEM_MAX_ENUM", DEFAULT_MAX_ENUM))


def check_enum(m: int) -> None:
    """Reject a modulus that is not positive or lies beyond the cap."""
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    cap = max_enum()
    if m > cap:
        raise EnumerationCapError(m, cap)


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __post_init__(self):
        prod = 1
        for p, a in self.factors:
            if a <= 0:
                raise ValueError(f"nonpositive exponent in {self.factors}")
            prod *= p**a
        if prod != self.value:
            raise ValueError(f"factors {self.factors} do not multiply to {self.value}")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be distinct and ascending")


@dataclass(frozen=True)
class Modulus:
    m: int
    factorization: Factorization
    phi: int
    psi: int
    omega: int
    square_free: bool
    weakly_even: bool
    barely_even: bool

    @property
    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**a for p, a in self.factorization.factors)

    def __repr__(self):  # keep cached instances readable in test output
        return f"Modulus({self.m})"


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic for n < 3.3e24 with these bases.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1; n = 1 gives an empty factor list."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need a positive integer")
    counts: dict[int, int] = {}

    def _account(p: int):
        counts[p] = counts.get(p, 0) + 1

    rest = n
    for p in (2, 3):
        while rest % p == 0:
            _account(p)
            rest //= p
    d = 5
    while d * d <= rest and d * d <= _TRIAL_DIVISION_LIMIT:
        for q in (d, d + 2):
            while rest % q == 0:
                _account(q)
                rest //= q
        d += 6

    stack = [rest] if rest > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if _is_probable_prime(v):
            _account(v)
            continue
        f = _pollard_rho(v)
        stack.append(f)
        stack.append(v // f)

    return Factorization(n, tuple(sorted(counts.items())))


@lru_cache(maxsize=None)
def build_modulus(n: int) -> Modulus:
    """Modulus with all derived totients and parity flags populated."""
    if n < 1:
        raise ValueError(f"invalid modulus {n}: need a positive integer")
    fact = factorize(n)
    phi = 1
    psi = 1
    for p, a in fact.factors:
        t = p ** (a - 1) * (p - 1)
        phi *= t
        psi = psi * t // math.gcd(psi, t)
    v2 = 0
    if fact.factors and fact.factors[0][0] == 2:
        v2 = fact.factors[0][1]
    return Modulus(
        m=n,
        factorization=fact,
        phi=phi,
        psi=psi,
        omega=len(fact.factors),
        square_free=all(a == 1 for _, a in fact.factors),
        weakly_even=v2 <= 2,
        barely_even=v2 == 1,
    )


def canon(a: int, m: int) -> int:
    """Representative of a mod m in {1..m} (m stands for the zero class)."""
    b = a % m
    return m if b == 0 else b


def canonicalize(a: int, m: int) -> int:
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    return canon(a, m)


def mod_pow(m: int, a: int, k: int) -> int:
    """a^k mod m, canonical.  k = 0 is rejected: the zeroth power is defined
    elsewhere through the generalized order."""
    if k < 1:
        raise ValueError(f"exponent {k} not allowed: mod_pow needs k >= 1")
    return canon(pow(canon(a, m), k, m), m)


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def least_divisor(n: int, holds: Callable[[int], bool]) -> int:
    """Least divisor d of n >= 1 with holds(d).  The caller guarantees that
    holds(n) is true and that the divisors of n where holds is true are
    exactly the multiples of the least one; the descent then strips each
    prime q from d while holds(d // q), one prime at a time."""
    d = n
    for q, _ in build_modulus(n).factorization.factors:
        while d % q == 0 and holds(d // q):
            d //= q
    return d


def multiplicative_order(a: int, n: int) -> int:
    """Classical order of a in the unit group mod n; requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    return least_divisor(build_modulus(n).phi, lambda d: pow(a, d, n) == 1)


def lcm_all(values) -> int:
    return reduce(math.lcm, values, 1)


def crt_combine(pairs: list[tuple[int, int]]) -> int:
    """Combine congruences x = a_i (mod m_i) over pairwise coprime moduli.

    Returns the canonical solution modulo the product of the m_i.
    """
    if not pairs:
        raise ValueError("crt_combine needs at least one congruence")
    x = 0
    prod = 1
    for a, m in pairs:
        if math.gcd(prod, m) != 1:
            raise ValueError(f"moduli are not pairwise coprime (offending modulus {m})")
        a = a % m
        # x' = x (mod prod), x' = a (mod m)
        inv = pow(prod, -1, m) if m > 1 else 0
        x = x + prod * ((a - x) * inv % m)
        prod *= m
    return canon(x, prod)
