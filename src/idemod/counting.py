"""Order-counting functions on the regular classes and function classifiers.

r_m^e(k) counts the elements of R_m^e of order exactly k; rho_m^e(k) counts
those of order dividing k.  For weakly even m (2-part at most 4) both have
closed forms through the totients of the prime-power divisors.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from .arith import Modulus, Record, build_modulus, canon, check_enum, valuation
from .residues import _powers, class_members, order_table


def r_count(m: int, e: int, k: int) -> int:
    """Number of a in R_m^e with |a|_m = k."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    members = class_members(m, e)  # checks e, and m against the cap
    orders = order_table(m)
    return sum(1 for a in members if orders[a] == k)


def rho_count(m: int, e: int, k: int) -> int:
    """Number of a in R_m^e with |a|_m dividing k."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    members = class_members(m, e)  # checks e, and m against the cap
    orders = order_table(m)
    return sum(1 for a in members if k % orders[a] == 0)


def rho_closed_form(m: int, k: int) -> int:
    """rho_m^1(k) = prod over prime powers p^a || m of gcd(k, phi(p^a)).
    Valid for weakly even m only."""
    mod = build_modulus(m)
    if not mod.weakly_even:
        raise ValueError(f"{m} is not weakly even: closed form inapplicable")
    out = 1
    for p, alpha in mod.factorization.factors:
        out *= math.gcd(k, p ** (alpha - 1) * (p - 1))
    return out


def rho_prime_power(m: int, q: int, beta: int) -> int:
    """rho_m^1(q^beta) = q^(sum of min(beta, delta_i)) where q^delta_i is the
    q-part of phi(p_i^alpha_i).  Requires weakly even m and q^beta | psi(m)."""
    mod = build_modulus(m)
    if not mod.weakly_even:
        raise ValueError(f"{m} is not weakly even")
    if beta < 1 or mod.psi % q**beta != 0:
        raise ValueError(f"{q}^{beta} does not divide psi({m}) = {mod.psi}")
    s = 0
    for p, alpha in mod.factorization.factors:
        s += min(beta, valuation(p ** (alpha - 1) * (p - 1), q))
    return q**s


class OrbitUnionSize(Record):
    """Measured size of orb(kR_m^e) next to the k*r/phi(k) formula value.

    The two are reported side by side, not asserted equal: distinct order-k
    classes share sub-orbits, so the formula overcounts (m=12, e=1, k=2
    gives 6 against a true size of 4).
    """

    modulus: Modulus
    e: int
    k: int
    true_size: int
    formula_value: int


def orbit_union_size(m: int, e: int, k: int) -> OrbitUnionSize:
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    members = class_members(m, e)  # checks e, and m against the cap
    orders = order_table(m)
    union: set[int] = set()
    count = 0
    for a in members:
        if orders[a] == k:
            union |= _powers(m, a, k)
            count += 1
    return OrbitUnionSize(
        build_modulus(m), canon(e, m), k, len(union),
        k * count // build_modulus(k).phi,
    )


class FunctionClassification(Record):
    domain_bound: int
    is_m: bool
    is_qm: bool
    is_di: bool
    is_di_pp: bool
    witnesses: dict[str, tuple]  # first counterexample per failed class


def classify_function(f: Callable[[int], int], n: int) -> FunctionClassification:
    """Empirically classify f on 1..n as multiplicative / quasimultiplicative
    / division-invariant / prime-power division-invariant.  Each flag means
    only "no counterexample among arguments up to n".  n counts against
    the enumeration cap."""
    if n < 1:
        raise ValueError(f"bound n must be >= 1, got {n}")
    check_enum(n)
    vals = [None, *map(f, range(1, n + 1))]

    def multiplicative():
        for a in range(1, n + 1):
            for b in range(a, n // a + 1):
                if math.gcd(a, b) == 1 and vals[a * b] != vals[a] * vals[b]:
                    yield a, b, vals[a * b], vals[a] * vals[b]

    def quasimultiplicative():
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                l = math.lcm(a, b)
                if l <= n and vals[l] != math.lcm(vals[a], vals[b]):
                    yield a, b, vals[l], math.lcm(vals[a], vals[b])

    def division_invariant():
        for a in range(1, n + 1):
            for b in range(a, n + 1, a):
                if vals[b] % vals[a] != 0:
                    yield a, b, vals[a], vals[b]

    def prime_power_division_invariant():
        for q in _primes_upto(n):
            lo = q
            while lo * q <= n:
                if vals[lo * q] % vals[lo] != 0:
                    yield lo, lo * q, vals[lo], vals[lo * q]
                lo *= q

    searches = {
        "M": multiplicative(),
        "QM": quasimultiplicative(),
        "DI": division_invariant(),
        "DIpp": prime_power_division_invariant(),
    }
    first = {label: next(search, None) for label, search in searches.items()}
    witnesses = {label: w for label, w in first.items() if w is not None}
    return FunctionClassification(
        n, *(label not in witnesses for label in searches), witnesses)


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


def lcm_lift(g: Callable[[int], int], n: int) -> int:
    """f(n) = lcm of g over n's prime-power components (empty lcm = 1).
    When g is prime-power division-invariant the lifted f is
    quasimultiplicative."""
    if n < 1:
        raise ValueError(f"need a positive argument, got {n}")
    fact = build_modulus(n).factorization
    return math.lcm(*(g(p**a) for p, a in fact.factors))


# Named corpus for the CLI classifier; gcd:<b> binds the second argument.
def builtin_function(name: str) -> Callable[[int], int]:
    if name == "phi":
        return lambda x: build_modulus(x).phi
    if name == "psi":
        return lambda x: build_modulus(x).psi
    if name == "identity":
        return lambda x: x
    if name == "const":
        return lambda x: 1
    if name.startswith("gcd:"):
        b = int(name.split(":", 1)[1])
        return lambda x: math.gcd(x, b)
    raise ValueError(
        f"unknown function {name!r}; choose phi, psi, identity, const, or gcd:<b>"
    )
