"""Brute-force reference implementations.

Everything here works by exhaustive scan or naive iteration with no clever
shortcuts, so the fast implementations elsewhere can be validated against
these on small moduli.  All entry points honor the enumeration cap.  The
tests and the audit share this one brute-force layer: the audit builds its
per-modulus context from it alone.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .arith import build_modulus, canon, check_enum


def oracle_idempotents(m: int) -> list[int]:
    check_enum(m)
    return [e for e in range(1, m + 1) if e * e % m == e % m]


def oracle_order(m: int, a: int) -> int:
    """Iterate a, a^2, ... and report the first idempotent power."""
    check_enum(m)
    a = a % m
    x = a
    n = 1
    while x * x % m != x:
        x = x * a % m
        n += 1
    return n


def oracle_walks(m: int) -> list[list[int]]:
    """[a^1, ..., a^n] in 1..m form for each a in 1..m, n the first exponent
    with a^n idempotent (oracle_order's walk, kept): n = |a|, a^n is a's
    class, and a is regular exactly when a^n * a = a."""
    check_enum(m)
    walks = []
    for a in range(1, m + 1):
        x = a % m
        walk = [x or m]
        while x * x % m != x:
            x = x * a % m
            walk.append(x or m)
        walks.append(walk)
    return walks


def oracle_is_regular(m: int, a: int) -> bool:
    """Regular: a^{|a|+1} = a (mod m)."""
    a = canon(a, m)
    return pow(a, oracle_order(m, a) + 1, m) == a % m


def oracle_is_normal(m: int, a: int) -> bool:
    """Normal: a^k idempotent exactly when |a| divides k.

    Checked for k up to 2*phi(m); the power sequence has stabilized well
    before that, so any violation shows up in the window.
    """
    check_enum(m)
    a = canon(a, m)
    n = oracle_order(m, a)
    bound = max(2 * build_modulus(m).phi, 2 * n)
    x = 1 % m
    for k in range(1, bound + 1):
        x = x * a % m
        if (x * x % m == x) != (k % n == 0):
            return False
    return True


def oracle_regular_set(m: int) -> list[int]:
    check_enum(m)
    return [a for a in range(1, m + 1) if oracle_is_regular(m, a)]


def oracle_normal_set(m: int) -> list[int]:
    """The a that oracle_is_normal accepts, read on from the end of
    oracle_walks' walk of n = |a| steps, which pass it, up to 2n.  That
    window suffices: a^k is idempotent iff k is at least the tail T and a
    multiple of the cycle length L, so n = L*ceil(T/L).  Past n the powers
    are idempotent exactly at the multiples of L, and n + L <= 2n is the
    first of those that n does not divide, unless n = L."""
    check_enum(m)
    out = []
    for a, walk in enumerate(oracle_walks(m), 1):
        n, x = len(walk), walk[-1] % m
        for k in range(n + 1, 2 * n + 1):
            x = x * a % m
            if (x * x % m == x) != (k % n == 0):
                break
        else:
            out.append(a)
    return out


def oracle_solve(m: int, k: int, a: int) -> list[int]:
    """All x in 1..m with x^k = a (mod m), by full scan."""
    check_enum(m)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    a = canon(a, m)
    return [x for x in range(1, m + 1) if pow(x, k, m) == a % m]


def oracle_delta(m: int, a: int) -> int:
    """Smallest n >= 1 with a^n regular."""
    check_enum(m)
    a = canon(a, m)
    n = 1
    while not oracle_is_regular(m, pow(a, n, m)):
        n += 1
    return n


def oracle_mu(m: int, a: int) -> int:
    """The divisor m1 of m with idem_class(a) = 1 (mod m1) and = 0 (mod m/m1)."""
    a = canon(a, m)
    e = pow(a, oracle_order(m, a), m) % m  # 0..m-1 with 0 for the zero class
    for m1 in range(1, m + 1):
        if m % m1 == 0 and e % m1 == 1 % m1 and e % (m // m1) == 0:
            return m1
    raise AssertionError(f"no mu decomposition found for a={a} mod {m}")


def oracle_omega(m: int, a: int) -> tuple[int, tuple[int, ...]]:
    """(omega_m(a), maximizers): the largest |b| over regular b whose orbit
    {b, b^2, ..., b^|b|} contains a, and every b attaining it, ascending.
    Walks each orbit in full."""
    check_enum(m)
    a = canon(a, m)
    if not oracle_is_regular(m, a):
        raise ValueError(f"{a} is not regular modulo {m}")
    best = 0
    maximizers: list[int] = []
    for b in oracle_regular_set(m):
        n = oracle_order(m, b)
        if a % m in {pow(b, k, m) for k in range(1, n + 1)}:
            if n > best:
                best, maximizers = n, [b]
            elif n == best:
                maximizers.append(b)
    return best, tuple(maximizers)


def oracle_orbit_gcd(m: int, b: int, c: int) -> int:
    """D_m(b, c): the gcd of every n <= |b| with b^n in the literal orbit
    {c, c^2, ..., c^|c|}.  Walks both power sequences in full."""
    check_enum(m)
    target = {pow(c, k, m) for k in range(1, oracle_order(m, c) + 1)}
    g = 0
    for n in range(1, oracle_order(m, b) + 1):
        if pow(b, n, m) in target:
            g = math.gcd(g, n)
    return g


@lru_cache(maxsize=32)
def _class_table(m: int) -> dict[int, dict[int, tuple[int, int]]]:
    """{e: {n: (count, union)}}: for each idempotent class e, the regular a
    of class e grouped by order n, with how many there are and the size of
    the union of their orbits, from oracle_walks.  Cached per modulus, and
    more than one, since a claim compares m with its divisors."""
    groups: dict[int, dict[int, tuple[int, set[int]]]] = {}
    for a, walk in enumerate(oracle_walks(m), 1):
        e = walk[-1]
        if e * a % m == a % m:
            by_order = groups.setdefault(e, {})
            count, union = by_order.get(len(walk), (0, set()))
            union.update(walk)
            by_order[len(walk)] = count + 1, union
    return {
        e: {n: (count, len(union)) for n, (count, union) in by_order.items()}
        for e, by_order in groups.items()
    }


def _class_counts(m: int, e: int) -> dict[int, tuple[int, int]]:
    table = _class_table(m)
    e = canon(e, m)
    if e not in table:
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return table[e]


def oracle_r_count(m: int, e: int, k: int) -> int:
    """The number of regular a of class e with |a| = k, from the walks."""
    return _class_counts(m, e).get(k, (0, 0))[0]


def oracle_rho_count(m: int, e: int, k: int) -> int:
    """The number of regular a of class e with |a| dividing k."""
    return sum(c for n, (c, _) in _class_counts(m, e).items() if k % n == 0)


def oracle_union_size(m: int, e: int, k: int) -> int:
    """|orb(kR_m^e)|: the size of the union of the walked orbits of the
    regular a of class e with |a| = k."""
    return _class_counts(m, e).get(k, (0, 0))[1]
