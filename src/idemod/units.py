"""The unit groups U(p^alpha) of the prime powers of m, and the CRT join of
answers per prime power.

U(p^alpha) is cyclic of order phi for odd p, and U(2^alpha) is <-1> x <5>
for alpha >= 3 (Gauss); only this module asks whether p = 2.  Its names:
- UnitGroup, unit_group(p, alpha): the cyclic factors, their orders and
  generators, a unit's components, the exponent lambda(p^alpha) and its
  primes; generator(p, alpha): a generator of U(p^alpha), p odd;
- class_groups(m, a): the U(p^alpha) of the p^alpha of m with p not
  dividing a, whose product is U(mu), a copy of a's class R_m^e;
- local_roots(p, alpha, k, a): the roots of x^k = a, counted, then listed;
- is_power(x, group, k), nonpowers(p, alpha, primes): the k-th power test
  of a unit in a group, and the units that are a q-th power for no q of primes;
- crt_join, spread, multiples, listed and typecode: answers per prime
  power joined by CRT, as lists or byte patterns, and the array typecode
  of a table of residues.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import compress

from .arith import Record, build_modulus, valuation


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

    @property
    def exponent(self) -> int:
        """lambda(q), the exponent of U(q) (Carmichael)."""
        return math.lcm(*self.orders)

    @property
    def primes(self) -> list[int]:
        """The primes of the exponent, ascending."""
        return [r for r, _ in build_modulus(self.exponent).factorization.factors]


@lru_cache(maxsize=None)
def unit_group(p: int, alpha: int) -> UnitGroup:
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


def class_groups(m: int, a: int) -> list[UnitGroup]:
    """The U(p^alpha) of the p^alpha of m with p not dividing a: their
    product is U(mu), mu the product of their q, a copy of a's class R_m^e."""
    return [unit_group(p, alpha)
            for p, alpha in build_modulus(m).factorization.factors if a % p]


@lru_cache(maxsize=None)
def generator(p: int, alpha: int) -> int:
    """A generator of U(p^alpha) for an odd prime p: the least primitive
    root of p, lifted."""
    return _lift_root(_least_primitive_root(p), p, alpha)


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


def is_power(x: int, group: UnitGroup, k: int) -> bool:
    """Whether the unit x is a k-th power in group, U(q): in each cyclic
    factor of order n, that its component y has y^(n/(n, k)) = 1."""
    return all(pow(y, n // math.gcd(n, k), group.q) == 1
               for y, n in zip(group.split(x % group.q), group.orders))


def nonpowers(p: int, alpha: int, primes: list[int]) -> bytes:
    """1 at the units r in 0..p^alpha - 1 that are a q-th power for no q of
    primes, primes of lambda(p^alpha), and 0 elsewhere.  The q-th powers
    are those of the last cyclic factor of U(p^alpha), of order n and
    generated by g: for odd p it is the whole group, and in <-1> x <5> only
    q = 2 occurs, which kills -1.  They are the n/q powers of g^q, walked."""
    group = unit_group(p, alpha)
    size, n = group.q, group.orders[-1]
    g = group.generators[-1] or generator(p, alpha)
    out = bytearray(multiples(p, size, 0))
    for q in primes:
        h, x = pow(g, q, size), 1
        for _ in range(n // q):
            out[x] = 0
            x = x * h % size
    return bytes(out)


def local_roots(p: int, alpha: int, k: int, a: int):
    """(count, listing) for x^k = a (mod p^alpha): the number of roots x in
    0..p^alpha - 1, and a function that lists them."""
    q = p**alpha
    a %= q
    if not a:
        step = p ** -(-alpha // k)
        return q // step, lambda: range(0, q, step)
    v = valuation(a, p)
    if v:
        if v % k:
            return 0, list
        low, lifts = p ** (alpha - v), p ** (v - v // k)
        count, listing = local_roots(p, alpha - v, k, a // p**v)
        return count * lifts, lambda: [
            p ** (v // k) * (y + j * low) for y in listing() for j in range(lifts)
        ]
    group = unit_group(p, alpha)
    if not is_power(a, group, k):
        return 0, list
    parts = [
        (y, n, gen, math.gcd(k, n))
        for y, n, gen in zip(group.split(a), group.orders, group.generators)
    ]
    return math.prod(g for *_, g in parts), lambda: _unit_roots(k, q, parts)


def _unit_roots(k: int, q: int, parts) -> list[int]:
    """The roots of x^k = a in U(q), from a's components in the cyclic
    factors: one root and the k-th roots of unity per factor."""
    roots = [1]
    for y, n, gen, g in parts:
        x, zeta = _cyclic_root(y, k, n, g, gen, q)
        twists = [x]
        for _ in range(g - 1):
            twists.append(twists[-1] * zeta % q)
        roots = [r * t % q for r in roots for t in twists]
    return roots


def _cyclic_root(y: int, k: int, n: int, g: int, gen: int, P: int):
    """(x, zeta) for a k-th power y of a cyclic group C of units modulo P,
    of order n and generated by gen (or all of U(P) when gen is 0), with
    g = (k, n): one root x of x^k = y in C, and a generator zeta of C's
    k-th roots of unity, which number g.

    x^k = y is (x^g)^(k/g) = y, and k/g is prime to n/g, which y's order
    divides: so y' = y^((k/g)^-1 mod n/g) leaves x^g = y' to solve.  Split
    n = n_g * t, n_g holding the primes of g.  x0 = y'^(g^-1 mod t) leaves
    y' / x0^g of order dividing n_g; its component in the Sylow q-subgroup
    is a q^e-th power there (q^e || g), and the subgroup is cyclic,
    generated by gamma = c^(n/q^s) (q^s || n) for any c with c^(n/q) != 1.
    One q^e-th root of that component, read off its log to the base gamma,
    fixes x's q-part (Adleman, Manders and Miller 1977)."""
    y = pow(y, pow(k // g, -1, n // g), P)
    primes = build_modulus(g).factorization.factors
    t = n
    for q, _ in primes:
        t //= q ** valuation(n, q)
    x = pow(y, pow(g, -1, t), P)
    rest = y * pow(x, -g, P) % P
    zeta = 1
    for q, e in primes:
        qs = q ** valuation(n, q)
        gamma = pow(gen or _nonresidue(q, n, P), n // qs, P)
        # The projection onto the Sylow q-subgroup, a power of rest.
        other = n // t // qs
        part = pow(rest, other * pow(other, -1, qs), P)
        root = pow(gamma, _sylow_log(part, gamma, q, qs, P) // q**e, P)
        x = x * pow(root, pow(g // q**e, -1, qs), P) % P
        zeta = zeta * pow(gamma, qs // q**e, P) % P
    return x, zeta


def _nonresidue(q: int, n: int, P: int) -> int:
    """The least c prime to P with c^(n/q) != 1 (mod P), for U(P) cyclic of
    order n and q a prime of n: a q-th power non-residue, by trial."""
    c = 2
    while math.gcd(c, P) != 1 or pow(c, n // q, P) == 1:
        c += 1
    return c


def _sylow_log(x: int, gamma: int, q: int, qs: int, P: int) -> int:
    """The l in 0..qs-1 with gamma^l = x (mod P), for gamma of order qs, a
    power of the prime q: l's base-q digits one at a time, the i-th the log
    of (x / gamma^(l mod q^i))^(qs/q^(i+1)) to the base zeta = gamma^(qs/q),
    of order q, by baby steps and giant steps (Pohlig and Hellman 1978)."""
    zeta = pow(gamma, qs // q, P)
    steps = math.isqrt(q - 1) + 1
    baby = {}
    z = 1
    for j in range(steps):
        baby.setdefault(z, j)
        z = z * zeta % P
    giant = pow(z, -1, P)
    inverse = pow(gamma, -1, P)
    l, place = 0, 1
    while place < qs:
        w = pow(x * pow(inverse, l, P) % P, qs // (place * q), P)
        i = 0
        while w not in baby:
            w = w * giant % P
            i += 1
        l += (i * steps + baby[w]) * place
        place *= q
    return l


def crt_join(m: int, qs: list[int], parts: list[list[int]]) -> tuple[int, ...]:
    """The x in 1..m, ascending, whose residue modulo each q of qs lies in
    its part: sums of one term per part, each term 1 modulo its q and 0
    modulo the others."""
    out = [0]
    for q, xs in zip(qs, parts):
        unit = m // q * pow(m // q, -1, q) % m
        out = [(s + x * unit) % m for s in out for x in xs]
    return tuple(sorted(x or m for x in out))


def multiples(p: int, q: int, bit: int, step: int = 0) -> bytes:
    """The bytes over r in 0..q-1 that read bit at the multiples of p (but
    not at those of step, if given), and 1 - bit elsewhere."""
    out = bytearray([1 - bit]) * q
    out[::p] = bytes([bit]) * (q // p)
    if step:
        out[::step] = bytes([1 - bit]) * (q // step)
    return bytes(out)


def spread(m: int, pattern: bytes) -> int:
    """pattern, over r in 0..q-1 for a q dividing m, read at a mod q for
    each residue a in 1..m, as an int whose byte a - 1 is for a: the bytes
    from r = 1 on, then r = 0, run m/q times.  The patterns of the prime
    powers of m so combine by CRT with & and |."""
    return int.from_bytes((pattern[1:] + pattern[:1]) * (m // len(pattern)), "big")


def listed(m: int, keep: int) -> list[int]:
    """The residues a in 1..m whose byte a - 1 in keep is 1, ascending."""
    return list(compress(range(1, m + 1), keep.to_bytes(m, "big")))


def typecode(n: int) -> str:
    """The smallest unsigned array typecode holding 0..n."""
    return next(tc for tc in "BHIQ" if n >> 8 * array(tc).itemsize == 0)
