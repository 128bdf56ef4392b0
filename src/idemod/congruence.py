"""Solvability of x^k = a (mod m): the roots by prime power, the
idempotent-power criterion for regular a, the omega invariant, and
generalized primitive roots.

solve scans no residues.  The roots modulo m are the CRT products of the
roots modulo each prime power p^alpha of m, of a_p = a mod p^alpha:
- a_p = 0: the multiples of p^ceil(alpha/k), since x^k = 0 exactly when
  k v_p(x) >= alpha.
- a_p = p^v u, 0 < v < alpha, u a unit: a root has k v_p(x) = v, so there
  is none unless k | v, and then x = p^(v/k) y with y^k = u modulo
  p^(alpha-v); each such y, taken modulo p^(alpha-v/k), gives p^(v-v/k)
  roots.
- a_p a unit: U(p^alpha) is a product of cyclic factors
  (residues._unit_group), and x^k = a_p splits into one equation per
  factor on a_p's component.  In a cyclic group of order n, y is a k-th
  power exactly when y^(n/g) = 1, g = (k, n), and then it has g roots:
  one found as _cyclic_root describes (Adleman, Manders and Miller 1977),
  once per prime of g, with a non-residue found by trial and no primes of
  p - 1, times the g-th roots of unity.  For 2^alpha the factors are <-1>
  and <5>, whose generators are known, and the log of a unit's 5-part is
  read one bit at a time.
The number of roots is the product of the local counts, so the answer is
priced before it is listed.  A root is regular exactly when each component
is 0 or a unit, so the regular roots join those local roots only.
oracle.oracle_solve scans.

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
every component U(p^alpha).  omega <= lambda(mu) <= phi(mu), and
lambda(mu) = phi(mu) exactly when U(mu) is cyclic, for mu = 1, 2, 4,
p^alpha and 2 p^alpha (Gauss).  So omega = phi(mu) exactly on a cyclic
class, where the orbit of each generator is the whole class: the maximizers
are its generators, the b whose component is q - 1 at q = 2, 4 and, at an
odd p^alpha, a q-th power for no prime q of phi.  On the other classes
omega_info scans the members b of order omega, each tested by whether
b^(omega/|a|) lies in a byte mask of orb(a).  oracle.oracle_omega walks
the orbits.

G_m needs no omega at all.  By the q-parts above, omega_m(g) = |g|_m
exactly when, for each prime q of lambda(mu_g), g is not a q-th power:
if q does not divide |g|, g is a q-th power of a power of itself, and if
v_q(|g|) = v_q(lambda), no q-th power has g's order.  So g is in G_m
exactly when, for each such q, some unit component of g is not a q-th
power.  In U(p^alpha), p odd, with r = g0^t for the generator g0, that is
q | phi and q not dividing t; in U(2^alpha) only q = 2 counts, and r is
not a square exactly when r != 1 (mod 8) (r = 3 in U(4)).
gen_primitive_roots tests all residues at once, with a byte pattern per
prime power p^alpha and prime q, joined by CRT as regular_set's are.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canonicalize,
    check_enum,
    check_work,
    valuation,
)
from .residues import (
    _listed,
    _multiples,
    _orbit_mask,
    _regular_mask,
    _regular_order,
    _spread,
    _least_primitive_root,
    _lift_root,
    _unit_group,
    class_members,
    is_regular,
    mu,
    order_table,
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


@lru_cache(maxsize=1 << 12)
def _omega_cache(m: int, a: int) -> OmegaInfo:
    """omega_info's memo, bounded like order's, so that an audit sweep does
    not hold every residue of its range."""
    check_enum(m)  # before build_modulus, which factors m
    info = _regular_order(m, a)
    a, n, mod = info.a, info.order, info.modulus
    w = _omega(mod, a, n)
    if w == build_modulus(mu(m, a)).phi:  # a's class, U(mu), is cyclic
        return OmegaInfo(mod, a, w, _generators(m, a), w // n)
    orders = order_table(m)
    members = class_members(m, info.idem_class)
    # orb(b) is cyclic, so it holds a exactly when b^(|b|/|a|), which
    # generates its one subgroup of order |a|, lies in orb(a).
    in_orbit = _orbit_mask(m, a, n)
    ind = w // n
    maximizers = tuple(
        b for b in members if orders[b] == w and in_orbit[pow(b, ind, m)]
    )
    return OmegaInfo(mod, a, w, maximizers, ind)


def _generators(m: int, a: int) -> tuple[int, ...]:
    """The generators of a's class, ascending, when it is cyclic (see the
    module docstring)."""
    keep = _spread(m, b"\x01")
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p == 0:
            pattern = b"\x01" + bytes(p**alpha - 1)
        else:
            pattern = _nonpowers(p, alpha, _primes(p, alpha))
        keep &= _spread(m, pattern)
    return tuple(_listed(m, keep))


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
    return math.lcm(*_unit_group(p, alpha).orders)


def _is_power(x: int, p: int, alpha: int, q: int, h: int) -> bool:
    """Whether the unit x is a q^h-th power modulo p^alpha, for h >= 1: in
    each cyclic factor of order n, that its component y has
    y^(n/(n, q^h)) = 1."""
    group = _unit_group(p, alpha)
    return all(
        pow(y, n // math.gcd(n, q**h), group.q) == 1
        for y, n in zip(group.split(x % group.q), group.orders)
    )


def solvable_bc01(m: int, k: int, a: int) -> bool:
    """Criterion for regular a: x^k = a solvable iff a^(w/(k,w)) is
    idempotent, where w = omega_m(a)."""
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    a = a % m or m
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if not is_regular(m, a):
        raise ValueError(f"{a} is not regular modulo {m}: criterion inapplicable")
    w = omega_value(m, a)
    x = pow(a, w // math.gcd(k, w), m)
    return x * x % m == x


def solve(m: int, k: int, a: int) -> CongruenceSolution:
    """The solution set of x^k = a, with the regular subset and, for
    regular a, the criterion verdict alongside.  Each prime power p^alpha
    of m gives its local roots (see the module docstring); the answer is
    priced by the product of their counts, which is refused over the cap
    before anything is listed, and is then joined by CRT."""
    a = canonicalize(a, m)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    factors = build_modulus(m).factorization.factors
    local = [_local_roots(p, alpha, k, a) for p, alpha in factors]
    check_work(math.prod(count for count, _ in local), "roots")
    roots = [list(listing()) for _, listing in local]
    # x is regular exactly when each component is 0 or a unit.
    regular = [
        [x for x in xs if x == 0 or x % p] for xs, (p, _) in zip(roots, factors)
    ]
    qs = [p**alpha for p, alpha in factors]
    sols = _crt_join(m, qs, roots)
    verdict = solvable_bc01(m, k, a) if is_regular(m, a) else None
    return CongruenceSolution(
        build_modulus(m), k, a, sols, _crt_join(m, qs, regular), bool(sols),
        verdict,
    )


def _crt_join(m: int, qs: list[int], parts: list[list[int]]) -> tuple[int, ...]:
    """The x in 1..m, ascending, whose residue modulo each q of qs lies in
    its part: sums of one term per part, each term 1 modulo its q and 0
    modulo the others."""
    out = [0]
    for q, xs in zip(qs, parts):
        unit = m // q * pow(m // q, -1, q) % m
        out = [(s + x * unit) % m for s in out for x in xs]
    return tuple(sorted(x or m for x in out))


def _local_roots(p: int, alpha: int, k: int, a: int):
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
        count, listing = _local_roots(p, alpha - v, k, a // p**v)
        return count * lifts, lambda: [
            p ** (v // k) * (y + j * low) for y in listing() for j in range(lifts)
        ]
    group = _unit_group(p, alpha)
    parts = [
        (y, n, gen, math.gcd(k, n))
        for y, n, gen in zip(group.split(a), group.orders, group.generators)
    ]
    if any(pow(y, n // g, q) != 1 for y, n, _, g in parts):
        return 0, list
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


@lru_cache(maxsize=None)
def gen_primitive_roots(m: int) -> tuple[int, ...]:
    """G_m = {g regular: omega_m(g) = |g|_m}, ascending; always nonempty.
    It is read off byte patterns per prime power p^alpha of m, combined by
    CRT (_spread): the regular residues, and then, for each prime q of
    lambda(m), those at which no unit component carries q (q dividing
    lambda(p^alpha)) or some carrying component is not a q-th power (see
    the module docstring)."""
    check_enum(m)  # before build_modulus, which factors m
    factors = build_modulus(m).factorization.factors
    keep = _regular_mask(m)
    primes = [_primes(p, alpha) for p, alpha in factors]
    for q in sorted(set().union(*primes)):
        carried = nonpower = 0
        for (p, alpha), qs in zip(factors, primes):
            if q in qs:
                carried |= _spread(m, _multiples(p, p, 0))
                nonpower |= _spread(m, _nonpowers(p, alpha, [q]))
        keep &= ~carried | nonpower
    return tuple(_listed(m, keep))


def _nonpowers(p: int, alpha: int, primes: list[int]) -> bytes:
    """1 at the units r in 0..p^alpha - 1 that are a q-th power for no q of
    primes, primes of lambda(p^alpha), and 0 elsewhere.  In U(2^alpha) only
    q = 2 can occur, and the squares are the r = 1 (mod 8), 1 alone in
    U(4).  For odd p, U(p^alpha) is cyclic of order n, generated by g, so
    r = g^t is a q-th power exactly when q divides t, and the q-th powers,
    the n/q powers of g^q, are walked."""
    size = p**alpha
    out = bytearray(_multiples(p, size, 0))
    if p == 2:
        if primes:
            out[1::8] = bytes(len(range(1, size, 8)))
        return bytes(out)
    n, g = size - size // p, _lift_root(_least_primitive_root(p), p, alpha)
    for q in primes:
        h, x = pow(g, q, size), 1
        for _ in range(n // q):
            out[x] = 0
            x = x * h % size
    return bytes(out)


def _primes(p: int, alpha: int) -> list[int]:
    """The primes of lambda(p^alpha)."""
    return [r for r, _ in build_modulus(_carmichael(p, alpha)).factorization.factors]


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
