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
  (units.unit_group), and x^k = a_p splits into one equation per factor
  on a_p's component.  In a cyclic group of order n, y is a k-th power
  exactly when y^(n/g) = 1, g = (k, n), and then it has g roots: one
  found by Adleman, Manders and Miller (1977) in units.local_roots, once
  per prime of g, with a non-residue found by trial and no primes of
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
odd p^alpha, a q-th power for no prime q of phi.  omega_info takes
omega = phi(mu) there, with no closed form to evaluate.

On the other classes omega_info scans the class members b, with no table of
orders.  Let n = |a|, d = omega/n and y = b^d.  b is a maximizer, |b| = omega
with a in orb(b), exactly when (i) y = a^k for a k divisible by no prime q
of n that does not divide d, read off a byte mask of orb(a), and (ii)
b^(omega/q) != e for each prime q of d.  Proof: orb(a) = <a> has order n,
so y = a^k gives b^omega = y^n = e, and |b| divides omega; |b| = omega
exactly when b^(omega/q) != e for each prime q of omega.  For q dividing d
that is (ii).  For q not dividing d, q divides n and
b^(omega/q) = y^(n/q) = a^(k n/q), which is e exactly when q divides k: the
condition on k in (i).  So (i) and (ii) give |b| = omega, and then y, of
order n, generates the one subgroup of <b> of order n and lies in <a>, of
the same order: the two are equal and a is in orb(b).  Conversely, for a
maximizer b, <a> is the subgroup of <b> of order n, the one y generates, so
y = a^k, and |b| = omega gives (ii) and the condition on k.  A unit a of
order omega (d = 1) so needs no power beyond y = b.  oracle.oracle_omega
walks the orbits.

omega_info keeps no memo, as its maximizers grow with m: each call checks
the cap and computes its answer.  omega_value, an int, keeps a bounded one.

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
    class_members, cyclic_class, is_regular, mu, regular_mask, regular_order)
from .units import (
    crt_join, is_power, listed, local_roots, multiples, nonpowers, spread, unit_group)


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


def omega_info(m: int, a: int) -> OmegaInfo:
    """omega_m(a), its maximizers and omega_m(a) / |a|_m, for a regular a."""
    check_enum(m)  # before m is factored
    info = regular_order(m, canonicalize(a, m))
    a, n, mod, e = info.a, info.order, info.modulus, info.idem_class
    if cyclic_class(m, a):
        w = build_modulus(mu(m, a)).phi
        return OmegaInfo(mod, a, w, _generators(m, a), w // n)
    w = _omega(mod, a, n)
    ind = w // n
    primes = [q for q, _ in build_modulus(ind).factorization.factors]
    # The primes of n that do not divide ind, which the mask reads off k.
    r = math.prod(q for q, _ in build_modulus(n).factorization.factors if ind % q)
    in_orbit = _orbit_mask(m, a, n, r)
    # b is kept when b^ind = a^k with (k, r) = 1 and |b| = w (module
    # docstring); e < m, since a class that is not cyclic is not the zero
    # class.
    maximizers = tuple(
        b for b in class_members(m, e)
        if in_orbit[pow(b, ind, m)] and all(pow(b, w // q, m) != e for q in primes)
    )
    return OmegaInfo(mod, a, w, maximizers, ind)


def _orbit_mask(m: int, a: int, n: int, r: int) -> bytearray:
    """1 at the x in 0..m-1 that are a^k mod m for a k in 1..n prime to r,
    and 0 at the others: with r = 1 and n = |a|_m, orb_m(a) in m bytes,
    where a frozenset of its ints takes tens of bytes per element."""
    mask = bytearray(m)
    x = 1 % m
    for k in range(1, n + 1):
        x = x * a % m
        if math.gcd(k, r) == 1:
            mask[x] = 1
    return mask


def _generators(m: int, a: int) -> tuple[int, ...]:
    """The generators of a's class, ascending, when it is cyclic (see the
    module docstring)."""
    keep = spread(m, b"\x01")
    for p, alpha in build_modulus(m).factorization.factors:
        if a % p == 0:
            pattern = b"\x01" + bytes(p**alpha - 1)
        else:
            pattern = nonpowers(p, alpha, unit_group(p, alpha).primes)
        keep &= spread(m, pattern)
    return tuple(listed(m, keep))


@lru_cache(maxsize=1024)
def omega_value(m: int, a: int) -> int:
    """omega_m(a) for a regular a, by the closed form alone.  The audit asks
    bc01 for the same a under 30 exponents; the bound keeps the memo from
    holding every residue of a sweep."""
    info = regular_order(m, a)
    return _omega(info.modulus, info.a, info.order)


def _omega(mod: Modulus, a: int, n: int) -> int:
    """omega_m(a) for a regular a of order n = |a|_m: the product over the
    primes q of lambda(mu) of q^v_q(lambda) when q does not divide n, and of
    q^(v_q(n) + h) when it does, h being the largest with a a q^h-th power
    in every unit component p^alpha of mu."""
    units = [(p, alpha) for p, alpha in mod.factorization.factors if a % p]
    lam = math.lcm(*(unit_group(p, alpha).exponent for p, alpha in units))
    w = 1
    for q, e in build_modulus(lam).factorization.factors:
        v = valuation(n, q)
        if not v:
            w *= q**e
            continue
        h = 0
        while v + h < e and all(
            is_power(a, p, alpha, q ** (h + 1)) for p, alpha in units
        ):
            h += 1
        w *= q ** (v + h)
    return w


def solvable_bc01(m: int, k: int, a: int) -> bool:
    """Criterion for regular a: x^k = a solvable iff a^(w/(k,w)) is
    idempotent, where w = omega_m(a)."""
    a = canonicalize(a, m)
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
    local = [local_roots(p, alpha, k, a) for p, alpha in factors]
    check_work(math.prod(count for count, _ in local), "roots")
    roots = [list(listing()) for _, listing in local]
    # x is regular exactly when each component is 0 or a unit.
    regular = [
        [x for x in xs if x == 0 or x % p] for xs, (p, _) in zip(roots, factors)
    ]
    qs = [p**alpha for p, alpha in factors]
    sols = crt_join(m, qs, roots)
    verdict = solvable_bc01(m, k, a) if is_regular(m, a) else None
    return CongruenceSolution(
        build_modulus(m), k, a, sols, crt_join(m, qs, regular), bool(sols),
        verdict,
    )


def gen_primitive_roots(m: int) -> tuple[int, ...]:
    """G_m = {g regular: omega_m(g) = |g|_m}, ascending; always nonempty.
    It is read off byte patterns per prime power p^alpha of m, combined by
    CRT (units.spread): the regular residues, and then, for each prime q of
    lambda(m), those at which no unit component carries q (q dividing
    lambda(p^alpha)) or some carrying component is not a q-th power (see
    the module docstring)."""
    check_enum(m)  # before build_modulus, which factors m
    factors = build_modulus(m).factorization.factors
    keep = regular_mask(m)
    primes = [unit_group(p, alpha).primes for p, alpha in factors]
    for q in sorted(set().union(*primes)):
        carried = nonpower = 0
        for (p, alpha), qs in zip(factors, primes):
            if q in qs:
                carried |= spread(m, multiples(p, p, 0))
                nonpower |= spread(m, nonpowers(p, alpha, [q]))
        keep &= ~carried | nonpower
    return tuple(listed(m, keep))


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
