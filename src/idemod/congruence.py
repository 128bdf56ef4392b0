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
every component U(p^alpha).

The maximizers split over the same q, with no scan of the class.  Each b is
the product of its q-parts b_q in the Sylow q-subgroups (units.class_sylows),
and <b> of the <b_q>.  With f = v_q(omega), v = v_q(|a|), c = |a| / q^v and
a_q = a^(c (c^-1 mod q^v)), b is a maximizer, |b| = omega with a in <b>,
exactly when each b_q has order q^f and a_q lies in <b_q>.  For v >= 1 that
is when b_q^(q^(f-v)) generates <a_q>: <b_q> has one subgroup of order q^v,
and b_q^(q^(f-v)) of order q^v >= q forces |b_q| = q^f.  For v = 0, a_q = e
and q^f is the exponent of the Sylow subgroup: it is when b_q^(q^(f-1)) != e.
A cyclic Sylow subgroup's generators hold a_q and have the largest order, so
they are the b_q.  omega_info multiplies them out; oracle_omega walks orbits.

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
from itertools import compress

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canonicalize,
    check_enum,
    check_work,
    valuation,
)
from .residues import is_regular, regular_mask, regular_order
from .units import (class_groups, class_sylows, crt_join, is_power, listed,
                    local_roots, multiples, nonpowers, spread, unit_group, walk)


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
    w = _omega(mod, a, n)
    sylows = sorted(class_sylows(m, e).items(), key=lambda s: max(k for _, k in s[1]))
    if not sylows:  # the class is {e}
        return OmegaInfo(mod, a, w, (e,), w // n)
    heads = [e]
    for q, factors in sylows[:-1]:
        heads = [x * y % m for y in _kept(m, e, a, n, w, q, factors) for x in heads]
    ys, mark = _kept(m, e, a, n, w, *sylows[-1]), bytearray(m)
    for x in heads:
        for y in ys:
            mark[x * y % m] = 1
    del ys  # its ints go before the answer's are made
    return OmegaInfo(mod, a, w, tuple(compress(range(m), mark)), w // n)


def _kept(m: int, e: int, a: int, n: int, w: int, q: int, factors) -> list[int]:
    """The b_q of the module docstring, from the factors (generator, q^k) of
    the Sylow q-subgroup: walked, with y^t beside y, unless it is cyclic."""
    if len(factors) == 1:
        kept = walk(m, e, *factors[0])
        del kept[::q]  # the generators, the powers prime to q
        return kept
    f, v = valuation(w, q), valuation(n, q)
    if v:
        c = n // q**v
        targets = walk(m, e, pow(a, c * pow(c, -1, q**v), m), q**v)  # <a_q>
        del targets[::q]  # its generators
        keep, t = set(targets).__contains__, q ** (f - v)
    else:
        keep, t = e.__ne__, q ** (f - 1)
    *others, (g, k) = factors
    starts = [e]
    for h, order in others:
        starts = [s * x % m for x in walk(m, e, h, order) for s in starts]
    kept, gt = [], pow(g, t, m)
    for y in starts:
        z = pow(y, t, m)
        for _ in range(k):
            if keep(z):
                kept.append(y)
            y, z = y * g % m, z * gt % m
    return kept


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
    in every unit group of mu (units.class_groups)."""
    groups = class_groups(mod.m, a)
    lam = math.lcm(*(group.exponent for group in groups))
    w = 1
    for q, e in build_modulus(lam).factorization.factors:
        v, h = valuation(n, q), 0
        while v and v + h < e and all(
                is_power(a, group, q ** (h + 1)) for group in groups):
            h += 1
        w *= q ** (v + h if v else e)
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
                nonpower |= spread(m, nonpowers(p, alpha, q))
        keep &= ~carried | nonpower
    return tuple(listed(m, keep))


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
