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
the members b of a's class whose order is omega, each tested by whether
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
gen_primitive_roots folds this test over all residues at once.
"""
from __future__ import annotations

import math
import operator
from array import array
from functools import lru_cache
from itertools import compress

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    valuation,
)
from .idempotents import is_idempotent
from .residues import (
    _by_residue,
    _crt_fold,
    _orbit_mask,
    _regular_order,
    _typecode,
    _unit_logs,
    class_members,
    is_regular,
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
    orders = order_table(m)
    a = canon(a, m)
    n = orders[a]
    if not n:
        raise ValueError(f"{a} is not regular modulo {m}")
    mod = build_modulus(m)
    w = _omega(mod, a, n)
    members = class_members(m, canon(pow(a, n, m), m))
    # orb(b) is cyclic, so it holds a exactly when b^(|b|/|a|), which
    # generates its one subgroup of order |a|, lies in orb(a).
    in_orbit = _orbit_mask(m, a, n)
    ind = w // n
    maximizers = tuple(
        b for b in members if orders[b] == w and in_orbit[pow(b, ind, m)]
    )
    return OmegaInfo(mod, a, w, maximizers, ind)


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
    """G_m = {g regular: omega_m(g) = |g|_m}, ascending; always nonempty.
    It is read off two bitmasks per prime power p^alpha of m, one bit per
    prime q of lambda(m), folded over the residues by CRT with OR: the q of
    lambda(p^alpha) at the units (bit 0 at the nonzero non-units, which
    make g irregular), and the q for which the unit is not a q-th power.
    g is in G_m exactly where the two folds agree (see the module
    docstring)."""
    check_enum(m)  # before build_modulus, which factors m
    factors = build_modulus(m).factorization.factors
    primes = [_primes(p, alpha) for p, alpha in factors]
    bit = {q: 2 << i for i, q in enumerate(sorted(set().union(*primes)))}
    tc = _typecode((2 << len(bit)) - 1)
    exponents, nonpowers = [], []
    for (p, alpha), qs in zip(factors, primes):
        size = p**alpha
        mask = sum(map(bit.__getitem__, qs))
        exps = array(tc, [mask]) * size
        exps[::p] = array(tc, [1]) * (size // p)
        exps[0] = 0
        exponents.append(exps)
        if p == 2:
            # The odd r that are not squares: r != 1 (mod 8), and 3 in U(4).
            bits = array(tc, [0]) * size
            if alpha >= 2:
                step = min(size, 8)
                bits[1::2] = array(tc, [mask]) * (size // 2)
                bits[1::step] = array(tc, [0]) * (size // step)
        else:
            # g^t is a q-th power exactly when q divides t.  The non-units'
            # logs read n, where by_log holds 0.
            n, logs = _unit_logs(p, alpha)
            by_log = [mask] * n + [0]
            for q in qs:
                by_log[:n:q] = [v ^ bit[q] for v in by_log[:n:q]]
            bits = array(tc, [by_log[t] for t in logs])
        nonpowers.append(bits)
    keep = map(
        operator.eq,
        _crt_fold(operator.or_, 0, exponents, tc),
        _crt_fold(operator.or_, 0, nonpowers, tc),
    )
    return tuple(compress(range(m + 1), _by_residue(array("B", keep))))


def _primes(p: int, alpha: int) -> list[int]:
    """The primes of lambda(p^alpha)."""
    if p == 2:
        return [2] if alpha >= 2 else []
    qs = [r for r, _ in build_modulus(p - 1).factorization.factors]
    return qs + [p] if alpha >= 2 else qs


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
