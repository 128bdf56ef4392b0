"""Solvability of x^k = a (mod m): exhaustive solving, the idempotent-power
criterion for regular a, the omega invariant, and generalized primitive roots.

omega_m(a) is the largest order among regular residues whose orbit contains
a.  The solvability criterion for regular a reads: x^k = a is solvable iff
a^(omega/(k, omega)) is idempotent.  omega is found by one scan of a's class
R_m^e, the only class whose orbits can hold a, reading each member's order
from structure_table's arrays: orb(b) is cyclic, so it holds a exactly when
|a| divides |b| and b^(|b|/|a|), which generates its one subgroup of order
|a|, lies in orb(a).  oracle.oracle_omega walks the orbits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import Modulus, build_modulus, canon, canonicalize, check_enum
from .idempotents import is_idempotent
from .residues import _powers, is_regular, structure_table


@dataclass(frozen=True)
class CongruenceSolution:
    modulus: Modulus
    k: int
    a: int
    solutions: tuple[int, ...]
    regular_solutions: tuple[int, ...]
    solvable: bool
    bc01_verdict: bool | None  # present only when a is regular


@dataclass(frozen=True)
class OmegaInfo:
    modulus: Modulus
    a: int
    omega_a: int
    omega_set: tuple[int, ...]  # the maximizing generators, sorted
    ind_sup: int  # omega_a / |a|_m


@lru_cache(maxsize=None)
def _omega_cache(m: int, a: int) -> OmegaInfo:
    check_enum(m)
    table = structure_table(m)
    a = canon(a, m)
    n = table.orders[a]
    if not n:
        raise ValueError(f"{a} is not regular modulo {m}")
    target = _powers(m, a, n)
    best = 0
    maximizers: list[int] = []
    for b in table.by_class[table.classes[a]]:
        nb = table.orders[b]
        if nb % n == 0 and canon(pow(b, nb // n, m), m) in target:
            if nb > best:
                best = nb
                maximizers = [b]
            elif nb == best:
                maximizers.append(b)
    # a is in its own orbit, so best >= |a|_m > 0.
    return OmegaInfo(table.modulus, a, best, tuple(maximizers), best // n)


def omega_info(m: int, a: int) -> OmegaInfo:
    return _omega_cache(m, canonicalize(a, m))


def solvable_bc01(m: int, k: int, a: int) -> bool:
    """Criterion for regular a: x^k = a solvable iff a^(w/(k,w)) is
    idempotent, where w = omega_m(a)."""
    a = canonicalize(a, m)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if not is_regular(m, a):
        raise ValueError(f"{a} is not regular modulo {m}: criterion inapplicable")
    w = omega_info(m, a).omega_a
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
    check_enum(m)
    table = structure_table(m)
    out = []
    for g in table.regulars:
        if omega_info(m, g).omega_a == table.orders[g]:
            out.append(g)
    return tuple(out)


def omega_set(m: int, a: int) -> tuple[int, ...]:
    return omega_info(m, a).omega_set
