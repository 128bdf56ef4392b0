"""Seeded inputs for the three workloads.

The program under test receives only what these functions return: CLI argv
lists for the two query workloads and a fixed audit range for the sweep.  Each
query carries the set of outcomes the benchmark accepts for it and the facts
the generator knows about its modulus (the factorization, built here, so the
checker never has to trust the program's own factorizer).

A query workload runs one *round*: a fixed template of (command, kind of
modulus) slots, for which the seed picks the modulus and the arguments,
distinct within the round.  Every seed gets the same mix of costs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from harness import MEMORY, OK, OVER_TIME, REFUSED, REJECTED

# The audit sweep is one run_audit(2, AUDIT_HI) over the whole registry.  At
# this range the three pinned errata already show, and one sweep takes under
# three seconds, so a measured run holds about ten cold sweeps.
AUDIT_LO, AUDIT_HI = 2, 24



@dataclass
class Query:
    argv: list[str]
    factors: dict[int, int]  # prime -> exponent of argv's modulus
    accept: frozenset[str] = frozenset({OK})
    extra: dict = field(default_factory=dict)  # generator facts for the checker

    @property
    def m(self) -> int:
        return int(self.argv[1])


# ---------------------------------------------------------------- numbers


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
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


def factor_small(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def value(factors: dict[int, int]) -> int:
    return math.prod(p**a for p, a in factors.items())


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def crt_idempotent(factors: dict[int, int], zero_at: set[int]) -> int:
    """The idempotent that is 0 modulo p^a for p in zero_at and 1 elsewhere,
    in the {1..m} convention."""
    m = value(factors)
    x = 0
    for p, a in factors.items():
        q = p**a
        if p not in zero_at:
            rest = m // q
            x += rest * pow(rest, -1, q)
    x %= m
    return x or m


def is_regular(factors: dict[int, int], a: int) -> bool:
    return all(a % p or a % p**e == 0 for p, e in factors.items())


# ---------------------------------------------------------------- enum-queries

_SMALL_PRIMES = [p for p in range(2, 2800) if is_prime(p)]
# Odd prime powers (primes included): U(m) is cyclic and the only regular
# non-unit is m itself.
_CYCLIC = sorted(p**k for p in _SMALL_PRIMES[1:] for k in range(1, 12)
                 if 250 <= p**k <= 2700)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, a in factor_small(n).items():
        out = [d * p**i for d in out for i in range(a + 1)]
    return sorted(out)


def orbit_entries(m: int) -> int:
    """Sum of the generalized orders of m's regular residues: the entries a
    structure table stores, in proportion to which building and holding it
    costs time and memory.  The regular residues of one idempotent class form
    a group isomorphic to U(mu) for a unitary divisor mu of m, so the sum runs
    over those divisors and, within each, over element orders."""
    f = factor_small(m)
    primes = sorted(f)
    total = 0
    for bits in range(1 << len(primes)):
        cyclic = []  # orders of the cyclic factors of U(mu)
        for i, p in enumerate(primes):
            a = f[p]
            if bits >> i & 1:
                if p > 2:
                    cyclic.append(p ** (a - 1) * (p - 1))
                elif a >= 2:
                    cyclic += [2] if a == 2 else [2, 2 ** (a - 2)]
        exact: dict[int, int] = {}  # element order -> count
        for d in _divisors(math.lcm(1, *cyclic)):
            exact[d] = math.prod(math.gcd(d, n) for n in cyclic) - sum(
                c for e, c in exact.items() if d % e == 0)
        total += sum(d * c for d, c in exact.items())
    return total


def _band(pool: list[int], center: float, tol: float = 0.1) -> list[int]:
    return [m for m in pool if abs(orbit_entries(m) - center) <= tol * center]


def _nearest(pool: list[int], center: float, n: int) -> list[int]:
    return sorted(sorted(pool, key=lambda m: abs(orbit_entries(m) - center))[:n])


_SMOOTH = [n for n in range(250, 4101)
           if len(f := factor_small(n)) >= 3 and max(f) <= 13]

# Moduli pools.  The cost of the enumerating layer follows the orbit entries
# of the structure table, which for a prime depends on the factorization of
# p - 1 as much as on p, so moduli are pooled by that count (and, for smooth
# composites, where the O(m) scans weigh as much, by size too).  Every seed
# then meets the same cost profile, and the largest table stays far below the
# memory budget.
ENUM_POOLS = {
    # Every round uses all of these: the largest table, and so the peak RSS,
    # is the same for every seed.
    "C500k": _nearest(_CYCLIC, 5.0e5, 16),
    "C200k": _band(_CYCLIC, 2.0e5, 0.15),
    "C50k": _band(_CYCLIC, 5.0e4),
    "S": [n for n in _SMOOTH if n >= 1000],
    "S30k": [n for n in _band(_SMOOTH, 3.0e4, 0.5) if 2000 <= n <= 3100],
    "S30k-odd": [n for n in _band(_SMOOTH, 3.0e4, 0.5) if n % 2 and n >= 1000],
    "S-small": [n for n in _band(_SMOOTH, 8.0e3, 0.5) if n <= 700],
}
ENUM_POOLS["S30k-sq"] = [n for n in ENUM_POOLS["S30k"]
                         if max(factor_small(n).values()) >= 2]

# One round, by cost tier, cheapest first: 6 scans (~7 ms), 7 small tables
# (~20-35 ms), 6 smooth composites (~40-55 ms), 12 mid tables (~70 ms), 16
# large tables (~130 ms).  The median falls inside the mid tier and the
# latency tail (the 11th largest) inside the large one, both away from a tier
# boundary, so neither jumps between seeds.
ENUM_TEMPLATE = [
    ("quadratic", "C200k"), ("quadratic", "S"), ("quadratic", "S"),
    ("orbit", "S"), ("orbit", "S"), ("orbit", "S"),
    ("omega", "C50k"), ("solve", "C50k"), ("counts", "C50k"), ("sqrt", "C50k"),
    ("gproots", "C50k"), ("gproots", "S-small"), ("gproots", "S-small"),
    ("omega", "S30k"), ("solve", "S30k"), ("counts", "S30k"), ("sets", "S30k"),
    ("omega-nonregular", "S30k-sq"), ("sqrt", "S30k-odd"), ("sets", "S"),
    ("omega", "C200k"), ("omega", "C200k"), ("omega", "C200k"),
    ("solve", "C200k"), ("solve", "C200k"), ("solve", "C200k"),
    ("counts", "C200k"), ("counts", "C200k"), ("counts", "C200k"),
    ("sqrt", "C200k"), ("sqrt", "C200k"), ("sqrt", "C200k"),
] + [(cmd, "C500k") for cmd in ("omega", "solve", "counts", "sqrt") for _ in range(4)]

# Near-cap inputs under the default cap of 10^6 that exhaust memory today
# (documented defects): the budget turns them into counted failures.
ENUM_KNOWN_DEFECTS = [["solve", "999983", "3", "8"], ["gproots", "20011"]]


def _regular_residue(rng, factors, m, unit: bool) -> int:
    while True:
        a = rng.randrange(1, m + 1)
        if is_regular(factors, a) and (not unit or math.gcd(a, m) == 1):
            return a


def _enum_query(rng: random.Random, cmd: str, m: int) -> Query:
    f = factor_small(m)
    e = crt_idempotent(f, {p for p in f if rng.random() < 0.5})
    if cmd == "omega":
        a = _regular_residue(rng, f, m, unit=rng.random() < 0.5)
        return Query(["omega", str(m), str(a)], f)
    if cmd == "omega-nonregular":
        # p divides a but p^alpha does not: a is not regular, exit 2.
        a = rng.choice([p for p, k in f.items() if k >= 2])
        return Query(["omega", str(m), str(a)], f, frozenset({REJECTED}))
    if cmd == "gproots":
        return Query(["gproots", str(m)], f)
    if cmd == "solve":
        # A regular right-hand side, so the criterion (and its omega) runs;
        # half of them are k-th powers, so both verdicts occur.
        k = rng.choice((2, 3, 4, 5, 6))
        a = _regular_residue(rng, f, m, unit=rng.random() < 0.5)
        if rng.random() < 0.5:
            a = pow(a, k, m) or m
        return Query(["solve", str(m), str(k), str(a)], f)
    if cmd == "counts":
        k = rng.choice([d for d in range(1, 13) if psi(f) % d == 0])
        return Query(["counts", str(m), str(e), str(k)], f)
    if cmd == "sets":
        argv = ["sets", str(m)]
        variant = rng.randrange(3)
        if variant == 1:
            argv += ["--class", str(e)]
        elif variant == 2:
            argv += [rng.choice(["--regular", "--normal"])]
        return Query(argv, f)
    if cmd == "sqrt":
        return Query(["sqrt", str(m), str(e)], f)
    if cmd == "quadratic":
        return Query(["quadratic", str(m), str(rng.randrange(1, m + 1))], f)
    if cmd == "orbit":
        return Query(["orbit", str(m), str(rng.randrange(1, m + 1))], f)
    raise ValueError(cmd)


def psi(f: dict[int, int]) -> int:
    """psi(m): lcm of p^(a-1)(p-1) over m's prime powers."""
    return math.lcm(*(p ** (a - 1) * (p - 1) for p, a in f.items()))


def enum_round(rng: random.Random) -> list[Query]:
    used: set[int] = set()
    out = []
    for cmd, kind in ENUM_TEMPLATE:
        m = rng.choice([n for n in ENUM_POOLS[kind] if n not in used])
        used.add(m)
        out.append(_enum_query(rng, cmd, m))
    rng.shuffle(out)
    return out


def enum_defects() -> list[Query]:
    return [Query(list(argv), factor_small(int(argv[1])),
                  frozenset({OK, OVER_TIME, MEMORY}))
            for argv in ENUM_KNOWN_DEFECTS]


# ---------------------------------------------------------------- point-queries

_POINT_PRIMES = [p for p in range(2, 200) if is_prime(p)]
PRIMORIAL_12 = math.prod(_POINT_PRIMES[:12])  # 7420738134810, about 2^42.8
_LO, _HI = 1 << 40, 1 << 64


def _balanced(rng, bits: int) -> dict[int, int]:
    """Two distinct primes of bits/2 bits each, product of `bits` bits."""
    half = bits // 2
    while True:
        p = random_prime(rng, 1 << (half - 1), 1 << half)
        q = random_prime(rng, 1 << (bits - half - 1), 1 << (bits - half))
        if q != p and (p * q).bit_length() == bits:
            return {p: 1, q: 1}


def _semiprime(rng) -> dict[int, int]:
    # Factors of 21-24 bits: above factorize's trial-division limit of 10^6,
    # so each costs that full trial division plus a short Pollard rho.
    return _balanced(rng, rng.randrange(42, 49))


def _prime_power(rng) -> dict[int, int]:
    # p^2 with p of 21-24 bits, above the trial-division limit.  Every prime
    # factor of p - 1 is below 10^6 too: otherwise classify or tower on p^2
    # factors p * (p - 1) by Pollard rho on two primes above 10^6, which
    # makes the query up to three times slower by an amount that varies from
    # one modulus to the next, as it did for the dropped 60-bit semiprimes.
    while True:
        p = random_prime(rng, 1 << 20, 1 << 24)
        if max(factor_small(p - 1)) < 10**6:
            return {p: 2}


def _smooth(rng) -> dict[int, int]:
    # Exactly four primes: verify_algebra's cost grows as 8^omega(m).
    while True:
        primes = rng.sample(_POINT_PRIMES[:15], 4)
        f = {p: 1 for p in primes}
        while value(f) < _LO:
            f[rng.choice(primes)] += 1
        if value(f) < _HI:
            return f


def _many(rng) -> dict[int, int]:
    while True:
        f = {p: 1 for p in rng.sample(_POINT_PRIMES[:30], rng.randrange(8, 12))}
        if _LO <= value(f) < _HI and value(f) != PRIMORIAL_12:
            return f


POINT_KINDS = {"semi": _semiprime, "ppow": _prime_power, "smooth": _smooth,
               "many": _many}
# One round.  Most queries sit on semiprimes and prime powers whose cost is
# the full trial division (~50 ms), so the median and the latency tail (the
# 11th largest) both fall inside that tier; smooth and many-prime moduli
# (up to 64 bits) factor at once.  Pollard rho's run time on larger factors
# varies too much from one modulus to the next to keep the figures steady.
# verify_algebra is cubic in 2^omega(m), so it only sees omega <= 4.
POINT_TEMPLATE = [
    (cmd, kind)
    for cmd in ("modinfo", "order", "classify", "idemop")
    for kind in ("semi", "semi", "semi", "semi", "ppow", "ppow", "ppow",
                 "smooth", "many")
] + [("tower", kind) for kind in ("semi", "ppow", "smooth", "many")] + [
    ("algebra", kind) for kind in ("semi", "semi", "ppow", "ppow", "smooth")
] + [("idempotents", kind) for kind in ("semi", "ppow", "smooth", "many")]


def _point_query(rng: random.Random, cmd: str, f: dict[int, int]) -> Query:
    m = value(f)
    if cmd in ("modinfo", "algebra"):
        return Query([cmd, str(m)], f)
    if cmd in ("order", "classify"):
        a = rng.randrange(2, m)
        if rng.random() < 0.5:  # share a prime power with m: a non-unit
            p = rng.choice(list(f))
            a = a * p ** rng.randrange(1, f[p] + 1) % m or p
        return Query([cmd, str(m), str(a)], f)
    if cmd == "tower":
        base = rng.randrange(2, 1000)
        return Query(["tower", str(m), str(base), str(rng.randrange(2, 6))], f)
    if cmd == "idempotents":
        # Every point modulus is above the default cap of 10^6: exit 3 today
        # although the answer has only 2^omega(m) elements (documented).
        return Query(["idempotents", str(m)], f, frozenset({OK, REFUSED}))
    if cmd == "idemop":
        op = rng.choice(("complement", "circ", "otimes", "simdiff"))
        sets = [{p for p in f if rng.random() < 0.5} for _ in range(2)]
        es = [crt_idempotent(f, s) for s in sets]
        argv = ["idemop", str(m), op, str(es[0])]
        if op != "complement":
            argv.append(str(es[1]))
        return Query(argv, f, extra={"zero_sets": [sorted(s) for s in sets]})
    raise ValueError(cmd)


def point_round(rng: random.Random) -> list[Query]:
    used: set[int] = set()
    out = []
    for cmd, kind in POINT_TEMPLATE:
        while (m := value(f := POINT_KINDS[kind](rng))) in used:
            pass
        used.add(m)
        out.append(_point_query(rng, cmd, f))
    rng.shuffle(out)
    return out


def point_defects() -> list[Query]:
    """verify_algebra has no cap: on this primorial (12 primes, 4096
    idempotents) its cubic law checks do not finish."""
    f = {p: 1 for p in _POINT_PRIMES[:12]}
    return [Query(["algebra", str(PRIMORIAL_12)], f,
                  frozenset({OK, OVER_TIME, MEMORY}))]


def query_round(workload: str, seed: int) -> list[Query]:
    """The round of queries a query workload runs, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return (enum_round if workload == "enum-queries" else point_round)(rng)


def defects(workload: str) -> list[Query]:
    return enum_defects() if workload == "enum-queries" else point_defects()
