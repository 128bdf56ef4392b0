"""Factored-modulus arithmetic.

``factorize`` trial-divides by the primes below 2^10, takes any cofactor
below 2^20 as prime and tests larger ones with Miller-Rabin (deterministic
below 3.3e24).  A composite that is an exact k-th power r^k (integer k-th
root by Newton's method) is replaced by r, counted k times and factored once;
any other composite is split with Brent's variant of Pollard rho.

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
from collections.abc import Callable
from functools import lru_cache, reduce

DEFAULT_MAX_ENUM = 1_000_000

# factorize trial-divides by the primes below this bound; a cofactor with no
# such prime factor that is below its square is therefore prime.
_SMALL_PRIME_BOUND = 1 << 10
# Differences Brent's rho multiplies together before taking one gcd.
_RHO_BATCH = 128
# The first 13 primes: as Miller-Rabin bases they admit no strong pseudoprime
# below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster 2015); the
# first 12 already admit 318,665,857,834,031,151,167,461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


class Record:
    """A value record, the type of the package's results.  Its fields are the
    class's annotations, in order, after those of the record it extends; a
    field that is also a class attribute defaults to that value.  A record is
    built from positional or keyword fields and then runs ``__post_init__``.
    It equals only a record of its own class with equal fields, and prints
    as ``Name(field=value, ...)``.  It is frozen, read-only and hashed by
    value, unless its class is declared with ``frozen=False``: then it is
    mutable and unhashable.

    Fields are stored with object.__setattr__, in field order, which is the
    order equality and hashing read them in.  Writing into __dict__ instead
    would be quicker to build but slower to read: on CPython 3.11 an instance
    whose __dict__ was filled reads attributes up to 3.6 times slower.  A
    record that an audit builds by the thousand defines its own __init__
    with named parameters, which is quicker than a dataclass's; the generic
    one is slower for a few fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(f for f in cls.__annotations__ if f not in cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not one positional value per
        field: the positionals, then each later field's keyword or default."""
        cls = type(self)
        rest = cls._fields[len(args):]
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}; got "
                            f"{len(args)} positional and {sorted(kwargs)}")
        values = list(args)
        for name in rest:
            if name in kwargs:
                values.append(kwargs[name])
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        return values

    def __post_init__(self):
        """Validate the fields; a record that checks them overrides this."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Factorization(Record):
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        # Built by the thousand in an audit: see Record.
        init = object.__setattr__
        init(self, "value", value)
        init(self, "factors", factors)
        self.__post_init__()

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


class Modulus(Record):
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
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def _brent_rho(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of Pollard
    rho (1980): the cycle is found by doubling, and the gcd is taken once per
    batch of differences, stepping back through the last batch one step at a
    time when the batched gcd is n.  Seeded by n, so n always takes the same
    path."""
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(1, n)
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _exact_root(v: int, k: int) -> int | None:
    """r with r**k == v, or None.  Newton's method on integers descends from
    2^ceil(bits/k), which is at least the root, to the floor of the k-th root
    of v; no float estimate, which can land below the root of a large v."""
    x = 1 << -(-v.bit_length() // k)
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == v else None
        x = y


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1; n = 1 gives an empty factor list."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need a positive integer")
    counts: dict[int, int] = {}

    def _account(p: int, k: int = 1):
        counts[p] = counts.get(p, 0) + k

    rest = n
    for p in (2, 3):
        while rest % p == 0:
            _account(p)
            rest //= p
    d = 5
    while d < _SMALL_PRIME_BOUND and d * d <= rest:
        for q in (d, d + 2):
            while rest % q == 0:
                _account(q)
                rest //= q
        d += 6

    # (value, multiplicity) pairs: a root r of v = r^k is pushed once with
    # k times v's multiplicity, so a composite r is split once.
    stack = [(rest, 1)] if rest > 1 else []
    while stack:
        v, e = stack.pop()
        if v < _SMALL_PRIME_BOUND**2 or _is_probable_prime(v):
            _account(v, e)
            continue
        # No prime below 2^10 divides v, so v = r^k needs r > 2^10 and
        # k <= bits / 10.  r may itself be composite; it is factored in turn.
        for k in range(v.bit_length() // 10, 1, -1):
            r = _exact_root(v, k)
            if r is not None:
                stack.append((r, k * e))
                break
        else:
            f = _brent_rho(v)
            stack.append((f, e))
            stack.append((v // f, e))

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
