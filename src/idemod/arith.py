"""Factored-modulus arithmetic.

``factorize`` finds the primes below 2^10 that divide n from one gcd with
their product, and trial-divides only that gcd.  It takes any cofactor
below 2^20 as prime and tests larger ones with Miller-Rabin, on the fewest
leading prime bases proven for the cofactor's size (deterministic below
3.3e24).  A composite that is an exact k-th power r^k (integer k-th root by
Newton's method) is replaced by r, counted k times and factored once; any
other composite is split with Brent's variant of Pollard rho.

Moduli are plain ints at every public boundary of the package; the factored
``Modulus`` record is derived from one by the cached ``build_modulus(m)``.
Residues are canonical integers in {1..m}, where the value m itself stands
for the residue class of 0.  Callers may pass arbitrary integers: each public
operation checks m and reduces each residue once, with ``canonicalize``
(``x % m or m`` after rejecting m < 1) or, where m is already checked,
``canon``, and reads factorizations from ``build_modulus(n)``'s cache.
"""
from __future__ import annotations

import math
import os
import random
import types
from collections.abc import Callable
from functools import lru_cache
from itertools import compress

DEFAULT_MAX_ENUM = 1_000_000

# factorize finds the primes below this bound that divide n; a cofactor
# with no such prime factor that is below its square is therefore prime.
_SMALL_PRIME_BOUND = 1 << 10
# Differences Brent's rho multiplies together before taking one gcd.
_RHO_BATCH = 128
# The first 13 primes, as Miller-Rabin bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_t, t): no composite below psi_t is a strong pseudoprime to the first
# t bases.  psi_t is the least one (Jaeschke 1993; psi_8 = psi_7).  Beyond
# the last, all 13 bases, which admit none below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster 2015); the first
# 12 already admit 318,665,857,834,031,151,167,461.
_MR_SPANS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


def _primorial_below(n: int) -> int:
    """The product of the primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return math.prod(compress(range(n), sieve))


# gcd(n, _SMALL_PRIMORIAL) is the product of the primes below
# _SMALL_PRIME_BOUND that divide n.
_SMALL_PRIMORIAL = _primorial_below(_SMALL_PRIME_BOUND)


class EnumerationCapError(Exception):
    """A modulus, or a count of things to list (what), beyond the cap."""

    def __init__(self, count: int, cap: int, what: str = "modulus"):
        size = (f"modulus {count} exceeds" if what == "modulus"
                else f"{count} {what} exceed")
        super().__init__(f"{size} enumeration cap {cap}")
        self.count = count
        self.cap = cap


_env_cap = os.environ.get("IDEM_MAX_ENUM", str(DEFAULT_MAX_ENUM))
# A cap that is not an integer, or is below 1, is refused by the queries
# that read the cap, not at import.
try:
    _max_enum: int | None = int(_env_cap)
except ValueError:
    _max_enum, _env_need = None, "an integer"
else:
    if _max_enum < 1:
        _max_enum, _env_need = None, "a positive integer"


def max_enum() -> int:
    """The enumeration cap: IDEM_MAX_ENUM as it was when idemod loaded
    (default 1,000,000), or the value set_max_enum set since."""
    if _max_enum is None:
        raise ValueError(f"invalid IDEM_MAX_ENUM {_env_cap!r}: need {_env_need}")
    return _max_enum


def set_max_enum(cap: int) -> int:
    """Make cap the enumeration cap, and return the cap it replaces."""
    global _max_enum
    old, _max_enum = _max_enum, cap
    return old


def check_work(count: int, what: str) -> None:
    """Refuse a listing of count things (what) beyond the cap."""
    cap = max_enum()
    if count > cap:
        raise EnumerationCapError(count, cap, what)


def check_enum(m: int) -> None:
    """Reject a modulus that is not positive or lies beyond the cap."""
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    check_work(m, "modulus")


class Record:
    """A value record, the type of the package's results.  Its fields are the
    class's annotations, in order, after those of the record it extends, and
    every one is required.  A record is built from positional or keyword
    fields and then runs ``__post_init__``.  It equals only a record of its
    own class with equal fields, prints as ``Name(field=value, ...)``, is
    read-only and hashes like the tuple of its fields.

    Each record class's ``__init__`` is generated from a ``def`` when the
    class is defined, as namedtuple's and dataclasses' are: one parameter
    per field, stored in field order (the order equality and hashing read
    them in) with object.__setattr__, then a call of ``__post_init__`` if
    the class overrides it.  Writing into __dict__ instead would be quicker
    to build but slower to read: on CPython 3.11 an instance whose __dict__
    was filled reads attributes up to 3.6 times slower.  Each query starts a
    new process, so a constructor built on first use would be compiled
    inside every query, and each class's is a copy of one compiled template
    per field count, with its own names."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(f for f in cls.__annotations__ if f not in cls._fields)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _record_init(cls)

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


def _record_init(cls: type[Record]) -> Callable:
    """The __init__ of a record class, generated from its fields (see
    Record): the template for its number of fields, with its field names
    put in for the template's placeholder names and strings."""
    fields = cls._fields
    template = _init_template(
        len(fields), cls.__post_init__ is not Record.__post_init__)
    code = template.__code__
    names = {f"_{i}": f for i, f in enumerate(fields)}
    code = code.replace(
        co_varnames=tuple(names.get(v, v) for v in code.co_varnames),
        co_consts=tuple(
            names.get(c, c) if isinstance(c, str) else c for c in code.co_consts
        ),
    )
    init = types.FunctionType(code, template.__globals__, "__init__")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


@lru_cache(maxsize=None)
def _init_template(n: int, post_init: bool) -> Callable:
    """A record __init__ over the fields _0, ..., _(n-1), compiled once per
    field count, and not once per record class."""
    params = [f"_{i}" for i in range(n)]
    # pass: a record with no fields still needs a body.
    lines = [f"def __init__(self, {', '.join(params)}):", "    pass"]
    lines += [f"    __set(self, {f!r}, {f})" for f in params]
    if post_init:
        lines.append("    self.__post_init__()")
    namespace = {"__set": object.__setattr__}
    exec(compile("\n".join(lines), "<record>", "exec"), namespace)
    return namespace["__init__"]


class Factorization(Record):
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

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
    t = next((t for bound, t in _MR_SPANS if n < bound), len(_MR_BASES))
    for a in _MR_BASES[:t]:
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

    # g is the product of the primes below 2^10 that divide n, each once;
    # trial division splits g, not n.
    g = math.gcd(n, _SMALL_PRIMORIAL)
    small = []
    for q in (2, 3):
        if g % q == 0:
            small.append(q)
            g //= q
    d = 5
    while d * d <= g:
        for q in (d, d + 2):
            if g % q == 0:
                small.append(q)
                g //= q
        d += 6
    if g > 1:
        small.append(g)
    rest = n
    for q in small:
        while rest % q == 0:
            _account(q)
            rest //= q

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
    return a % m or m


def canonicalize(a: int, m: int) -> int:
    if m < 1:
        raise ValueError(f"invalid modulus {m}: need a positive integer")
    return a % m or m


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
