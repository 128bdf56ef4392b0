"""Order-counting functions on the regular classes and function classifiers.

r_m^e(k) counts the elements of R_m^e of order exactly k; rho_m^e(k) counts
those of order dividing k.  For weakly even m (2-part at most 4) both have
closed forms through the totients of the prime-power divisors.

All three counts are products over the cyclic factors of the class group,
with no table and no scan of the residues.  R_m^e is isomorphic to U(m/z),
z = gcd(e, m), the product of the U(p^alpha) of the prime powers of m on
which e is 1; units.class_groups gives their cyclic factor orders
(phi for odd p; 2 and 2^(alpha-2) for 2^alpha, alpha >= 3).  Let n_i be
all of them.  The x with x^k = 1 in a cyclic group of order n number
(k, n), so rho(k) = prod (k, n_i).  Moebius inversion gives
r(k) = sum over d | k of mu(k/d) rho(d), and the sum factors over the
primes of k: an element has order k exactly when its component in each
Sylow q-subgroup G_q has order q^j, q^j || k (and 1 in the others), so
r(k) is the product over the q^j || k of rho(q^j) - rho(q^(j-1)), and 0
when k does not divide the exponent lcm(n_i).

orbit_union_size counts orb(kR_m^e), the union of the orbits <x> of the x
of order k.  It is 0 when r(k) = 0.  Otherwise, since <x> is the product
of the <x_q>, and x has order k exactly when each x_q has order q^j, a y
lies in the union exactly when each y_q lies in a cyclic subgroup of G_q
of order q^j: the size is the product over the q^j || k of U_q, the
number of such y_q in G_q.  Claim: a y of order q^i, 1 <= i <= j, lies in
a cyclic subgroup of order q^j exactly when y is a q^(j-i)-th power in
G_q.  If y is in <w>, |w| = q^j, then y lies in the one subgroup of <w>
of order q^i, generated by w^(q^(j-i)), so y = (w^c)^(q^(j-i)).
Conversely if y = w^(q^(j-i)) with |w| = q^a, then y has order
q^(a-(j-i)) when a >= j - i and 1 otherwise; as i >= 1, a = j, and y is
in <w>.  So U_q = 1 + sum over i = 1..j of the number of elements of
order q^i in H = q^(j-i) G_q.  With G_q the product of cyclic groups of
order q^v_q(n_t), H is the product of those of order q^f_t,
f_t = max(v_q(n_t) - (j - i), 0); its elements with x^(q^i) = 1 number
prod q^min(i, f_t), and those of order q^i are these less the ones with
x^(q^(i-1)) = 1.  oracle.oracle_union_size walks the orbits.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from .arith import Modulus, Record, build_modulus, canon, check_enum, valuation
from .idempotents import is_idempotent
from .units import class_groups


def r_count(m: int, e: int, k: int) -> int:
    """Number of a in R_m^e with |a|_m = k: the product, over the q^j || k,
    of rho(q^j) - rho(q^(j-1)), and 0 when k does not divide the exponent
    of R_m^e."""
    return _r(_class_orders(m, e, k), k)


def rho_count(m: int, e: int, k: int) -> int:
    """Number of a in R_m^e with |a|_m dividing k: prod of (k, n_i)."""
    return _rho(_class_orders(m, e, k), k)


def _rho(orders: list[int], k: int) -> int:
    return math.prod(math.gcd(k, n) for n in orders)


def _r(orders: list[int], k: int) -> int:
    if math.lcm(*orders) % k:
        return 0
    return math.prod(
        _rho(orders, q**j) - _rho(orders, q ** (j - 1))
        for q, j in build_modulus(k).factorization.factors
    )


def _class_orders(m: int, e: int, k: int) -> list[int]:
    """The cyclic factor orders of R_m^e = U(m/z): those of the U(p^alpha)
    of m on which e is a unit, i.e. 1.  It rejects a k below 1 first, and
    then an e that is not idempotent, for each count."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    return [n for group in class_groups(m, e) for n in group.orders]


def rho_closed_form(m: int, k: int) -> int:
    """rho_m^1(k) = prod over prime powers p^a || m of gcd(k, phi(p^a)).
    Valid for weakly even m only."""
    mod = build_modulus(m)
    if not mod.weakly_even:
        raise ValueError(f"{m} is not weakly even: closed form inapplicable")
    out = 1
    for p, alpha in mod.factorization.factors:
        out *= math.gcd(k, p ** (alpha - 1) * (p - 1))
    return out


def rho_prime_power(m: int, q: int, beta: int) -> int:
    """rho_m^1(q^beta) = q^(sum of min(beta, delta_i)) where q^delta_i is the
    q-part of phi(p_i^alpha_i).  Requires weakly even m and q^beta | psi(m)."""
    mod = build_modulus(m)
    if not mod.weakly_even:
        raise ValueError(f"{m} is not weakly even")
    if beta < 1 or mod.psi % q**beta != 0:
        raise ValueError(f"{q}^{beta} does not divide psi({m}) = {mod.psi}")
    s = 0
    for p, alpha in mod.factorization.factors:
        s += min(beta, valuation(p ** (alpha - 1) * (p - 1), q))
    return q**s


class OrbitUnionSize(Record):
    """Measured size of orb(kR_m^e) next to the k*r/phi(k) formula value.

    The two are reported side by side, not asserted equal: distinct order-k
    classes share sub-orbits, so the formula overcounts (m=12, e=1, k=2
    gives 6 against a true size of 4).
    """

    modulus: Modulus
    e: int
    k: int
    true_size: int
    formula_value: int


def orbit_union_size(m: int, e: int, k: int) -> OrbitUnionSize:
    """|orb(kR_m^e)|: 0 when no member has order k, and otherwise the
    product over the q^j || k of the U_q of the module docstring."""
    orders = _class_orders(m, e, k)
    r = _r(orders, k)
    size = 0
    if r:
        size = math.prod(
            _sylow_union(orders, q, j)
            for q, j in build_modulus(k).factorization.factors
        )
    formula = k * r // build_modulus(k).phi if r else 0
    return OrbitUnionSize(build_modulus(m), canon(e, m), k, size, formula)


def _sylow_union(orders: list[int], q: int, j: int) -> int:
    """The number of x in the Sylow q-subgroup that lie in a cyclic
    subgroup of order q^j: 1, and for each i in 1..j those of order q^i in
    q^(j-i) G_q, a product of cyclic groups of orders q^f_t."""
    vs = [valuation(n, q) for n in orders]
    size = 1
    for i in range(1, j + 1):
        fs = [max(v - (j - i), 0) for v in vs]
        size += q ** sum(min(i, f) for f in fs) - q ** sum(min(i - 1, f) for f in fs)
    return size


class FunctionClassification(Record):
    domain_bound: int
    is_m: bool
    is_qm: bool
    is_di: bool
    is_di_pp: bool
    witnesses: dict[str, tuple]  # first counterexample per failed class


def classify_function(f: Callable[[int], int], n: int) -> FunctionClassification:
    """Empirically classify f on 1..n as multiplicative / quasimultiplicative
    / division-invariant / prime-power division-invariant.  Each flag means
    only "no counterexample among arguments up to n".  n counts against
    the enumeration cap."""
    if n < 1:
        raise ValueError(f"bound n must be >= 1, got {n}")
    check_enum(n)
    vals = [None, *map(f, range(1, n + 1))]

    def multiplicative():
        for a in range(1, n + 1):
            for b in range(a, n // a + 1):
                if math.gcd(a, b) == 1 and vals[a * b] != vals[a] * vals[b]:
                    yield a, b, vals[a * b], vals[a] * vals[b]

    def division_invariant():
        for a in range(1, n + 1):
            for b in range(a, n + 1, a):
                if vals[b] % vals[a] != 0:
                    yield a, b, vals[a], vals[b]

    def prime_power_division_invariant():
        # Only the primes q with q^2 <= n have a pair (q^i, q^(i+1)) in 1..n.
        for q in range(2, math.isqrt(n) + 1):
            if any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
                continue
            lo = q
            while lo * q <= n:
                if vals[lo * q] % vals[lo] != 0:
                    yield lo, lo * q, vals[lo], vals[lo * q]
                lo *= q

    searches = {
        "M": multiplicative(),
        "QM": _quasimultiplicative(vals, n),
        "DI": division_invariant(),
        "DIpp": prime_power_division_invariant(),
    }
    first = {label: next(search, None) for label, search in searches.items()}
    witnesses = {label: w for label, w in first.items() if w is not None}
    return FunctionClassification(
        n, *(label not in witnesses for label in searches), witnesses)


def _quasimultiplicative(vals: list, n: int):
    """The QM witnesses over the pairs a <= b with lcm(a, b) <= n, a first
    and then b ascending.  With h = a / gcd(a, b), b = (a/h)*t for a t prime
    to h, and lcm(a, b) = a*t; so a's pairs are those of the h | a and the t
    prime to h in h..n//a, and no other pair is visited."""
    for a in range(1, n + 1):
        top = n // a
        pairs = sorted(
            (a // h * t, a * t)
            for h in range(1, top + 1) if a % h == 0
            for t in range(h, top + 1) if math.gcd(h, t) == 1
        )
        for b, l in pairs:
            if vals[l] != (want := math.lcm(vals[a], vals[b])):
                yield a, b, vals[l], want


def lcm_lift(g: Callable[[int], int], n: int) -> int:
    """f(n) = lcm of g over n's prime-power components (empty lcm = 1).
    When g is prime-power division-invariant the lifted f is
    quasimultiplicative."""
    if n < 1:
        raise ValueError(f"need a positive argument, got {n}")
    fact = build_modulus(n).factorization
    return math.lcm(*(g(p**a) for p, a in fact.factors))


# Named corpus for the CLI classifier; gcd:<b> binds the second argument.
def builtin_function(name: str) -> Callable[[int], int]:
    if name in ("phi", "psi"):  # uncached, so that no Modulus stays in the cache
        return lambda x: getattr(build_modulus.__wrapped__(x), name)
    if name == "identity":
        return lambda x: x
    if name == "const":
        return lambda x: 1
    if name.startswith("gcd:"):
        b = int(name.split(":", 1)[1])
        return lambda x: math.gcd(x, b)
    raise ValueError(
        f"unknown function {name!r}; choose phi, psi, identity, const, or gcd:<b>"
    )
