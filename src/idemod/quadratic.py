"""Kernels of x^2 = kx and the square-root structure over odd moduli.

For (k, m) = 1 the solution set of x^2 = kx is exactly k*E_m, so it inherits
the idempotent combinatorics.  k is canonicalized, with k = m standing for
the k = 0 equation x^2 = 0.  kernel scans 1..m on every call, with no
memo to hold an answer that grows with m.  sqrt_structure scans
nothing: it joins the local roots of x^2 = 1 (units.local_roots) by CRT.
"""
from __future__ import annotations

import math

from .arith import (
    Modulus,
    Record,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    check_work,
)
from .idempotents import is_idempotent
from .units import crt_join, local_roots


class QuadraticKernel(Record):
    modulus: Modulus
    k: int
    solutions: tuple[int, ...]

    def rbar(self, r: int) -> int:
        """The paired solution (k - r) mod m."""
        return canon(self.k - r, self.modulus.m)

    def __contains__(self, r: int) -> bool:
        """r solves x^2 = kx (mod m): O(1), so no enumeration cap applies."""
        m = self.modulus.m
        return r * r % m == self.k * r % m


def kernel(m: int, k: int) -> QuadraticKernel:
    """All x with x^2 = kx (mod m), by scan; for (k, m) = 1 this is k*E_m."""
    check_enum(m)
    k = canon(k, m)
    sols = tuple(x for x in range(1, m + 1) if x * (x - k) % m == 0)
    return QuadraticKernel(build_modulus(m), k, sols)


def root_decompose(m: int, a: int, b: int, r: int) -> int:
    """For (b - a, m) = 1 and r solving (x-a)(x-b) = 0, the unique idempotent
    e with r = ae + b(1-e), recovered as e = (r-b)(a-b)^(-1)."""
    r = canonicalize(r, m)
    if math.gcd(b - a, m) != 1:
        raise ValueError(f"b - a = {b - a} is not a unit modulo {m}")
    if (r - a) * (r - b) % m != 0:
        raise ValueError(f"{r} does not solve (x-{a})(x-{b}) = 0 modulo {m}")
    e = canon((r - b) * pow(a - b, -1, m), m)
    if not is_idempotent(m, e):
        raise AssertionError(f"decomposition of r={r} is not idempotent (m={m})")
    if canon(a * e + b * (1 - e), m) != r:
        raise AssertionError(f"decomposition of r={r} does not recompose (m={m})")
    return e


class SqrtStructure(Record):
    modulus: Modulus
    e: int
    roots: tuple[int, ...]  # regular solutions of x^2 = e
    size_formula: int  # 2^omega(mu_m(e))
    product: int
    product_formula: int  # (-1)^(2^(omega(mu)-1)) * e


def sqrt_structure(m: int, e: int) -> SqrtStructure:
    """Regular square roots of an idempotent e over odd m, with the size and
    product formulas evaluated alongside.  A regular root lies in R_m^e,
    whose identity is e: it is 0 on the prime powers of m that e kills and
    a root of x^2 = 1 on those of mu, 2^omega(mu) roots, priced first."""
    if m % 2 == 0:
        raise ValueError(f"modulus {m} is even: structure result needs odd m")
    if not is_idempotent(m, e):
        raise ValueError(f"{e} is not idempotent modulo {m}")
    e = canon(e, m)
    factors = build_modulus(m).factorization.factors
    om = sum(e % p > 0 for p, _ in factors)  # omega(mu)
    check_work(2**om, "roots")
    parts = [list(local_roots(p, alpha, 2, 1)[1]()) if e % p else [0]
             for p, alpha in factors]
    roots = crt_join(m, [p**alpha for p, alpha in factors], parts)
    prod = 1
    for x in roots:
        prod = prod * x % m
    sign = (-1) ** (2 ** (om - 1)) if om >= 1 else -1
    return SqrtStructure(
        modulus=build_modulus(m),
        e=e,
        roots=roots,
        size_formula=2**om,
        product=canon(prod, m),
        product_formula=canon(sign * e, m),
    )


def kernel_op(m: int, k: int, r: int, e: int, which: str) -> int:
    """Mix a kernel element with an idempotent: r o e = re + (k-r)(1-e) or
    r (x) e = k - (k-r)(1-e); both land back in the kernel."""
    k, r, e = canonicalize(k, m), canonicalize(r, m), canonicalize(e, m)
    if r * r % m != k * r % m:
        raise ValueError(f"{r} does not solve x^2 = {k}x modulo {m}")
    if e * e % m != e % m:
        raise ValueError(f"{e} is not idempotent modulo {m}")
    rb = k - r
    if which == "circ":
        return (r * e + rb * (1 - e)) % m or m
    if which == "otimes":
        return (k - rb * (1 - e)) % m or m
    raise ValueError(f"unknown kernel operator {which!r}")


def class_kernel_op(m: int, e: int, r1: int, r2: int, which: str) -> int:
    """Combine two elements of the kernel of x^2 = ex (bars taken against
    k = e): r1 o r2 = r1 r2 + rbar1 rbar2, r1 (x) r2 = e - rbar1 rbar2."""
    e, r1, r2 = canonicalize(e, m), canonicalize(r1, m), canonicalize(r2, m)
    if e * e % m != e % m:
        raise ValueError(f"{e} is not idempotent modulo {m}")
    for r in (r1, r2):
        if r * r % m != e * r % m:
            raise ValueError(f"{r} does not solve x^2 = {e}x modulo {m}")
    rb1, rb2 = e - r1, e - r2
    if which == "circ":
        return (r1 * r2 + rb1 * rb2) % m or m
    if which == "otimes":
        return (e - rb1 * rb2) % m or m
    raise ValueError(f"unknown kernel operator {which!r}")
