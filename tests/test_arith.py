"""Factored-modulus arithmetic: totients, canonicalization, CRT, and the
int-modulus boundary of the public API."""
import inspect
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import idemod
from idemod import arith
from idemod.arith import (
    EnumerationCapError,
    Factorization,
    build_modulus,
    canon,
    canonicalize,
    check_enum,
    crt_combine,
    factorize,
    lcm_all,
    mod_pow,
    multiplicative_order,
    valuation,
)


def _brute_phi_sieve(n):
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


@lru_cache(maxsize=None)
def _brute_unit_count(q):
    """Number of units mod q, by direct gcd scan."""
    return sum(1 for u in range(1, q + 1) if math.gcd(u, q) == 1)


def test_phi_psi_brute_force_agreement_and_divisibility():
    phi = _brute_phi_sieve(2000)
    for m in range(1, 2001):
        mod = build_modulus(m)
        assert mod.phi == phi[m]
        brute_psi = lcm_all(
            _brute_unit_count(p**a) for p, a in mod.factorization.factors
        )
        assert mod.psi == brute_psi
        assert mod.phi % mod.psi == 0


def test_omega_square_free_flags():
    for m in range(1, 2001):
        mod = build_modulus(m)
        assert mod.omega == len(mod.factorization.factors)
        assert mod.square_free == all(a == 1 for _, a in mod.factorization.factors)


def test_parity_flags_odd_m():
    for m in range(1, 1001, 2):
        mod = build_modulus(m)
        assert mod.weakly_even
        assert not mod.barely_even


def test_parity_flags_even_m():
    assert build_modulus(2).barely_even and build_modulus(2).weakly_even
    assert not build_modulus(4).barely_even and build_modulus(4).weakly_even
    assert not build_modulus(8).weakly_even
    assert build_modulus(12).weakly_even and not build_modulus(12).barely_even


@given(a=st.integers(-(10**9), 10**9), m=st.integers(1, 500))
def test_canonicalize_congruent_and_in_range(a, m):
    c = canonicalize(a, m)
    assert 1 <= c <= m
    assert (c - a) % m == 0


def test_canon_zero_class():
    assert canon(0, 12) == 12
    assert canon(12, 12) == 12
    assert canon(-12, 12) == 12
    assert canon(-1, 12) == 11


@given(st.data())
@settings(max_examples=200)
def test_crt_roundtrip(data):
    primes = [2, 3, 5, 7, 11, 13]
    chosen = data.draw(st.lists(st.sampled_from(primes), unique=True, min_size=1))
    pairs = []
    for p in chosen:
        exp = data.draw(st.integers(1, 3))
        q = p**exp
        pairs.append((data.draw(st.integers(0, q - 1)), q))
    x = crt_combine(pairs)
    assert 1 <= x <= math.prod(q for _, q in pairs)
    for a, q in pairs:
        assert x % q == a % q


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 4)])


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        Factorization(4, ((2, 0),))


@given(n=st.integers(1, 10**6))
@settings(max_examples=300)
def test_factorize_reconstructs(n):
    fact = factorize(n)
    assert math.prod(p**a for p, a in fact.factors) == n
    for p, _ in fact.factors:
        assert p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1)), p


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    fact = factorize(n)
    assert fact.factors == ((1000003, 1), (1000033, 1))
    # A repeated prime beyond trial division is split by its exact root.
    assert factorize(3 * 1000003**2).factors == ((3, 1), (1000003, 2))


def _no_rho(n):
    raise AssertionError(f"Pollard rho reached {n}")


def test_perfect_powers_never_reach_rho(monkeypatch):
    """An exact k-th power is split by its integer k-th root: rho on p^2
    needs about sqrt(p) steps, some 2^30 of them for p = 2^61 - 1."""
    monkeypatch.setattr(arith, "_brent_rho", _no_rho)
    for p in (1031, 65537, 1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1):
        for k in range(2, 7):
            assert factorize(p**k).factors == ((p, k),), (p, k)
    assert factorize(3 * 1000003**2).factors == ((3, 1), (1000003, 2))


def _random_prime(rng, bits):
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            return p


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    cases = [rng.randrange(1, 1 << 72) for _ in range(60)]
    for bits in range(20, 33, 2):  # balanced semiprimes
        cases.append(_random_prime(rng, bits) * _random_prime(rng, bits))
    for p in (1031, 65537, 1000003, _random_prime(rng, 24)):  # p > 2^10
        cases += [p**2, p**3]
    cases += [561, 41041, 825265]  # Carmichael numbers
    cases += [3 * 1000003**4, 1021 * 65537**3]  # small prime times prime power
    # A strong pseudoprime to the first 12 prime bases, so a composite that
    # Miller-Rabin on bases 2..37 takes for a prime.
    cases.append(399165290221 * 798330580441)
    # Powers that are not perfect, and perfect powers with a composite root.
    for p, q in ((1031, 1033), (65537, _random_prime(rng, 24))):
        cases += [p**2 * q, p**3 * q**2, (p * q) ** 2]
    for n in cases:
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_mod_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        mod_pow(12, 5, 0)
    assert mod_pow(12, 5, 2) == 1
    assert mod_pow(12, -1, 2) == 1


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_multiplicative_order_matches_brute_force():
    for n in range(1, 200):
        for a in range(1, n + 1):
            if math.gcd(a, n) != 1:
                continue
            x = a % n
            k = 1
            while x != 1 % n:
                x = x * a % n
                k += 1
            assert multiplicative_order(a, n) == k


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("IDEM_MAX_ENUM", "100")
    with pytest.raises(EnumerationCapError):
        check_enum(101)
    check_enum(100)


def test_public_api_takes_int_moduli():
    for name in idemod.__all__:
        fn = getattr(idemod, name)
        if not callable(fn):
            continue
        param = inspect.signature(fn).parameters.get("m")
        if param is not None:
            assert "Modulus" not in str(param.annotation), name
    idemod.order.cache_clear()
    idemod.order(12, 5)
    idemod.order(12, 5)
    info = idemod.order.cache_info()
    assert (info.hits, info.misses) == (1, 1)
