"""Idempotent enumeration, generalized order, signed powers, towers."""
import math
import random
import time

import pytest

from idemod.arith import (
    EnumerationCapError,
    build_modulus,
    canon,
    max_enum,
    multiplicative_order,
)
from idemod.idempotents import (
    enumerate_idempotents,
    idem_class,
    index,
    is_idempotent,
    order,
    signed_power,
    tower_mod,
)
from idemod.oracle import oracle_idempotents, oracle_order


def _divisor_pairs(m):
    divs = [d for d in range(2, m) if m % d == 0]
    return [(a, b) for a in divs for b in divs if math.lcm(a, b) == m]


def test_totient_powers_idempotent():
    for m in range(2, 1001):
        mod = build_modulus(m)
        for a in range(1, m + 1):
            assert is_idempotent(m, pow(a, mod.phi, m))
            assert is_idempotent(m, pow(a, mod.psi, m))


def test_phi_power_depends_only_on_gcd():
    for m in range(2, 501):
        phi = build_modulus(m).phi
        for a in range(1, m + 1):
            assert pow(a, phi, m) == pow(math.gcd(a, m), phi, m)


def test_unique_idempotent_power():
    for m in range(2, 151):
        mod = build_modulus(m)
        for a in range(1, m + 1):
            e = idem_class(m, a)
            x = 1 % m
            for _ in range(2 * mod.phi):
                x = x * a % m
                if x * x % m == x:
                    assert canon(x, m) == e


def test_early_power_collision_implies_idempotent():
    rng = random.Random(20240824)
    for _ in range(3000):
        m = rng.randrange(2, 400)
        a = rng.randrange(1, m + 1)
        k = rng.randrange(1, 50)
        n = rng.randrange(k, k + 60)
        if pow(a, k + n, m) == pow(a, k, m):
            assert is_idempotent(m, pow(a, n, m))


def test_idempotency_componentwise_over_lcm_decompositions():
    for m in range(2, 201):
        es = set(enumerate_idempotents(m).elements)
        for m1, m2 in _divisor_pairs(m):
            e1 = set(oracle_idempotents(m1))
            e2 = set(oracle_idempotents(m2))
            for e in range(1, m + 1):
                assert (canon(e, m) in es) == (
                    canon(e, m1) in e1 and canon(e, m2) in e2
                )


def test_scaled_idempotent_set_size():
    for m in range(2, 501):
        es = enumerate_idempotents(m).elements
        for k in range(1, m + 1):
            size = len({canon(k * e, m) for e in es})
            assert size == 2 ** build_modulus(m // math.gcd(k, m)).omega


def test_crt_enumeration_matches_brute_force():
    for m in range(1, 501):
        assert list(enumerate_idempotents(m).elements) == oracle_idempotents(m)


def test_order_fast_path_matches_brute_force():
    for m in range(2, 1001):
        for a in range(1, m + 1):
            assert order(m, a).order == oracle_order(m, a)


def test_order_examples():
    assert order(12, 1).order == 1 and order(12, 1).idem_class == 1
    assert order(12, 12).order == 1 and order(12, 12).idem_class == 12
    assert order(12, 2).order == 2 and order(12, 2).idem_class == 4


def test_signed_power_conventions():
    assert signed_power(12, 5, -1) == 5
    assert signed_power(12, 2, -2) == 4
    for m in range(2, 100):
        for a in range(1, m + 1):
            assert signed_power(m, a, 0) == idem_class(m, a)
            assert signed_power(m, a, 1) == canon(a, m)


def test_index_examples():
    assert index(12, 5, 1) == 2
    assert index(12, 7, 5) is None
    for m in range(2, 60):
        for b in range(1, m + 1):
            assert index(m, b, b) == 1


def test_index_refuses_a_walk_beyond_the_cap(monkeypatch):
    """37 generates U(2^61 - 1), so its powers repeat only after 2^61 - 2
    steps: index refuses that walk within its first steps, while short
    walks of the same modulus still answer."""
    p = 2**61 - 1
    assert multiplicative_order(37, p) == p - 1 > max_enum()
    t0 = time.perf_counter()
    with pytest.raises(EnumerationCapError):
        index(p, 37, 5)
    assert time.perf_counter() - t0 < 0.5
    assert index(p, p - 1, 1) == 2
    assert index(p, p - 1, 5) is None
    assert index(p, 1, 1) == 1
    # Modulo 2^9 * 3 = 1536 the powers of 6 are 6, 36, ... and then 0
    # (1536) for good, 9 values, and those of 5 cycle with period
    # lcm(128, 2) = 128, its orders modulo 512 and modulo 3.
    monkeypatch.setenv("IDEM_MAX_ENUM", "127")
    assert index(1536, 6, 1536) == 9
    with pytest.raises(EnumerationCapError):
        index(1536, 5, 1)
    monkeypatch.setenv("IDEM_MAX_ENUM", "128")
    assert index(1536, 5, 1) == 128


def test_tower_reference_values():
    assert tower_mod(100, 42, 100) == 56
    assert tower_mod(4, 42, 98) == 4
    for m in range(2, 30):
        for b in range(1, 12):
            assert tower_mod(m, b, 1) == canon(b, m)


def test_tower_matches_direct_exponentiation_small_heights():
    for m in range(2, 40):
        for b in range(2, 8):
            assert tower_mod(m, b, 2) == canon(pow(b, b, m), m)
            assert tower_mod(m, b, 3) == canon(pow(b, b**b, m), m)


def test_tower_stabilizes_in_height():
    # Tall towers over a fixed base settle once the exponent tower saturates.
    for m in (7, 12, 100, 360):
        vals = [tower_mod(m, 3, h) for h in range(5, 10)]
        assert len(set(vals)) == 1


def test_tower_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tower_mod(10, 3, 0)
    with pytest.raises(ValueError):
        tower_mod(10, 0, 3)
