"""The unit groups U(p^alpha): their generators and the k-th power test."""
import pytest

from idemod.arith import build_modulus
from idemod.units import generator, is_power, unit_group


def _prime_powers(bound: int):
    """(p, alpha, p^alpha) for each prime power p^alpha <= bound."""
    for q in range(2, bound + 1):
        factors = build_modulus(q).factorization.factors
        if len(factors) == 1:
            yield (*factors[0], q)


def test_generator_generates_the_unit_group():
    """generator(p, alpha) has order phi(p^alpha) for every odd
    p^alpha <= 3000, by sympy's n_order.  5 is the least primitive root of
    40487 but not of 40487^2, so there the generator is the lift 5 + 40487;
    generator reads no enumeration cap."""
    sympy = pytest.importorskip("sympy")
    for p, alpha, q in _prime_powers(3000):
        if p % 2:
            assert sympy.n_order(generator(p, alpha), q) == q - q // p, q
    assert generator(40487, 1) == 5
    assert generator(40487, 2) == 40492
    assert sympy.n_order(40492, 40487**2) == 40486 * 40487


def test_is_power_matches_the_kth_powers():
    """is_power, which serves both omega and solve, against the set of k-th
    powers of the units, for every unit of every p^alpha <= 500 and every
    k <= 12."""
    for p, alpha, q in _prime_powers(500):
        units = [x for x in range(q) if x % p]
        group = unit_group(p, alpha)
        for k in range(1, 13):
            powers = {pow(x, k, q) for x in units}
            for x in units:
                assert is_power(x, group, k) == (x in powers), (q, k, x)

