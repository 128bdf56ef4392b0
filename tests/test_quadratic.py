"""Kernels of x^2 = kx and square-root structure over odd moduli."""
import math

import pytest

from idemod.arith import canon
from idemod.idempotents import enumerate_idempotents
from idemod.oracle import oracle_regular_set
from idemod.quadratic import (
    class_kernel_op,
    kernel,
    kernel_op,
    root_decompose,
    sqrt_structure,
)
from idemod import audit as _audit
from conftest import no_findings, quadratic_sweep

SWEEP_300 = range(2, 301)


def test_unit_scaled_kernels_match_scan():
    no_findings(_audit.check_sd02, SWEEP_300)
    for m in range(1, 301):
        es = enumerate_idempotents(m).elements
        for k in range(1, m + 1):
            if math.gcd(k, m) == 1:
                built = sorted(canon(k * e, m) for e in es)
                assert list(kernel(m, k).solutions) == built, (m, k)


def test_kernels_and_square_roots_match_a_full_scan():
    """Every m <= 300: kernel(m, k) for every k, and, for odd m,
    sqrt_structure(m, e) for every idempotent e, against a brute-force scan
    of x^2 over 1..m."""
    for m in range(1, 301):
        squares = [x * x % m for x in range(m + 1)]
        for k in range(1, m + 1):
            want = tuple(x for x in range(1, m + 1) if squares[x] == k * x % m)
            assert kernel(m, k).solutions == want, (m, k)
        if m % 2:
            regular = oracle_regular_set(m)
            for e in enumerate_idempotents(m).elements:
                want = tuple(x for x in regular if squares[x] == e % m)
                assert sqrt_structure(m, e).roots == want, (m, e)


def test_membership_matches_element_lists():
    for m in range(1, 121):
        idems = enumerate_idempotents(m)
        kernels = [kernel(m, k) for k in {1, 2, 3, m // 2 or 1, m}]
        for x in range(-m, 2 * m + 1):
            assert (x in idems) == (canon(x, m) in idems.elements), (m, x)
            for ker in kernels:
                assert (x in ker) == (canon(x, m) in ker.solutions), (m, ker.k, x)


def test_factored_quadratic_roots_decompose_uniquely():
    no_findings(_audit.check_sd03, SWEEP_300)


def test_square_roots_pair_through_idempotents():
    no_findings(_audit.check_sd04, SWEEP_300)


def test_roots_of_unity_parametrized_by_idempotents():
    no_findings(_audit.check_sd05, SWEEP_300)


def test_kernel_operators_closed():
    no_findings(_audit.check_sd07, SWEEP_300)
    no_findings(_audit.check_sd10, SWEEP_300)


def test_circ_translation_permutes_kernel():
    no_findings(_audit.check_sd08, SWEEP_300)


def test_kernel_mixing_identities():
    no_findings(_audit.check_sd11, SWEEP_300)


def test_kernel_meets_class_group_in_its_generator():
    no_findings(_audit.check_sd12, SWEEP_300)


def test_kernel_bar_and_composition_identities():
    no_findings(_audit.check_sd13, SWEEP_300)


def test_kernel_translation_injective_in_idempotent():
    no_findings(_audit.check_sd14, SWEEP_300)


def test_sqrt_structure_odd_moduli():
    assert quadratic_sweep() == []
    no_findings(_audit.check_sd15, range(3, 300, 2))


def test_kernel_example():
    ker = kernel(12, 5)
    assert ker.solutions == (5, 8, 9, 12)
    assert ker.rbar(5) == 12
    assert 8 in ker and 7 not in ker


def test_root_decompose_example():
    # (x-2)(x-5) = 0 mod 10 has roots 2, 5, 7, 10.
    assert root_decompose(10, 2, 5, 2) == 1
    assert root_decompose(10, 2, 5, 5) == 10  # the zero class
    assert root_decompose(10, 2, 5, 7) == 6
    assert root_decompose(10, 2, 5, 10) == 5


def test_root_decompose_validates():
    with pytest.raises(ValueError):
        root_decompose(10, 2, 4, 2)  # b - a not a unit
    with pytest.raises(ValueError):
        root_decompose(10, 2, 5, 3)  # 3 is not a root


def test_sqrt_structure_validates():
    with pytest.raises(ValueError):
        sqrt_structure(12, 4)  # even modulus
    with pytest.raises(ValueError):
        sqrt_structure(15, 2)  # not idempotent


def test_sqrt_structure_example():
    rep = sqrt_structure(45, 10)
    assert sorted(rep.roots) == [10, 35]
    assert rep.size_formula == 2
    assert rep.product == canon(-10, 45) == rep.product_formula


def test_kernel_ops_validate():
    with pytest.raises(ValueError):
        kernel_op(12, 5, 7, 4, "circ")  # 7 not in the kernel
    with pytest.raises(ValueError):
        kernel_op(12, 5, 5, 5, "circ")  # 5 not idempotent
    with pytest.raises(ValueError):
        kernel_op(12, 5, 5, 4, "nope")
    with pytest.raises(ValueError):
        class_kernel_op(12, 4, 5, 4, "circ")  # 5 not in kernel of x^2=4x


def test_kernel_ops_answer_above_the_cap(monkeypatch):
    """Kernel membership is r^2 = kr, O(1), so no enumeration is needed."""
    monkeypatch.setenv("IDEM_MAX_ENUM", "50")
    r, e = 22, 56  # 22^2 = 22 and 56^2 = 56 (mod 77)
    assert kernel_op(77, 1, r, e, "circ") == canon(r * e + (1 - r) * (1 - e), 77)
    assert class_kernel_op(77, e, e, e, "otimes") == e
