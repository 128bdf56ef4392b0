"""Composite moduli through their idempotent residues.

Residues are canonical integers in {1..m}; the value m denotes the zero
class.  The package covers enumeration of the idempotent, normal, regular,
and generalized-primitive-root sets, the generalized order and signed powers,
power-congruence solvability, the order-counting functions, the operator
algebra on idempotents, quadratic kernels, a brute-force oracle layer, and an
empirical theorem-audit harness, which is imported on first use.
"""
from importlib import import_module as _import_module

from .arith import (
    EnumerationCapError,
    Factorization,
    Modulus,
    build_modulus,
    canon,
    canonicalize,
    crt_combine,
    factorize,
    max_enum,
    mod_pow,
    multiplicative_order,
    valuation,
)
from .idempotents import (
    IdempotentSet,
    OrderInfo,
    enumerate_idempotents,
    idem_class,
    index,
    is_idempotent,
    order,
    signed_power,
    tower_mod,
)
from .residues import (
    OrbitSet,
    ResidueClassification,
    StructureTable,
    class_members,
    class_product,
    classify,
    delta,
    equivalent,
    is_normal,
    is_regular,
    join_witness,
    mu,
    normal_set,
    orbit,
    orbit_gcd,
    order_table,
    regular_set,
    relative_order,
    structure_table,
)
from .congruence import (
    CongruenceSolution,
    OmegaInfo,
    gen_primitive_roots,
    omega_info,
    omega_set,
    omega_value,
    solvable_bc01,
    solve,
)
from .counting import (
    FunctionClassification,
    OrbitUnionSize,
    builtin_function,
    classify_function,
    lcm_lift,
    orbit_union_size,
    r_count,
    rho_closed_form,
    rho_count,
    rho_prime_power,
)
from .algebra import (
    AlgebraReport,
    BasisMap,
    basis_map,
    circ,
    complement,
    idem_op,
    otimes,
    simdiff,
    verify_algebra,
)
from .quadratic import (
    QuadraticKernel,
    SqrtStructure,
    class_kernel_op,
    kernel,
    kernel_op,
    root_decompose,
    sqrt_structure,
)
# The brute-force layer loads with the package: perfbench's traced runs find
# its oracle_* functions in sys.modules to wrap them.
from . import oracle

# The audit harness is the largest module and no query uses it, so its names
# resolve on first use (PEP 562) and only then import audit.py.
_AUDIT_NAMES = ("AuditFinding", "AuditReport", "THEOREMS", "run_audit")


def __getattr__(name):
    if name != "audit" and name not in _AUDIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    audit = _import_module(f"{__name__}.audit")
    globals().update({n: getattr(audit, n) for n in _AUDIT_NAMES})
    return globals()[name]


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["audit", *_AUDIT_NAMES])
