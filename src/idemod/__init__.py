"""Composite moduli through their idempotent residues.

Residues are canonical integers in {1..m}; the value m denotes the zero
class.  The package covers enumeration of the idempotent, normal, regular,
and generalized-primitive-root sets, the generalized order and signed powers,
power-congruence solvability, the order-counting functions, the operator
algebra on idempotents, quadratic kernels, a brute-force oracle layer, and an
empirical theorem-audit harness.
"""

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
from .audit import AuditFinding, AuditReport, THEOREMS, run_audit

__all__ = [name for name in dir() if not name.startswith("_")]
