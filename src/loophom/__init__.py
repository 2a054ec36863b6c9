"""Exact loop-space homology algebras of spheres.

The package models, with exact integer/rational arithmetic:

* the Chas-Sullivan loop product on H_*(Lambda S^n) for both parities of n,
  the Pontrjagin ring of the based loop space, and the intersection algebra
  of the sphere;
* the structure maps between them (loop reversal, basepoint evaluation, the
  Gysin pair j_! and j_*);
* quotients by the finite subgroups of O(2), the homology transfer, and the
  induced transfer products on quotient homology, including the
  nonnilpotent classes mu and eta and the geometric class-A products.

Every identity the model relies on is mechanically checkable through
`loophom.verify` (also exposed as the `loophom verify` command).
"""

from .core import (
    Algebra,
    DomainError,
    Element,
    Generator,
    RING_Q,
    RING_Z,
    StructureError,
)
from .equivariant import (
    QElement,
    Quotient,
    Subgroup,
    a_product,
    cyclic,
    dihedral,
    eta_class,
    mu_class,
    quotient,
    theta_group,
)
from .expr import (
    EvalContext,
    ExprSyntaxError,
    evaluate,
    format_value,
    parse,
    values_equal,
)
from .maps import (
    LinearMap,
    chi_star,
    ev_star,
    j_shriek,
    j_star,
    reversal_power_sign,
    theta_star,
)
from .spaces import (
    BettiTable,
    Space,
    TableRow,
    based_loop_space,
    loop_space,
    make_space,
    sphere_space,
)
from . import verify

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BettiTable",
    "DomainError",
    "Element",
    "EvalContext",
    "ExprSyntaxError",
    "Generator",
    "LinearMap",
    "QElement",
    "Quotient",
    "RING_Q",
    "RING_Z",
    "Space",
    "StructureError",
    "Subgroup",
    "TableRow",
    "a_product",
    "based_loop_space",
    "chi_star",
    "cyclic",
    "dihedral",
    "eta_class",
    "ev_star",
    "evaluate",
    "format_value",
    "j_shriek",
    "j_star",
    "loop_space",
    "make_space",
    "mu_class",
    "parse",
    "quotient",
    "reversal_power_sign",
    "sphere_space",
    "theta_group",
    "theta_star",
    "values_equal",
    "verify",
]
