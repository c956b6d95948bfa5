"""Exact computational algebra around the order-6 complex Hadamard matrix on
cube roots of unity: its monomial symmetry group, the triple covers of the
alternating and symmetric groups on six points that stabilize it, a
split-quaternion representation intertwined by the matrix itself, and an
explicit outer automorphism of S6 with a synthemes-and-totals cross-check.
"""

from .autgroup import (
    XElement,
    compute_aut_linear,
    compute_aut_star,
    n_element,
    n_subgroup,
    star,
    sylow_x,
    sylow_y,
    tau1,
    tau2,
    tau2prime,
    verify_prop1,
    verify_prop2,
)
from .brep import BRepElement, b_rep, commutant_dimension, verify_intertwining, verify_theorem
from .eisenstein import BETA, OMEGA, OMEGA2, EisensteinRational, SplitQuaternion
from .gf4 import GF4, LinearCode, h6_code
from .groups import (
    BSGS,
    action_kernel_order,
    bsgs_build,
    center_of,
    closure,
    commutator,
    conjugate,
    derived_subgroup,
    hom_closure,
    is_simple_small,
    orbit_stabilizer,
)
from .matrices import ExactMatrix, NonUnimodularEntryError, h6
from .monomial import MonomialBMatrix, MonomialMatrix
from .outer import (
    AutoTable,
    build_outer,
    compare_up_to_inner,
    is_inner,
    sylvester_totals,
    totals_outer,
)
from .perms import Permutation

__version__ = "0.1.0"

__all__ = [
    "AutoTable",
    "BETA",
    "BRepElement",
    "BSGS",
    "EisensteinRational",
    "ExactMatrix",
    "GF4",
    "LinearCode",
    "MonomialBMatrix",
    "MonomialMatrix",
    "NonUnimodularEntryError",
    "OMEGA",
    "OMEGA2",
    "Permutation",
    "SplitQuaternion",
    "XElement",
    "action_kernel_order",
    "b_rep",
    "bsgs_build",
    "build_outer",
    "center_of",
    "closure",
    "commutant_dimension",
    "commutator",
    "compare_up_to_inner",
    "compute_aut_linear",
    "compute_aut_star",
    "conjugate",
    "derived_subgroup",
    "h6",
    "h6_code",
    "hom_closure",
    "is_inner",
    "is_simple_small",
    "n_element",
    "n_subgroup",
    "orbit_stabilizer",
    "star",
    "sylow_x",
    "sylow_y",
    "sylvester_totals",
    "tau1",
    "tau2",
    "tau2prime",
    "totals_outer",
    "verify_intertwining",
    "verify_prop1",
    "verify_prop2",
    "verify_theorem",
]
