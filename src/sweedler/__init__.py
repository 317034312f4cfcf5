"""Exact computations with finite-dimensional algebras, Hopf algebras and
their measuring representations."""

from .fields import QQ, Field, GF
from .linalg import LinMap, compose, invert, kernel_basis, kron, swap_map
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    FusionOperators,
    HopfAlgebra,
    ValidationReport,
    algebra_morphisms,
    convolution_algebra,
    dual_algebra,
    dual_bialgebra,
    dual_coalgebra,
    find_antipode,
    find_opantipode,
    fusion_operators,
    group_algebra,
    grouplikes,
    matrix_algebra,
    opposite,
    coopposite,
    validate_algebra,
    validate_bialgebra,
    validate_coalgebra,
    validate_hopf,
)
from .measurings import (
    Measuring,
    OrbitReport,
    compose_measuring,
    enumerate_measurings,
    intertwiners,
    measuring_from_matrix_morphism,
    matrix_morphism_from_measuring,
    tensor_measuring_bialgebra,
    tensor_measuring_endo,
    unit_measuring,
    validate_measuring,
)
from .reconstruction import (
    GeneratedSubcoalgebra,
    coend_coalgebra,
    dual_hopf_check,
    finite_dual,
    product_on_generated,
    reconstruct,
)
from .graded import (
    Graded,
    GradedSpace,
    degree0_part,
    graded_algebra_morphisms,
    graded_dual,
    include_degree0,
    is_connected,
    koszul_swap,
    validate_graded,
)
from .tambara import PresentedAlgebra, correspondence_check, tambara_presentation

__all__ = [name for name in dir() if not name.startswith("_")]
