"""Integer-graded base category: Koszul symmetry, graded structures and duals.

A grading is metadata on the basis (one integer per basis vector); the linear
algebra underneath is untouched.  The braiding picks up the Koszul sign
(-1)^(ab) on homogeneous elements of degrees a and b, which is what makes
graded bialgebra validation differ from the ungraded one away from
characteristic 2.

Any structure value, graded or not, is its parts: (algebra, coalgebra,
antipode, space), each possibly None.  ``parts`` and ``assemble`` convert
between the two; validation and duals work on the parts.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    IncompatibleMeasurings,
    NegativeDegree,
    NotClosed,
    NotCommutative,
)
from .fields import Field, same_field
from .linalg import LinMap, _signed_swap, composite
from .measurings import _braided_tensor
from .structures import (
    DEFAULT_BUDGET,
    Algebra,
    Bialgebra,
    Coalgebra,
    Failure,
    HopfAlgebra,
    ValidationReport,
    _antipode_axioms,
    _bialgebra_axioms,
    _failures,
    algebra_morphisms,
    dual_algebra,
    dual_coalgebra,
    validate_algebra,
    validate_bialgebra,
    validate_coalgebra,
    validate_hopf,
)


@dataclass(frozen=True)
class GradedSpace:
    field: Field
    degrees: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class GradedAlgebra:
    algebra: Algebra
    space: GradedSpace

    def __post_init__(self):
        _match(self.algebra.field, self.algebra.dim, self.space)

    @property
    def degrees(self):
        return self.space.degrees


@dataclass(frozen=True)
class GradedCoalgebra:
    coalgebra: Coalgebra
    space: GradedSpace

    def __post_init__(self):
        _match(self.coalgebra.field, self.coalgebra.dim, self.space)

    @property
    def degrees(self):
        return self.space.degrees


@dataclass(frozen=True)
class GradedBialgebra:
    bialgebra: Bialgebra
    space: GradedSpace

    def __post_init__(self):
        _match(self.bialgebra.field, self.bialgebra.dim, self.space)

    @property
    def degrees(self):
        return self.space.degrees


@dataclass(frozen=True)
class GradedHopf:
    hopf: HopfAlgebra
    space: GradedSpace

    def __post_init__(self):
        _match(self.hopf.field, self.hopf.dim, self.space)

    @property
    def degrees(self):
        return self.space.degrees


def _match(field: Field, dim: int, space: GradedSpace):
    same_field(field, space.field)
    if dim != space.dim:
        raise DimensionMismatch("degree list length differs from the dimension")


def parts(value) -> tuple:
    """A structure value as (algebra, coalgebra, antipode, space), None for each
    part it lacks.  With ``assemble`` this is the only code that tells the
    eight structure classes apart."""
    match value:
        case Algebra():
            return value, None, None, None
        case Coalgebra():
            return None, value, None, None
        case Bialgebra(algebra=a, coalgebra=c):
            return a, c, None, None
        case HopfAlgebra(antipode=s):
            return value.algebra, value.coalgebra, s, None
        case GradedAlgebra(algebra=a, space=v):
            return a, None, None, v
        case GradedCoalgebra(coalgebra=c, space=v):
            return None, c, None, v
        case GradedBialgebra(bialgebra=b, space=v):
            return b.algebra, b.coalgebra, None, v
        case GradedHopf(hopf=h, space=v):
            return h.algebra, h.coalgebra, h.antipode, v
    raise TypeError(f"not a structure value: {type(value).__name__}")


def assemble(algebra, coalgebra, antipode=None, space=None):
    """The structure value with the given parts: the inverse of ``parts``."""
    if algebra is None or coalgebra is None:
        if antipode is not None or algebra is coalgebra:
            raise TypeError("a structure needs an algebra or a coalgebra part, "
                            "and an antipode needs both")
        if algebra is not None:
            return algebra if space is None else GradedAlgebra(algebra, space)
        return coalgebra if space is None else GradedCoalgebra(coalgebra, space)
    core = Bialgebra(algebra, coalgebra)
    if antipode is None:
        return core if space is None else GradedBialgebra(core, space)
    core = HopfAlgebra(core, antipode)
    return core if space is None else GradedHopf(core, space)


def koszul_swap(v: GradedSpace, w: GradedSpace) -> LinMap:
    """The graded symmetry e_i (x) e_j -> (-1)^(deg i * deg j) e_j (x) e_i."""
    return _signed_swap(v.degrees, w.degrees, same_field(v.field, w.field))


# ---------------------------------------------------------------------------
# validation


def _homogeneity_failures(name: str, f: LinMap, cod_degs: Sequence[int],
                          dom_degs: Sequence[int]) -> list[Failure]:
    """Entries must vanish unless the codomain degree equals the domain degree."""
    out = []
    for r in range(f.cod):
        for c in range(f.dom):
            if f.entries[r * f.dom + c] != 0 and cod_degs[r] != dom_degs[c]:
                out.append(Failure(f"{name} homogeneity", (r, c)))
                return out
    return out


def _tensor_degrees(degs: Sequence[int], times: int = 2) -> list[int]:
    return [sum(combo) for combo in itertools.product(degs, repeat=times)]


def validate(value) -> ValidationReport:
    """The axioms of any structure value.  An ungraded one goes to its
    validator in ``structures``; a graded one to ``validate_graded``."""
    algebra, coalgebra, antipode, space = parts(value)
    if space is not None:
        return validate_graded(value)
    if coalgebra is None:
        return validate_algebra(algebra)
    if algebra is None:
        return validate_coalgebra(coalgebra)
    return validate_bialgebra(value) if antipode is None else validate_hopf(value)


def validate_graded(value) -> ValidationReport:
    """Homogeneity of each part, then the axioms, a bialgebra's with the
    Koszul braiding in the tensor-square product, then the antipode's."""
    algebra, coalgebra, antipode, space = parts(value)
    if space is None:
        raise TypeError(f"no graded validation for {type(value).__name__}")
    degs = space.degrees
    failures = []
    if algebra is not None:
        failures += _algebra_homogeneity(algebra, degs)
    if coalgebra is not None:
        failures += _coalgebra_homogeneity(coalgebra, degs)
    if coalgebra is None:
        failures += validate_algebra(algebra).failures
    elif algebra is None:
        failures += validate_coalgebra(coalgebra).failures
    else:
        bialgebra = Bialgebra(algebra, coalgebra)
        failures += _failures(_bialgebra_axioms(bialgebra, koszul_swap(space, space),
                                                "comult multiplicative (Koszul)"))
    if antipode is not None:
        failures += _homogeneity_failures("antipode", antipode, degs, degs)
        failures += _failures(_antipode_axioms(bialgebra, antipode))
    return ValidationReport(tuple(failures))


def _algebra_homogeneity(a: Algebra, degs: Sequence[int]) -> list[Failure]:
    failures = _homogeneity_failures("mult", a.mult, degs, _tensor_degrees(degs))
    failures += _homogeneity_failures("unit", a.unit, degs, [0])
    return failures


def _coalgebra_homogeneity(c: Coalgebra, degs: Sequence[int]) -> list[Failure]:
    failures = _homogeneity_failures("comult", c.comult, _tensor_degrees(degs), degs)
    failures += _homogeneity_failures("counit", c.counit, [0], degs)
    return failures


# ---------------------------------------------------------------------------
# duals, connectedness, degree-zero adjunction


def dual(value):
    """The linear dual on the dual basis: the algebra and coalgebra parts trade
    places, the antipode is transposed and the degrees are negated."""
    algebra, coalgebra, antipode, space = parts(value)
    return assemble(None if coalgebra is None else dual_algebra(coalgebra),
                    None if algebra is None else dual_coalgebra(algebra),
                    None if antipode is None else antipode.transpose(),
                    None if space is None else graded_dual(space))


def graded_dual(v):
    """The dual of a graded space or of a graded structure value."""
    if isinstance(v, GradedSpace):
        return GradedSpace(v.field, tuple(-d for d in v.degrees))
    if parts(v)[3] is None:
        raise TypeError(f"no graded dual for {type(v).__name__}")
    return dual(v)


def is_connected(v: GradedSpace) -> bool:
    """For nonnegative gradings: exactly one basis vector in degree zero."""
    if any(d < 0 for d in v.degrees):
        raise NegativeDegree("connectedness is defined for nonnegative gradings")
    return sum(1 for d in v.degrees if d == 0) == 1


def graded_algebra_morphisms(a: GradedAlgebra, b: GradedAlgebra,
                             budget: int = DEFAULT_BUDGET) -> list[LinMap]:
    """All degree-0 unit-preserving multiplicative maps, exhaustively."""
    zero_coords = frozenset(
        q * a.algebra.dim + t
        for q in range(b.algebra.dim) for t in range(a.algebra.dim)
        if b.degrees[q] != a.degrees[t])
    return algebra_morphisms(a.algebra, b.algebra, budget=budget, zero_coords=zero_coords)


def degree0_part(a: GradedAlgebra) -> Algebra:
    """The degree-0 subalgebra on the degree-0 basis vectors."""
    k = a.algebra.field
    keep = [i for i, d in enumerate(a.degrees) if d == 0]
    pos = {i: n for n, i in enumerate(keep)}
    d0 = len(keep)
    dim = a.algebra.dim
    unit_vec = a.algebra.unit_vector()
    for i in range(dim):
        if i not in pos and unit_vec[i] != 0:
            raise NotClosed("the unit is not supported in degree 0")
    mult = [[k.zero()] * (d0 * d0) for _ in range(d0)]
    for ii, i in enumerate(keep):
        for jj, j in enumerate(keep):
            col = a.algebra.mult.col_at(i * dim + j)
            for t in range(dim):
                if col[t] == 0:
                    continue
                if t not in pos:
                    raise NotClosed(
                        f"product of degree-0 elements {i}, {j} leaves degree 0")
                mult[pos[t]][ii * d0 + jj] = col[t]
    unit = [unit_vec[i] for i in keep]
    return Algebra(mult=LinMap.from_rows(k, mult), unit=LinMap.column(k, unit))


def include_degree0(structure):
    """An ungraded algebra, bialgebra or Hopf algebra, concentrated in degree 0."""
    algebra, coalgebra, antipode, space = parts(structure)
    if algebra is None or space is not None:
        raise TypeError(f"cannot concentrate {type(structure).__name__} in degree 0")
    return assemble(algebra, coalgebra, antipode, GradedSpace(algebra.field, (0,) * algebra.dim))


# ---------------------------------------------------------------------------
# graded measurings: the braided tensor product


def graded_tensor_measuring(m1, x1: GradedSpace, m2, x2: GradedSpace,
                            a: GradedBialgebra, b: GradedAlgebra):
    """Bialgebra tensor of measurings with Koszul braidings in place of plain
    swaps; forgetting degrees, the result passes the ungraded validator."""
    if m1.a != m2.a or m1.b != m2.b or m1.a != a.bialgebra.algebra or m1.b != b.algebra:
        raise IncompatibleMeasurings("graded tensor needs matching graded (A, B)")
    if m1.xdim != x1.dim or m2.xdim != x2.dim:
        raise IncompatibleMeasurings("grading does not match the carriers")
    bspace = b.space
    mult_b = b.algebra.mult
    if composite([(koszul_swap(bspace, bspace), 1, 1), (mult_b, 1, 1)], mult_b.dom) != mult_b:
        raise NotCommutative("the target must be commutative in the graded sense")
    return _braided_tensor(m1, m2, a.bialgebra.comult, koszul_swap(a.space, x1),
                           koszul_swap(bspace, x2))
