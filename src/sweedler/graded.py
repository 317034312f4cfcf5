"""Integer-graded base category: Koszul symmetry, graded structures and duals.

A grading is metadata on the basis (one integer per basis vector); the linear
algebra underneath is untouched.  The braiding picks up the Koszul sign
(-1)^(ab) on homogeneous elements of degrees a and b, which is what makes
graded bialgebra validation differ from the ungraded one away from
characteristic 2.

A graded value is one class, :class:`Graded`: any ungraded structure value
plus its degrees.  Any structure value, graded or not, is its parts:
(algebra, coalgebra, antipode, space), each possibly None.  ``parts`` and
``assemble`` convert between the two; validation and duals work on the parts.
A graded value answers ``.report`` as every structure value does, once: its
parts' own reports are reused, and only homogeneity, the Koszul-braided
compatibility and the antipode are checked on top.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from .errors import (
    DimensionMismatch,
    IncompatibleMeasurings,
    NegativeDegree,
    NotClosed,
    NotCommutative,
)
from .fields import Field, Value, same_field
from .linalg import LinMap, _SignedSwap, composite
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
    _failures,
    algebra_morphisms,
    dual_algebra,
    dual_coalgebra,
)


class GradedSpace(Value):
    field: Field
    degrees: tuple[int, ...]

    def __init__(self, field, degrees):
        vars(self).update(field=field, degrees=degrees)

    @property
    def dim(self) -> int:
        return len(self.degrees)


class Graded(Value):
    """A structure value with a degree for each basis vector: ``value`` is an
    ungraded Algebra, Coalgebra, Bialgebra or HopfAlgebra."""

    value: Algebra | Coalgebra | Bialgebra | HopfAlgebra
    space: GradedSpace

    def __init__(self, value, space):
        vars(self).update(value=value, space=space)
        if parts(value)[3] is not None:
            raise TypeError("a graded value cannot be graded again")
        same_field(value.field, space.field)
        if value.dim != space.dim:
            raise DimensionMismatch("degree list length differs from the dimension")

    @property
    def degrees(self):
        return self.space.degrees

    @cached_property
    def report(self) -> ValidationReport:
        """Homogeneity of each part, then the parts' reports, then a
        bialgebra's compatibility axioms with the Koszul braiding, then the
        antipode's homogeneity and axioms."""
        algebra, coalgebra, antipode, space = parts(self)
        degs = space.degrees
        failures = []
        if algebra is not None:
            failures += _algebra_homogeneity(algebra, degs)
        if coalgebra is not None:
            failures += _coalgebra_homogeneity(coalgebra, degs)
        failures += [f for part in (algebra, coalgebra) if part is not None
                     for f in part.report.failures]
        bialgebra = bialgebra_of(self)
        if bialgebra is not None:
            failures += bialgebra.compatibility(_koszul(space, space),
                                                "comult multiplicative (Koszul)")
        if antipode is not None:
            failures += _homogeneity_failures("antipode", antipode, degs, degs)
            failures += _failures(_antipode_axioms(bialgebra, antipode))
        return ValidationReport(tuple(failures))


def parts(value) -> tuple:
    """A structure value as (algebra, coalgebra, antipode, space), None for each
    part it lacks.  With ``bialgebra_of`` and ``assemble`` this is the only
    code that tells the structure classes apart."""
    match value:
        case Algebra():
            return value, None, None, None
        case Coalgebra():
            return None, value, None, None
        case Bialgebra(algebra=a, coalgebra=c):
            return a, c, None, None
        case HopfAlgebra(antipode=s):
            return value.algebra, value.coalgebra, s, None
        case Graded(value=v, space=space):
            return *parts(v)[:3], space
    raise TypeError(f"not a structure value: {type(value).__name__}")


def bialgebra_of(value) -> Bialgebra | None:
    """The Bialgebra object that a structure value holds, or None: the value
    itself, a Hopf value's, or the one inside a graded value."""
    match value:
        case Bialgebra():
            return value
        case HopfAlgebra(bialgebra=b):
            return b
        case Graded(value=v):
            return bialgebra_of(v)
    return None


def assemble(algebra, coalgebra, antipode=None, space=None):
    """The structure value with the given parts: the inverse of ``parts``."""
    if algebra is None or coalgebra is None:
        if antipode is not None or algebra is coalgebra:
            raise TypeError("a structure needs an algebra or a coalgebra part, "
                            "and an antipode needs both")
        core = coalgebra if algebra is None else algebra
    else:
        core = Bialgebra(algebra, coalgebra)
        if antipode is not None:
            core = HopfAlgebra(core, antipode)
    return core if space is None else Graded(core, space)


def koszul_swap(v: GradedSpace, w: GradedSpace) -> LinMap:
    """The graded symmetry e_i (x) e_j -> (-1)^(deg i * deg j) e_j (x) e_i."""
    return composite([(_koszul(v, w), 1, 1)], v.dim * w.dim)


def _koszul(v: GradedSpace, w: GradedSpace) -> _SignedSwap:
    """:func:`koszul_swap` as a chain factor."""
    return _SignedSwap(same_field(v.field, w.field), v.degrees, w.degrees)


# ---------------------------------------------------------------------------
# validation


def _homogeneity_failures(name: str, f: LinMap, cod_degs: Sequence[int],
                          dom_degs: Sequence[int]) -> list[Failure]:
    """Entries must vanish unless the codomain degree equals the domain degree."""
    for r, row in enumerate(f.nonzeros(by_col=False)):
        for c, _ in row:
            if cod_degs[r] != dom_degs[c]:
                return [Failure(f"{name} homogeneity", (r, c))]
    return []


def _tensor_degrees(degs: Sequence[int], times: int = 2) -> list[int]:
    return [sum(combo) for combo in itertools.product(degs, repeat=times)]


def validate_graded(value: Graded) -> ValidationReport:
    """The report of a graded value (:attr:`Graded.report`)."""
    if parts(value)[3] is None:
        raise TypeError(f"no graded validation for {type(value).__name__}")
    return value.report


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


def graded_algebra_morphisms(a: Graded, b: Graded,
                             budget: int = DEFAULT_BUDGET) -> list[LinMap]:
    """All degree-0 unit-preserving multiplicative maps between the algebra
    parts, exhaustively."""
    algebra_a, _, _, space_a = parts(a)
    algebra_b, _, _, space_b = parts(b)
    zero_coords = frozenset(
        q * algebra_a.dim + t
        for q in range(algebra_b.dim) for t in range(algebra_a.dim)
        if space_b.degrees[q] != space_a.degrees[t])
    return algebra_morphisms(algebra_a, algebra_b, budget=budget, zero_coords=zero_coords)


def degree0_part(a: Graded) -> Algebra:
    """The degree-0 subalgebra of the algebra part on the degree-0 basis vectors."""
    algebra, _, _, space = parts(a)
    k = algebra.field
    keep = [i for i, d in enumerate(space.degrees) if d == 0]
    pos = {i: n for n, i in enumerate(keep)}
    d0 = len(keep)
    dim = algebra.dim
    unit_vec = algebra.unit_vector()
    for i in range(dim):
        if i not in pos and unit_vec[i] != 0:
            raise NotClosed("the unit is not supported in degree 0")
    mult = []
    for ii, i in enumerate(keep):
        for jj, j in enumerate(keep):
            col = algebra.mult.col_at(i * dim + j)
            for t in itertools.compress(range(dim), col):
                if t not in pos:
                    raise NotClosed(
                        f"product of degree-0 elements {i}, {j} leaves degree 0")
                mult.append((pos[t], ii * d0 + jj, col[t]))
    unit = [unit_vec[i] for i in keep]
    return Algebra(mult=LinMap.from_nonzeros(k, d0, d0 * d0, mult), unit=LinMap.column(k, unit))


def include_degree0(structure):
    """An ungraded algebra, bialgebra or Hopf algebra, concentrated in degree 0."""
    algebra, coalgebra, antipode, space = parts(structure)
    if algebra is None or space is not None:
        raise TypeError(f"cannot concentrate {type(structure).__name__} in degree 0")
    return assemble(algebra, coalgebra, antipode, GradedSpace(algebra.field, (0,) * algebra.dim))


# ---------------------------------------------------------------------------
# graded measurings: the braided tensor product


def graded_tensor_measuring(m1, x1: GradedSpace, m2, x2: GradedSpace, a: Graded, b: Graded):
    """Bialgebra tensor of measurings with Koszul braidings in place of plain
    swaps; forgetting degrees, the result passes the ungraded validator."""
    algebra_a, coalgebra_a, _, aspace = parts(a)
    algebra_b, _, _, bspace = parts(b)
    if m1.a != m2.a or m1.b != m2.b or m1.a != algebra_a or m1.b != algebra_b:
        raise IncompatibleMeasurings("graded tensor needs matching graded (A, B)")
    if m1.xdim != x1.dim or m2.xdim != x2.dim:
        raise IncompatibleMeasurings("grading does not match the carriers")
    mult_b = algebra_b.mult
    if composite([(_koszul(bspace, bspace), 1, 1), (mult_b, 1, 1)], mult_b.dom) != mult_b:
        raise NotCommutative("the target must be commutative in the graded sense")
    return _braided_tensor(m1, m2, coalgebra_a.comult, _koszul(aspace, x1), _koszul(bspace, x2))
