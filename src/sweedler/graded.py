"""Integer-graded base category: Koszul symmetry, graded structures and duals.

A grading is metadata on the basis (one integer per basis vector); the linear
algebra underneath is untouched.  The braiding picks up the Koszul sign
(-1)^(ab) on homogeneous elements of degrees a and b, which is what makes
graded bialgebra validation differ from the ungraded one away from
characteristic 2.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import singledispatch

from .errors import DimensionMismatch, NegativeDegree, NotClosed
from .fields import Field, same_field
from .linalg import LinMap, compose_slot
from .structures import (
    DEFAULT_BUDGET,
    Algebra,
    Bialgebra,
    Coalgebra,
    Failure,
    HopfAlgebra,
    ValidationReport,
    _antipode_failures,
    _bialgebra_failures,
    algebra_morphisms,
    dual_algebra,
    dual_bialgebra,
    dual_coalgebra,
    validate_algebra,
    validate_coalgebra,
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


def koszul_swap(v: GradedSpace, w: GradedSpace) -> LinMap:
    """The graded symmetry e_i (x) e_j -> (-1)^(deg i * deg j) e_j (x) e_i."""
    k = same_field(v.field, w.field)
    m, n = v.dim, w.dim
    size = m * n
    out = [k.zero()] * (size * size)
    one = k.one()
    minus = k.neg(one)
    for i in range(m):
        for j in range(n):
            sign = minus if (v.degrees[i] * w.degrees[j]) % 2 else one
            out[(j * m + i) * size + (i * n + j)] = sign
    return LinMap(k, size, size, tuple(out))


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


@singledispatch
def validate_graded(structure) -> ValidationReport:
    raise TypeError(f"no graded validation for {type(structure).__name__}")


@validate_graded.register
def _(g: GradedAlgebra) -> ValidationReport:
    failures = list(_algebra_homogeneity(g.algebra, g.degrees))
    failures += list(validate_algebra(g.algebra).failures)
    return ValidationReport(tuple(failures))


@validate_graded.register
def _(g: GradedCoalgebra) -> ValidationReport:
    failures = list(_coalgebra_homogeneity(g.coalgebra, g.degrees))
    failures += list(validate_coalgebra(g.coalgebra).failures)
    return ValidationReport(tuple(failures))


@validate_graded.register
def _(g: GradedBialgebra) -> ValidationReport:
    return ValidationReport(tuple(_graded_bialgebra_failures(g.bialgebra, g.space)))


@validate_graded.register
def _(g: GradedHopf) -> ValidationReport:
    failures = _graded_bialgebra_failures(g.hopf.bialgebra, g.space)
    failures += _homogeneity_failures("antipode", g.hopf.antipode, g.degrees, g.degrees)
    failures += _antipode_failures(g.hopf.bialgebra, g.hopf.antipode)
    return ValidationReport(tuple(failures))


def _algebra_homogeneity(a: Algebra, degs: Sequence[int]) -> list[Failure]:
    failures = _homogeneity_failures("mult", a.mult, degs, _tensor_degrees(degs))
    failures += _homogeneity_failures("unit", a.unit, degs, [0])
    return failures


def _coalgebra_homogeneity(c: Coalgebra, degs: Sequence[int]) -> list[Failure]:
    failures = _homogeneity_failures("comult", c.comult, _tensor_degrees(degs), degs)
    failures += _homogeneity_failures("counit", c.counit, [0], degs)
    return failures


def _graded_bialgebra_failures(b: Bialgebra, space: GradedSpace) -> list[Failure]:
    """Bialgebra axioms with the Koszul braiding in the tensor-square product."""
    failures = _algebra_homogeneity(b.algebra, space.degrees)
    failures += _coalgebra_homogeneity(b.coalgebra, space.degrees)
    failures += _bialgebra_failures(b, koszul_swap(space, space),
                                    "comult multiplicative (Koszul)")
    return failures


# ---------------------------------------------------------------------------
# duals, connectedness, degree-zero adjunction


@singledispatch
def graded_dual(v):
    raise TypeError(f"no graded dual for {type(v).__name__}")


@graded_dual.register
def _(v: GradedSpace) -> GradedSpace:
    return GradedSpace(v.field, tuple(-d for d in v.degrees))


@graded_dual.register
def _(g: GradedAlgebra) -> GradedCoalgebra:
    return GradedCoalgebra(dual_coalgebra(g.algebra), graded_dual(g.space))


@graded_dual.register
def _(g: GradedCoalgebra) -> GradedAlgebra:
    return GradedAlgebra(dual_algebra(g.coalgebra), graded_dual(g.space))


@graded_dual.register
def _(g: GradedBialgebra) -> GradedBialgebra:
    return GradedBialgebra(dual_bialgebra(g.bialgebra), graded_dual(g.space))


@graded_dual.register
def _(g: GradedHopf) -> GradedHopf:
    dual = HopfAlgebra(dual_bialgebra(g.hopf.bialgebra), g.hopf.antipode.transpose())
    return GradedHopf(dual, graded_dual(g.space))


def hom_space(v: GradedSpace, w: GradedSpace) -> GradedSpace:
    """Maps v -> w as a graded space; the map x_i -> y_j sits in degree
    deg(y_j) - deg(x_i), at index i*dim(w) + j."""
    same_field(v.field, w.field)
    degs = [w.degrees[j] - v.degrees[i] for i in range(v.dim) for j in range(w.dim)]
    return GradedSpace(v.field, tuple(degs))


def dual_comparison(v: GradedSpace, w: GradedSpace) -> LinMap:
    """The canonical map (graded dual of v) (x) w -> hom_space(v, w) sending
    alpha_i (x) y_j to the map x_i -> y_j.  Degree-preserving, and invertible
    precisely because these spaces are finite-dimensional.  Both sides index
    the pair (i, j) at i*dim(w) + j, so the map is the identity matrix."""
    return LinMap.identity(same_field(v.field, w.field), v.dim * w.dim)


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


@singledispatch
def include_degree0(structure):
    raise TypeError(f"cannot concentrate {type(structure).__name__} in degree 0")


@include_degree0.register
def _(a: Algebra) -> GradedAlgebra:
    return GradedAlgebra(a, GradedSpace(a.field, (0,) * a.dim))


@include_degree0.register
def _(b: Bialgebra) -> GradedBialgebra:
    return GradedBialgebra(b, GradedSpace(b.field, (0,) * b.dim))


@include_degree0.register
def _(h: HopfAlgebra) -> GradedHopf:
    return GradedHopf(h, GradedSpace(h.field, (0,) * h.dim))


# ---------------------------------------------------------------------------
# graded measurings: the braided tensor product


def graded_tensor_measuring(m1, x1: GradedSpace, m2, x2: GradedSpace,
                            a: GradedBialgebra, b: GradedAlgebra):
    """Bialgebra tensor of measurings with Koszul braidings in place of plain
    swaps; forgetting degrees, the result passes the ungraded validator."""
    from .errors import IncompatibleMeasurings, NotCommutative
    from .measurings import _braided_tensor

    if m1.a != m2.a or m1.b != m2.b or m1.a != a.bialgebra.algebra or m1.b != b.algebra:
        raise IncompatibleMeasurings("graded tensor needs matching graded (A, B)")
    if m1.xdim != x1.dim or m2.xdim != x2.dim:
        raise IncompatibleMeasurings("grading does not match the carriers")
    bspace = b.space
    mult_b = b.algebra.mult
    if compose_slot(mult_b, koszul_swap(bspace, bspace), 1, 1, after=False) != mult_b:
        raise NotCommutative("the target must be commutative in the graded sense")
    return _braided_tensor(m1, m2, a.bialgebra.comult, koszul_swap(a.space, x1),
                           koszul_swap(bspace, x2))
