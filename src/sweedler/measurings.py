"""Measuring representations: pairs (X, psi: A (x) X -> X (x) B).

These are the objects carrying the two axioms

    psi.(mult_A (x) 1) = (1 (x) mult_B).(psi (x) 1).(1 (x) psi)
    psi.(unit_A (x) 1) = 1 (x) unit_B

For X = k^n they are the same thing as algebra morphisms A -> M_n(B), and the
isomorphism classes of n-dimensional ones are the GL_n(k)-conjugation orbits
of those morphisms.  Both directions of the bijection are implemented here,
together with intertwiners, enumeration, tensor products and composition.
Orbits are found without listing the group: the blocks of each measuring are
closed under the moves of a generating set of GL_n(k)
(:func:`~sweedler.structures.conjugation_classes`).
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    DimensionMismatch,
    IncompatibleMeasurings,
    InvalidStructure,
    NotAMorphism,
    NotCommutative,
    PreconditionViolated,
)
from .fields import Value, same_field
from .linalg import (
    LinMap,
    _SignedSwap,
    _swap,
    compose,
    composite,
    invert,
    matrix_equation_kernel,
    permute_axes,
)
from .structures import (
    DEFAULT_BUDGET,
    Algebra,
    Axiom,
    Bialgebra,
    ValidationReport,
    _failures,
    _morphism_search,
    conjugation_classes,
    is_algebra_morphism,
    is_commutative,
    matrix_algebra,
    trivial_algebra,
    validate_algebra,
)


class Measuring(Value):
    a: Algebra
    b: Algebra
    xdim: int
    psi: LinMap  # dim(a)*xdim -> xdim*dim(b)

    def __init__(self, a, b, xdim, psi):
        vars(self).update(a=a, b=b, xdim=xdim, psi=psi)
        same_field(a.field, b.field, psi.field)
        if xdim < 0:
            raise DimensionMismatch("xdim must be >= 0")
        if psi.dom != a.dim * xdim or psi.cod != xdim * b.dim:
            raise DimensionMismatch("psi shape does not match (a, b, xdim)")

    @property
    def field(self):
        return self.psi.field

    @cached_property
    def report(self) -> ValidationReport:
        """The two measuring axioms, checked on first use."""
        da, x, db = self.a.dim, self.xdim, self.b.dim
        psi = self.psi
        # psi.(mult_A (x) 1) against (1 (x) mult_B).(psi (x) 1).(1 (x) psi)
        return ValidationReport(tuple(_failures([
            Axiom("measuring multiplicativity", [(self.a.mult, 1, x), (psi, 1, 1)],
                  [(psi, da, 1), (psi, 1, db), (self.b.mult, x, 1)], (da, da, x)),
            Axiom("measuring unit", [(self.a.unit, 1, x), (psi, 1, 1)],
                  [(self.b.unit, x, 1)], (x,)),
        ])))


class Intertwiner(Value):
    source: Measuring
    target: Measuring
    f: LinMap  # source.xdim -> target.xdim

    def __init__(self, source, target, f):
        vars(self).update(source=source, target=target, f=f)


class OrbitReport(Value):
    total_count: int
    orbits: tuple[tuple[Measuring, int], ...]  # (representative, orbit size)

    def __init__(self, total_count, orbits):
        vars(self).update(total_count=total_count, orbits=orbits)


def validate_measuring(m: Measuring) -> ValidationReport:
    return m.report


# ---------------------------------------------------------------------------
# the bijection with algebra morphisms A -> M_n(B)


def measuring_from_matrix_morphism(rho: LinMap, a: Algebra, b: Algebra, n: int) -> Measuring:
    """Unpack an algebra morphism A -> M_n(B) into psi(a (x) x_j) = sum_i x_i (x) rho(a)_ij.

    rho is an algebra morphism exactly when psi satisfies the measuring
    axioms, so psi is checked and M_n(B) is never built."""
    if rho.dom != a.dim or rho.cod != n * n * b.dim:
        raise NotAMorphism(f"rho is {rho.cod}x{rho.dom}, not a map A -> M_{n}(B)")
    m = Measuring(a, b, n, _psi_of(rho, a.dim, b.dim, n))
    if not validate_measuring(m).ok:
        raise NotAMorphism("rho is not an algebra morphism into the matrix algebra")
    return m


def _psi_of(rho: LinMap, da: int, db: int, n: int) -> LinMap:
    """psi[(i, q), (t, j)] = rho[(i, j, q), t], unchecked."""
    return permute_axes(rho, (n, n, db, da), (0, 2, 3, 1), 2)


def matrix_morphism_from_measuring(m: Measuring) -> LinMap:
    """Inverse of :func:`measuring_from_matrix_morphism`; roundtrip is the identity."""
    return permute_axes(m.psi, (m.xdim, m.b.dim, m.a.dim, m.xdim), (0, 3, 1, 2), 3)


def regular_measuring(a: Algebra) -> Measuring:
    """A acting on itself by multiplication, with B = k: psi = mult."""
    return Measuring(a, trivial_algebra(a.field), a.dim, a.mult)


def identity_measuring(a: Algebra) -> Measuring:
    """The one-dimensional measuring A -> A with psi = id (up to unit isos)."""
    return Measuring(a, a, 1, LinMap.identity(a.field, a.dim))


def unit_measuring(a: Bialgebra, b: Algebra) -> Measuring:
    """X = k with psi = unit_B . counit_A; the unit for the bialgebra tensor."""
    return Measuring(a.algebra, b, 1, compose(b.unit, a.counit))


# ---------------------------------------------------------------------------
# intertwiners and conjugation orbits


def intertwiners(m1: Measuring, m2: Measuring) -> list[Intertwiner]:
    """Echelon-canonical basis of {f : (f (x) 1_B).psi1 = psi2.(1_A (x) f)},
    one system whose rows are written from the nonzeros of both psi."""
    if m1.a != m2.a or m1.b != m2.b:
        raise IncompatibleMeasurings("intertwiners need the same (A, B)")
    basis = matrix_equation_kernel(m1.field, (m2.xdim, m1.xdim),
                                   [(m1.psi, m2.psi, m1.a.dim, m1.b.dim)])
    return [Intertwiner(m1, m2, f) for f in basis]


def conjugate_measuring(m: Measuring, g: LinMap) -> Measuring:
    """Transport along the invertible g: X -> X, psi' = (g (x) 1).psi.(1 (x) g^-1)."""
    psi = composite([(invert(g), m.a.dim, 1), (m.psi, 1, 1), (g, 1, m.b.dim)],
                    m.a.dim * m.xdim)
    return Measuring(m.a, m.b, m.xdim, psi)


def enumerate_measurings(a: Algebra, b: Algebra, n: int,
                         budget: int = DEFAULT_BUDGET) -> OrbitReport:
    """All n-dimensional measurings, classified into GL_n(k)-conjugation orbits.

    Enumeration runs over algebra morphisms A -> M_n(B) (the measuring axioms
    are equivalent to these, and the space is smaller than raw psi maps),
    found by the scheduled search of :func:`_morphism_blocks`, each kept as
    the tuple of its n x n blocks.  Orbits are the conjugation orbits of those
    tuples (:func:`~sweedler.structures.conjugation_classes`).  Only each
    orbit's representative, the lexicographically smallest flattened psi
    entries, becomes a :class:`Measuring`, its psi read off its blocks.
    """
    if n < 0:
        raise PreconditionViolated(f"measurings need n >= 0, got {n}")
    if n == 0:
        empty = Measuring(a, b, 0, LinMap.zero(a.field, 0, 0))
        return OrbitReport(1, ((empty, 1),))
    items = _morphism_blocks(a, b, n, budget)
    da, db = a.dim, b.dim
    # psi[(i, q), (t, j)] = M_{t,q}[i, j]
    psi_order = [((t * db + q) * n + i) * n + j
                 for i in range(n) for q in range(db) for t in range(da) for j in range(n)]
    orbits = sorted((min(_read(items[i], psi_order) for i in members), len(members))
                    for members in conjugation_classes(a.field, n, items))
    return OrbitReport(len(items), tuple(
        (Measuring(a, b, n, LinMap(a.field, n * db, da * n, entries)), size)
        for entries, size in orbits))


def _morphism_blocks(a: Algebra, b: Algebra, n: int, budget: int) -> list[tuple]:
    """The algebra morphisms A -> M_n(B) of a valid algebra A (an invalid one
    raises InvalidStructure), lexicographic, each as its blocks
    (:func:`_block_order`), read off the search's entries one at a time."""
    validate_algebra(a).raise_if_failed(InvalidStructure)
    found = _morphism_search(a, matrix_algebra(b, n), budget)
    order = _block_order(n, b.dim, a.dim)
    for i, entries in enumerate(found):
        found[i] = _read(entries, order)
    return found


def _block_order(n: int, db: int, da: int) -> list[int]:
    """Where the n x n blocks M_{t,q}[i, j] = rho[(i, j, q), t] of a morphism
    rho: A -> M_n(B), stacked in (t, q) order, sit in rho's row-major entries;
    conjugating every block by g conjugates the measuring by g."""
    return [((i * n + j) * db + q) * da + t
            for t in range(da) for q in range(db) for i in range(n) for j in range(n)]


def _read(entries: tuple, order: list[int]) -> tuple:
    return tuple(map(entries.__getitem__, order))


# ---------------------------------------------------------------------------
# tensor products and composition


def tensor_measuring_bialgebra(m1: Measuring, m2: Measuring, a: Bialgebra) -> Measuring:
    """Tensor product over a bialgebra A with commutative B:

    A X Y --Delta X Y--> A A X Y --A c Y--> A X A Y --psi1 psi2--> X B Y B
          --X c B--> X Y B B --X Y mult--> X Y B
    """
    if m1.a != m2.a or m1.b != m2.b:
        raise IncompatibleMeasurings("tensor needs matching (A, B) on both factors")
    if m1.a != a.algebra:
        raise IncompatibleMeasurings("bialgebra does not match the measurings' A")
    if not is_commutative(m1.b):
        raise NotCommutative("the target algebra must be commutative")
    k = m1.field
    return _braided_tensor(m1, m2, a.comult, _swap(m1.a.dim, m1.xdim, k),
                           _swap(m1.b.dim, m2.xdim, k))


def _braided_tensor(m1: Measuring, m2: Measuring, comult: LinMap, c_ax: _SignedSwap,
                    c_by: _SignedSwap) -> Measuring:
    """The composite of :func:`tensor_measuring_bialgebra` for the braidings
    c_ax: A X -> X A and c_by: B Y -> Y B, plain or Koszul."""
    da, db, x, y = m1.a.dim, m1.b.dim, m1.xdim, m2.xdim
    psi = composite([(comult, 1, x * y), (c_ax, da, y), (m2.psi, da * x, 1),
                     (m1.psi, 1, y * db), (c_by, x, db), (m1.b.mult, x * y, 1)], da * x * y)
    return Measuring(m1.a, m1.b, x * y, psi)


def tensor_measuring_endo(m1: Measuring, m2: Measuring) -> Measuring:
    """A = B tensor: A X Y --psi1 Y--> X A Y --X psi2--> X Y A."""
    if not (m1.a == m1.b == m2.a == m2.b):
        raise IncompatibleMeasurings("endo tensor needs A = B on both factors")
    return Measuring(m1.a, m1.b, m1.xdim * m2.xdim, _stacked(m1, m2))


def compose_measuring(m_ab: Measuring, m_bc: Measuring) -> Measuring:
    """Composition A X Y --psi Y--> X B Y --X phi--> X Y C for psi: A->B on X,
    phi: B->C on Y; strictly associative on flattened maps."""
    if m_ab.b != m_bc.a:
        raise IncompatibleMeasurings("middle algebras do not match")
    return Measuring(m_ab.a, m_bc.b, m_ab.xdim * m_bc.xdim, _stacked(m_ab, m_bc))


def _stacked(m1: Measuring, m2: Measuring) -> LinMap:
    """(1_X (x) psi2).(psi1 (x) 1_Y) for psi1 on X and psi2 on Y."""
    return composite([(m1.psi, 1, m2.xdim), (m2.psi, m1.xdim, 1)],
                     m1.a.dim * m1.xdim * m2.xdim)


def restrict_measuring(u: LinMap, m: Measuring, a_source: Algebra) -> Measuring:
    """Pull back along an algebra morphism u: A' -> A: psi' = psi.(u (x) 1)."""
    if not is_algebra_morphism(u, a_source, m.a):
        raise NotAMorphism("u is not an algebra morphism A' -> A")
    psi = composite([(u, 1, m.xdim), (m.psi, 1, 1)], a_source.dim * m.xdim)
    return Measuring(a_source, m.b, m.xdim, psi)


def corestrict_measuring(m: Measuring, v: LinMap, b_target: Algebra) -> Measuring:
    """Push forward along an algebra morphism v: B -> B': psi' = (1 (x) v).psi."""
    if not is_algebra_morphism(v, m.b, b_target):
        raise NotAMorphism("v is not an algebra morphism B -> B'")
    psi = composite([(m.psi, 1, 1), (v, m.xdim, 1)], m.a.dim * m.xdim)
    return Measuring(m.a, b_target, m.xdim, psi)
