"""Structure-constant presentations of algebras, coalgebras, bialgebras and
Hopf algebras, with full axiom validation.

Everything is a :class:`~sweedler.linalg.LinMap` in the end: an algebra is
(mult: dim^2 -> dim, unit: 1 -> dim), a coalgebra the transposed shapes, and
all axioms are checked as exact identities.  Validation failures are data
(a report with a witness), not exceptions.

Axioms are checked once per value: each immutable value answers ``.report``,
computed on first use and kept, and built on its parts' reports.  The
``validate_*`` functions and the solvers' input checks read it, so a value
validated when parsed is not checked again.

Every identity is checked by one engine, :func:`_failures`.  An
:class:`Axiom` is two chains of structural factors 1_a (x) t (x) 1_b, one
per side; a braiding, plain or Koszul, is a factor like any other.  Both
chains are applied to the basis tensors in index order, a block of them at
a time stacked into one sparse vector of nonzeros (``linalg.apply_slot``),
and the reduced images are compared; the first basis tensor where they
differ is the witness.  No composite is built, so the cost follows the
nonzeros and not dim^4 or dim^5.  Coassociativity compares the transposed
chains, so its witness is the first differing row; equality is decided on
the smaller side, columns or rows (:func:`_differ_at`).  Validators, morphism
tests, measurings and the checks of reconstructed stages all write their
identities as axioms.  Constructions write their structure maps in the same
notation: a fusion operator, a tensor product algebra or a tensor product of
measurings is one chain, which ``linalg.composite`` evaluates on the same
slot kernel; a plain swap next to a single map is a reordering of its axes
(``linalg.permute_axes``).

Over a prime field, algebra morphisms are enumerated through generators,
one image coordinate at a time in the order of a schedule that decides the
relation with the fewest unplaced coordinates next, each branch ending at
its first failing relation among words, and the results are sorted after;
grouplikes of C are the algebra maps C* -> k.  The
isomorphism classes of representations (morphisms into M_n(B), modules) are
their GL_n(k)-conjugation orbits, each closed under a fixed generating set
of the group; GL_n(k) is never listed.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Sequence
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import prod
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidBialgebra,
    InvalidStructure,
    NotAGroup,
    PreconditionViolated,
    Singular,
    UnsupportedField,
)
from .fields import Field, Value, primitive_root, same_field
from .linalg import (
    _BLOCK,
    Factor,
    LinMap,
    _SignedSwap,
    _chain_images,
    _chain_steps,
    _swap,
    apply_slot,
    composite,
    echelon_insert,
    echelon_reduce,
    invert,
    is_invertible,
    kron,
    permute_axes,
)

DEFAULT_BUDGET = 1 << 24


# ---------------------------------------------------------------------------
# data types


class Algebra(Value):
    """Unital associative algebra: mult: dim^2 -> dim, unit: 1 -> dim."""

    mult: LinMap
    unit: LinMap

    def __init__(self, mult, unit):
        vars(self).update(mult=mult, unit=unit)
        same_field(mult.field, unit.field)
        d = unit.cod
        if d < 1:
            raise DimensionMismatch("an algebra needs dim >= 1 (it has a unit)")
        if unit.dom != 1 or mult.cod != d or mult.dom != d * d:
            raise DimensionMismatch("algebra structure maps have inconsistent shapes")

    @property
    def field(self) -> Field:
        return self.mult.field

    @property
    def dim(self) -> int:
        return self.unit.cod

    def unit_vector(self) -> tuple:
        return self.unit.col_at(0)

    @cached_property
    def report(self) -> ValidationReport:
        """Associativity and the unit laws."""
        return ValidationReport(tuple(_failures(_algebra_axioms(self))))


class Coalgebra(Value):
    """Counital coassociative coalgebra: comult: dim -> dim^2, counit: dim -> 1."""

    comult: LinMap
    counit: LinMap

    def __init__(self, comult, counit):
        vars(self).update(comult=comult, counit=counit)
        same_field(comult.field, counit.field)
        d = counit.dom
        if counit.cod != 1 or comult.dom != d or comult.cod != d * d:
            raise DimensionMismatch("coalgebra structure maps have inconsistent shapes")

    @property
    def field(self) -> Field:
        return self.comult.field

    @property
    def dim(self) -> int:
        return self.counit.dom

    @cached_property
    def report(self) -> ValidationReport:
        """Coassociativity and the counit laws."""
        return ValidationReport(tuple(_failures(_coalgebra_axioms(self))))


class Bialgebra(Value):
    algebra: Algebra
    coalgebra: Coalgebra

    def __init__(self, algebra, coalgebra):
        vars(self).update(algebra=algebra, coalgebra=coalgebra)
        same_field(algebra.field, coalgebra.field)
        if algebra.dim != coalgebra.dim:
            raise DimensionMismatch("bialgebra halves disagree on dimension")

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mult(self) -> LinMap:
        return self.algebra.mult

    @property
    def unit(self) -> LinMap:
        return self.algebra.unit

    @property
    def comult(self) -> LinMap:
        return self.coalgebra.comult

    @property
    def counit(self) -> LinMap:
        return self.coalgebra.counit

    @cached_property
    def report(self) -> ValidationReport:
        """The algebra's report, the coalgebra's, then the compatibility
        axioms under the plain swap."""
        return ValidationReport((*self.algebra.report.failures, *self.coalgebra.report.failures,
                                 *self.compatibility(_swap(self.dim, self.dim, self.field))))

    def compatibility(self, braiding: _SignedSwap,
                      multiplicative: str = "comult multiplicative") -> tuple[Failure, ...]:
        """The failing compatibility axioms: comult and counit are algebra
        morphisms for the product (mult (x) mult).(1 (x) braiding (x) 1) on
        the tensor square.  The braiding is the plain swap, or the Koszul one
        for graded bialgebras; the axioms it does not enter are checked once."""
        d, m, delta = self.dim, self.mult, self.comult
        return (*_failures([Axiom(multiplicative, [(m, 1, 1), (delta, 1, 1)],
                                  [(delta, d, 1), (delta, 1, d * d), (braiding, d, d),
                                   (m, d * d, 1), (m, 1, d)], (d, d))]), *self._unbraided)

    @cached_property
    def _unbraided(self) -> tuple[Failure, ...]:
        d, m, u, delta, eps = self.dim, self.mult, self.unit, self.comult, self.counit
        return tuple(_failures([
            Axiom("comult unital", [(u, 1, 1), (delta, 1, 1)], [(u, 1, 1), (u, 1, d)], (1,)),
            Axiom("counit multiplicative", [(m, 1, 1), (eps, 1, 1)],
                  [(eps, 1, d), (eps, 1, 1)], (d, d)),
            Axiom("counit unital", [(u, 1, 1), (eps, 1, 1)], [], (1,))]))


class HopfAlgebra(Value):
    bialgebra: Bialgebra
    antipode: LinMap

    def __init__(self, bialgebra, antipode):
        vars(self).update(bialgebra=bialgebra, antipode=antipode)
        same_field(bialgebra.field, antipode.field)
        d = bialgebra.dim
        if antipode.cod != d or antipode.dom != d:
            raise DimensionMismatch("antipode shape does not match the bialgebra")

    @property
    def field(self) -> Field:
        return self.bialgebra.field

    @property
    def dim(self) -> int:
        return self.bialgebra.dim

    @property
    def algebra(self) -> Algebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> Coalgebra:
        return self.bialgebra.coalgebra

    @cached_property
    def report(self) -> ValidationReport:
        """The bialgebra's report, then the antipode axioms."""
        return ValidationReport((*self.bialgebra.report.failures,
                                 *_failures(_antipode_axioms(self.bialgebra, self.antipode))))


# ---------------------------------------------------------------------------
# validation


class Failure(Value):
    axiom: str
    witness: tuple

    def __init__(self, axiom, witness):
        vars(self).update(axiom=axiom, witness=witness)

    def __str__(self):
        return f"{self.axiom} fails at basis indices {self.witness}"


class ValidationReport(Value):
    failures: tuple[Failure, ...]

    def __init__(self, failures):
        vars(self).update(failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(str(f) for f in self.failures)

    def raise_if_failed(self, error: type, prefix: str = "") -> None:
        """Raise ``error`` with the prefixed failures and this report, if any."""
        if self.failures:
            raise error(prefix + str(self), self)


def _unflatten(index: int, dims: tuple[int, ...]) -> tuple:
    idx = []
    rest = index
    for d in reversed(dims):
        idx.append(rest % d)
        rest //= d
    return tuple(reversed(idx))


class Axiom(NamedTuple):
    """Two chains with the same composite k^dims -> ..., whose witness is the
    first column at which they differ; with ``by_row``, the first row."""

    name: str
    lhs: Sequence[Factor]
    rhs: Sequence[Factor]
    dims: tuple[int, ...]
    by_row: bool = False


def _failures(axioms: Sequence[Axiom]) -> list[Failure]:
    """Each failing axiom with its witness: the basis indices over its dims
    of the first column (or row) at which its two composites differ."""
    failures = []
    for axiom in axioms:
        index = _differ_at(axiom)
        if index is not None:
            failures.append(Failure(axiom.name, _unflatten(index, axiom.dims)))
    return failures


def _differ_at(axiom: Axiom) -> int | None:
    """The first basis vector, in index order, that the axiom's two chains
    send to different vectors, or None when the composites agree.  Two
    composites are equal exactly when their transposes are, so equality is
    decided first on the side with fewer basis vectors, the columns or the
    rows, counted off the factors' shapes (on a tie, the axiom's own side);
    only when the composites differ is the axiom's own side run for the witness.

    Both chains run on blocks of consecutive basis vectors, one factor at a
    time (``linalg._chain_images``, which :func:`~sweedler.linalg.composite`
    runs too), so no composite is built; the check stops at the first block
    with a difference.  Beyond one block, only the basis vectors that the
    first factor of some chain does not kill are tried; every other one goes
    to zero on both sides.  By row, the transposed chains (the factors
    reversed, each transposed) are compared, so the index is the first row
    at which the composites differ.
    """
    n, by_row = prod(axiom.dims), axiom.by_row
    other = n  # the other side's size: the lhs codomain (by row, its domain)
    for t, a, b in axiom.lhs[:1] if by_row else axiom.lhs[-1:]:
        other = a * (t.dom if by_row else t.cod) * b
    if other < n and _first_difference(axiom, not by_row, other) is None:
        return None
    return _first_difference(axiom, by_row, n)


def _first_difference(axiom: Axiom, transposed: bool, dom: int) -> int | None:
    """:func:`_differ_at` on one side: the basis vectors of k^dom."""
    if dom == 0:
        return None
    chains = [_chain_steps(chain, transposed) for chain in (axiom.lhs, axiom.rhs)]
    cod = dom
    for _, meet, free, _ in chains[0]:
        cod = cod // meet * free
    p = (axiom.lhs or axiom.rhs)[0][0].field.char
    candidates = range(dom)
    if dom > _BLOCK:
        live = [_live(steps, dom) for steps in chains]
        if None not in live:
            candidates = sorted({*live[0], *live[1]})
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start:start + _BLOCK]
        left, right = (_chain_images(steps, block, dom, p) for steps in chains)
        if left != right:
            first = min(idx for idx in left.keys() | right.keys()
                        if left.get(idx) != right.get(idx))
            return block[first // cod]
    return None


def _live(steps: list, dom: int) -> list[int] | None:
    """The basis vectors of k^dom that the first step does not kill, in
    order, or None when it kills none."""
    if not steps:
        return None
    along, meet, _, b = steps[0]
    live = [s for s, nonzeros in enumerate(along) if nonzeros]
    if len(live) == meet:
        return None
    return [(i * meet + s) * b + j for i in range(dom // (meet * b)) for s in live
            for j in range(b)]


def _algebra_axioms(a: Algebra) -> list[Axiom]:
    d = a.dim
    m, u = a.mult, a.unit
    return [Axiom("associativity", [(m, 1, d), (m, 1, 1)], [(m, d, 1), (m, 1, 1)], (d, d, d)),
            Axiom("left unit", [(u, 1, d), (m, 1, 1)], [], (d,)),
            Axiom("right unit", [(u, d, 1), (m, 1, 1)], [], (d,))]


def _coalgebra_axioms(c: Coalgebra) -> list[Axiom]:
    d = c.dim
    delta, eps = c.comult, c.counit
    return [Axiom("coassociativity", [(delta, 1, 1), (delta, 1, d)],
                  [(delta, 1, 1), (delta, d, 1)], (d, d, d), by_row=True),
            Axiom("left counit", [(delta, 1, 1), (eps, 1, d)], [], (d,)),
            Axiom("right counit", [(delta, 1, 1), (eps, d, 1)], [], (d,))]


def _antipode_axioms(b: Bialgebra, s: LinMap) -> list[Axiom]:
    d = b.dim
    unit_counit = [(b.counit, 1, 1), (b.unit, 1, 1)]
    return [Axiom("left antipode", [(b.comult, 1, 1), (s, 1, d), (b.mult, 1, 1)], unit_counit,
                  (d,)),
            Axiom("right antipode", [(b.comult, 1, 1), (s, d, 1), (b.mult, 1, 1)],
                  unit_counit, (d,))]


def validate_algebra(a: Algebra) -> ValidationReport:
    return a.report


def validate_coalgebra(c: Coalgebra) -> ValidationReport:
    return c.report


def validate_bialgebra(b: Bialgebra) -> ValidationReport:
    return b.report


def validate_hopf(h: HopfAlgebra) -> ValidationReport:
    return h.report


def require_valid_bialgebra(b: Bialgebra) -> Bialgebra:
    validate_bialgebra(b).raise_if_failed(InvalidBialgebra)
    return b


# ---------------------------------------------------------------------------
# constructions


def trivial_algebra(field: Field) -> Algebra:
    one = LinMap.identity(field, 1)
    return Algebra(mult=one, unit=one)


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra on A (x) B with (a (x) b)(a' (x) b') = aa' (x) bb'."""
    k = same_field(a.field, b.field)
    da, db = a.dim, b.dim
    mult = composite([(_swap(db, da, k), da, db), (b.mult, da * da, 1), (a.mult, 1, db)],
                     da * db * da * db)
    return Algebra(mult=mult, unit=kron(a.unit, b.unit))


def matrix_units_algebra(field: Field, n: int) -> Algebra:
    """M_n(k) on the matrix-unit basis e_ij, index i*n + j."""
    dim = n * n
    # e_ij . e_jl = e_il
    mult = [(i * n + l, (i * n + j) * dim + (j * n + l), 1)
            for i in range(n) for j in range(n) for l in range(n)]
    unit = [(i * n + i, 0, 1) for i in range(n)]
    return Algebra(mult=LinMap.from_nonzeros(field, dim, dim * dim, mult),
                   unit=LinMap.from_nonzeros(field, dim, 1, unit))


def matrix_algebra(b: Algebra, n: int) -> Algebra:
    """M_n(B) on basis e_ij (x) b_k, index (i*n + j)*dim(B) + k."""
    if n < 1:
        raise DimensionMismatch("matrix algebras need n >= 1")
    return tensor_algebra(matrix_units_algebra(b.field, n), b)


def group_algebra(field: Field, cayley: Sequence[Sequence[int]]) -> HopfAlgebra:
    """The Hopf algebra k[G] of a finite group given by its Cayley table.

    Grouplike basis: Delta g = g (x) g, eps g = 1, s(g) = g^{-1}.
    """
    n = len(cayley)
    if n == 0:
        raise NotAGroup("empty table")
    for row in cayley:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not square over indices 0..n-1")
    identity = None
    for e in range(n):
        if all(cayley[e][j] == j and cayley[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverse = [None] * n
    for g in range(n):
        for h in range(n):
            if cayley[g][h] == identity and cayley[h][g] == identity:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise NotAGroup(f"element {g} has no inverse")
    for g in range(n):
        for h in range(n):
            for l in range(n):
                if cayley[cayley[g][h]][l] != cayley[g][cayley[h][l]]:
                    raise NotAGroup(f"associativity fails at ({g}, {h}, {l})")
    k = field
    mult = LinMap.from_nonzeros(k, n, n * n, [(cayley[g][h], g * n + h, 1)
                                              for g in range(n) for h in range(n)])
    comult = LinMap.from_nonzeros(k, n * n, n, [(g * n + g, g, 1) for g in range(n)])
    alg = Algebra(mult=mult, unit=LinMap.from_nonzeros(k, n, 1, [(identity, 0, 1)]))
    coalg = Coalgebra(comult=comult, counit=LinMap.row(k, [1] * n))
    antipode = LinMap.from_nonzeros(k, n, n, [(inverse[g], g, 1) for g in range(n)])
    return HopfAlgebra(Bialgebra(alg, coalg), antipode)


def dual_coalgebra(a: Algebra) -> Coalgebra:
    """Linear dual on the dual basis: comult = mult^T, counit = unit^T."""
    return Coalgebra(comult=a.mult.transpose(), counit=a.unit.transpose())


def dual_algebra(c: Coalgebra) -> Algebra:
    if c.dim == 0:
        raise PreconditionViolated("the dual of the zero coalgebra has no unit: it is not an algebra")
    return Algebra(mult=c.comult.transpose(), unit=c.counit.transpose())


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    return Bialgebra(dual_algebra(b.coalgebra), dual_coalgebra(b.algebra))


def opposite(a: Algebra) -> Algebra:
    d = a.dim
    return Algebra(mult=permute_axes(a.mult, (d, d, d), (0, 2, 1), 1), unit=a.unit)


def coopposite(c: Coalgebra) -> Coalgebra:
    d = c.dim
    return Coalgebra(comult=permute_axes(c.comult, (d, d, d), (1, 0, 2), 2), counit=c.counit)


def is_commutative(a: Algebra) -> bool:
    return opposite(a) == a


def is_cocommutative(c: Coalgebra) -> bool:
    return coopposite(c) == c


def convolution_algebra(c: Coalgebra, b: Algebra) -> Algebra:
    """The convolution algebra [C, B]: f*g = mult_B.(f (x) g).comult_C.

    Basis: the map c_p -> b_q sits at index p*dim(B) + q; this is the tensor
    algebra C* (x) B.
    """
    return tensor_algebra(dual_algebra(c), b)


# ---------------------------------------------------------------------------
# fusion operators and antipodes


class FusionOperators(Value):
    """The four canonical endomorphisms of H (x) H whose invertibility
    characterises Hopf (h, h_prime) and op-Hopf (h_bar, h_bar_prime)."""

    h: LinMap
    h_prime: LinMap
    h_bar: LinMap
    h_bar_prime: LinMap

    def __init__(self, h, h_prime, h_bar, h_bar_prime):
        vars(self).update(h=h, h_prime=h_prime, h_bar=h_bar, h_bar_prime=h_bar_prime)


def fusion_operators(b: Bialgebra) -> FusionOperators:
    require_valid_bialgebra(b)
    return FusionOperators(*_hopf_fusion(b), *_opfusion(b))


def _hopf_fusion(b: Bialgebra) -> tuple[LinMap, LinMap]:
    """h = (1 (x) mult).(comult (x) 1) and h' = (mult (x) 1).(1 (x) comult)."""
    d = b.dim
    return (composite([(b.comult, 1, d), (b.mult, d, 1)], d * d),
            composite([(b.comult, d, 1), (b.mult, 1, d)], d * d))


def _opfusion(b: Bialgebra) -> tuple[LinMap, LinMap]:
    """h_bar = (mult (x) 1).(1 (x) swap).(comult (x) 1) and
    h_bar' = (1 (x) mult).(swap (x) 1).(1 (x) comult)."""
    d = b.dim
    c = _swap(d, d, b.field)
    return (composite([(b.comult, 1, d), (c, d, 1), (b.mult, 1, d)], d * d),
            composite([(b.comult, d, 1), (c, 1, d), (b.mult, d, 1)], d * d))


def _read_antipode(b: Bialgebra, twisted: bool) -> LinMap | None:
    """The antipode S of a valid bialgebra (``twisted``: its opantipode S'), or
    None, read off the inverse fusion operator that decides Hopfness:

        h^-1(x (x) y) = x_1 (x) S(x_2)y,       S = (counit (x) 1).h^-1.(1 (x) unit),
        h_bar^-1(x (x) y) = y_2 (x) S'(y_1)x,  S' = (counit (x) 1).h_bar^-1.(unit (x) 1).

    S must satisfy the antipode axioms (of the co-opposite bialgebra when
    twisted), and h' (h_bar') must be invertible exactly when S exists."""
    d = b.dim
    h, h_prime = _opfusion(b) if twisted else _hopf_fusion(b)
    try:
        inverse = invert(h)
    except Singular:
        s = None
    else:
        s = composite([(b.unit, 1, d) if twisted else (b.unit, d, 1), (inverse, 1, 1),
                       (b.counit, 1, d)], d)
        if _failures(_antipode_axioms(
                Bialgebra(b.algebra, coopposite(b.coalgebra)) if twisted else b, s)):
            raise AssertionError("internal error: the fusion read is not an antipode")
    if (s is None) == is_invertible(h_prime):
        raise AssertionError(
            "internal error: antipode and fusion-operator invertibility disagree")
    return s


def find_antipode(b: Bialgebra) -> HopfAlgebra | None:
    """The antipode read off the inverse fusion operator h, or None."""
    s = _read_antipode(require_valid_bialgebra(b), twisted=False)
    return None if s is None else HopfAlgebra(b, s)


def find_opantipode(b: Bialgebra) -> LinMap | None:
    """The opantipode read off the inverse fusion operator h_bar, or None."""
    return _read_antipode(require_valid_bialgebra(b), twisted=True)


# ---------------------------------------------------------------------------
# grouplikes, morphism enumeration and isomorphism classes


def _refuse_over_budget(p: int, free: int, budget: int) -> None:
    """BudgetExceeded when p^free, the candidates of an enumeration of
    ``free`` coordinates over F_p, exceed the budget.  p^free >= 2^free, so
    it is computed only when ``free`` is within the budget's bit length."""
    if free > budget.bit_length() or p ** free > budget:
        raise BudgetExceeded(p, free, budget)


def _vectors(field: Field, length: int, budget: int):
    """All coefficient vectors of the given length, lexicographic.  F_p only."""
    if field.is_rational:
        raise UnsupportedField("exhaustive enumeration needs a finite field")
    _refuse_over_budget(field.char, length, budget)
    return itertools.product(field.elements(), repeat=length)


def grouplikes(c: Coalgebra, candidates: Sequence[Sequence] | None = None,
               budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """All x with comult x = x (x) x and counit x = 1, deterministically ordered,
    of a valid coalgebra c: an invalid one raises InvalidStructure.

    Over a prime field these are the :func:`algebra_morphisms` C* -> k, within
    p^(generators of C*) <= budget, a search that needs C* associative and
    unital.  Over Q enumeration cannot decide the quadratic system, so the
    caller declares candidate axes; each axis line is solved exactly, and the
    result is complete for those only.
    """
    validate_coalgebra(c).raise_if_failed(InvalidStructure)
    k = c.field
    if candidates is None:
        if k.is_rational:
            raise UnsupportedField("exhaustive enumeration needs a finite field")
        if c.dim == 0:
            return []
        return _morphism_search(dual_algebra(c), trivial_algebra(k), budget)
    lines = {}  # each candidate scaled to counit 1, once, in order
    for cand in candidates:
        vec = tuple(k.coerce(x) for x in cand)
        if len(vec) != c.dim:
            raise DimensionMismatch("candidate axis has wrong length")
        eps = c.counit.apply(vec)[0]
        if eps != 0:
            lines[tuple(k.div(v, eps) for v in vec)] = None
    if not lines:  # nothing to test, and C* needs dim >= 1
        return []
    dual, base = dual_algebra(c), trivial_algebra(k)
    return [x for x in lines if is_algebra_morphism(LinMap.row(k, x), dual, base)]


def is_algebra_morphism(f: LinMap, a: Algebra, b: Algebra) -> bool:
    """f is linear A -> B with f(1) = 1 and f(xy) = f(x)f(y)."""
    if f.dom != a.dim or f.cod != b.dim:
        return False
    return not _failures([
        Axiom("unital", [(a.unit, 1, 1), (f, 1, 1)], [(b.unit, 1, 1)], (1,)),
        Axiom("multiplicative", [(a.mult, 1, 1), (f, 1, 1)],
              [(f, a.dim, 1), (f, 1, b.dim), (b.mult, 1, 1)], (a.dim, a.dim)),
    ])


def is_coalgebra_morphism(f: LinMap, c: Coalgebra, d: Coalgebra) -> bool:
    """f is linear C -> D with Delta.f = (f (x) f).Delta and eps.f = eps."""
    if f.dom != c.dim or f.cod != d.dim:
        return False
    return not _failures([
        Axiom("counital", [(f, 1, 1), (d.counit, 1, 1)], [(c.counit, 1, 1)], (c.dim,)),
        Axiom("comultiplicative", [(f, 1, 1), (d.comult, 1, 1)],
              [(c.comult, 1, 1), (f, c.dim, 1), (f, 1, d.dim)], (c.dim,)),
    ])


def _word_span(a: Algebra) -> tuple[list[int], list[tuple[list, list]], list[list]]:
    """Generators of A over F_p, chosen in basis order, and a basis of A made
    of words in them.

    A basis vector becomes the next generator when it lies outside the span
    of the words found so far; that span is then closed under right
    multiplication by the generators.  Word 0 is the unit.  Stage s holds
    the words (w, g), word w times generator g, that the s-th generator adds,
    in the order they are found, and the relations (w, g, c), word w times
    generator g = sum_j c_j word_j, found on the way; every pair of a word
    and a generator is a word or a relation, once.  ``coords[t]`` is e_t in
    the words, as its (j, c_j) nonzeros.

    The words are an incremental echelon of rows [u | c], u = sum_j c_j word_j,
    reduced on u: v is in their span when [v | 0] reduces to [0 | -c].
    """
    k = a.field
    d = a.dim
    echelon: dict[int, dict] = {}
    vectors: list[dict] = []  # of the words, by their nonzeros
    columns = a.mult.nonzeros(by_col=True)

    def in_words(v: dict, n: int | None = None) -> list | None:
        """v, by its nonzeros, in words, or None when v is outside the span;
        given ``n``, such a v becomes word n."""
        row = dict(v)
        if n is not None and n < d:  # d words span A
            row[d + n] = 1
        echelon_reduce(k, echelon, row)
        if row and min(row) < d:
            if n is not None:
                echelon_insert(k, echelon, row, d)
                vectors.append(v)
            return None
        return [(j - d, k.coerce(-c)) for j, c in sorted(row.items()) if j - d != n]

    in_words(dict(a.unit.nonzeros(by_col=True)[0]), 0)
    generators, stages = [], []
    for t in range(d):
        if in_words({t: 1}) is not None:
            continue
        generators.append(t)
        words, relations = [], []
        pending = deque((w, len(generators) - 1) for w in range(len(vectors)))
        while pending:
            w, g = pending.popleft()
            v, s = vectors[w], generators[g]  # v times e_s, off mult's columns (i, s)
            product = apply_slot({i * d + s: x for i, x in v.items()},
                                 columns, d * d, d, 1, k.char)
            combo = in_words(product, len(vectors))
            if combo is None:
                pending.extend((len(vectors) - 1, h) for h in range(len(generators)))
                words.append((w, g))
            else:
                relations.append((w, g, combo))
        stages.append((words, relations))
    return generators, stages, [in_words({t: 1}) for t in range(d)]


class _QuadraticSearch:
    """Assignments over F_p of ``free`` scalar slots under quadratic tasks,
    depth first in the order of a schedule.

    Slot 0 holds 1 and slots 1..free the free coordinates.  :meth:`schedule`
    adds a task sum(values[x] values[y] c) over terms (x, y, c): a derived
    slot, or a coordinate that must vanish; each records the free coordinates
    it reads, through the derived slots too.  The search places next the
    unplaced coordinates of the vanishing coordinate with the fewest of them
    still unplaced, then any coordinate no task reads, so relations are
    decided early rather than after the last row (:meth:`_order`).  Each
    task is evaluated at the depth of the last free coordinate it reads, and
    a branch ends at its first nonzero vanishing coordinate.  Assignments are
    found in the order of the schedule, not lexicographically, so callers
    sort them.  The budget bounds p to the number of free coordinates,
    however few are tried.
    """

    def __init__(self, k: Field, free: int, budget: int):
        _refuse_over_budget(k.char, free, budget)
        self.k, self.free = k, free
        self.values = [1, *[0] * free]
        self.reads = [(), *((v,) for v in range(1, free + 1))]  # the free slots each reads
        self.tasks: list[tuple] = []  # (target slot or None, terms, reads), as scheduled

    def schedule(self, terms: list[tuple], word: bool) -> int | None:
        """Queue the sum over ``terms``, as a derived slot when ``word``, whose
        index is returned, or as a coordinate that must vanish; an
        always-zero sum is None."""
        if not terms:
            return None
        reads = self.reads
        read = set()
        for x, y, _ in terms:
            read.update(reads[x], reads[y])
        target = None
        if word:
            target = len(self.values)
            self.values.append(0)
            reads.append(read)
        self.tasks.append((target, terms, read))
        return target

    def _order(self) -> list[int]:
        """The free slots in the order they are assigned.  A heap holds each
        vanishing coordinate i with its count c of unplaced slots as the one
        int c * size + i, size the number of them, so ties go to the first
        scheduled; a count is pushed again each time a slot it reads is placed."""
        slots = [sorted(read) for target, _, read in self.tasks if target is None and read]
        readers: list[list[int]] = [[] for _ in range(self.free + 1)]
        for i, read in enumerate(slots):
            for v in read:
                readers[v].append(i)
        count = [len(read) for read in slots]
        size = len(slots)
        heap = [c * size + i for i, c in enumerate(count)]
        heapify(heap)
        placed = [False] * (self.free + 1)
        order = []
        while heap:
            c, i = divmod(heappop(heap), size)
            if c != count[i]:
                continue  # stale: lowered since, to zero once decided
            for v in slots[i]:
                if not placed[v]:
                    placed[v] = True
                    order.append(v)
                    for j in readers[v]:
                        count[j] -= 1
                        if count[j]:
                            heappush(heap, count[j] * size + j)
        return order + [v for v in range(1, self.free + 1) if not placed[v]]

    def run(self, leaf) -> None:
        """Call ``leaf(values)`` at each assignment under which every
        coordinate that must vanish does, in the order of the schedule."""
        values, free = self.values, self.free
        p, elements = self.k.char, self.k.elements()
        order = self._order()
        depth = [0] * (free + 1)
        for d, v in enumerate(order):
            depth[v] = d + 1
        tasks = [[] for _ in range(free + 1)]  # by the depth they are decided at
        for target, terms, read in self.tasks:
            tasks[max(map(depth.__getitem__, read), default=0)].append((target, terms))

        def search(d: int):
            for target, terms in tasks[d]:
                acc = 0
                for x, y, c in terms:
                    acc += values[x] * values[y] * c
                acc %= p
                if target is not None:
                    values[target] = acc
                elif acc:
                    return
            if d == free:
                leaf(values)
                return
            v = order[d]
            for x in elements:
                values[v] = x
                search(d + 1)

        search(0)


def algebra_morphisms(a: Algebra, b: Algebra, budget: int = DEFAULT_BUDGET,
                      zero_coords: frozenset[int] | None = None) -> list[LinMap]:
    """All algebra morphisms A -> B from a valid algebra A: an invalid one
    raises InvalidStructure, as the search assumes A associative and unital
    (:func:`_morphism_search`).  The search finds them in the order of its
    schedule; they are returned sorted, lexicographic in their entries."""
    validate_algebra(a).raise_if_failed(InvalidStructure)
    return [LinMap(a.field, b.dim, a.dim, entries)
            for entries in _morphism_search(a, b, budget, zero_coords)]


def _morphism_search(a: Algebra, b: Algebra, budget: int,
                     zero_coords: frozenset[int] | None = None) -> list[tuple]:
    """The entries of the algebra morphisms A -> B, row-major and sorted,
    for A already checked.

    A morphism is fixed by its images of the generators of :func:`_word_span`,
    whose free coordinates are the slots of one :class:`_QuadraticSearch`.
    Each coordinate of a word's image (word times generator, through B's
    structure constants by output coordinate) is a derived slot, and each
    coordinate of a relation (word times generator minus its combination of
    words) must vanish (A and B are associative and unital).  The search
    visits them in the order of its schedule; the leaves are sorted after.
    Coordinates in ``zero_coords`` (f[q, t] at q*dim(A) + t) are pinned to zero.
    """
    k = same_field(a.field, b.field)
    if k.is_rational:
        raise UnsupportedField("morphism enumeration needs a finite field")
    da, db = a.dim, b.dim
    pinned = zero_coords or frozenset()
    generators, stages, coords = _word_span(a)
    free = [(s, q) for s, t in enumerate(generators) for q in range(db)
            if q * da + t not in pinned]
    quadratic = _QuadraticSearch(k, len(free), budget)
    schedule = quadratic.schedule
    p = k.char
    slot_of = {sq: v + 1 for v, sq in enumerate(free)}
    gen_slots = [[slot_of.get((s, q)) for q in range(db)] for s in range(len(generators))]
    word_slots = [[schedule([(0, 0, u)], True) if u else None for u in b.unit_vector()]]
    by_output = b.mult.nonzeros(by_col=False)

    def product(w: int, g: int, r: int) -> list[tuple]:
        """The terms of coordinate r of word w times generator g."""
        pairs = ((word_slots[w][ij // db], gen_slots[g][ij % db], c) for ij, c in by_output[r])
        return [(x, y, c) for x, y, c in pairs if x is not None and y is not None]

    for words, relations in stages:
        for w, g in words:
            # a one-letter word needs no product: 1_B y = y
            word_slots.append(gen_slots[g] if w == 0 else
                              [schedule(product(w, g, r), True) for r in range(db)])
        for w, g, combo in relations:
            for r in range(db):
                schedule(product(w, g, r) + [(0, word_slots[j][r], -c % p) for j, c in combo
                                             if word_slots[j][r] is not None], False)
    # f[q, t] is coordinate q of e_t written in the words
    entry_terms = [[(word_slots[j][q], c) for j, c in coords[t] if word_slots[j][q] is not None]
                   for q in range(db) for t in range(da)]
    found = []

    def leaf(values: list):
        entries = tuple([sum([values[x] * c for x, c in terms]) % p for terms in entry_terms])
        if not any(entries[i] for i in pinned):
            found.append(entries)

    quadratic.run(leaf)
    found.sort()
    return found


def general_linear_group(field: Field, n: int, budget: int = DEFAULT_BUDGET) -> list[LinMap]:
    """All invertible n x n matrices over a prime field, lexicographic."""
    out = []
    for vec in _vectors(field, n * n, budget):
        m = LinMap(field, n, n, tuple(vec))
        if is_invertible(m):
            out.append(m)
    return out


def gl_generators(p: int, n: int, scaling: bool = True) -> list[tuple[int, int, int]]:
    """Generators of GL_n(F_p) as moves (i, j, c): the transvection 1 + c E_ij
    when i != j, and diag(c, 1, ..., 1) when i = j = 0.  The n transvections
    1 + E_{i,i+1}, indices mod n, generate SL_n(F_p): for n > 2 the
    commutators [1 + a E_ij, 1 + b E_jk] = 1 + ab E_ik reach every 1 + E_ik
    along the cycle.  For p > 2, diag(w, 1, ..., 1) with w a primitive root
    adds every determinant, unless ``scaling`` is off."""
    moves = [(i, (i + 1) % n, 1) for i in range(n)] if n > 1 else []
    if scaling and p > 2 and n > 0:
        moves.append((0, 0, primitive_root(p)))
    return moves


def conjugation_classes(field: Field, n: int, items: Sequence[tuple]) -> list[list[int]]:
    """Partition ``items``, each a tuple of n x n blocks concatenated row-major,
    into orbits under m -> g m g^-1 on every block, g in GL_n(F_p): lists of
    item indices in item order, listed in the order of their first members.

    Each item not yet placed is closed under the moves of :func:`_moves`,
    one row and one column operation per block; in a finite group that is the
    whole orbit, so a conjugate missing from the items raises
    PreconditionViolated.
    """
    if field.is_rational:
        raise UnsupportedField("conjugation orbits need a finite field")
    p = field.char
    index = {item: i for i, item in enumerate(items)}
    label: list[int | None] = [None] * len(items)  # the class of each indexed item
    classes: list[list[int]] = []
    for i, item in enumerate(items):
        seed = index[item]
        if label[seed] is None:
            label[seed] = len(classes)
            classes.append([])
            stack = [item]
            while stack:
                m = stack.pop()
                for move in _moves(p, n, m):
                    at = index.get(_conjugated(m, n, p, move))
                    if at is None:
                        raise PreconditionViolated("the items are not closed under conjugation")
                    if label[at] is None:
                        label[at] = label[seed]
                        stack.append(items[at])
        classes[label[seed]].append(i)
    return classes


def _moves(p: int, n: int, *items: tuple) -> list[tuple[int, int, int]]:
    """The moves of :func:`gl_generators` for ``items`` (blocks as in
    :func:`conjugation_classes`): the transvections, and diag(w, 1, ..., 1),
    which scales the off-diagonal entries of row 0 and column 0 of a block,
    only when it moves one of them, so the primitive root is found only then."""
    size = n * n
    scaled = p > 2 and n > 1 and any(m[b + c] or m[b + c * n] for m in items
                                     for b in range(0, len(m), size) for c in range(1, n))
    return gl_generators(p, n, scaling=scaled)


def _conjugated(item: tuple, n: int, p: int, move: tuple[int, int, int]) -> tuple:
    """g m g^-1 for every n x n block m of ``item``, with g = 1 + a E_ij the
    generator ``move`` and g^-1 = 1 + b E_ij: row i += a row j, then
    column j += b column i."""
    i, j, c = move
    a, b = (c, -c) if i != j else (c - 1, pow(c, p - 2, p) - 1)
    out = list(item)
    for start in range(0, len(out), n * n):
        row = start + i * n
        for x in range(row, row + n):
            out[x] = (out[x] + a * out[x + (j - i) * n]) % p
        for x in range(start + j, start + n * n, n):
            out[x] = (out[x] + b * out[x + i - j]) % p
    return tuple(out)
