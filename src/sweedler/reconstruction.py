"""Finite-stage coend reconstruction of universal measuring coalgebras.

Given measurings (X_i, psi_i) of A into B, the generated subcoalgebra D is the
quotient of the direct sum of the comatrix coalgebras X_i* (x) X_i by the
span of the coend relations

    (alpha . f) (x) v  -  alpha (x) f(v)

over a family of intertwiners f, with comultiplication, counit and the
measuring pairing beta: A (x) D -> B induced on the quotient.  All induced
structure is verified before a value is returned; with B = k and enough
modules this computes the linear dual of A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IncompatibleMeasurings,
    InducedStructureIllDefined,
    InvalidHopf,
    NotAComodule,
    PreconditionViolated,
)
from .fields import Field
from .linalg import LinMap, compose, compose_slot, kron, permute_axes, rref, swap_map
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    dual_bialgebra,
    dual_coalgebra,
    find_antipode,
    is_coalgebra_morphism,
    is_commutative,
    require_valid_hopf,
    validate_coalgebra,
    validate_hopf,
)
from .measurings import Measuring, intertwiners, validate_measuring


def coend_coalgebra(xdim: int, field: Field) -> Coalgebra:
    """The comatrix coalgebra X* (x) X on basis f_ij (index i*xdim + j):
    Delta f_ij = sum_k f_ik (x) f_kj, eps f_ij = delta_ij."""
    k = field
    d = xdim * xdim
    comult = [[k.zero()] * d for _ in range(d * d)]
    counit = [k.zero()] * d
    for i in range(xdim):
        counit[i * xdim + i] = k.one()
        for j in range(xdim):
            for t in range(xdim):
                row = (i * xdim + t) * d + (t * xdim + j)
                comult[row][i * xdim + j] = k.one()
    return Coalgebra(comult=LinMap.from_rows(k, comult) if d else LinMap.zero(k, 0, 0),
                     counit=LinMap.row(k, counit))


def validate_comodule(delta: LinMap, c: Coalgebra) -> bool:
    """delta: X -> X (x) C satisfies coassociativity and counitality."""
    if delta.dom == 0:
        return delta.cod == 0
    x = delta.dom
    if delta.cod != x * c.dim:
        return False
    lhs = compose_slot(delta, delta, 1, c.dim, after=True)
    rhs = compose_slot(delta, c.comult, x, 1, after=True)
    if lhs != rhs:
        return False
    return compose_slot(delta, c.counit, x, 1, after=True) == LinMap.identity(delta.field, x)


def comodule_to_coend_morphism(delta: LinMap, c: Coalgebra) -> LinMap:
    """The coalgebra morphism coend(X) -> C classifying a comodule
    delta(x_j) = sum_i x_i (x) c_ij:  f_ij -> c_ij."""
    if not validate_comodule(delta, c):
        raise NotAComodule("delta does not satisfy the comodule axioms")
    x = delta.dom
    return permute_axes(delta, (x, c.dim, x), (1, 0, 2), 1)


def coend_morphism_to_comodule(phi: LinMap, c: Coalgebra, xdim: int) -> LinMap:
    """Inverse direction: a coalgebra morphism coend(X) -> C gives the comodule
    delta(x_j) = sum_i x_i (x) phi(f_ij)."""
    if phi.dom != xdim * xdim or phi.cod != c.dim:
        raise NotAComodule("phi does not have coend(X) -> C shape")
    if not is_coalgebra_morphism(phi, coend_coalgebra(xdim, phi.field), c):
        raise NotAComodule("phi is not a coalgebra morphism out of the coend")
    return permute_axes(phi, (c.dim, xdim, xdim), (1, 0, 2), 2)


# ---------------------------------------------------------------------------
# generated subcoalgebras


@dataclass(frozen=True)
class GeneratedSubcoalgebra:
    """A finite-dimensional stage of the universal measuring coalgebra.

    ``d`` is the quotient coalgebra, ``pairing`` the measuring pairing
    beta: A (x) D -> B, ``projections[i]`` the coalgebra morphism
    coend(X_i) -> D, and ``section`` the canonical splitting D -> sum coend(X_i)
    picking quotient-basis representatives.
    """

    a: Algebra
    b: Algebra
    d: Coalgebra
    pairing: LinMap
    projections: tuple[LinMap, ...]
    section: LinMap
    generators: tuple[Measuring, ...]


def _quotient_by_rows(field: Field, n: int, relations: list[tuple]) -> tuple[LinMap, LinMap]:
    """Quotient of k^n by the row span; returns (projection n->d, section d->n).

    The quotient basis consists of the non-pivot coordinates of the reduced
    row echelon form, in increasing order.
    """
    k = field
    if relations:
        echelon, pivots = rref(LinMap.from_rows(field, [list(r) for r in relations]))
    else:
        echelon, pivots = LinMap.zero(field, 0, n), ()
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    d = len(free)
    proj = [[k.zero()] * n for _ in range(d)]
    for col in range(n):
        if col in pivot_set:
            r = pivots.index(col)
            # e_col = sum of free coordinates of the echelon row, negated
            for out, fc in enumerate(free):
                val = echelon.entries[r * n + fc]
                if val != 0:
                    proj[out][col] = k.neg(val)
        else:
            proj[free.index(col)][col] = k.one()
    section = [[k.one() if free[c] == r else k.zero() for c in range(d)] for r in range(n)]
    proj_map = LinMap.from_rows(k, proj) if d else LinMap.zero(k, 0, n)
    section_map = LinMap.from_rows(k, section) if n else LinMap.zero(k, 0, d)
    return proj_map, section_map


def reconstruct(measurings: list[Measuring], auto_intertwiners: bool = True,
                morphisms: list[tuple[int, int, LinMap]] | None = None,
                a: Algebra | None = None, b: Algebra | None = None) -> GeneratedSubcoalgebra:
    """Coend of the given measurings over their intertwiners.

    With ``auto_intertwiners`` a basis of every Hom space between every ordered
    pair of generators (endomorphisms included) is used; otherwise the caller
    supplies ``morphisms`` as (source index, target index, map) triples.  All
    induced structure is checked; a failed check raises
    InducedStructureIllDefined and means an input morphism was not one.
    """
    if measurings:
        a = measurings[0].a
        b = measurings[0].b
        for m in measurings:
            if m.a != a or m.b != b:
                raise IncompatibleMeasurings("generators disagree on (A, B)")
            report = validate_measuring(m)
            if not report.ok:
                raise IncompatibleMeasurings(f"generator is not a measuring: {report}")
    elif a is None or b is None:
        raise IncompatibleMeasurings("an empty generator list needs explicit a and b")
    k = a.field
    xdims = [m.xdim for m in measurings]
    starts = []
    total = 0
    for x in xdims:
        starts.append(total)
        total += x * x

    if auto_intertwiners:
        morphism_list = []
        for i, mi in enumerate(measurings):
            for j, mj in enumerate(measurings):
                for iw in intertwiners(mi, mj):
                    morphism_list.append((i, j, iw.f))
    else:
        morphism_list = list(morphisms or [])

    relations = []
    for i, j, f in morphism_list:
        xi, xj = xdims[i], xdims[j]
        if f.dom != xi or f.cod != xj:
            raise IncompatibleMeasurings("morphism shape does not match its endpoints")
        for r in range(xj):      # alpha = r-th dual basis vector of X_j
            for c in range(xi):  # v = c-th basis vector of X_i
                vec = [k.zero()] * total
                for s in range(xi):
                    val = f.entries[r * xi + s]
                    if val != 0:
                        vec[starts[i] + s * xi + c] = k.add(vec[starts[i] + s * xi + c], val)
                for u in range(xj):
                    val = f.entries[u * xi + c]
                    if val != 0:
                        idx = starts[j] + r * xj + u
                        vec[idx] = k.sub(vec[idx], val)
                if any(x != 0 for x in vec):
                    relations.append(tuple(vec))

    proj, section = _quotient_by_rows(k, total, relations)
    d = proj.cod

    # comultiplication and counit of the direct sum of coends
    comult_sum = [[k.zero()] * total for _ in range(total * total)]
    counit_sum = [k.zero()] * total
    for idx, x in enumerate(xdims):
        base = starts[idx]
        for i in range(x):
            counit_sum[base + i * x + i] = k.one()
            for j in range(x):
                for t in range(x):
                    row = (base + i * x + t) * total + (base + t * x + j)
                    comult_sum[row][base + i * x + j] = k.one()
    comult_sum_map = (LinMap.from_rows(k, comult_sum)
                      if total else LinMap.zero(k, 0, 0))
    counit_sum_map = LinMap.row(k, counit_sum)

    # pairing A (x) sum coend(X_i) -> B induced by the psi_i
    da, db = a.dim, b.dim
    beta_sum = [[k.zero()] * (da * total) for _ in range(db)]
    for idx, m in enumerate(measurings):
        x = m.xdim
        base = starts[idx]
        for t in range(da):
            for s in range(x):
                for c in range(x):
                    col = t * x + c
                    for q in range(db):
                        val = m.psi.entries[(s * db + q) * (da * x) + col]
                        if val != 0:
                            beta_sum[q][t * total + (base + s * x + c)] = val
    beta_sum_map = LinMap.from_rows(k, beta_sum)

    # (proj (x) proj).comult_sum, one tensor factor at a time
    descended_comult = compose_slot(comult_sum_map, proj, total, 1, after=True)
    descended_comult = compose_slot(descended_comult, proj, 1, d, after=True)

    # well-definedness: the induced maps must kill every relation
    for vec in relations:
        if any(x != 0 for x in descended_comult.apply(vec)):
            raise InducedStructureIllDefined("comultiplication does not descend")
        if any(x != 0 for x in counit_sum_map.apply(vec)):
            raise InducedStructureIllDefined("counit does not descend")
        col = LinMap.column(k, list(vec))
        if not compose_slot(beta_sum_map, col, da, 1, after=False).is_zero():
            raise InducedStructureIllDefined(
                "pairing does not descend; an input morphism is not an intertwiner")

    comult = compose(descended_comult, section)
    counit = compose(counit_sum_map, section)
    coalg = Coalgebra(comult=comult, counit=counit)
    pairing = compose_slot(beta_sum_map, section, da, 1, after=False)
    projections = tuple(
        LinMap(k, d, x * x,
               tuple(proj.entries[r * total + starts[idx] + c]
                     for r in range(d) for c in range(x * x)))
        for idx, x in enumerate(xdims))

    result = GeneratedSubcoalgebra(a, b, coalg, pairing, projections, section,
                                   tuple(measurings))
    _verify_generated(result)
    return result


def _verify_generated(g: GeneratedSubcoalgebra) -> None:
    """Machine-check every invariant of a generated subcoalgebra."""
    k = g.a.field
    da, db, d = g.a.dim, g.b.dim, g.d.dim
    report = validate_coalgebra(g.d)
    if not report.ok:
        raise InducedStructureIllDefined(f"quotient is not a coalgebra: {report}")
    # beta is an algebra morphism A -> [D, B] for the convolution structure:
    # beta.(mult_A (x) 1) = mult_B.(beta (x) beta).(1 (x) swap (x) 1).(1 (x) 1 (x) comult_D)
    lhs = compose_slot(g.pairing, g.a.mult, 1, d, after=False)
    rhs = compose_slot(kron(g.pairing, g.pairing), swap_map(da, d, k), da, d, after=False)
    rhs = compose_slot(rhs, g.d.comult, da * da, 1, after=False)
    if lhs != compose(g.b.mult, rhs):
        raise InducedStructureIllDefined("pairing is not multiplicative in A")
    if compose_slot(g.pairing, g.a.unit, 1, d, after=False) != compose(g.b.unit, g.d.counit):
        raise InducedStructureIllDefined("pairing is not unital")
    for idx, m in enumerate(g.generators):
        proj_i = g.projections[idx]
        if not is_coalgebra_morphism(proj_i, coend_coalgebra(m.xdim, k), g.d):
            raise InducedStructureIllDefined("a projection is not a coalgebra morphism")
        delta = coend_morphism_to_comodule(proj_i, g.d, m.xdim)
        if induced_measuring(g, delta) != m.psi:
            raise InducedStructureIllDefined(
                "the induced comodule does not reproduce its generator")


def induced_measuring(g: GeneratedSubcoalgebra, delta: LinMap) -> LinMap:
    """psi recovered from a comodule delta: X -> X (x) D through the pairing:

    A X --1 delta--> A X D --c 1--> X A D --1 beta--> X B
    """
    k = g.a.field
    x = delta.dom
    da = g.a.dim
    psi = compose_slot(kron(LinMap.identity(k, da), delta), swap_map(da, x, k), 1, g.d.dim,
                       after=True)
    return compose_slot(psi, g.pairing, x, 1, after=True)


def comodule_of_generator(g: GeneratedSubcoalgebra, index: int) -> LinMap:
    """The comodule X_i -> X_i (x) D induced by the i-th projection."""
    m = g.generators[index]
    return coend_morphism_to_comodule(g.projections[index], g.d, m.xdim)


def finite_dual(a: Algebra) -> Coalgebra:
    """The linear dual coalgebra; at finite dimension this is the whole
    universal measuring coalgebra into the base field."""
    return dual_coalgebra(a)


def product_on_generated(g1: GeneratedSubcoalgebra, g2: GeneratedSubcoalgebra,
                         g12: GeneratedSubcoalgebra, a: Bialgebra) -> LinMap:
    """The multiplication D1 (x) D2 -> D12 on generated stages.

    Requires: all three stages over the same (A, B) with A the given bialgebra
    and B commutative, and g12 generated by the pairwise bialgebra tensor
    products of g1's and g2's generators in row-major order.  The returned map
    is verified to be a coalgebra morphism compatible with the pairings.
    """
    if g1.a != g2.a or g1.a != g12.a or g1.b != g2.b or g1.b != g12.b:
        raise PreconditionViolated("stages do not share (A, B)")
    if a.algebra != g1.a:
        raise PreconditionViolated("bialgebra does not match the stages")
    if not is_commutative(g1.b):
        raise PreconditionViolated("B must be commutative")
    if len(g12.generators) != len(g1.generators) * len(g2.generators):
        raise PreconditionViolated(
            "g12 must be generated by the pairwise tensors, row-major")
    from .measurings import tensor_measuring_bialgebra

    k = g1.a.field
    n2 = len(g2.generators)
    blocks = []
    for i, mi in enumerate(g1.generators):
        for j, mj in enumerate(g2.generators):
            m12 = g12.generators[i * n2 + j]
            if m12 != tensor_measuring_bialgebra(mi, mj, a):
                raise PreconditionViolated(
                    "g12 generators are not the pairwise tensors, row-major")
            blocks.append((i, j, mi.xdim, mj.xdim))
    # canonical map coend(X) (x) coend(Y) -> coend(X (x) Y), blockwise, pushed to D12
    d1, d2, d12 = g1.d.dim, g2.d.dim, g12.d.dim
    result = LinMap.zero(k, d12, d1 * d2)
    for idx, (i, j, x, y) in enumerate(blocks):
        # f_ab (x) g_cd -> F_(a,c),(b,d) is 1_X (x) swap (x) 1_Y
        piece = compose_slot(g12.projections[idx], swap_map(x, y, k), x, y, after=False)
        result = result + compose(piece, kron(compose(_summand_restriction(g1, i), g1.section),
                                              compose(_summand_restriction(g2, j), g2.section)))
    _verify_product(g1, g2, g12, a, result)
    return result


def _summand_restriction(g: GeneratedSubcoalgebra, index: int) -> LinMap:
    """Projection of the coend direct sum onto its index-th summand."""
    k = g.a.field
    xdims = [m.xdim for m in g.generators]
    total = sum(x * x for x in xdims)
    start = sum(x * x for x in xdims[:index])
    size = xdims[index] ** 2
    rows = [[k.one() if c == start + r else k.zero() for c in range(total)]
            for r in range(size)]
    return LinMap.from_rows(k, rows) if size else LinMap.zero(k, 0, total)


def _verify_product(g1, g2, g12, a: Bialgebra, product: LinMap) -> None:
    k = g1.a.field
    da = a.dim
    d1, d2 = g1.d.dim, g2.d.dim
    if not is_coalgebra_morphism(product, _tensor_coalgebra(g1.d, g2.d), g12.d):
        raise InducedStructureIllDefined("product is not a coalgebra morphism")
    # beta12.(1 (x) product) must be the convolution of beta1, beta2:
    # A D1 D2 --Delta 1 1--> A A D1 D2 --1 c 1--> A D1 A D2 --b1 b2--> B B --mult--> B
    lhs = compose_slot(g12.pairing, product, da, 1, after=False)
    rhs = compose_slot(kron(g1.pairing, g2.pairing), swap_map(da, d1, k), da, d2, after=False)
    rhs = compose_slot(rhs, a.comult, 1, d1 * d2, after=False)
    if lhs != compose(g1.b.mult, rhs):
        raise InducedStructureIllDefined("product is not compatible with the pairings")


def _tensor_coalgebra(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Tensor product coalgebra with Delta = (1 (x) swap (x) 1).(Delta (x) Delta)."""
    d1, d2 = c1.dim, c2.dim
    comult = compose_slot(kron(c1.comult, c2.comult), swap_map(d1, d2, c1.field), d1, d2,
                          after=True)
    counit = kron(c1.counit, c2.counit)
    return Coalgebra(comult=comult, counit=counit)


def dual_hopf_check(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra, with its antipode independently re-derived.

    Builds (mult = comult^T, comult = mult^T, antipode = s^T), validates it,
    and cross-checks that the antipode solver on the dual bialgebra returns
    exactly s^T.
    """
    require_valid_hopf(h)
    dual = HopfAlgebra(dual_bialgebra(h.bialgebra), h.antipode.transpose())
    report = validate_hopf(dual)
    if not report.ok:
        raise InvalidHopf(f"transposed structure is not Hopf: {report}", report)
    solved = find_antipode(dual.bialgebra)
    if solved is None or solved.antipode != dual.antipode:
        raise InvalidHopf("solver disagrees with the transposed antipode")
    return dual
