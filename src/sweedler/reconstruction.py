"""Finite stages of universal measuring coalgebras.

Given measurings (X_i, psi_i) of A into B, a stage D is a quotient of the
direct sum of the comatrix coalgebras X_i* (x) X_i, with comultiplication,
counit and the measuring pairing beta: A (x) D -> B induced on the quotient.
By default D is the subcoalgebra of P(A, B) that the generators span: its
dual is the algebra E that the blocks M_{t,q} (the q-th B-coordinate of
psi_i(e_t (x) -)) generate in the product of the End(X_i), and the quotient
is by the annihilator of E, found by closing E under words in the blocks.
Given a family of intertwiners f instead, D is their coend: the quotient by
the span of the relations (alpha . f) (x) v - alpha (x) f(v).

The stage is assembled one generator at a time, never as the direct sum, and
no comatrix coalgebra is written out.  A linear P_i: coend(X_i) -> D is the
same as delta_i: X_i -> X_i (x) D, delta_i(x_b) = sum_a x_a (x) P_i f_ab, and
P_i is a coalgebra morphism exactly when delta_i is a D-comodule.  The
section picks one coefficient f_ab of one coend(X_i) for each basis vector c
of D, and c is its class, so every map out of D is a read at that
coefficient: Delta c = (P_i (x) P_i).Delta_i f_ab = sum_t P_i f_at (x) P_i f_tb,
which is x_b run through the chain (delta_i (x) 1).delta_i, on the rows
(a, D, D); eps c = delta_ab; and beta(e_t (x) c) = psi_i(e_t (x) x_b) on the
rows (a, B).  Each is written from nonzeros (``LinMap.nonzeros`` and the one slot
kernel), never from a dense column or composite.  These descend (are well
defined) exactly when every delta_i passes :func:`validate_comodule` and
gives back its psi through the pairing; that and the rest of the induced
structure are verified before a value is returned.  A generator is checked
through its own report, so one validated when parsed is not checked again.
With B = k and enough modules this computes the linear dual of A.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import (
    IncompatibleMeasurings,
    InducedStructureIllDefined,
    InvalidHopf,
    NotAComodule,
    PreconditionViolated,
)
from .fields import Field, Value, same_field
from .linalg import (
    LinMap,
    _chain_images,
    _chain_steps,
    _echelon,
    _swap,
    composite,
    echelon_insert,
    echelon_reduce,
    null_vectors,
    permute_axes,
)
from .structures import (
    Algebra,
    Axiom,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    _failures,
    dual_bialgebra,
    dual_coalgebra,
    find_antipode,
    is_commutative,
    validate_coalgebra,
    validate_hopf,
)
from .measurings import Measuring, tensor_measuring_bialgebra, validate_measuring


def coend_coalgebra(xdim: int, field: Field) -> Coalgebra:
    """The comatrix coalgebra X* (x) X on basis f_ij (index i*xdim + j):
    Delta f_ij = sum_k f_ik (x) f_kj, eps f_ij = delta_ij."""
    d = xdim * xdim
    comult = [((i * xdim + t) * d + (t * xdim + j), i * xdim + j, 1)
              for i in range(xdim) for j in range(xdim) for t in range(xdim)]
    counit = [(0, i * xdim + i, 1) for i in range(xdim)]
    return Coalgebra(comult=LinMap.from_nonzeros(field, d * d, d, comult),
                     counit=LinMap.from_nonzeros(field, 1, d, counit))


def validate_comodule(delta: LinMap, c: Coalgebra) -> bool:
    """delta: X -> X (x) C is coassociative and counital."""
    if delta.dom == 0:
        return delta.cod == 0
    x = delta.dom
    if delta.cod != x * c.dim:
        return False
    return not _failures([
        Axiom("coassociative", [(delta, 1, 1), (delta, 1, c.dim)],
              [(delta, 1, 1), (c.comult, x, 1)], (x,)),
        Axiom("counital", [(delta, 1, 1), (c.counit, x, 1)], [], (x,)),
    ])


def comodule_to_coend_morphism(delta: LinMap, c: Coalgebra) -> LinMap:
    """The coalgebra morphism coend(X) -> C classifying a comodule
    delta(x_j) = sum_i x_i (x) c_ij:  f_ij -> c_ij."""
    if not validate_comodule(delta, c):
        raise NotAComodule("delta does not satisfy the comodule axioms")
    return _classifying_map(delta, c.dim)


def coend_morphism_to_comodule(phi: LinMap, c: Coalgebra, xdim: int) -> LinMap:
    """Inverse direction: a coalgebra morphism coend(X) -> C gives the comodule
    delta(x_j) = sum_i x_i (x) phi(f_ij)."""
    if phi.dom != xdim * xdim or phi.cod != c.dim:
        raise NotAComodule("phi does not have coend(X) -> C shape")
    delta = _classified_comodule(phi, c.dim, xdim)
    if not validate_comodule(delta, c):
        raise NotAComodule("phi is not a coalgebra morphism out of the coend")
    return delta


def _classified_comodule(phi: LinMap, cdim: int, xdim: int) -> LinMap:
    """delta(x_j) = sum_i x_i (x) phi(f_ij), for any linear phi: coend(X) -> C."""
    return permute_axes(phi, (cdim, xdim, xdim), (1, 0, 2), 2)


def _classifying_map(delta: LinMap, cdim: int) -> LinMap:
    """phi(f_ij) = c_ij for delta(x_j) = sum_i x_i (x) c_ij: the inverse of
    :func:`_classified_comodule`, for any linear delta: X -> X (x) C."""
    x = delta.dom
    return permute_axes(delta, (x, cdim, x), (1, 0, 2), 1)


# ---------------------------------------------------------------------------
# generated subcoalgebras


class GeneratedSubcoalgebra(Value):
    """A finite stage: the subcoalgebra of P(A, B) that ``generators`` span,
    or their coend over a chosen family of intertwiners.

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

    def __init__(self, a, b, d, pairing, projections, section, generators):
        vars(self).update(a=a, b=b, d=d, pairing=pairing, projections=projections,
                          section=section, generators=generators)


def _quotient_by_rows(field: Field, n: int,
                      relations: Iterable[dict]) -> tuple[list[dict], LinMap]:
    """Quotient of k^n by the span of the sparse rows ``relations``, inserted
    in one incremental echelon: the projection k^n -> k^d has its null
    vectors as rows, one per free column j in order, and the section sends
    each to e_j."""
    echelon = _echelon(field, relations, n)
    free = [j for j in range(n) if j not in echelon]
    return (null_vectors(field, echelon, n),
            LinMap.from_nonzeros(field, n, len(free), [(j, c, 1) for c, j in enumerate(free)]))


def _span_of_words(field: Field, measurings: list[Measuring], starts: list[int],
                   total: int) -> tuple[list[dict], LinMap]:
    """E, the algebra that the blocks M_{t,q}[a, b] = psi_i[(a, q), (t, b)]
    generate in the product of the End(X_i), as vectors of k^total in the
    coend layout (f_ab of coend(X_i) at ``starts[i] + a*x_i + b``), and the
    section onto its pivots.

    E is closed under words from the identity: each element inserted is
    multiplied on the right by every block, and the product is reduced in
    one incremental echelon on the reversed columns, so pivots are taken
    from the right.  Its sparse rows, back in order and listed by pivot, are
    the reduced echelon form of E: the projection rows onto D = E*, whose
    kernel is the annihilator of E.  Where the coend over the intertwiners
    is the span, they are the rows that :func:`_quotient_by_rows` gives."""
    p = field.char
    # block (t, q): the nonzeros (b, value) of its row a, keyed by the
    # position of f_a0 of coend(X_i)
    blocks: dict[tuple[int, int], dict[int, list]] = {}
    for start, m in zip(starts, measurings):
        x, db = m.xdim, m.b.dim
        for col, column in enumerate(m.psi.nonzeros(by_col=True)):
            t, b = divmod(col, x)
            for r, v in column:
                a, q = divmod(r, db)
                blocks.setdefault((t, q), {}).setdefault(start + a * x, []).append((b, v))
    # f_as of coend(X_i) meets row s of a block and lands in row a
    where = [(start + s * m.xdim, start + a * m.xdim) for start, m in zip(starts, measurings)
             for a in range(m.xdim) for s in range(m.xdim)]
    echelon: dict[int, dict] = {}
    last = total - 1

    def insert(nonzeros) -> list | None:
        """The nonzeros of what is left of a vector reduced in the echelon,
        once inserted; None when it is in the span already."""
        row = {last - pos: x for pos, v in nonzeros if (x := v % p if p else v)}
        if echelon_insert(field, echelon, echelon_reduce(field, echelon, row), total) is None:
            return None
        return [(last - c, v) for c, v in row.items()]

    identity = insert((start + a * m.xdim + a, 1) for start, m in zip(starts, measurings)
                      for a in range(m.xdim))
    pending = [identity] if identity else []
    for u in pending:  # grows as the closure runs
        for block in blocks.values():
            product: dict[int, object] = {}
            for pos, x in u:
                row, base = where[pos]
                for b, v in block.get(row, ()):
                    product[base + b] = product.get(base + b, 0) + x * v
            remainder = insert(product.items())
            if remainder:
                pending.append(remainder)
    pivots = sorted(last - c for c in echelon)
    section = [(j, c, 1) for c, j in enumerate(pivots)]
    return ([{last - c: v for c, v in echelon[last - j].items()} for j in pivots],
            LinMap.from_nonzeros(field, total, len(pivots), section))


def _coefficients(section: LinMap, xdims: list[int]) -> list[tuple[int, int, int]]:
    """(i, a, b) for each basis vector c of D: the section's 1 in column c lies
    at the coefficient f_ab of the i-th summand coend(X_i)."""
    summands = [(i, *divmod(f, x)) for i, x in enumerate(xdims) for f in range(x * x)]
    return [summands[column[0][0]] for column in section.nonzeros(by_col=True)]


def reconstruct(measurings: list[Measuring],
                morphisms: list[tuple[int, int, LinMap]] | None = None,
                a: Algebra | None = None, b: Algebra | None = None) -> GeneratedSubcoalgebra:
    """The stage that the given measurings generate.

    Without ``morphisms`` it is the subcoalgebra of P(A, B) that they span,
    dual to the algebra their blocks generate; no Hom space is solved.
    Otherwise ``morphisms`` lists (source index, target index, map) triples,
    even none, and the stage is the coend over them; an index that is not a
    generator's raises IncompatibleMeasurings, a map over another field
    FieldMismatch.  All induced structure is checked; a failed check raises
    InducedStructureIllDefined and means an input morphism was not one.
    """
    for m in measurings:
        report = validate_measuring(m)
        if not report.ok:
            raise IncompatibleMeasurings(f"generator is not a measuring: {report}")
    if measurings:
        a = measurings[0].a
        b = measurings[0].b
        if any(m.a != a or m.b != b for m in measurings):
            raise IncompatibleMeasurings("generators disagree on (A, B)")
    elif a is None or b is None:
        raise IncompatibleMeasurings("an empty generator list needs explicit a and b")
    k = a.field
    xdims = [m.xdim for m in measurings]
    starts = [sum(x * x for x in xdims[:i]) for i in range(len(xdims))]
    total = sum(x * x for x in xdims)

    def relation_rows(i: int, j: int, f: LinMap) -> list[dict]:
        if i not in range(len(xdims)) or j not in range(len(xdims)):
            raise IncompatibleMeasurings(f"morphism endpoints ({i}, {j}) are not generators")
        same_field(k, f.field)
        xi, xj = xdims[i], xdims[j]
        if f.dom != xi or f.cod != xj:
            raise IncompatibleMeasurings("morphism shape does not match its endpoints")
        # row (r, c), for alpha = e^r in X_j* and v = e_c in X_i, is
        # sum_s f[r, s] f_sc on coend(X_i) minus sum_u f[u, c] f_ru on coend(X_j)
        out = []
        columns = f.nonzeros(by_col=True)
        for r, row in enumerate(f.nonzeros(by_col=False)):
            for c, column in enumerate(columns):
                vec = {starts[i] + s * xi + c: v for s, v in row}
                for u, v in column:
                    pos = starts[j] + r * xj + u
                    if x := k.sub(vec.pop(pos, 0), v):
                        vec[pos] = x
                if vec:
                    out.append(vec)
        return out

    if morphisms is None:
        rows, section = _span_of_words(k, measurings, starts, total)
    else:
        rows, section = _quotient_by_rows(
            k, total, (row for i, j, f in morphisms for row in relation_rows(i, j, f)))
    d = len(rows)
    # column pos of the rows is coefficient pos - starts[i] of coend(X_i)
    summand = [(i, s) for i, (s, x) in enumerate(zip(starts, xdims)) for _ in range(x * x)]
    written = [[] for _ in xdims]
    for r, row in enumerate(rows):
        for pos, v in row.items():
            i, s = summand[pos]
            written[i].append((r, pos - s, v))
    projections = tuple(LinMap.from_nonzeros(k, d, x * x, nonzeros)
                        for x, nonzeros in zip(xdims, written))

    # basis vector c of D is the class of the coefficient f_ab of coend(X_i), so
    # each structure map of D is read off generator i at (a, b)
    da, db, dd = a.dim, b.dim, d * d
    deltas = [_classified_comodule(p, d, x) for p, x in zip(projections, xdims)]
    # x_b run through (delta (x) 1).delta, on the rows (a, D, D), is sum_t P f_at (x) P f_tb
    steps = [_chain_steps([(delta, 1, 1), (delta, 1, d)]) for delta in deltas]
    coefficients = _coefficients(section, xdims)
    comult = [(r - a * dd, c, v) for c, (i, a, b) in enumerate(coefficients)
              for r, v in _chain_images(steps[i], [b], xdims[i], k.char).items()
              if a * dd <= r < (a + 1) * dd]
    # eps f_ab = delta_ab
    counit = [k.one() if a == b else k.zero() for _, a, b in coefficients]
    # beta_i[q, (t, a, b)] = psi_i[(a, q), (t, b)]
    pairing = [(r - a * db, t * d + c, v) for t in range(da)
               for c, (i, a, b) in enumerate(coefficients)
               for r, v in measurings[i].psi.nonzeros(by_col=True)[t * xdims[i] + b]
               if a * db <= r < (a + 1) * db]

    coalgebra = Coalgebra(comult=LinMap.from_nonzeros(k, dd, d, comult),
                          counit=LinMap(k, 1, d, tuple(counit)))
    result = GeneratedSubcoalgebra(a, b, coalgebra, LinMap.from_nonzeros(k, db, da * d, pairing),
                                   projections, section, tuple(measurings))
    _verify_generated(result, deltas)
    return result


def _verify_generated(g: GeneratedSubcoalgebra, deltas: list[LinMap]) -> None:
    """Machine-check every invariant of a generated subcoalgebra.

    As the kernel of the projection onto D is the annihilator of E, or the
    span of the relations, the comultiplication and counit descend to D
    exactly when every P_i is a coalgebra morphism coend(X_i) -> D, that is
    when the comodule delta_i it classifies is a D-comodule, and the pairing
    descends exactly when every delta_i gives back its psi.
    """
    for m, delta in zip(g.generators, deltas):
        if not validate_comodule(delta, g.d):
            raise InducedStructureIllDefined(
                "comultiplication or counit does not descend; "
                "an input morphism is not an intertwiner")
        if induced_measuring(g, delta) != m.psi:
            raise InducedStructureIllDefined(
                "pairing does not descend; an input morphism is not an intertwiner")
    da, d = g.a.dim, g.d.dim
    report = validate_coalgebra(g.d)
    if not report.ok:
        raise InducedStructureIllDefined(f"quotient is not a coalgebra: {report}")
    # beta is an algebra morphism A -> [D, B] for the convolution structure:
    # beta.(mult_A (x) 1) = mult_B.(beta (x) beta).(1 (x) swap (x) 1).(1 (x) 1 (x) comult_D)
    beta = g.pairing
    failures = _failures([
        Axiom("multiplicative in A", [(g.a.mult, 1, d), (beta, 1, 1)],
              [(g.d.comult, da * da, 1), (_swap(da, d, g.a.field), da, d),
               (beta, da * d, 1), (beta, 1, g.b.dim), (g.b.mult, 1, 1)], (da, da, d)),
        Axiom("unital", [(g.a.unit, 1, d), (beta, 1, 1)],
              [(g.d.counit, 1, 1), (g.b.unit, 1, 1)], (d,)),
    ])
    if failures:
        raise InducedStructureIllDefined(f"pairing is not {failures[0].axiom}")


def induced_measuring(g: GeneratedSubcoalgebra, delta: LinMap) -> LinMap:
    """psi recovered from a comodule delta: X -> X (x) D through the pairing:

    A X --1 delta--> A X D --c 1--> X A D --1 beta--> X B

    that is psi[(i, q), (t, j)] = sum_e beta[q, (t, e)] delta[(i, e), j], as one chain.
    """
    da, x = g.a.dim, delta.dom
    return composite([(delta, da, 1), (_swap(da, x, g.a.field), 1, g.d.dim), (g.pairing, x, 1)],
                     da * x)


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
    n2 = len(g2.generators)
    for i, mi in enumerate(g1.generators):
        for j, mj in enumerate(g2.generators):
            if g12.generators[i * n2 + j] != tensor_measuring_bialgebra(mi, mj, a):
                raise PreconditionViolated(
                    "g12 generators are not the pairwise tensors, row-major")
    # the canonical map coend(X) (x) coend(Y) -> coend(X (x) Y), f_ab (x) g_ce ->
    # F_(a,c),(b,e), pushed to D12: column (c1, c2) of the product is a column of
    # the projection of the generator pair (i, j) that c1 and c2 stand for
    second = _coefficients(g2.section, [m.xdim for m in g2.generators])
    nonzeros = []
    for c1, (i, a1, b1) in enumerate(_coefficients(g1.section, [m.xdim for m in g1.generators])):
        x = g1.generators[i].xdim
        for c2, (j, a2, b2) in enumerate(second):
            y = g2.generators[j].xdim
            column = g12.projections[i * n2 + j].nonzeros(by_col=True)[
                (a1 * y + a2) * x * y + b1 * y + b2]
            nonzeros += [(r, c1 * g2.d.dim + c2, v) for r, v in column]
    result = LinMap.from_nonzeros(g1.a.field, g12.d.dim, g1.d.dim * g2.d.dim, nonzeros)
    _verify_product(g1, g2, g12, a, result)
    return result


def _verify_product(g1, g2, g12, a: Bialgebra, product: LinMap) -> None:
    k = g1.a.field
    da = a.dim
    d1, d2, d12 = g1.d.dim, g2.d.dim, g12.d.dim
    # D1 (x) D2 has Delta = (1 (x) swap (x) 1).(Delta1 (x) Delta2) and eps = eps1 (x) eps2
    comult = [(g2.d.comult, d1, 1), (g1.d.comult, 1, d2 * d2), (_swap(d1, d2, k), d1, d2)]
    if _failures([
        Axiom("counital", [(product, 1, 1), (g12.d.counit, 1, 1)],
              [(g2.d.counit, d1, 1), (g1.d.counit, 1, 1)], (d1 * d2,)),
        Axiom("comultiplicative", [(product, 1, 1), (g12.d.comult, 1, 1)],
              [*comult, (product, d1 * d2, 1), (product, 1, d12)], (d1 * d2,)),
    ]):
        raise InducedStructureIllDefined("product is not a coalgebra morphism")
    # beta12.(1 (x) product) must be the convolution of beta1, beta2:
    # A D1 D2 --Delta 1 1--> A A D1 D2 --1 c 1--> A D1 A D2 --b1 b2--> B B --mult--> B
    if _failures([Axiom("compatible", [(product, da, 1), (g12.pairing, 1, 1)],
                        [(a.comult, 1, d1 * d2), (_swap(da, d1, k), da, d2),
                         (g2.pairing, da * d1, 1), (g1.pairing, 1, g2.b.dim),
                         (g1.b.mult, 1, 1)], (da, d1, d2))]):
        raise InducedStructureIllDefined("product is not compatible with the pairings")


def dual_hopf_check(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra, with its antipode independently re-derived.

    Builds (mult = comult^T, comult = mult^T, antipode = s^T), validates it,
    and cross-checks that the antipode read off the dual's fusion operator is
    exactly s^T.
    """
    validate_hopf(h).raise_if_failed(InvalidHopf)
    dual = HopfAlgebra(dual_bialgebra(h.bialgebra), h.antipode.transpose())
    validate_hopf(dual).raise_if_failed(InvalidHopf, "transposed structure is not Hopf: ")
    solved = find_antipode(dual.bialgebra)
    if solved is None or solved.antipode != dual.antipode:
        raise InvalidHopf("the fusion read disagrees with the transposed antipode")
    return dual
