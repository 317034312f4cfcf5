
from pathlib import Path

import pytest

from sweedler.documents import parse_document
from sweedler.errors import DimensionMismatch, FieldMismatch, NegativeDegree, NotClosed
from sweedler.fields import GF, QQ
from sweedler.linalg import LinMap, compose, kron, swap_map
from sweedler.graded import (
    Graded,
    GradedSpace,
    assemble,
    degree0_part,
    dual,
    graded_algebra_morphisms,
    graded_dual,
    graded_tensor_measuring,
    include_degree0,
    is_connected,
    koszul_swap,
    parts,
    validate_graded,
)
from sweedler.measurings import regular_measuring, validate_measuring
from sweedler.structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    algebra_morphisms,
    dual_coalgebra,
    matrix_algebra,
    trivial_algebra,
    validate_bialgebra,
)
from sweedler.zoo import (
    corpus_algebras,
    corpus_bialgebras,
    corpus_hopf_algebras,
    cyclic_group_hopf,
    dual_numbers,
    graded_dual_numbers,
    graded_line_hopf,
    involution_algebra,
)

F2 = GF(2)


# -- Koszul symmetry -----------------------------------------------------------


def test_koszul_on_degree_zero_is_the_plain_swap():
    v = GradedSpace(QQ, (0, 0))
    assert koszul_swap(v, v) == swap_map(2, 2, QQ)


def test_koszul_sign_on_odd_lines_over_q():
    line = GradedSpace(QQ, (1,))
    assert koszul_swap(line, line).entries == (QQ.coerce(-1),)


def test_koszul_sign_vanishes_in_characteristic_two():
    line = GradedSpace(F2, (1,))
    assert koszul_swap(line, line) == swap_map(1, 1, F2)


def test_koszul_squares_to_identity():
    v = GradedSpace(QQ, (0, 1, 2))
    w = GradedSpace(QQ, (1, 3))
    assert compose(koszul_swap(w, v), koszul_swap(v, w)) == LinMap.identity(QQ, 6)


def test_koszul_natural_for_degree_zero_maps():
    v = GradedSpace(QQ, (1, 1))
    w = GradedSpace(QQ, (2,))
    f = LinMap.from_rows(QQ, [[1, 2], [0, 1]])   # degree 0 on v
    g = LinMap.from_rows(QQ, [[3]])              # degree 0 on w
    lhs = compose(koszul_swap(v, w), kron(f, g))
    rhs = compose(kron(g, f), koszul_swap(v, w))
    assert lhs == rhs


def test_koszul_matches_parity_oracle():
    v = GradedSpace(QQ, (0, 1, 2, 3))
    s = koszul_swap(v, v)
    for i in range(4):
        for j in range(4):
            col = s.col_at(i * 4 + j)
            expected_sign = -1 if (i * j) % 2 else 1
            assert col[j * 4 + i] == expected_sign


# -- graded validation -----------------------------------------------------------


def test_primitive_line_is_a_graded_hopf_in_char_two():
    assert validate_graded(graded_line_hopf(F2, 1)).ok


def test_degenerate_grading_is_still_valid():
    assert validate_graded(graded_line_hopf(F2, 0)).ok


def test_primitive_line_over_q_needs_the_koszul_sign():
    gh = graded_line_hopf(QQ, 1)
    assert validate_graded(gh).ok
    # without the sign the same structure constants fail the bialgebra axiom
    assert not validate_bialgebra(gh.value.bialgebra).ok


def test_even_degree_over_q_fails():
    report = validate_graded(graded_line_hopf(QQ, 2))
    assert not report.ok
    assert any("Koszul" in f.axiom for f in report.failures)


def test_homogeneity_failure_has_a_witness():
    # deg(x) = 1 but x*x = x: the product lands in degree 1 instead of 2
    from sweedler.structures import Algebra

    k = F2
    mult = LinMap.from_rows(k, [[1, 0, 0, 0], [0, 1, 1, 1]])
    alg = Graded(Algebra(mult, LinMap.column(k, [1, 0])), GradedSpace(k, (0, 1)))
    report = validate_graded(alg)
    assert not report.ok
    failure = next(f for f in report.failures if "homogeneity" in f.axiom)
    assert failure.witness == (1, 3)  # entry (row 1 = x, column 3 = x (x) x)


def test_group_algebra_concentrated_in_degree_zero_is_graded():
    gh = include_degree0(cyclic_group_hopf(QQ, 2))
    assert isinstance(gh, Graded) and isinstance(gh.value, HopfAlgebra)
    assert validate_graded(gh).ok


# -- graded duals ------------------------------------------------------------------


def test_dual_of_degree_zero_line_is_itself():
    v = GradedSpace(QQ, (0,))
    assert graded_dual(v) == v


def test_dual_negates_degrees():
    assert graded_dual(GradedSpace(QQ, (3,))).degrees == (-3,)


def test_double_dual_identity_on_structures():
    ga = graded_dual_numbers(F2, 1)
    dual = graded_dual(ga)
    assert isinstance(dual, Graded) and isinstance(dual.value, Coalgebra)
    double = graded_dual(dual)
    assert double == ga


def test_graded_dual_of_hopf_validates():
    gh = graded_line_hopf(QQ, 1)
    dual = graded_dual(gh)
    assert validate_graded(Graded(dual.value, GradedSpace(QQ, (0, -1)))).ok


# -- connectedness ------------------------------------------------------------------


def test_connectedness_verdicts():
    assert is_connected(GradedSpace(QQ, (0,)))
    assert is_connected(GradedSpace(F2, (0, 1)))
    assert not is_connected(GradedSpace(F2, (0, 0)))
    with pytest.raises(NegativeDegree):
        is_connected(GradedSpace(QQ, (-1, 0)))


# -- graded morphisms and the connectedness counterexample ----------------------------


def test_counterexample_counts():
    a = Graded(dual_numbers(F2), GradedSpace(F2, (0, 1)))
    b_deg1 = graded_dual_numbers(F2, 1)
    b_deg2 = graded_dual_numbers(F2, 2)
    assert len(graded_algebra_morphisms(a, b_deg1)) == 2   # x -> 0 and x -> y
    assert len(graded_algebra_morphisms(a, b_deg2)) == 1   # only x -> 0
    assert is_connected(a.space) and is_connected(b_deg1.space)


def test_trivial_source_has_one_graded_morphism():
    k0 = include_degree0(trivial_algebra(F2))
    for target in [graded_dual_numbers(F2, 1), include_degree0(involution_algebra(F2))]:
        assert len(graded_algebra_morphisms(k0, target)) == 1


def test_graded_morphisms_are_homogeneous_and_multiplicative():
    a = Graded(dual_numbers(F2), GradedSpace(F2, (0, 1)))
    b = graded_dual_numbers(F2, 1)
    for f in graded_algebra_morphisms(a, b):
        for i, di in enumerate(a.degrees):
            for j, dj in enumerate(b.degrees):
                if f[(j, i)] != 0:
                    assert di == dj


# -- degree-zero adjunction ------------------------------------------------------------


def test_degree0_part_of_the_line():
    a = Graded(dual_numbers(F2), GradedSpace(F2, (0, 1)))
    part = degree0_part(a)
    assert part == trivial_algebra(F2)


def test_include_then_truncate_is_identity():
    a = involution_algebra(F2)
    assert degree0_part(include_degree0(a)) == a


def test_degree0_part_rejects_nonclosed_gradings():
    # force a non-homogeneous product: deg 0 x deg 0 -> deg 1
    from sweedler.structures import Algebra

    k = F2
    mult = LinMap.from_rows(k, [[1, 0, 0, 0], [1, 1, 1, 1]])
    bad = Graded(Algebra(mult, LinMap.column(k, [1, 0])), GradedSpace(k, (0, 1)))
    with pytest.raises(NotClosed):
        degree0_part(bad)


def test_degree0_adjunction_counts_on_corpus():
    graded_sources = [
        Graded(dual_numbers(F2), GradedSpace(F2, (0, 1))),
        include_degree0(involution_algebra(F2)),
        Graded(graded_line_hopf(F2, 1).value.algebra, GradedSpace(F2, (0, 1))),
    ]
    targets = [trivial_algebra(F2), involution_algebra(F2), dual_numbers(F2),
               matrix_algebra(trivial_algebra(F2), 2)]
    for a in graded_sources:
        for b in targets:
            lhs = len(graded_algebra_morphisms(a, include_degree0(b)))
            rhs = len(algebra_morphisms(degree0_part(a), b))
            assert lhs == rhs, (a.degrees, b.dim)


# -- graded measurings -------------------------------------------------------------------


def test_graded_tensor_measuring_validates_after_forgetting_degrees():
    ext = graded_line_hopf(QQ, 1)
    m = regular_measuring(ext.value.algebra)
    gb = Graded(trivial_algebra(QQ), GradedSpace(QQ, (0,)))
    gbial = Graded(ext.value.bialgebra, ext.space)
    t = graded_tensor_measuring(m, ext.space, m, ext.space, gbial, gb)
    assert validate_measuring(t).ok
    # over F2 the signs vanish and the graded tensor equals the plain one
    from sweedler.measurings import tensor_measuring_bialgebra

    ext2 = graded_line_hopf(F2, 1)
    m2 = regular_measuring(ext2.value.algebra)
    gb2 = Graded(trivial_algebra(F2), GradedSpace(F2, (0,)))
    gbial2 = Graded(ext2.value.bialgebra, ext2.space)
    graded = graded_tensor_measuring(m2, ext2.space, m2, ext2.space, gbial2, gb2)
    plain = tensor_measuring_bialgebra(m2, m2, ext2.value.bialgebra)
    assert graded.psi == plain.psi


def test_koszul_failure_has_a_witness():
    # deg x = 2 is even, so the Koszul sign is +1 and Delta(x.x) = 2 x (x) x != 0
    report = validate_graded(graded_line_hopf(QQ, 2))
    assert [(f.axiom, f.witness) for f in report.failures] == [
        ("comult multiplicative (Koszul)", (1, 1))]


def test_graded_antipode_failure_has_a_witness():
    gh = graded_line_hopf(QQ, 1)
    wrong = Graded(HopfAlgebra(gh.value.bialgebra, LinMap.identity(QQ, 2)), gh.space)
    report = validate_graded(wrong)
    assert [(f.axiom, f.witness) for f in report.failures] == [
        ("left antipode", (1,)), ("right antipode", (1,))]


# -- a structure value is its parts --------------------------------------------------


def _values_of_every_kind():
    fixtures = Path(__file__).parent / "fixtures"
    graded_docs = [parse_document(path.read_text()).value
                   for path in sorted(fixtures.glob("graded_*.json"))]
    ungraded = ([a for _, a in corpus_algebras()]
                + [dual_coalgebra(a) for _, a in corpus_algebras()]
                + [b for _, b in corpus_bialgebras()]
                + [h for _, h in corpus_hopf_algebras()])
    graded = ([include_degree0(v) for v in ungraded if not isinstance(v, Coalgebra)]
              + [graded_dual(g) for g in graded_docs]
              + [graded_line_hopf(k, d) for k in (F2, QQ) for d in (0, 1, 2)]
              + [Graded(g.value.bialgebra, g.space) for g in graded_docs
                 if isinstance(g.value, HopfAlgebra)]
              + graded_docs)
    return ungraded + graded


def test_values_of_every_kind_cover_the_four_kinds_plain_and_graded():
    kinds = {type(v) if not isinstance(v, Graded) else (Graded, type(v.value))
             for v in _values_of_every_kind()}
    ungraded = {Algebra, Coalgebra, Bialgebra, HopfAlgebra}
    assert kinds == ungraded | {(Graded, kind) for kind in ungraded}


def test_graded_checks_its_degrees_field_and_value():
    with pytest.raises(DimensionMismatch):
        Graded(dual_numbers(F2), GradedSpace(F2, (0, 1, 2)))
    with pytest.raises(FieldMismatch):
        Graded(dual_numbers(F2), GradedSpace(GF(3), (0, 1)))
    with pytest.raises(TypeError):
        Graded(graded_dual_numbers(F2, 1), GradedSpace(F2, (0, 1)))


@pytest.mark.parametrize("value", _values_of_every_kind())
def test_assemble_inverts_parts(value):
    algebra, coalgebra, antipode, space = parts(value)
    assert assemble(algebra, coalgebra, antipode, space) == value
    assert type(assemble(algebra, coalgebra, antipode, space)) is type(value)


@pytest.mark.parametrize("value", _values_of_every_kind())
def test_dual_is_an_involution_that_trades_the_parts(value):
    algebra, coalgebra, antipode, space = parts(value)
    d_algebra, d_coalgebra, d_antipode, d_space = parts(dual(value))
    assert d_algebra == (None if coalgebra is None else
                         Algebra(coalgebra.comult.transpose(), coalgebra.counit.transpose()))
    assert d_coalgebra == (None if algebra is None else
                           Coalgebra(algebra.mult.transpose(), algebra.unit.transpose()))
    assert d_antipode == (None if antipode is None else antipode.transpose())
    assert d_space == (None if space is None else
                       GradedSpace(space.field, tuple(-d for d in space.degrees)))
    assert dual(dual(value)) == value


def test_parts_and_assemble_reject_what_is_not_a_structure():
    with pytest.raises(TypeError):
        parts(GradedSpace(F2, (0,)))
    with pytest.raises(TypeError):
        assemble(involution_algebra(F2), None, LinMap.identity(F2, 2))
    with pytest.raises(TypeError):
        assemble(None, None, space=GradedSpace(F2, ()))


def test_graded_failures_come_in_order_with_witnesses():
    # deg x = 2 and x.x = x: mult is not homogeneous, the even degree leaves
    # Delta(x.x) != Delta(x) Delta(x) with the Koszul sign, and s(1) = 1 + x
    # is neither homogeneous nor an antipode
    k = QQ
    mult = LinMap.from_rows(k, [[1, 0, 0, 0], [0, 1, 1, 1]])
    comult = LinMap.from_rows(k, [[1, 0], [0, 1], [0, 1], [0, 0]])
    bialgebra = Bialgebra(Algebra(mult, LinMap.column(k, [1, 0])),
                          Coalgebra(comult, LinMap.row(k, [1, 0])))
    antipode = LinMap.from_rows(k, [[1, 0], [1, -1]])
    gh = Graded(HopfAlgebra(bialgebra, antipode), GradedSpace(k, (0, 2)))
    assert [(f.axiom, f.witness) for f in validate_graded(gh).failures] == [
        ("mult homogeneity", (1, 3)),
        ("comult multiplicative (Koszul)", (1, 1)),
        ("antipode homogeneity", (1, 0)),
        ("left antipode", (0,)),
        ("right antipode", (0,))]


@pytest.mark.parametrize("value", [involution_algebra(F2), dual_coalgebra(dual_numbers(F2)),
                                   cyclic_group_hopf(QQ, 2).bialgebra,
                                   cyclic_group_hopf(QQ, 2)],
                         ids=["algebra", "coalgebra", "bialgebra", "hopf"])
def test_graded_operations_reject_ungraded_values(value):
    with pytest.raises(TypeError):
        validate_graded(value)
    with pytest.raises(TypeError):
        graded_dual(value)


@pytest.mark.parametrize("value", [dual_coalgebra(dual_numbers(F2)),
                                   graded_dual_numbers(F2, 1),
                                   graded_dual(graded_dual_numbers(F2, 1)),
                                   graded_line_hopf(QQ, 1)],
                         ids=["coalgebra", "graded-algebra", "graded-coalgebra", "graded-hopf"])
def test_include_degree0_rejects_coalgebras_and_graded_values(value):
    with pytest.raises(TypeError):
        include_degree0(value)
