import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sweedler import linalg, structures
from sweedler.cli import main
from sweedler.documents import Document, serialize_document
from sweedler.errors import (
    BudgetExceeded,
    InvalidBialgebra,
    InvalidStructure,
    NotAGroup,
    PreconditionViolated,
    UnsupportedField,
)
from sweedler.fields import GF, QQ
from sweedler.linalg import LinMap, compose, invert, rank
from sweedler.structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    _conjugated,
    _word_span,
    algebra_morphisms,
    conjugation_classes,
    convolution_algebra,
    coopposite,
    dual_algebra,
    dual_bialgebra,
    dual_coalgebra,
    find_antipode,
    find_opantipode,
    fusion_operators,
    gl_generators,
    group_algebra,
    grouplikes,
    is_algebra_morphism,
    is_cocommutative,
    is_commutative,
    matrix_algebra,
    opposite,
    trivial_algebra,
    validate_algebra,
    validate_bialgebra,
    validate_coalgebra,
    validate_hopf,
)
from sweedler.graded import Graded, graded_algebra_morphisms
from sweedler.measurings import enumerate_measurings
from sweedler.reconstruction import reconstruct
from sweedler.zoo import (
    cyclic_group_hopf,
    dual_numbers,
    graded_dual_numbers,
    graded_line_hopf,
    idempotent_monoid_bialgebra,
    involution_algebra,
    sweedler_hopf,
)

from _oracles import (
    algebra_product,
    conjugation_invariant,
    conjugation_orbits,
    convolution_inverse,
    dense_chain,
    diagonal_algebra,
    exhaustive_grouplikes,
    exhaustive_morphisms,
    nonassociative_dual,
    gl_order,
    is_grouplike,
    truncated_algebra,
    word_span,
)

F2 = GF(2)
F3 = GF(3)


# -- validation ---------------------------------------------------------------


def test_matrix_algebra_over_f2_is_valid(m2_f2):
    assert validate_algebra(m2_f2).ok


def test_group_algebra_is_valid_hopf(q_c2):
    assert validate_hopf(q_c2).ok


def test_flipped_structure_constant_reports_associativity_witness(m2_f2):
    entries = list(m2_f2.mult.entries)
    # flip the coefficient of e00 in e01 * e10 (a genuinely used constant)
    col = (0 * 2 + 1) * 4 + (1 * 2 + 0)
    entries[0 * 16 + col] = F2.sub(entries[0 * 16 + col], F2.one())
    broken = Algebra(mult=LinMap(F2, 4, 16, tuple(entries)), unit=m2_f2.unit)
    report = validate_algebra(broken)
    assert not report.ok
    axioms = {f.axiom for f in report.failures}
    assert axioms & {"associativity", "left unit", "right unit"}
    witness = [f for f in report.failures if f.axiom == "associativity"]
    if witness:
        assert len(witness[0].witness) == 3


def test_idempotent_monoid_is_valid_bialgebra(idempotent):
    assert validate_bialgebra(idempotent).ok


def test_idempotent_monoid_admits_no_antipode_at_all(idempotent):
    # every linear map fails the antipode axioms: 16 candidates over F_2
    for entries in itertools.product(range(2), repeat=4):
        candidate = HopfAlgebra(idempotent, LinMap.make(F2, 2, 2, entries))
        assert not validate_hopf(candidate).ok


def test_zero_dimensional_coalgebra_is_legal():
    zero = Coalgebra(comult=LinMap.zero(QQ, 0, 0), counit=LinMap.zero(QQ, 1, 0))
    assert validate_coalgebra(zero).ok
    assert grouplikes(zero, candidates=[]) == []
    with pytest.raises(PreconditionViolated, match="the dual of the zero coalgebra has no unit"):
        dual_algebra(zero)


# -- constructions ------------------------------------------------------------


def test_matrix_algebra_of_size_one_is_the_base(k_f2):
    assert matrix_algebra(k_f2, 1) == k_f2


def test_matrix_units(m2_f2):
    # e01 at index 1, e10 at index 2; products by matrix-unit calculus
    e01_e10 = algebra_product(m2_f2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert e01_e10 == (1, 0, 0, 0)  # e00
    e01_e01 = algebra_product(m2_f2, (0, 1, 0, 0), (0, 1, 0, 0))
    assert e01_e01 == (0, 0, 0, 0)
    e00_e01 = algebra_product(m2_f2, (1, 0, 0, 0), (0, 1, 0, 0))
    assert e00_e01 == (0, 1, 0, 0)


def test_matrix_algebra_over_dual_numbers_validates():
    assert validate_algebra(matrix_algebra(dual_numbers(F2), 2)).ok


def test_group_algebra_c2_over_q(q_c2):
    assert q_c2.dim == 2
    assert q_c2.antipode == LinMap.identity(QQ, 2)  # every element is its own inverse


def test_group_algebra_c3_antipode_is_inversion():
    h = cyclic_group_hopf(F2, 3)
    # s permutes the grouplike basis by g -> g^2
    expected = LinMap.from_rows(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert h.antipode == expected
    assert validate_hopf(h).ok


def test_trivial_group_gives_base_field():
    h = group_algebra(QQ, [[0]])
    assert h.dim == 1
    assert h.algebra == trivial_algebra(QQ)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 1]],            # 1 has no inverse
    [[1, 0], [0, 0]],            # no identity... (0 swaps); actually not associative
    [[0, 1, 2], [1, 2, 0], [2, 0, 2]],  # broken associativity
])
def test_group_algebra_rejects_non_groups(table):
    with pytest.raises(NotAGroup):
        group_algebra(QQ, table)


# -- duals and opposites -------------------------------------------------------


def test_dual_of_group_algebra_has_the_characters(q_c2):
    dual = dual_coalgebra(q_c2.algebra)
    # brute-force oracle over a small integer lattice: x = (x0, x1), Dx = x (x) x
    found = []
    for x0 in range(-2, 3):
        for x1 in range(-2, 3):
            vec = (Fraction(x0), Fraction(x1))
            image = dual.comult.apply(vec)
            ok = all(image[i * 2 + j] == vec[i] * vec[j] for i in range(2) for j in range(2))
            if ok and dual.counit.apply(vec)[0] == 1:
                found.append(vec)
    assert sorted(found) == [(1, -1), (1, 1)]
    assert sorted(grouplikes(dual, candidates=found)) == sorted(found)


def test_dual_of_trivial_algebra():
    dual = dual_coalgebra(trivial_algebra(QQ))
    assert dual.dim == 1 and validate_coalgebra(dual).ok


def test_dual_of_matrix_algebra_is_comatrix(m2_f2):
    dual = dual_coalgebra(m2_f2)
    # Delta(f_ij) = sum_k f_ik (x) f_kj on the matrix-unit dual basis
    for i in range(2):
        for j in range(2):
            image = dual.comult.col_at(i * 2 + j)
            for r in range(4):
                for c in range(4):
                    expected = 1 if (r // 2 == i and c % 2 == j and r % 2 == c // 2) else 0
                    assert image[r * 4 + c] == expected


def test_double_dual_is_identity(algebra_corpus):
    for name, a in algebra_corpus:
        assert dual_algebra(dual_coalgebra(a)) == a, name


def test_opposite_of_commutative_is_itself(q_c2):
    assert opposite(q_c2.algebra) == q_c2.algebra


def test_opposite_matrix_units(m2_f2):
    op = opposite(m2_f2)
    # in the opposite algebra e01 . e00 = e00 . e01 evaluated backwards = e01
    assert algebra_product(op, (0, 1, 0, 0), (1, 0, 0, 0)) == (0, 1, 0, 0)
    assert validate_algebra(op).ok


def test_cop_dual_equals_dual_op(algebra_corpus):
    for name, a in algebra_corpus:
        assert coopposite(dual_coalgebra(a)) == dual_coalgebra(opposite(a)), name


def test_commutative_gives_cocommutative_dual(algebra_corpus):
    for name, a in algebra_corpus:
        if is_commutative(a):
            assert is_cocommutative(dual_coalgebra(a)), name


# -- convolution ---------------------------------------------------------------


def test_convolution_with_trivial_coalgebra_is_the_target(q_c2):
    k = dual_coalgebra(trivial_algebra(QQ))
    assert convolution_algebra(k, q_c2.algebra) == q_c2.algebra


def test_convolution_into_base_is_dual_algebra(q_c2):
    conv = convolution_algebra(q_c2.coalgebra, trivial_algebra(QQ))
    assert conv == dual_algebra(q_c2.coalgebra)


def test_convolution_comatrix_is_matrix_algebra(m2_f2, k_f2):
    comatrix = dual_coalgebra(m2_f2)
    assert convolution_algebra(comatrix, k_f2) == m2_f2


def test_convolution_validates_on_corpus(bialgebra_corpus):
    for name, b in bialgebra_corpus:
        conv = convolution_algebra(b.coalgebra, b.algebra)
        assert validate_algebra(conv).ok, name


# -- fusion operators and antipodes ---------------------------------------------


def test_fusion_trivial_bialgebra_all_identity():
    b = cyclic_group_hopf(QQ, 1).bialgebra
    ops = fusion_operators(b)
    for op in (ops.h, ops.h_prime, ops.h_bar, ops.h_bar_prime):
        assert op == LinMap.identity(QQ, 1)


def test_fusion_invertible_for_group_algebra(q_c2):
    ops = fusion_operators(q_c2.bialgebra)
    invert(ops.h)  # raises if singular


def test_fusion_singular_for_idempotent_monoid(idempotent):
    ops = fusion_operators(idempotent)
    assert rank(ops.h) < 4


def test_fusion_requires_valid_bialgebra(m2_f2):
    broken = Bialgebra(m2_f2, coopposite(dual_coalgebra(opposite(m2_f2))))
    # comatrix coalgebra on M2 is not bialgebra-compatible with matrix mult
    with pytest.raises(InvalidBialgebra):
        fusion_operators(broken)


def test_antipode_of_group_algebra_is_identity(q_c2):
    found = find_antipode(q_c2.bialgebra)
    assert found is not None and found.antipode == LinMap.identity(QQ, 2)


def test_sweedler_antipode_squares_to_minus_one_on_x(sweedler4):
    found = find_antipode(sweedler4.bialgebra)
    assert found is not None
    assert found.antipode == sweedler4.antipode
    square = compose(found.antipode, found.antipode)
    assert not square.is_identity()
    # s^2 negates x and gx, fixes 1 and g
    assert square == LinMap.from_rows(F3, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 2, 0], [0, 0, 0, 2]])


def test_idempotent_monoid_has_no_antipode(idempotent):
    assert find_antipode(idempotent) is None


def test_opantipode_equals_antipode_when_cocommutative():
    h = cyclic_group_hopf(F3, 2)
    assert find_opantipode(h.bialgebra) == h.antipode


def test_sweedler_opantipode_is_antipode_inverse(sweedler4):
    op = find_opantipode(sweedler4.bialgebra)
    assert op == invert(sweedler4.antipode)


def test_idempotent_monoid_has_no_opantipode(idempotent):
    assert find_opantipode(idempotent) is None


def test_structure_maps_build_no_padded_kronecker_product(monkeypatch, q_c2, sweedler4,
                                                          idempotent):
    # every composite is one chain of slot factors: kron is never called
    from sweedler import linalg, measurings, reconstruction, structures
    from sweedler.linalg import swap_map
    from sweedler.measurings import (
        compose_measuring,
        identity_measuring,
        regular_measuring,
        tensor_measuring_bialgebra,
    )

    def fusion_reference(b):
        d = b.dim
        c = swap_map(d, d, b.field)
        return [dense_chain(chain, d * d) for chain in (
            [(b.comult, 1, d), (b.mult, d, 1)], [(b.comult, d, 1), (b.mult, 1, d)],
            [(b.comult, 1, d), (c, d, 1), (b.mult, 1, d)],
            [(b.comult, d, 1), (c, 1, d), (b.mult, d, 1)])]

    bialgebras = [q_c2.bialgebra, sweedler4.bialgebra, idempotent]
    fusions = [fusion_reference(b) for b in bialgebras]
    a = q_c2.algebra
    regular = regular_measuring(a)
    k = trivial_algebra(QQ)
    tensor = dense_chain([(q_c2.bialgebra.comult, 1, 4), (swap_map(2, 2, QQ), 2, 2),
                          (regular.psi, 4, 1), (regular.psi, 1, 2), (swap_map(1, 2, QQ), 2, 1),
                          (k.mult, 4, 1)], 8)
    identity = identity_measuring(a)
    composed = dense_chain([(identity.psi, 1, 2), (regular.psi, 1, 1)], 4)
    opantipode = invert(sweedler4.antipode)

    def no_kron(*args):
        raise AssertionError("a padded Kronecker product was built")
    for module in (linalg, structures, measurings, reconstruction):
        monkeypatch.setattr(module, "kron", no_kron, raising=False)
    for b, expected in zip(bialgebras, fusions):
        ops = fusion_operators(b)
        assert [ops.h, ops.h_prime, ops.h_bar, ops.h_bar_prime] == expected
    assert find_antipode(sweedler4.bialgebra).antipode == sweedler4.antipode
    assert find_opantipode(sweedler4.bialgebra) == opantipode
    assert find_antipode(idempotent) is None and find_opantipode(idempotent) is None
    assert tensor_measuring_bialgebra(regular, regular, q_c2.bialgebra).psi == tensor
    assert compose_measuring(identity, regular).psi == composed


def test_antipode_iff_fusion_invertible(bialgebra_corpus):
    # existence comes from the linear-system oracle: the library reads S off h^-1
    for name, b in bialgebra_corpus:
        ops = fusion_operators(b)
        has_antipode = convolution_inverse(b, twisted=False) is not None
        for op in (ops.h, ops.h_prime):
            assert _invertible(op) == has_antipode, name
        has_opantipode = convolution_inverse(b, twisted=True) is not None
        for op in (ops.h_bar, ops.h_bar_prime):
            assert _invertible(op) == has_opantipode, name


def test_fusion_read_equals_the_convolution_inverse_oracle(bialgebra_corpus, hopf_corpus):
    cases = [*bialgebra_corpus, *((name, h.bialgebra) for name, h in hopf_corpus)]
    cases += [(f"{k}[C{n}]", cyclic_group_hopf(k, n).bialgebra)
              for k in (QQ, F3) for n in range(2, 7)]
    cases += [(f"sweedler4/{k}", sweedler_hopf(k).bialgebra) for k in (QQ, F3)]
    cases += [(f"idempotent/{k}", idempotent_monoid_bialgebra(k)) for k in (F2, F3)]
    absent = twisted_apart = 0
    for name, b in cases:
        s, s_op = convolution_inverse(b, twisted=False), convolution_inverse(b, twisted=True)
        found = find_antipode(b)
        assert (None if found is None else found.antipode) == s, name
        assert find_opantipode(b) == s_op, name
        absent += s is None
        twisted_apart += s != s_op
    # both answers occur, and S' = S^-1 differs from S on Sweedler's algebra
    # only (four cases: twice from the corpora, over Q and over F3)
    assert absent == 3 and twisted_apart == 4


def test_found_antipodes_are_bijective(hopf_corpus):
    for name, h in hopf_corpus:
        found = find_antipode(h.bialgebra)
        assert found is not None, name
        invert(found.antipode)


def _invertible(f):
    try:
        invert(f)
        return True
    except Exception:
        return False


# -- grouplikes and morphisms ----------------------------------------------------


def test_grouplikes_of_dual_group_algebra():
    dual = dual_coalgebra(cyclic_group_hopf(F3, 2).algebra)
    # characters g -> +-1, written in the dual basis
    assert grouplikes(dual) == [(1, 1), (1, 2)]


def test_grouplikes_of_trivial_coalgebra():
    assert grouplikes(dual_coalgebra(trivial_algebra(GF(5)))) == [(1,)]


def test_comatrix_coalgebra_has_no_grouplikes(m2_f2):
    dual = dual_coalgebra(m2_f2)
    assert grouplikes(dual) == []
    # independent exhaustive oracle over all 2^4 - 1 nonzero vectors
    count = 0
    for vec in itertools.product(range(2), repeat=4):
        if not any(vec):
            continue
        image = dual.comult.apply(vec)
        ok = all(image[i * 4 + j] == (vec[i] * vec[j]) % 2 for i in range(4) for j in range(4))
        if ok and dual.counit.apply(vec)[0] == 1:
            count += 1
    assert count == 0


def test_grouplikes_over_q_require_candidates(q_c2):
    with pytest.raises(UnsupportedField):
        grouplikes(dual_coalgebra(q_c2.algebra))


def test_grouplike_budget_is_checked_before_enumerating(m2_f2):
    # M_2(F2), the dual of its comatrix coalgebra, has the three generators
    # e00, e01, e10, so the bound is 2^3 = 8
    with pytest.raises(BudgetExceeded) as raised:
        grouplikes(dual_coalgebra(m2_f2), budget=7)
    assert raised.value.needed == 8


class _Uncomputed(int):
    """An exponent whose power must not be computed."""

    def __rpow__(self, base):
        raise AssertionError(f"{base}^{int(self)} was computed")


@pytest.mark.parametrize("p,e,needed", [
    (2, 14284, str(2 ** 14284)),        # 4,300 digits: the longest written in decimal
    (2, 14285, "2^14285"),              # 4,301 digits
    (3, _Uncomputed(10 ** 12), "3^1000000000000"),
], ids=["4300-digits", "4301-digits", "uncomputed"])
def test_budget_bounds_are_decimal_up_to_4300_digits(p, e, needed):
    with pytest.raises(BudgetExceeded) as raised:
        structures._refuse_over_budget(p, e, 2 ** 24)
    assert str(raised.value) == f"enumeration needs {needed} candidates, budget is {2 ** 24}"
    assert (raised.value.base, raised.value.exponent) == (p, e)


def test_budget_refusal_at_the_bound():
    structures._refuse_over_budget(3, 3, 27)
    with pytest.raises(BudgetExceeded):
        structures._refuse_over_budget(3, 3, 26)
    structures._refuse_over_budget(2, 0, 1)
    with pytest.raises(BudgetExceeded):
        structures._refuse_over_budget(2, 0, 0)


def _span_algebras(algebra_corpus, bialgebra_corpus):
    out = list(algebra_corpus)
    out += [(f"dual {name}", dual_algebra(b.coalgebra)) for name, b in bialgebra_corpus]
    out += [("F5[C4]", cyclic_group_hopf(GF(5), 4).algebra),
            ("M3(F2[y]/(y2))", matrix_algebra(dual_numbers(F2), 3)),
            ("Q[C6]", cyclic_group_hopf(QQ, 6).algebra),
            ("dual sweedler/Q", dual_algebra(sweedler_hopf(QQ).coalgebra))]
    out += [(f"F2^{n}", diagonal_algebra(F2, n)) for n in range(1, 13)]
    out += [(f"F2[y]/(y^{n})", truncated_algebra(F2, n)) for n in range(1, 13)]
    return out


def test_word_span_matches_the_batch_reference(algebra_corpus, bialgebra_corpus):
    for name, a in _span_algebras(algebra_corpus, bialgebra_corpus):
        assert _word_span(a) == word_span(a), name


def test_word_span_coordinates_are_canonical(algebra_corpus, bialgebra_corpus):
    # the sparse echelon computes over Q on ints; what it returns is canonical
    fields = set()
    for name, a in _span_algebras(algebra_corpus, bialgebra_corpus):
        k = a.field
        fields.add(k)
        _, stages, coords = _word_span(a)
        values = [c for _, relations in stages for _, _, combo in relations for _, c in combo]
        values += [c for coord in coords for _, c in coord]
        for c in values:
            assert (type(c) is int and 0 < c < k.char) if k.char else type(c) is Fraction, name
    assert QQ in fields and len(fields) > 2


def _grouplike_coalgebras(algebra_corpus, bialgebra_corpus):
    out = [(f"dual {name}", dual_coalgebra(a)) for name, a in algebra_corpus]
    out += [(name, b.coalgebra) for name, b in bialgebra_corpus]
    out += [("F5[C4]", cyclic_group_hopf(GF(5), 4).coalgebra),
            ("sweedler/F3", sweedler_hopf(F3).coalgebra),
            ("dual sweedler/F3", dual_coalgebra(sweedler_hopf(F3).algebra)),
            ("graded line/F2", graded_line_hopf(F2, 1).value.coalgebra)]
    out += [(f"dual F2^{n}", dual_coalgebra(diagonal_algebra(F2, n))) for n in range(1, 13)]
    out += [(f"dual F2[y]/(y^{n})", dual_coalgebra(truncated_algebra(F2, n))) for n in range(1, 13)]
    # the stage of the F2[C_2] -> F2[y]/(y^2) representatives with n <= 2
    reps = [rep for n in (1, 2)
            for rep, _ in enumerate_measurings(involution_algebra(F2), dual_numbers(F2), n).orbits]
    out.append(("F2C2-F2y stage", reconstruct(reps).d))
    return [(name, c) for name, c in out if not c.field.is_rational]


def test_grouplikes_match_the_exhaustive_walk(algebra_corpus, bialgebra_corpus):
    for name, c in _grouplike_coalgebras(algebra_corpus, bialgebra_corpus):
        assert grouplikes(c) == exhaustive_grouplikes(c), name


def test_grouplikes_of_a_zero_dimensional_coalgebra(tmp_path, capsys):
    zero = Coalgebra(LinMap.zero(F2, 0, 0), LinMap.zero(F2, 1, 0))
    assert grouplikes(zero) == exhaustive_grouplikes(zero) == []
    path = tmp_path / "zero.json"
    path.write_text(serialize_document(Document(zero, ())))
    assert main(["grouplikes", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == 0


def test_grouplikes_reject_an_invalid_coalgebra_before_the_search():
    # the search assumes C* associative and unital: unchecked, it would keep
    # f(y) = 0 on the first coalgebra, and (1, 0, 0) is no grouplike there
    assert exhaustive_grouplikes(nonassociative_dual(F2, (1, 0, 0))) == []
    for counit, failed in [((1, 0, 0), ["coassociativity"]),
                           ((0, 0, 0), ["coassociativity", "left counit", "right counit"])]:
        with pytest.raises(InvalidStructure) as raised:
            grouplikes(nonassociative_dual(F2, counit))
        assert [f.axiom for f in raised.value.report.failures] == failed


def test_morphisms_reject_a_nonassociative_source():
    # F2 on 1, x, y with xx = y, yx = 1 and xy = yy = 0: (xx)x = 1 but
    # x(xx) = 0.  The search assumes A associative; unchecked, it returned
    # f = (1, 1, 1), which is no morphism
    products = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2, (1, 1): 2, (2, 1): 0}
    a = Algebra(LinMap.from_nonzeros(F2, 3, 9, [(t, 3 * i + j, 1)
                                                for (i, j), t in products.items()]),
                LinMap.from_nonzeros(F2, 3, 1, [(0, 0, 1)]))
    k = trivial_algebra(F2)
    assert not is_algebra_morphism(LinMap.row(F2, (1, 1, 1)), a, k)
    assert exhaustive_morphisms(a, k) == []
    with pytest.raises(InvalidStructure) as raised:
        algebra_morphisms(a, k)
    assert [f.axiom for f in raised.value.report.failures] == ["associativity"]


def test_grouplikes_check_the_coalgebra_and_not_its_dual(evaluated_axioms):
    # the coalgebra axioms are the dual's algebra axioms, so the search into
    # k checks no algebra axiom of its own
    c = dual_coalgebra(cyclic_group_hopf(GF(3), 3).algebra)
    assert grouplikes(c) == exhaustive_grouplikes(c) == [(1, 1, 1)]
    names = {name for name, _, _ in evaluated_axioms}
    assert "coassociativity" in names and "associativity" not in names


def test_grouplike_candidates_over_q_skip_counit_zero_and_duplicates(q_c2):
    dual = dual_coalgebra(q_c2.algebra)
    candidates = [(2, 2), (0, 5), (1, 0), (1, 1), (3, -3), (-1, 1)]
    assert grouplikes(dual, candidates=candidates) == [(1, 1), (1, -1)]
    # the oracle: scaled to counit 1, once each, tested entry by entry
    scaled = dict.fromkeys(tuple(Fraction(x, c[0]) for x in c) for c in candidates if c[0])
    assert [x for x in scaled if is_grouplike(dual, x)] == [(1, 1), (1, -1)]


def test_grouplikes_of_a_long_truncated_dual_fit_a_small_budget():
    # F2[y]/(y^20) is generated by y, so its one grouplike costs 2 candidates,
    # where the p^dim walk would need 2^20
    found = grouplikes(dual_coalgebra(truncated_algebra(F2, 20)), budget=2 ** 10)
    assert found == [(1, *[0] * 19)]


def test_morphisms_from_a_large_diagonal_algebra_raise_without_elimination(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    reduce = linalg._echelon
    # the batch echelon, patched wherever the name may be bound, so a call by
    # an imported name counts too; the word span grows one echelon instead
    for module in (linalg, structures):
        monkeypatch.setattr(module, "_echelon", counted, raising=False)
    # e_0, ..., e_88 are generators; e_89 is the unit minus them
    with pytest.raises(BudgetExceeded) as raised:
        algebra_morphisms(diagonal_algebra(F2, 90), trivial_algebra(F2))
    assert raised.value.needed == 2 ** 89
    assert calls == []


def test_morphisms_from_involution_to_base(inv_f2, k_f2):
    found = algebra_morphisms(inv_f2, k_f2)
    assert len(found) == 1
    assert found[0] == LinMap.from_rows(F2, [[1, 1]])  # g -> 1


def test_morphisms_from_base_are_forced(algebra_corpus):
    for name, b in algebra_corpus:
        if b.field.is_rational:
            continue
        found = algebra_morphisms(trivial_algebra(b.field), b)
        assert len(found) == 1, name
        assert found[0].col_at(0) == b.unit_vector()


def test_involution_morphisms_to_m2_match_brute_force(inv_f2, m2_f2):
    found = algebra_morphisms(inv_f2, m2_f2)
    # oracle: unit-preserving maps are determined by the image of g,
    # a matrix M with M^2 = I; brute force all 16
    ident = LinMap.identity(F2, 2)
    oracle = []
    for entries in itertools.product(range(2), repeat=4):
        m = LinMap.make(F2, 2, 2, entries)
        if compose(m, m) == ident:
            oracle.append(m)
    assert len(found) == len(oracle) == 4
    for f in found:
        assert is_algebra_morphism(f, inv_f2, m2_f2)


def test_morphism_budget_is_enforced(inv_f2, m2_f2):
    with pytest.raises(BudgetExceeded):
        algebra_morphisms(inv_f2, m2_f2, budget=3)


def test_dual_bialgebra_validates(bialgebra_corpus):
    for name, b in bialgebra_corpus:
        assert validate_bialgebra(dual_bialgebra(b)).ok, name


def test_sweedler_grouplike_counts_on_both_sides(sweedler4):
    # {1, g} in the algebra; two characters (g -> +-1, x -> 0) in the dual
    assert len(grouplikes(sweedler4.coalgebra)) == 2
    assert len(grouplikes(dual_coalgebra(sweedler4.algebra))) == 2
    assert len(algebra_morphisms(sweedler4.algebra, trivial_algebra(F3))) == 2


def test_involutions_over_f3_match_brute_force():
    a = cyclic_group_hopf(F3, 2).algebra
    m2 = matrix_algebra(trivial_algebra(F3), 2)
    found = algebra_morphisms(a, m2)
    ident = LinMap.identity(F3, 2)
    oracle = sum(1 for entries in itertools.product(range(3), repeat=4)
                 if compose(LinMap.make(F3, 2, 2, entries),
                            LinMap.make(F3, 2, 2, entries)) == ident)
    assert len(found) == oracle == 14


def _f2_3x3_product(m, n):
    return tuple(sum(m[3 * r + t] * n[3 * t + c] for t in range(3)) % 2
                 for r in range(3) for c in range(3))


def test_involutions_of_m3_over_dual_numbers_match_the_kernel_count(inv_f2):
    # g -> X + yY squares to 1 exactly when X^2 = 1 and XY + YX = 0, so there
    # are |ker(Y -> XY + YX)| = 2^dim ker morphisms for each involution X
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    cubes = list(itertools.product(range(2), repeat=9))
    involutions = [x for x in cubes if _f2_3x3_product(x, x) == ident]
    oracle = sum(1 for x in involutions for y in cubes
                 if _f2_3x3_product(x, y) == _f2_3x3_product(y, x))
    start = time.perf_counter()
    found = algebra_morphisms(inv_f2, matrix_algebra(dual_numbers(F2), 3))
    assert time.perf_counter() - start < 1
    assert len(found) == oracle == 1184


def test_involutions_of_m3_over_f3_match_brute_force():
    found = algebra_morphisms(cyclic_group_hopf(F3, 2).algebra,
                              matrix_algebra(trivial_algebra(F3), 3))
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    oracle = sum(1 for x in itertools.product(range(3), repeat=9)
                 if tuple(sum(x[3 * r + t] * x[3 * t + c] for t in range(3)) % 3
                          for r in range(3) for c in range(3)) == ident)
    assert len(found) == oracle == 236


@pytest.mark.parametrize("k", [F2, F3], ids=["F2", "F3"])
def test_conjugation_invariant_is_unchanged_by_conjugation(k):
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _ in range(20):
            mats = [LinMap.make(k, n, n, [rng.randrange(k.char) for _ in range(n * n)])
                    for _ in range(3)]
            g = LinMap.make(k, n, n, [rng.randrange(k.char) for _ in range(n * n)])
            if rank(g) < n:
                continue
            conjugated = [compose(compose(g, m), invert(g)) for m in mats]
            assert conjugation_invariant(conjugated) == conjugation_invariant(mats)
    # rank(m - c) for c = 0, 1, 2: a nilpotent and an involution of F_3^2
    assert conjugation_invariant([LinMap.make(F3, 2, 2, [0, 1, 0, 0]),
                                  LinMap.make(F3, 2, 2, [1, 0, 0, 2])]) == (1, 2, 2, 2, 1, 1)


def test_conjugation_orbits_are_seeded_from_the_smallest_key():
    items = {key: key for key in (5, 0, 4, 1, 3, 2)}
    orbits = conjugation_orbits(items, lambda v: (v % 3, v % 3 + 3))
    assert orbits == [frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]


def _generator_matrix(p, n, move):
    """The matrix of a move (i, j, c): 1 + c E_ij, or diag(c, 1, ..., 1) at i = j = 0."""
    i, j, c = move
    entries = [int(r == s) for r in range(n) for s in range(n)]
    entries[i * n + j] = c
    return LinMap.make(GF(p), n, n, entries)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_gl_generators_reach_the_whole_group_from_the_identity(p, n):
    gens = [_generator_matrix(p, n, move).entries for move in gl_generators(p, n)]
    identity = tuple(int(r == s) for r in range(n) for s in range(n))
    seen, stack = {identity}, [identity]
    while stack:
        m = stack.pop()
        for g in gens:
            gm = tuple(sum(g[r * n + t] * m[t * n + s] for t in range(n)) % p
                       for r in range(n) for s in range(n))
            if gm not in seen:
                seen.add(gm)
                stack.append(gm)
    assert len(seen) == gl_order(p, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_move_conjugates_every_block(p):
    rng = random.Random(p)
    for n in (1, 2, 3):
        for move in gl_generators(p, n):
            g = _generator_matrix(p, n, move)
            blocks = [LinMap.make(GF(p), n, n, [rng.randrange(p) for _ in range(n * n)])
                      for _ in range(3)]
            item = tuple(x for m in blocks for x in m.entries)
            assert _conjugated(item, n, p, move) == tuple(
                x for m in blocks for x in compose(compose(g, m), invert(g)).entries)


def test_conjugation_classes_list_indices_by_first_member():
    # the three 2 x 2 nilpotents of rank 1 over F_2, the identity and zero
    items = [(0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 1, 0)]
    assert conjugation_classes(F2, 2, items) == [[0, 2, 4], [1], [3]]
    with pytest.raises(PreconditionViolated):
        conjugation_classes(F2, 2, items[:4])
    with pytest.raises(UnsupportedField):
        conjugation_classes(QQ, 2, items)


def _graded_pins(a, b):
    """The coordinates f[q, t] of a map A -> B that join different degrees."""
    return frozenset(q * a.value.dim + t for q in range(b.value.dim)
                     for t in range(a.value.dim) if b.degrees[q] != a.degrees[t])


_SWEEDLER_F3 = sweedler_hopf(F3).algebra
_M2_F2 = matrix_algebra(trivial_algebra(F2), 2)
_LINE_F2 = Graded(graded_line_hopf(F2, 1).value.algebra, graded_line_hopf(F2, 1).space)
_GRADED = [(_LINE_F2, graded_dual_numbers(F2, 1)),
           (_LINE_F2, graded_dual_numbers(F2, 2)),
           (graded_dual_numbers(F2, 2), graded_dual_numbers(F2, 2))]


@pytest.mark.parametrize("a,b,pins", [
    (cyclic_group_hopf(F2, 3).algebra, _M2_F2, frozenset()),
    (_M2_F2, trivial_algebra(F2), frozenset()),
    (_SWEEDLER_F3, trivial_algebra(F3), frozenset()),
    # the g^2-coordinate of the image of g^2, which is not a generator
    (cyclic_group_hopf(F2, 3).algebra, cyclic_group_hopf(F2, 3).algebra, frozenset({2 * 3 + 2})),
    # the e00-coordinate of the image of the generator g, which the relation
    # g^2 . g = 1 reads next to g^2, a word of the same stage
    (cyclic_group_hopf(F2, 3).algebra, _M2_F2, frozenset({0 * 3 + 1})),
], ids=["F2C3-M2F2", "M2F2-F2", "sweedler-F3", "F2C3-F2C3-pinned", "F2C3-M2F2-pinned"])
def test_morphisms_match_the_exhaustive_oracle(a, b, pins):
    found = algebra_morphisms(a, b, zero_coords=pins)
    assert found == exhaustive_morphisms(a, b, pins)
    assert not pins or found != algebra_morphisms(a, b)


@pytest.mark.parametrize("a,b", _GRADED, ids=["line1-dualnum1", "line1-dualnum2", "dualnum2"])
def test_graded_morphisms_match_the_exhaustive_oracle(a, b):
    pins = _graded_pins(a, b)
    assert algebra_morphisms(a.value, b.value, zero_coords=pins) == \
        exhaustive_morphisms(a.value, b.value, pins)
    assert graded_algebra_morphisms(a, b) == exhaustive_morphisms(a.value, b.value, pins)


@pytest.mark.parametrize("a,b,needed,pins", [
    (cyclic_group_hopf(F3, 3).algebra, cyclic_group_hopf(F3, 3).algebra, 3 ** 3, None),
    (_M2_F2, trivial_algebra(F2), 2 ** 3, None),  # three generators e00, e01, e10
    (_SWEEDLER_F3, _SWEEDLER_F3, 3 ** 8, None),  # two generators g, x
    (cyclic_group_hopf(F2, 2).algebra, _M2_F2, 2 ** 4, None),
    # x of degree 1 may only go to y of degree 1
    (_GRADED[0][0].value, _GRADED[0][1].value, 2, _graded_pins(*_GRADED[0])),
], ids=["F3C3-F3C3", "M2F2-F2", "sweedler-sweedler", "F2C2-M2F2", "graded"])
def test_budget_bound_is_p_to_the_free_generator_coordinates(a, b, needed, pins):
    with pytest.raises(BudgetExceeded) as exc:
        algebra_morphisms(a, b, budget=needed - 1, zero_coords=pins)
    assert (exc.value.needed, exc.value.budget) == (needed, needed - 1)
    algebra_morphisms(a, b, budget=needed, zero_coords=pins)


def test_search_places_first_the_relation_with_fewest_unplaced_coordinates():
    search = structures._QuadraticSearch(F2, 6, 2 ** 6)
    square = search.schedule([(1, 1, 1)], True)  # a derived slot, reading slot 1
    search.schedule([(2, 3, 1), (4, 5, 1), (0, 0, 1)], False)  # reads 2, 3, 4, 5
    search.schedule([(square, 5, 1)], False)  # reads 1 through the derived slot, and 5
    search.schedule([(0, 4, 1), (0, 0, 1)], False)  # reads 4 only
    assert search.schedule([], False) is None
    # 4 alone decides the last relation; the second then has two unplaced
    # slots (1, 5) against the first's three (2, 3, 5), so 1 and 5 come next,
    # then 2 and 3; slot 6, which no relation reads, comes last
    assert search._order() == [4, 1, 5, 2, 3, 6]
    found = []
    search.run(lambda values: found.append(tuple(values[1:7])))
    brute = [v for v in itertools.product(range(2), repeat=6)
             if v[3] == 1 and v[0] * v[4] == 0 and (v[1] * v[2] + v[3] * v[4] + 1) % 2 == 0]
    assert sorted(found) == brute and found != brute


@pytest.mark.parametrize("a,b,n", [
    (involution_algebra(F2), dual_numbers(F2), 2),
    (involution_algebra(F2), trivial_algebra(F2), 3),
], ids=["F2C2-F2y-n2", "F2C2-F2-n3"])
def test_census_search_visits_out_of_row_major_order(search_visits, a, b, n):
    # the coordinates of g^2 = 1 are placed before the last row of g, so the
    # leaves come out of lexicographic order; sorted, they are the listing
    found = algebra_morphisms(a, matrix_algebra(b, n))
    assert search_visits != sorted(search_visits) and len(search_visits) == len(found)
    assert found == exhaustive_morphisms(a, matrix_algebra(b, n))


def _cli(command):
    def run(_):
        doc = Path(__file__).parent / "fixtures" / "sweedler4_f3.json"
        assert main([command, str(doc)]) == 0
    return run


@pytest.mark.parametrize("run", [find_antipode, find_opantipode,
                                 _cli("antipode"), _cli("opantipode"), _cli("fusion")],
                         ids=["find_antipode", "find_opantipode",
                              "cli-antipode", "cli-opantipode", "cli-fusion"])
def test_antipode_solvers_validate_the_bialgebra_once(monkeypatch, capsys, sweedler4, run):
    import sweedler.structures as structures

    calls = []
    original = structures.validate_bialgebra

    def counted(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(structures, "validate_bialgebra", counted)
    run(sweedler4.bialgebra)
    assert len(calls) == 1
