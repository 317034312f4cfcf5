import itertools
import json
from pathlib import Path

import pytest

from sweedler import tambara
from sweedler.cli import EXIT_INTERNAL, main
from sweedler.errors import BudgetExceeded
from sweedler.fields import GF
from sweedler.linalg import LinMap, compose
from sweedler.structures import Algebra, algebra_morphisms, matrix_algebra, trivial_algebra
from sweedler.measurings import matrix_morphism_from_measuring, measuring_from_matrix_morphism
from sweedler.tambara import (
    _module_classes,
    _stacked_entries,
    correspondence_check,
    module_intertwiners,
    module_to_matrix_morphism,
    tambara_modules,
    tambara_presentation,
)
from sweedler.zoo import corpus_algebras, cyclic_group_hopf, dual_numbers, involution_algebra

from _oracles import (
    algebra_product,
    all_pairs_intertwiners_matched,
    conjugation_invariant,
    conjugation_partition,
    diagonal_algebra,
    isomorphism_classes,
    reference_module_to_matrix_morphism,
    reference_presentation,
    walk_tambara_modules,
)

F2 = GF(2)
FIXTURES = Path(__file__).parent / "fixtures"


def test_presentation_of_the_motivating_example(inv_f2):
    # A = F2[g]/(g^2+1), B = F2[y]/(y^2): delta(y)^2 = delta(y^2) = 0 expands to
    # x1^2 + xg^2 = 0 and x1 xg + xg x1 = 0
    p = tambara_presentation(inv_f2, dual_numbers(F2), ["1", "g"], ["1", "y"])
    assert p.generators == ("x_{1,y}", "x_{g,y}")
    rels = {tuple(word for _, word in rel) for rel in p.relations}
    assert ((0, 0), (1, 1)) in rels
    assert ((0, 1), (1, 0)) in rels
    assert len(p.relations) == 2


def test_presentation_over_base_field_recovers_the_target():
    # a(k, B) = B: one generator per non-unit basis vector, relations = B's table
    b = cyclic_group_hopf(F2, 2).algebra
    p = tambara_presentation(trivial_algebra(F2), b, ["1"], ["1", "g"])
    assert p.generators == ("x_{1,g}",)
    # single relation  x_g^2 = 1  (written as 1 + x_g^2 = 0 over F2)
    assert len(p.relations) == 1
    assert p.relations[0] == ((F2.one(), ()), (F2.one(), (0, 0)))


def test_generator_count_after_unital_normalization(algebra_corpus):
    for name, a in algebra_corpus:
        for bname, b in algebra_corpus:
            if a.field != b.field or a.dim * b.dim > 16:
                continue
            p = tambara_presentation(a, b)
            assert len(p.generators) == a.dim * (b.dim - 1), (name, bname)


def _assert_reference_presentation(a, b):
    p = tambara_presentation(a, b)
    pairs, relations = reference_presentation(a, b)
    assert p.generators == tuple(f"x_{{a{i},b{j}}}" for i, j in pairs)
    assert p.relations == relations


@pytest.mark.parametrize("pair", [(name, bname) for name, a in corpus_algebras()
                                  for bname, b in corpus_algebras() if a.field == b.field],
                         ids="->".join)
def test_presentation_matches_the_polynomial_reference_on_the_corpus(pair):
    algebras = dict(corpus_algebras())
    _assert_reference_presentation(algebras[pair[0]], algebras[pair[1]])


def test_one_dimensional_modules_match_algebra_morphisms(inv_f2):
    b = dual_numbers(F2)
    p = tambara_presentation(inv_f2, b)
    modules = tambara_modules(p, 1)
    # oracle: morphisms B -> M_1(A) = A send y to a square-zero element
    squares_to_zero = [v for v in itertools.product(range(2), repeat=2)
                       if algebra_product(inv_f2, v, v) == (0, 0)]
    assert len(modules) == len(squares_to_zero) == 2
    assert len(algebra_morphisms(b, matrix_algebra(inv_f2, 1))) == 2


def test_module_enumeration_budget(inv_f2):
    p = tambara_presentation(inv_f2, dual_numbers(F2))
    with pytest.raises(BudgetExceeded) as exc:
        tambara_modules(p, 2, budget=5)
    # p^(n^2 generators), before any search
    assert exc.value.needed == 2 ** 8


def f3_idempotents():
    """F3 x F3 on its idempotents: the unit 1_B = e0 + e1 has two coordinates."""
    f3 = GF(3)
    return Algebra(mult=LinMap.from_rows(f3, [[1, 0, 0, 0], [0, 0, 0, 1]]),
                   unit=LinMap.column(f3, [1, 1]))


# every presentation of this module's parametrisations, by (source, target)
PRESENTATIONS = {
    "inv-dualnum": lambda: (involution_algebra(F2), dual_numbers(F2)),
    "k-dualnum": lambda: (trivial_algebra(F2), dual_numbers(F2)),
    "k-c2": lambda: (trivial_algebra(F2), cyclic_group_hopf(F2, 2).algebra),
    "f3-f3xf3": lambda: (trivial_algebra(GF(3)), f3_idempotents()),
    "f3c2-f3xf3": lambda: (cyclic_group_hopf(GF(3), 2).algebra, f3_idempotents()),
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_presentation_matches_the_polynomial_reference(name):
    # f3-f3xf3 and f3c2-f3xf3: the pivot form carries a constant and a second term
    _assert_reference_presentation(*PRESENTATIONS[name]())


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_identification_matches_the_dense_reference(name):
    a, b = PRESENTATIONS[name]()
    p = tambara_presentation(a, b)
    for n in (0, 1, 2):
        for mats in tambara_modules(p, n):
            assert (module_to_matrix_morphism(p, a, b, mats, n)
                    == reference_module_to_matrix_morphism(a, b, mats, n))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_module_search_matches_the_walk_oracle(name, n):
    p = tambara_presentation(*PRESENTATIONS[name]())
    assert tambara_modules(p, n) == walk_tambara_modules(p, n)


def test_module_search_is_scheduled_and_returns_lexicographic_order(search_visits, inv_f2):
    # the search finds the 28 modules in the order of its schedule; the
    # list is sorted by the stacked generator matrices, row by row
    p = tambara_presentation(inv_f2, dual_numbers(F2))
    stacked = [_stacked_entries(mats) for mats in tambara_modules(p, 2)]
    assert len(stacked) == 28
    assert stacked == sorted(search_visits) != search_visits


def test_diagonal_modules_in_one_search():
    # 12 generators: the walk tries 2^12 candidates, the search prunes at the
    # first relation coordinate that fails
    a, b = diagonal_algebra(F2, 3), diagonal_algebra(F2, 5)
    modules = tambara_modules(tambara_presentation(a, b), 1)
    assert len(modules) == len(algebra_morphisms(b, matrix_algebra(a, 1))) == 125


def test_module_orbits_partition(inv_f2):
    p = tambara_presentation(inv_f2, dual_numbers(F2))
    modules = tambara_modules(p, 2)
    orbits = _module_classes(p, modules, 2)
    assert sum(len(members) for members in orbits) == len(modules)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_correspondence_on_the_motivating_example(inv_f2, n):
    report = correspondence_check(inv_f2, dual_numbers(F2), n)
    assert report.ok
    assert report.module_count == report.morphism_count
    assert report.module_orbit_sizes == report.morphism_orbit_sizes


def test_correspondence_reduces_to_identity_for_base_source(k_f2):
    b = dual_numbers(F2)
    report = correspondence_check(k_f2, b, 2)
    assert report.ok
    # Alg(B, M_2(F2)): y -> nilpotent square-zero matrix; count them directly
    ident = LinMap.identity(F2, 2)
    zero = LinMap.zero(F2, 2, 2)
    count = sum(1 for e in itertools.product(range(2), repeat=4)
                if compose(LinMap.make(F2, 2, 2, e), LinMap.make(F2, 2, 2, e)) == zero)
    assert report.module_count == count


def test_module_to_matrix_morphism_is_the_identification(inv_f2):
    # rho(beta_j) = sum_i a_i (x) m(x_{i,j}) for every non-pivot beta_j (here y)
    b = dual_numbers(F2)
    p = tambara_presentation(inv_f2, b)
    modules = tambara_modules(p, 2)
    for mats in modules:
        rho = module_to_matrix_morphism(p, inv_f2, b, mats, 2)
        for i in range(2):
            block = tuple(rho.entries[((r * 2 + s) * 2 + i) * 2 + 1]
                          for r in range(2) for s in range(2))
            assert block == mats[i].entries
        # and it round-trips through the measuring layout
        mu = measuring_from_matrix_morphism(rho, b, inv_f2, 2)
        assert matrix_morphism_from_measuring(mu) == rho


def test_correspondence_converts_each_orbit_representative_once(monkeypatch, inv_f2):
    import sweedler.measurings as measurings

    calls = []
    original = measurings.measuring_from_matrix_morphism

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(measurings, "measuring_from_matrix_morphism", counted)
    report = correspondence_check(inv_f2, dual_numbers(F2), 2)
    assert report.ok and report.module_count == 28
    assert len(calls) == len(report.module_orbit_sizes) == 10


def test_correspondence_solves_hom_spaces_on_representative_pairs_only(monkeypatch, inv_f2):
    # 10 module orbits give 10 x 10 ordered pairs on each side, where all
    # pairs of the 28 modules were 784
    import sweedler.measurings as measurings

    counts = {"modules": 0, "measurings": 0}

    def counted(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(tambara, "module_intertwiners",
                        counted("modules", tambara.module_intertwiners))
    monkeypatch.setattr(measurings, "intertwiners", counted("measurings", measurings.intertwiners))
    report = correspondence_check(inv_f2, dual_numbers(F2), 2)
    assert report.ok and len(report.module_orbit_sizes) == 10
    assert counts == {"modules": 100, "measurings": 100}


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_correspondence_matches_the_all_pairs_oracle(name, n):
    a, b = PRESENTATIONS[name]()
    assert correspondence_check(a, b, n).intertwiners_matched is \
        all_pairs_intertwiners_matched(a, b, n) is True


@pytest.mark.parametrize("with_representative", [True, False],
                         ids=["with-representative", "without"])
def test_a_translation_that_swaps_two_orbit_members_fails_only_the_intertwiners(
        monkeypatch, inv_f2, with_representative):
    # two members of one orbit trade their morphisms: the translation stays a
    # bijection onto the morphisms that maps orbits onto orbits, but no longer
    # commutes with conjugation (on an orbit of three or more, a swap fixes a
    # member, and a GL_n-map of an orbit that fixes a member is the
    # identity); without the representative, every representative pair still
    # matches and only equivariance can tell
    b = dual_numbers(F2)
    p = tambara_presentation(inv_f2, b)
    orbit = next(members for members in _module_classes(p, tambara_modules(p, 2), 2)
                 if len(members) >= 3)
    x, y = orbit[:2] if with_representative else orbit[1:3]
    swapped = {_stacked_entries(x): y, _stacked_entries(y): x}
    original = tambara.module_to_matrix_morphism

    def swapping(p, a, b, mats, n):
        return original(p, a, b, swapped.get(_stacked_entries(mats), mats), n)

    monkeypatch.setattr(tambara, "module_to_matrix_morphism", swapping)
    report = correspondence_check(inv_f2, b, 2)
    assert report.matched and report.orbits_matched
    assert report.intertwiners_matched is False
    assert all_pairs_intertwiners_matched(inv_f2, b, 2) is False


def test_intertwiner_systems_pass_no_row_that_cancels(monkeypatch, inv_f2):
    # both sides solve a Hom system for each of the 10 x 10 ordered pairs
    # of orbit representatives; a summed row that cancels to nothing is
    # dropped before elimination, which sees only equations
    import sweedler.linalg as linalg

    original = linalg._echelon
    counts = {"rows": 0, "empty": 0}

    def counted(k, rows, ncols):
        rows = list(rows)
        counts["rows"] += len(rows)
        counts["empty"] += sum(not row for row in rows)
        return original(k, rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    report = correspondence_check(inv_f2, dual_numbers(F2), 2)
    assert report.ok and report.module_count == 28
    assert counts["rows"] > 0 and counts["empty"] == 0


def test_a_wrong_intertwiner_basis_fails_the_check(monkeypatch, capsys, inv_f2):
    import sweedler.measurings as measurings

    original = measurings.intertwiners
    pairs = []

    def wrong_for_the_first_pair(m1, m2):
        pairs.append((m1, m2))
        basis = original(m1, m2)
        # a measuring against itself: the identity is in the basis, so it is not empty
        return basis[:-1] if len(pairs) == 1 else basis

    monkeypatch.setattr(measurings, "intertwiners", wrong_for_the_first_pair)
    report = correspondence_check(inv_f2, dual_numbers(F2), 1)
    assert report.matched and report.orbits_matched
    assert report.intertwiners_matched is False and report.ok is False

    pairs.clear()
    code = main(["tambara-check", str(FIXTURES / "f2_c2.json"), str(FIXTURES / "f2_dualnum.json"),
                 "--n", "1"])
    assert code == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().out) == {
        "command": "tambara-check", "status": "error", "error": "AssertionError",
        "message": "internal error: the canonical identification failed"}


def test_module_orbits_match_the_conjugation_oracle(inv_f2):
    p = tambara_presentation(inv_f2, dual_numbers(F2))
    gens = len(p.generators)
    modules = tambara_modules(p, 2)
    stacked = [LinMap(F2, gens * 4, 1, tuple(x for m in mats for x in m.entries))
               for mats in modules]
    oracle = sorted((min(orbit), len(orbit)) for orbit in conjugation_partition(stacked, 2, gens, 1))
    found = [(tuple(x for m in members[0] for x in m.entries), len(members))
             for members in _module_classes(p, modules, 2)]
    assert found == oracle
    assert len(oracle) > 1


@pytest.mark.parametrize("a, n", [(trivial_algebra(GF(3)), 1), (trivial_algebra(GF(3)), 2),
                                  (cyclic_group_hopf(GF(3), 2).algebra, 1)])
def test_correspondence_when_the_unit_has_two_coordinates(a, n):
    # eliminating the pivot coordinate of 1_B = e0 + e1 brings in the other
    # one with its sign
    report = correspondence_check(a, f3_idempotents(), n)
    assert report.ok and report.module_count == report.morphism_count > 1


@pytest.mark.parametrize("source,target,n", [
    ("inv", "dualnum", 0), ("inv", "dualnum", 1), ("inv", "dualnum", 2),
    ("k", "dualnum", 2), ("k", "c2", 2)])
def test_module_classes_match_the_hom_walk_oracle(inv_f2, source, target, n):
    algebras = {"inv": inv_f2, "k": trivial_algebra(F2), "dualnum": dual_numbers(F2),
                "c2": cyclic_group_hopf(F2, 2).algebra}
    p = tambara_presentation(algebras[source], algebras[target])
    modules = tambara_modules(p, n)
    oracle = isomorphism_classes(sorted(modules, key=_stacked_entries),
                                 lambda m1, m2: module_intertwiners(m1, m2, F2, n),
                                 conjugation_invariant)
    assert _module_classes(p, modules, n) == oracle
