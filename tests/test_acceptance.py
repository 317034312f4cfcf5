"""The acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected count below is either trivially forced or derived by an
independent oracle inside this file (or _oracles.py); nothing is copied from
the implementation under test.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

from _oracles import (
    block_algebra_dim,
    classifying_iso_to_dual,
    convolution_inverse,
    f2_2x2_invertible,
    f2_2x2_product,
    orbit_size_by_stabiliser,
    pairing_rank,
)

from sweedler.fields import GF, QQ
from sweedler.graded import (
    Graded,
    GradedSpace,
    degree0_part,
    graded_algebra_morphisms,
    include_degree0,
    is_connected,
    koszul_swap,
)
from sweedler.linalg import LinMap, compose, invert, kernel_basis, kron, rank
from sweedler.measurings import (
    Measuring,
    compose_measuring,
    enumerate_measurings,
    intertwiners,
    matrix_morphism_from_measuring,
    measuring_from_matrix_morphism,
    regular_measuring,
    tensor_measuring_bialgebra,
    unit_measuring,
    validate_measuring,
)
from sweedler.reconstruction import (
    comodule_of_generator,
    dual_hopf_check,
    induced_measuring,
    reconstruct,
)
from sweedler.structures import (
    algebra_morphisms,
    coopposite,
    dual_coalgebra,
    find_antipode,
    fusion_operators,
    grouplikes,
    is_cocommutative,
    is_coalgebra_morphism,
    is_commutative,
    matrix_algebra,
    opposite,
    trivial_algebra,
)
from sweedler.tambara import correspondence_check
from sweedler.zoo import (
    corpus_algebras,
    corpus_bialgebras,
    corpus_hopf_algebras,
    cyclic_group_hopf,
    dual_numbers,
    graded_dual_numbers,
    graded_line_hopf,
    involution_algebra,
    sweedler_hopf,
    trivial_hopf,
)

F2 = GF(2)
F3 = GF(3)
SEED = 20260809
CASES = 200


def _run(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# -- 1: finite dual from the regular module ------------------------------------------


def test_criterion_01_finite_dual_oracle():
    def body():
        cases = [
            (involution_algebra(F2), 2),
            (matrix_algebra(trivial_algebra(F2), 2), 4),
            (cyclic_group_hopf(QQ, 2).algebra, 2),
        ]
        for a, expected_dim in cases:
            g = reconstruct([regular_measuring(a)])
            assert g.d.dim == expected_dim
            phi = classifying_iso_to_dual(g)
            assert is_coalgebra_morphism(phi, g.d, dual_coalgebra(a))
            invert(phi)  # explicit isomorphism witness

    _run(1, "finite dual from the regular module", body)


# -- 2: measuring counts and orbits ---------------------------------------------------


def test_criterion_02_measuring_counts():
    def body():
        report = enumerate_measurings(involution_algebra(F2), trivial_algebra(F2), 2)
        # oracle: 2-dim measurings = matrices M over F2 with M*M = I, by
        # inline arithmetic; orbits = conjugation classes under invertible P
        identity = (1, 0, 0, 1)
        involutions = [m for m in itertools.product(range(2), repeat=4)
                       if f2_2x2_product(m, m) == identity]
        units = [p for p in itertools.product(range(2), repeat=4)
                 if f2_2x2_invertible(p)]
        inverses = {p: next(q for q in units if f2_2x2_product(p, q) == identity)
                    for p in units}
        orbits = set()
        for m in involutions:
            orbit = frozenset(f2_2x2_product(f2_2x2_product(p, m), inverses[p])
                              for p in units)
            orbits.add(orbit)
        assert report.total_count == len(involutions) == 4
        assert len(report.orbits) == len(orbits) == 2

    _run(2, "measuring count and conjugation orbits", body)


# -- 3: antipodes match fusion invertibility -------------------------------------------


def test_criterion_03_fusion_antipode_equivalence():
    def body():
        disagreements = 0
        for name, b in corpus_bialgebras():
            ops = fusion_operators(b)
            # existence from the linear-system oracle, not the fusion read
            has_antipode = convolution_inverse(b, twisted=False) is not None
            has_opantipode = convolution_inverse(b, twisted=True) is not None
            for op in (ops.h, ops.h_prime):
                if _invertible(op) != has_antipode:
                    disagreements += 1
            for op in (ops.h_bar, ops.h_bar_prime):
                if _invertible(op) != has_opantipode:
                    disagreements += 1
        assert disagreements == 0

    _run(3, "antipode <=> fusion operator invertibility", body)


def _invertible(f):
    try:
        invert(f)
        return True
    except Exception:
        return False


# -- 4: dual Hopf algebras --------------------------------------------------------------


def test_criterion_04_dual_hopf():
    def body():
        for name, h in corpus_hopf_algebras():
            dual = dual_hopf_check(h)
            assert dual.antipode == h.antipode.transpose(), name
            solved = find_antipode(dual.bialgebra)
            assert solved is not None and solved.antipode == dual.antipode, name
        # the non-cocommutative case is genuinely exercised
        assert not is_cocommutative(sweedler_hopf(F3).coalgebra)

    _run(4, "dual Hopf structure with transposed antipode", body)


# -- 5: opposite/co-opposite compatibility ------------------------------------------------


def test_criterion_05_op_cop_identities():
    def body():
        for name, a in corpus_algebras():
            assert coopposite(dual_coalgebra(a)) == dual_coalgebra(opposite(a)), name
            if is_commutative(a):
                assert is_cocommutative(dual_coalgebra(a)), name

    _run(5, "cop-of-dual equals dual-of-op; commutative duals cocommutative", body)


# -- 6: terminal comonoid ------------------------------------------------------------------


def test_criterion_06_terminal_comonoid():
    def body():
        for name, b in corpus_algebras():
            hk = trivial_hopf(b.field)
            g = reconstruct([unit_measuring(hk.bialgebra, b)])
            assert g.d.dim == 1, name
            if b.field.is_rational:
                found = grouplikes(g.d, candidates=[(1,)])
            else:
                found = grouplikes(g.d)
            assert len(found) == 1, name
            # |Alg(k, B)| = 1: the unit condition pins every coordinate
            unit_constraint = LinMap.identity(b.field, b.dim)
            assert kernel_basis(unit_constraint) == []
            if not b.field.is_rational:
                assert len(algebra_morphisms(trivial_algebra(b.field), b)) == 1, name

    _run(6, "terminal comonoid for A = k", body)


# -- 7: graded connectedness counterexample ---------------------------------------------------


def test_criterion_07_connectedness_counterexample():
    def body():
        a = Graded(dual_numbers(F2), GradedSpace(F2, (0, 1)))
        b1 = graded_dual_numbers(F2, 1)
        b2 = graded_dual_numbers(F2, 2)
        assert len(graded_algebra_morphisms(a, b1)) == 2
        assert len(graded_algebra_morphisms(a, b2)) == 1
        assert is_connected(a.space)
        assert is_connected(b1.space) and is_connected(b2.space)

    _run(7, "graded connectedness counterexample counts", body)


# -- 8: degree-zero adjunction at grouplike level ------------------------------------------------


def test_criterion_08_degree_zero_adjunction():
    def body():
        graded_sources = {
            F2: [Graded(dual_numbers(F2), GradedSpace(F2, (0, 1))),
                 include_degree0(involution_algebra(F2)),
                 Graded(graded_line_hopf(F2, 1).value.algebra, GradedSpace(F2, (0, 1))),
                 graded_dual_numbers(F2, 2)],
            F3: [include_degree0(cyclic_group_hopf(F3, 2).algebra),
                 Graded(dual_numbers(F3), GradedSpace(F3, (0, 1)))],
        }
        targets = {
            F2: [trivial_algebra(F2), involution_algebra(F2), dual_numbers(F2),
                 matrix_algebra(trivial_algebra(F2), 2),
                 cyclic_group_hopf(F2, 3).algebra],
            F3: [trivial_algebra(F3), cyclic_group_hopf(F3, 2).algebra,
                 sweedler_hopf(F3).algebra],
        }
        pairs = 0
        for field in (F2, F3):
            for a in graded_sources[field]:
                for b in targets[field]:
                    lhs = len(graded_algebra_morphisms(a, include_degree0(b)))
                    rhs = len(algebra_morphisms(degree0_part(a), b))
                    assert lhs == rhs, (a.degrees, b.dim)
                    pairs += 1
        assert pairs == 26

    _run(8, "degree-zero adjunction counts", body)


# -- 9: coendomorphism algebra modules ---------------------------------------------------------


def test_criterion_09_tambara_module_correspondence():
    def body():
        a = involution_algebra(F2)
        b = dual_numbers(F2)
        for n in (1, 2):
            report = correspondence_check(a, b, n)
            assert report.matched
            assert report.module_count == report.morphism_count
            assert report.module_orbit_sizes == report.morphism_orbit_sizes
            assert report.orbits_matched and report.intertwiners_matched
            independent = len(algebra_morphisms(b, matrix_algebra(a, n)))
            assert report.module_count == independent

    _run(9, "coendomorphism algebra modules = matrix morphisms", body)


# -- 10: seeded property suites ----------------------------------------------------------------


def test_criterion_10a_tensor_and_compose_always_validate():
    def body():
        rng = random.Random(SEED)
        h2 = cyclic_group_hopf(F2, 2)
        a = h2.algebra
        k = trivial_algebra(F2)
        pool = [measuring_from_matrix_morphism(rho, a, k, n)
                for n in (1, 2)
                for rho in algebra_morphisms(a, matrix_algebra(k, n))]
        hq = cyclic_group_hopf(QQ, 2)
        kq = trivial_algebra(QQ)
        qpool = [measuring_from_matrix_morphism(LinMap.from_rows(QQ, [c]),
                                                hq.algebra, kq, 1)
                 for c in ([1, 1], [1, -1])]
        endos = [Measuring(a, a, 1, r) for r in algebra_morphisms(a, a)]
        for _ in range(CASES):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            assert validate_measuring(tensor_measuring_bialgebra(m1, m2, h2.bialgebra)).ok
            q1, q2 = rng.choice(qpool), rng.choice(qpool)
            assert validate_measuring(
                tensor_measuring_bialgebra(q1, q2, hq.bialgebra)).ok
            e, m = rng.choice(endos), rng.choice(pool)
            assert validate_measuring(compose_measuring(e, m)).ok

    _run(10, "property: tensor/compose outputs validate (200 seeded cases)", body)


def test_criterion_10b_compose_associativity():
    def body():
        rng = random.Random(SEED + 1)
        a = involution_algebra(F2)
        k = trivial_algebra(F2)
        endos = [Measuring(a, a, 1, r) for r in algebra_morphisms(a, a)]
        modules = [measuring_from_matrix_morphism(rho, a, k, n)
                   for n in (1, 2)
                   for rho in algebra_morphisms(a, matrix_algebra(k, n))]
        for _ in range(CASES):
            m1, m2, m3 = rng.choice(endos), rng.choice(endos), rng.choice(modules)
            lhs = compose_measuring(compose_measuring(m1, m2), m3)
            rhs = compose_measuring(m1, compose_measuring(m2, m3))
            assert lhs.psi == rhs.psi

    _run(10, "property: compose_measuring associative (200 seeded cases)", body)


def test_criterion_10c_kron_functoriality():
    def body():
        rng = random.Random(SEED + 2)
        fields = [QQ, F2, F3, GF(5)]
        for _ in range(CASES):
            field = rng.choice(fields)
            d1, d2, d3 = (rng.randint(1, 3) for _ in range(3))
            e1, e2, e3 = (rng.randint(1, 3) for _ in range(3))
            f = _random_map(rng, field, d1, d2)
            fp = _random_map(rng, field, d2, d3)
            g = _random_map(rng, field, e1, e2)
            gp = _random_map(rng, field, e2, e3)
            assert kron(compose(f, fp), compose(g, gp)) == \
                compose(kron(f, g), kron(fp, gp))

    _run(10, "property: kron functoriality (200 seeded cases)", body)


def test_criterion_10d_koszul_signs():
    def body():
        rng = random.Random(SEED + 3)
        for _ in range(CASES):
            degs_v = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            degs_w = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            for field, expected_odd in ((QQ, Fraction(-1)), (F2, 1)):
                v = GradedSpace(field, degs_v)
                w = GradedSpace(field, degs_w)
                s = koszul_swap(v, w)
                for i, di in enumerate(degs_v):
                    for j, dj in enumerate(degs_w):
                        entry = s.entries[(j * len(degs_v) + i) * s.dom
                                          + (i * len(degs_w) + j)]
                        if di % 2 and dj % 2:
                            assert entry == expected_odd
                        else:
                            assert entry == field.one()

    _run(10, "property: Koszul signs over Q and F2 (200 seeded cases)", body)


def test_criterion_10e_roundtrip_identity():
    def body():
        rng = random.Random(SEED + 4)
        a = involution_algebra(F2)
        k = trivial_algebra(F2)
        cases = [(a, k, n, rho) for n in (1, 2)
                 for rho in algebra_morphisms(a, matrix_algebra(k, n))]
        dn = dual_numbers(F2)
        cases += [(a, dn, 1, rho) for rho in algebra_morphisms(a, matrix_algebra(dn, 1))]
        for _ in range(CASES):
            src, tgt, n, rho = rng.choice(cases)
            m = measuring_from_matrix_morphism(rho, src, tgt, n)
            back = matrix_morphism_from_measuring(m)
            assert back == rho
            assert measuring_from_matrix_morphism(back, src, tgt, n) == m

    _run(10, "property: measuring/matrix-morphism roundtrip (200 seeded cases)", body)


# -- 11: universal factorization ----------------------------------------------------------------


def test_criterion_11_universal_factorization():
    def body():
        stages = []
        stages.append(reconstruct([regular_measuring(involution_algebra(F2))]))
        m2 = matrix_algebra(trivial_algebra(F2), 2)
        std = measuring_from_matrix_morphism(LinMap.identity(F2, 4), m2,
                                             trivial_algebra(F2), 2)
        stages.append(reconstruct([std]))
        stages.append(reconstruct([regular_measuring(cyclic_group_hopf(QQ, 2).algebra)]))
        a = involution_algebra(F2)
        k = trivial_algebra(F2)
        family = [measuring_from_matrix_morphism(rho, a, k, n)
                  for n in (1, 2)
                  for rho in algebra_morphisms(a, matrix_algebra(k, n))]
        stages.append(reconstruct(family))
        for name, b in corpus_algebras():
            hk = trivial_hopf(b.field)
            stages.append(reconstruct([unit_measuring(hk.bialgebra, b)]))
        checked = 0
        for g in stages:
            for idx, m in enumerate(g.generators):
                delta = comodule_of_generator(g, idx)
                assert induced_measuring(g, delta) == m.psi
                checked += 1
        assert checked == 17  # 3 regular/standard stages + 5-member family + 9 units

    _run(11, "universal factorization through the pairing", body)


# -- 12: stages are monotone in their generators and separated by the pairing ---------


def _restricted_rows(g, count):
    """The projection rows of a stage on the coordinates of its first
    ``count`` generators."""
    return [[v for p in g.projections[:count] for v in p.row_at(r)] for r in range(g.d.dim)]


def test_criterion_12_stages_are_monotone_and_separated():
    def body():
        # F2[C_2] -> F2[y]/(y^2): the 12 orbit representatives with n <= 2 and
        # the 28 with n = 3
        a, b = involution_algebra(F2), dual_numbers(F2)
        reps = [rep for n in (1, 2) for rep, _ in enumerate_measurings(a, b, n).orbits]
        threes = [rep for rep, _ in enumerate_measurings(a, b, 3).orbits]
        assert (len(reps), len(threes)) == (12, 28)
        small = reconstruct(reps)
        assert small.d.dim == block_algebra_dim(reps) == 8
        # monotone: the rows of E_T on the coordinates of S span E_S, so E_T
        # maps onto E_S and D_S injects into D_T (at the coend, 4 of the 28
        # additions lowered the dimension from 10 to 9)
        rows = _restricted_rows(small, len(reps))
        for m in threes:
            restricted = _restricted_rows(reconstruct(reps + [m]), len(reps))
            assert rank(LinMap.from_rows(F2, restricted)) == small.d.dim
            assert rank(LinMap.from_rows(F2, restricted + rows)) == small.d.dim
        # separated: the counit and the coordinates of the iterated pairings
        # beta^(n)(e_t1 (x) ... (x) e_tn (x) c) in B^(x)n have rank dim D
        for g in (small, reconstruct(reps + threes)):
            assert pairing_rank(g) == g.d.dim
        # the coend over every intertwiner is not separated
        everything = [(i, j, iw.f) for i, mi in enumerate(reps) for j, mj in enumerate(reps)
                      for iw in intertwiners(mi, mj)]
        coend = reconstruct(reps, morphisms=everything)
        assert (pairing_rank(coend), coend.d.dim) == (8, 10)

    _run(12, "stages are monotone in their generators and separated by the pairing", body)


# -- 16: orbit sizes from stabilisers ---------------------------------------------------


def test_criterion_16_orbit_sizes_from_stabilisers():
    def body():
        # the rows of scripts/measuring_census.py at n <= 3: every orbit has
        # |GL_n(F_p)| / |Aut(rep)| members, Aut(rep) the units of End(rep)
        rows = [(involution_algebra(F2), trivial_algebra(F2), (1, 2, 3)),
                (cyclic_group_hopf(F2, 3).algebra, trivial_algebra(F2), (1, 2, 3)),
                (cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), (1, 2, 3)),
                (involution_algebra(F2), dual_numbers(F2), (1, 2, 3)),
                (matrix_algebra(trivial_algebra(F2), 2), trivial_algebra(F2), (1, 2))]
        orbits = 0
        for a, b, dims in rows:
            for n in dims:
                report = enumerate_measurings(a, b, n)
                sizes = [size for _, size in report.orbits]
                assert sizes == [orbit_size_by_stabiliser(rep) for rep, _ in report.orbits]
                assert sum(sizes) == report.total_count
                orbits += len(sizes)
        assert orbits == 1 + 2 + 2 + 1 + 2 + 2 + 2 + 3 + 4 + 2 + 10 + 28 + 0 + 1

    _run(16, "orbit sizes equal |GL_n| / |Aut(rep)|", body)


def _random_map(rng, field, cod, dom):
    if field.is_rational:
        entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(cod * dom)]
    else:
        entries = [rng.randrange(field.char) for _ in range(cod * dom)]
    return LinMap.make(field, cod, dom, entries)
