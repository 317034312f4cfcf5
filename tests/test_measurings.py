import itertools
import random
import sys

import pytest

from sweedler.errors import (
    IncompatibleMeasurings,
    NotAMorphism,
    NotCommutative,
    PreconditionViolated,
)
from sweedler.fields import GF, QQ
from sweedler.linalg import LinMap, compose, invert, kron
from sweedler.measurings import (
    Measuring,
    compose_measuring,
    conjugate_measuring,
    enumerate_measurings,
    identity_measuring,
    intertwiners,
    matrix_morphism_from_measuring,
    measuring_from_matrix_morphism,
    regular_measuring,
    restrict_measuring,
    corestrict_measuring,
    tensor_measuring_bialgebra,
    tensor_measuring_endo,
    unit_measuring,
    validate_measuring,
)
from sweedler.structures import (
    algebra_morphisms,
    conjugation_classes,
    general_linear_group,
    matrix_algebra,
    trivial_algebra,
)
from sweedler.zoo import cyclic_group_hopf, dual_numbers, involution_algebra, sweedler_hopf

from _oracles import (
    conjugation_orbits,
    conjugation_partition,
    dense_permute,
    exhaustive_morphisms,
    gl_conjugate,
    gl_order,
    hom_walk_morphism_classes,
    is_simple,
    isomorphism_classes,
)

F2 = GF(2)
F3 = GF(3)

# the (A, B, n) of scripts/measuring_census.py, up to n = 3 for F3[C_2] -> F3
CENSUS = [pytest.param(a, b, n, id=f"{name}-n{n}") for name, a, b, dims in [
    ("F2C2-F2", involution_algebra(F2), trivial_algebra(F2), (1, 2)),
    ("F2C3-F2", cyclic_group_hopf(F2, 3).algebra, trivial_algebra(F2), (1, 2)),
    ("F3C2-F3", cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), (1, 2, 3)),
    ("F2C2-F2y", involution_algebra(F2), dual_numbers(F2), (1, 2)),
    ("M2F2-F2", matrix_algebra(trivial_algebra(F2), 2), trivial_algebra(F2), (1, 2)),
] for n in dims]


# -- validation ----------------------------------------------------------------


def test_regular_measuring_is_valid(inv_f2):
    assert validate_measuring(regular_measuring(inv_f2)).ok


def test_involution_action_is_valid(inv_f2, k_f2):
    # the morphism g -> [[0,1],[1,0]] in M_2(F2); M^2 = I makes it a measuring
    images = {0: LinMap.identity(F2, 2), 1: LinMap.from_rows(F2, [[0, 1], [1, 0]])}
    entries = []
    for cell in range(4):
        for t in range(2):
            entries.append(images[t].entries[cell])
    rho = LinMap(F2, 4, 2, tuple(entries))
    m = measuring_from_matrix_morphism(rho, inv_f2, k_f2, 2)
    assert validate_measuring(m).ok


def test_zero_psi_fails_the_unit_diagram(inv_f2, k_f2):
    m = Measuring(inv_f2, k_f2, 2, LinMap.zero(F2, 2, 4))
    report = validate_measuring(m)
    assert not report.ok
    assert any(f.axiom == "measuring unit" for f in report.failures)


# -- the matrix-morphism bijection ----------------------------------------------


def test_roundtrip_on_all_enumerated_measurings(inv_f2, k_f2):
    c2_f3 = cyclic_group_hopf(F3, 2).algebra
    cases = [(inv_f2, k_f2, 1), (inv_f2, k_f2, 2), (inv_f2, dual_numbers(F2), 2),
             (dual_numbers(F2), inv_f2, 2), (c2_f3, trivial_algebra(F3), 2)]
    for a, b, n in cases:
        for rho in algebra_morphisms(a, matrix_algebra(b, n)):
            m = measuring_from_matrix_morphism(rho, a, b, n)
            assert matrix_morphism_from_measuring(m) == rho
            again = measuring_from_matrix_morphism(matrix_morphism_from_measuring(m), a, b, n)
            assert again == m


def test_unpacking_matches_direct_indexing(inv_f2, k_f2):
    unipotent = LinMap.from_rows(F2, [[1, 1], [0, 1]])
    images = {0: LinMap.identity(F2, 2), 1: unipotent}
    entries = []
    for cell in range(4):
        for t in range(2):
            entries.append(images[t].entries[cell])
    rho = LinMap(F2, 4, 2, tuple(entries))
    m = measuring_from_matrix_morphism(rho, inv_f2, k_f2, 2)
    # psi(a_t (x) x_j) = sum_i x_i (x) rho(a_t)_ij with B = k
    for t in range(2):
        for j in range(2):
            col = m.psi.col_at(t * 2 + j)
            assert col == tuple(images[t].entries[i * 2 + j] for i in range(2))


def test_empty_measuring(inv_f2, k_f2):
    m = measuring_from_matrix_morphism(LinMap.zero(F2, 0, 2), inv_f2, k_f2, 0)
    assert m.xdim == 0 and validate_measuring(m).ok


def images_to_rho(images):
    """The linear map F2[C_2] -> M_2(F2) sending 1 and g to the two matrices."""
    return LinMap(F2, 4, 2, tuple(m.entries[cell] for cell in range(4) for m in images))


@pytest.mark.parametrize("rho, n", [
    # g -> M with M^2 != 1
    pytest.param(images_to_rho([LinMap.identity(F2, 2), LinMap.from_rows(F2, [[1, 1], [1, 0]])]),
                 2, id="not-multiplicative"),
    pytest.param(LinMap.zero(F2, 4, 2), 2, id="not-unital"),
    pytest.param(LinMap.zero(F2, 3, 2), 2, id="wrong-shape"),
    pytest.param(LinMap.zero(F2, 1, 2), 0, id="wrong-shape-at-n0"),
])
def test_checked_conversion_refuses_what_is_not_a_morphism(inv_f2, k_f2, rho, n):
    with pytest.raises(NotAMorphism):
        measuring_from_matrix_morphism(rho, inv_f2, k_f2, n)


def test_checked_conversion_builds_no_matrix_algebra(monkeypatch, inv_f2, k_f2):
    import sweedler.measurings as measurings

    def refuse(*args):
        raise AssertionError("M_n(B) built")

    monkeypatch.setattr(measurings, "matrix_algebra", refuse)
    swap = LinMap.from_rows(F2, [[0, 1], [1, 0]])
    m = measuring_from_matrix_morphism(images_to_rho([LinMap.identity(F2, 2), swap]),
                                       inv_f2, k_f2, 2)
    assert validate_measuring(m).ok


# -- enumeration and orbits -------------------------------------------------------


def test_enumerate_dimension_one(inv_f2, k_f2):
    report = enumerate_measurings(inv_f2, k_f2, 1)
    assert report.total_count == 1 and len(report.orbits) == 1


def brute_force_involutions():
    ident = LinMap.identity(F2, 2)
    return [LinMap.make(F2, 2, 2, e) for e in itertools.product(range(2), repeat=4)
            if compose(LinMap.make(F2, 2, 2, e), LinMap.make(F2, 2, 2, e)) == ident]


def test_enumerate_dimension_two_matches_brute_force(inv_f2, k_f2):
    report = enumerate_measurings(inv_f2, k_f2, 2)
    involutions = brute_force_involutions()
    assert report.total_count == len(involutions) == 4
    # oracle orbits: conjugate each involution by all of GL_2(F_2)
    gl = general_linear_group(F2, 2)
    seen = set()
    oracle_orbits = []
    for m in involutions:
        if m.entries in seen:
            continue
        orbit = {compose(compose(g, m), invert(g)).entries for g in gl}
        seen |= orbit
        oracle_orbits.append(len(orbit))
    assert sorted(size for _, size in report.orbits) == sorted(oracle_orbits) == [1, 3]
    # the GL_n action on a stack of a matrices is g m g^-1 on each of them
    for a, b in ((1, 1), (2, 1), (1, 2)):
        stacks = [LinMap.make(F2, a * 4 * b, 1, e)
                  for e in itertools.product(range(2), repeat=a * 4 * b)]
        for f in stacks:
            for g in gl:
                acted = gl_conjugate(f, g, invert(g), a, b).entries
                for i in range(a):
                    for q in range(b):
                        m = LinMap(F2, 2, 2, tuple(
                            f.entries[((i * 2 + r) * 2 + s) * b + q]
                            for r in range(2) for s in range(2)))
                        expected = compose(compose(g, m), invert(g)).entries
                        assert tuple(acted[((i * 2 + r) * 2 + s) * b + q]
                                     for r in range(2) for s in range(2)) == expected


def test_enumerate_from_base_field_is_forced(k_f2, m2_f2):
    report = enumerate_measurings(k_f2, m2_f2, 2)
    assert report.total_count == 1


def test_orbit_members_are_conjugate(inv_f2, k_f2):
    c2_f3 = cyclic_group_hopf(F3, 2).algebra
    cases = [(inv_f2, k_f2, 2), (inv_f2, dual_numbers(F2), 2),
             (dual_numbers(F2), inv_f2, 2), (c2_f3, trivial_algebra(F3), 2)]
    for a, b, n in cases:
        report = enumerate_measurings(a, b, n)
        gl = general_linear_group(a.field, n)
        for rep, size in report.orbits:
            orbit = {conjugate_measuring(rep, g).psi.entries for g in gl}
            assert len(orbit) == size
            # the GL_n action on morphisms A -> M_n(B) is conjugate_measuring
            rho = matrix_morphism_from_measuring(rep)
            for g in gl:
                assert gl_conjugate(rho, g, invert(g), 1, b.dim) == \
                    matrix_morphism_from_measuring(conjugate_measuring(rep, g))
        assert sum(size for _, size in report.orbits) == report.total_count


def test_enumeration_proves_each_morphism_once(monkeypatch):
    import sweedler.measurings as measurings
    import sweedler.structures as structures

    calls = {"matrix_algebra": 0, "is_algebra_morphism": 0}

    def counted(name):
        original = getattr(structures, name)

        def run(*args):
            calls[name] += 1
            return original(*args)
        return run

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(structures, name, wrapper)
        monkeypatch.setattr(measurings, name, wrapper)
    report = enumerate_measurings(cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), 2)
    assert report.total_count == 14
    assert calls == {"matrix_algebra": 1, "is_algebra_morphism": 0}


def _captured_census(a, b, n):
    """enumerate_measurings(a, b, n), with the items and the classes of its one
    call of conjugation_classes: the morphisms A -> M_n(B) as block tuples,
    and lists of their indices."""
    import sweedler.measurings as measurings

    seen = []

    def capture(field, size, items):
        classes = conjugation_classes(field, size, items)
        seen.append((items, classes))
        return classes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurings, "conjugation_classes", capture)
        report = enumerate_measurings(a, b, n)
    ((items, classes),) = seen
    return report, items, classes


def _census_classes(a, b, n):
    """enumerate_measurings(a, b, n) and the orbits it found, each a list of
    morphisms rho: A -> M_n(B) in the order of the items, rebuilt from the
    blocks M_{t,q}[i, j] = rho[(i, j, q), t] stacked in (t, q) order."""
    report, items, classes = _captured_census(a, b, n)
    da, db = a.dim, b.dim

    def morphism(blocks):
        return LinMap(a.field, n * n * db, da, tuple(
            blocks[((t * db + q) * n + i) * n + j]
            for i in range(n) for j in range(n) for q in range(db) for t in range(da)))

    return report, [[morphism(items[i]) for i in members] for members in classes]


@pytest.mark.parametrize("a,b,n", CENSUS)
def test_census_matches_the_exhaustive_oracles(a, b, n):
    morphisms = exhaustive_morphisms(a, matrix_algebra(b, n))
    assert algebra_morphisms(a, matrix_algebra(b, n)) == morphisms
    oracle = conjugation_partition(morphisms, n, 1, b.dim)
    _, classes = _census_classes(a, b, n)
    assert {frozenset(rho.entries for rho in members) for members in classes} == set(oracle)
    # representatives: the smallest psi of each orbit, psi[(i, q), (t, j)] = rho[(i, j, q), t]
    expected = sorted(
        (min(dense_permute(LinMap(a.field, n * n * b.dim, a.dim, rho), (n, n, b.dim, a.dim),
                           (0, 2, 3, 1), 2).entries for rho in orbit), len(orbit))
        for orbit in oracle)
    report = enumerate_measurings(a, b, n)
    assert report.total_count == len(morphisms)
    assert [(rep.psi.entries, size) for rep, size in report.orbits] == expected


def _determinant(entries, n, p):
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = -1 if inversions % 2 else 1
        for r in range(n):
            term *= entries[r * n + perm[r]]
        total += term
    return total % p


@pytest.mark.parametrize("a,b,n", CENSUS)
def test_orbit_size_times_automorphisms_is_the_group_order(a, b, n):
    # orbit-stabilizer: the stabilizer of rep under conjugation is Aut(rep)
    p = a.field.char
    for rep, size in enumerate_measurings(a, b, n).orbits:
        basis = [iw.f.entries for iw in intertwiners(rep, rep)]
        automorphisms = sum(
            1 for coeffs in itertools.product(range(p), repeat=len(basis))
            if _determinant([sum(c * t[i] for c, t in zip(coeffs, basis)) for i in range(n * n)],
                            n, p))
        assert size * automorphisms == gl_order(p, n)


def test_census_enumeration_lists_no_group_and_inverts_nothing(monkeypatch):
    calls = {"invert": 0, "general_linear_group": 0}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "sweedler":
            continue
        for name in calls:
            if hasattr(module, name):
                def counted(*args, name=name, original=getattr(module, name), **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    report = enumerate_measurings(cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), 3)
    assert sorted(size for _, size in report.orbits) == [1, 1, 117, 117]
    assert calls == {"invert": 0, "general_linear_group": 0}
    # the counters see calls made through the library
    conjugate_measuring(report.orbits[0][0], LinMap.identity(F3, 3))
    assert calls["invert"] == 1


def test_invariant_buckets_keep_the_orbit_partition(inv_f2):
    b, n = dual_numbers(F2), 2
    morphisms = algebra_morphisms(inv_f2, matrix_algebra(b, n))
    gl = [(g, invert(g)) for g in general_linear_group(F2, n)]
    oracle = conjugation_orbits({rho.entries: rho for rho in morphisms},
                                lambda rho: (gl_conjugate(rho, g, g_inv, 1, b.dim).entries
                                             for g, g_inv in gl))
    classes = [[rho.entries for rho in members] for members in _census_classes(inv_f2, b, n)[1]]
    assert [frozenset(members) for members in classes] == oracle
    # one bucket for all: every item is tested against every seed, in class order
    measurings = [measuring_from_matrix_morphism(rho, inv_f2, b, n) for rho in morphisms]
    unbucketed = isomorphism_classes(
        measurings, lambda m1, m2: [iw.f for iw in intertwiners(m1, m2)], lambda m: None)
    assert [[matrix_morphism_from_measuring(m).entries for m in members]
            for members in unbucketed] == classes


def test_sweedler_orbits_make_at_most_two_intertwiner_calls_per_morphism(monkeypatch):
    import sweedler.measurings as measurings

    calls = []

    def counted(m1, m2):
        calls.append((m1, m2))
        return intertwiners(m1, m2)

    monkeypatch.setattr(measurings, "intertwiners", counted)
    a = sweedler_hopf(F3).algebra
    report = enumerate_measurings(a, a, 1)
    assert report.total_count == len(report.orbits) == 164
    # conjugation fixes 1 x 1 blocks: the orbits need no intertwiner at all
    assert calls == []


@pytest.mark.parametrize("a,b,n", CENSUS + [
    pytest.param(involution_algebra(F2), dual_numbers(F2), 3, id="F2C2-F2y-n3"),
    # a nonzero nilpotent's SL_n(F_3)-orbit is half its GL_n(F_3)-orbit
    *(pytest.param(dual_numbers(F3), trivial_algebra(F3), n, id=f"F3y-F3-n{n}") for n in (2, 3))])
def test_conjugation_classes_match_the_hom_walk_oracle(a, b, n):
    morphisms = algebra_morphisms(a, matrix_algebra(b, n))
    report, found = _census_classes(a, b, n)
    assert sorted((rho for members in found for rho in members),
                  key=lambda f: f.entries) == morphisms
    classes = [[measuring_from_matrix_morphism(rho, a, b, n).psi for rho in members]
               for members in found]
    assert classes == [[m.psi for m in members]
                       for members in hom_walk_morphism_classes(a, b, n, morphisms)]
    # the reported orbits are these classes: the smallest psi of each, with its size
    assert [(rep.psi, size) for rep, size in report.orbits] == \
        sorted(((min(members, key=lambda psi: psi.entries), len(members))
                for members in classes), key=lambda pair: pair[0].entries)
    if n == 3 and b.dim == 2:
        assert (len(morphisms), len(classes)) == (1184, 28)


def test_a_missing_conjugate_is_a_precondition_violation():
    a, b, n = cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), 2
    _, items, classes = _captured_census(a, b, n)
    assert any(len(members) > 1 for members in classes)
    for members in classes:
        if len(members) > 1:
            dropped = members[-1]
            with pytest.raises(PreconditionViolated):
                conjugation_classes(a.field, n, [x for i, x in enumerate(items) if i != dropped])


def test_census_orbits_solve_no_matrix_equation(monkeypatch):
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sweedler" and hasattr(module, "matrix_equation_kernel"):
            def counted(*args, original=module.matrix_equation_kernel, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, "matrix_equation_kernel", counted)
    report = enumerate_measurings(cyclic_group_hopf(F3, 2).algebra, trivial_algebra(F3), 3)
    assert report.total_count == 236
    assert calls == []
    # the counters see calls made through the library
    intertwiners(report.orbits[0][0], report.orbits[0][0])
    assert len(calls) == 1


def test_enumeration_builds_one_measuring_per_orbit(monkeypatch):
    # the 1184 morphisms stay block tuples; only the 28 representatives
    # become measurings, their psi read off the blocks
    import sweedler.measurings as measurings

    calls = []
    original = measurings.Measuring

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(measurings, "Measuring", counted)
    a, b = involution_algebra(F2), dual_numbers(F2)
    report = enumerate_measurings(a, b, 3)
    assert (report.total_count, len(report.orbits)) == (1184, 28)
    assert len(calls) == 28
    assert [rep for rep, _ in report.orbits] == [original(*args) for args in calls]
    for rep, _ in report.orbits:
        assert validate_measuring(rep).ok
        assert rep.psi == measuring_from_matrix_morphism(
            matrix_morphism_from_measuring(rep), a, b, 3).psi


def test_cyclic_morphisms_enumerate_only_the_generator_image():
    # F2[C_3] is generated by g: 2^9 images of g, not 2^18 unital maps
    a = cyclic_group_hopf(F2, 3).algebra
    found = algebra_morphisms(a, matrix_algebra(trivial_algebra(F2), 3), budget=2 ** 9)
    ident = LinMap.identity(F2, 3)
    cubes = [e for e in itertools.product(range(2), repeat=9)
             if compose(LinMap(F2, 3, 3, e), compose(LinMap(F2, 3, 3, e), LinMap(F2, 3, 3, e)))
             == ident]
    assert len(found) == len(cubes) == 57
    assert {f.col_at(1) for f in found} == set(cubes)


def test_non_conjugate_reps_have_no_invertible_intertwiner(inv_f2, k_f2):
    report = enumerate_measurings(inv_f2, k_f2, 2)
    (rep1, _), (rep2, _) = report.orbits
    for iw in intertwiners(rep1, rep2):
        try:
            invert(iw.f)
            raise AssertionError("found an invertible intertwiner across orbits")
        except Exception:
            pass


# -- intertwiners ------------------------------------------------------------------


def test_identity_is_an_intertwiner(inv_f2):
    m = regular_measuring(inv_f2)
    basis = [iw.f for iw in intertwiners(m, m)]
    ident = LinMap.identity(F2, 2)
    span = _f2_span(basis)
    assert ident.entries in span


def test_schur_for_the_standard_module(m2_f2, k_f2):
    std = measuring_from_matrix_morphism(LinMap.identity(F2, 4), m2_f2, k_f2, 2)
    assert len(intertwiners(std, std)) == 1


def test_intertwiner_equation_holds_for_every_basis_vector(inv_f2, k_f2):
    report = enumerate_measurings(inv_f2, k_f2, 2)
    (rep1, _), (rep2, _) = report.orbits
    ident_a = LinMap.identity(F2, 2)
    ident_b = LinMap.identity(F2, 1)
    for iw in intertwiners(rep1, rep2):
        lhs = compose(kron(iw.f, ident_b), rep1.psi)
        rhs = compose(rep2.psi, kron(ident_a, iw.f))
        assert lhs == rhs


def test_intertwiners_make_no_composite_call(monkeypatch):
    from sweedler import linalg, measurings

    calls = []
    for module in (linalg, measurings):
        def counted(*args, original=module.composite, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "composite", counted)
    regular = regular_measuring(cyclic_group_hopf(F3, 2).algebra)
    assert len(intertwiners(regular, regular)) == 2
    y = dual_numbers(F2)
    assert len(intertwiners(identity_measuring(y), identity_measuring(y))) == 1
    assert calls == []
    # the counter sees the calls that are made
    conjugate_measuring(regular, LinMap.identity(F3, 2))
    assert len(calls) == 1


def _f2_span(maps):
    span = set()
    for bits in itertools.product(range(2), repeat=len(maps)):
        total = None
        for bit, m in zip(bits, maps):
            if bit:
                total = m if total is None else total + m
        if total is not None:
            span.add(total.entries)
    return span


def test_simplicity_detection(m2_f2, k_f2, inv_f2):
    std = measuring_from_matrix_morphism(LinMap.identity(F2, 4), m2_f2, k_f2, 2)
    assert is_simple(std)
    # the regular module of F2[C2] contains the fixed line span(1 + g)
    assert not is_simple(regular_measuring(inv_f2))


# -- tensor products ----------------------------------------------------------------


def test_tensor_with_unit_measuring_is_identity_on_the_nose(q_c2):
    kq = trivial_algebra(QQ)
    sign = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, -1]]),
                                          q_c2.algebra, kq, 1)
    unit = unit_measuring(q_c2.bialgebra, kq)
    left = tensor_measuring_bialgebra(unit, sign, q_c2.bialgebra)
    right = tensor_measuring_bialgebra(sign, unit, q_c2.bialgebra)
    assert left.psi == sign.psi and right.psi == sign.psi


def test_sign_character_squares_to_trivial(q_c2):
    kq = trivial_algebra(QQ)
    sign = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, -1]]),
                                          q_c2.algebra, kq, 1)
    triv = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, 1]]),
                                          q_c2.algebra, kq, 1)
    assert tensor_measuring_bialgebra(sign, sign, q_c2.bialgebra).psi == triv.psi


def test_tensor_requires_commutative_target(sweedler4):
    endo = Measuring(sweedler4.algebra, sweedler4.algebra, 1,
                     LinMap.identity(GF(3), 4))
    with pytest.raises(NotCommutative):
        tensor_measuring_bialgebra(endo, endo, sweedler4.bialgebra)


def test_tensor_outputs_validate_on_corpus_draws(inv_f2, k_f2):
    rng = random.Random(20240)
    h2 = cyclic_group_hopf(F2, 2)
    pool = [measuring_from_matrix_morphism(rho, inv_f2, k_f2, n)
            for n in (1, 2)
            for rho in algebra_morphisms(inv_f2, matrix_algebra(k_f2, n))]
    for _ in range(50):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        t = tensor_measuring_bialgebra(m1, m2, h2.bialgebra)
        assert validate_measuring(t).ok


def test_unit_measuring_validates_for_corpus(bialgebra_corpus):
    for name, b in bialgebra_corpus:
        m = unit_measuring(b, trivial_algebra(b.field))
        assert validate_measuring(m).ok, name


def test_endo_tensor_is_composition_in_dimension_one(inv_f2):
    endos = algebra_morphisms(inv_f2, inv_f2)
    assert len(endos) == 2
    for r1 in endos:
        for r2 in endos:
            m1 = Measuring(inv_f2, inv_f2, 1, r1)
            m2 = Measuring(inv_f2, inv_f2, 1, r2)
            t = tensor_measuring_endo(m1, m2)
            assert t.psi == compose(r2, r1)
            assert validate_measuring(t).ok


def test_endo_tensor_with_identity(inv_f2):
    m = identity_measuring(inv_f2)
    again = tensor_measuring_endo(m, m)
    assert again.psi == m.psi
    # the identity measuring is neutral against higher-dimensional ones too
    rho = algebra_morphisms(inv_f2, matrix_algebra(inv_f2, 2))[0]
    two = measuring_from_matrix_morphism(rho, inv_f2, inv_f2, 2)
    assert tensor_measuring_endo(two, m).psi == two.psi
    assert tensor_measuring_endo(m, two).psi == two.psi


def test_endo_tensor_associativity(inv_f2):
    endos = [Measuring(inv_f2, inv_f2, 1, r) for r in algebra_morphisms(inv_f2, inv_f2)]
    for m1, m2, m3 in itertools.product(endos, repeat=3):
        lhs = tensor_measuring_endo(tensor_measuring_endo(m1, m2), m3)
        rhs = tensor_measuring_endo(m1, tensor_measuring_endo(m2, m3))
        assert lhs.psi == rhs.psi


def test_tensor_is_functorial_in_intertwiners(inv_f2, k_f2):
    h2 = cyclic_group_hopf(F2, 2)
    report = enumerate_measurings(inv_f2, k_f2, 2)
    (rep1, _), (rep2, _) = report.orbits
    for m1, m1p in [(rep1, rep1), (rep1, rep2)]:
        for m2, m2p in [(rep2, rep2), (rep2, rep1)]:
            t = tensor_measuring_bialgebra(m1, m2, h2.bialgebra)
            tp = tensor_measuring_bialgebra(m1p, m2p, h2.bialgebra)
            for iw1 in intertwiners(m1, m1p):
                for iw2 in intertwiners(m2, m2p):
                    candidate = kron(iw1.f, iw2.f)
                    lhs = compose(kron(candidate, LinMap.identity(F2, 1)), t.psi)
                    rhs = compose(tp.psi, kron(LinMap.identity(F2, 2), candidate))
                    assert lhs == rhs


def test_compose_is_functorial_in_intertwiners(inv_f2, k_f2):
    endos = [Measuring(inv_f2, inv_f2, 1, r) for r in algebra_morphisms(inv_f2, inv_f2)]
    report = enumerate_measurings(inv_f2, k_f2, 2)
    (rep1, _), (rep2, _) = report.orbits
    for e in endos:
        for m, mp in [(rep1, rep1), (rep1, rep2), (rep2, rep2)]:
            c = compose_measuring(e, m)
            cp = compose_measuring(e, mp)
            for iw_e in intertwiners(e, e):
                for iw_m in intertwiners(m, mp):
                    candidate = kron(iw_e.f, iw_m.f)
                    lhs = compose(kron(candidate, LinMap.identity(F2, 1)), c.psi)
                    rhs = compose(cp.psi, kron(LinMap.identity(F2, 2), candidate))
                    assert lhs == rhs


# -- composition -----------------------------------------------------------------


def test_compose_with_identity_measuring(q_c2):
    kq = trivial_algebra(QQ)
    sign = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, -1]]),
                                          q_c2.algebra, kq, 1)
    assert compose_measuring(sign, identity_measuring(kq)).psi == sign.psi
    assert compose_measuring(identity_measuring(q_c2.algebra), sign).psi == sign.psi


def test_characters_compose_as_algebra_maps(inv_f2, k_f2):
    sigma = algebra_morphisms(inv_f2, inv_f2)
    chars = algebra_morphisms(inv_f2, k_f2)
    for s in sigma:
        for c in chars:
            m1 = Measuring(inv_f2, inv_f2, 1, s)
            m2 = Measuring(inv_f2, k_f2, 1, c)
            composed = compose_measuring(m1, m2)
            assert composed.psi == compose(c, s)
            assert validate_measuring(composed).ok


def test_compose_associativity_random(inv_f2, k_f2):
    rng = random.Random(777)
    endos = [Measuring(inv_f2, inv_f2, 1, r) for r in algebra_morphisms(inv_f2, inv_f2)]
    twos = [measuring_from_matrix_morphism(rho, inv_f2, k_f2, 2)
            for rho in algebra_morphisms(inv_f2, matrix_algebra(k_f2, 2))]
    for _ in range(30):
        m1, m2 = rng.choice(endos), rng.choice(endos)
        m3 = rng.choice(twos)
        lhs = compose_measuring(compose_measuring(m1, m2), m3)
        rhs = compose_measuring(m1, compose_measuring(m2, m3))
        assert lhs.psi == rhs.psi


def test_compose_shape_mismatch(q_c2, inv_f2, k_f2):
    kq = trivial_algebra(QQ)
    sign = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, -1]]),
                                          q_c2.algebra, kq, 1)
    with pytest.raises(IncompatibleMeasurings):
        compose_measuring(sign, sign)


# -- restriction -----------------------------------------------------------------


def test_restrict_along_identity(inv_f2):
    m = regular_measuring(inv_f2)
    assert restrict_measuring(LinMap.identity(F2, 2), m, inv_f2) == m


def test_restrict_along_unit_gives_forced_measuring(inv_f2, k_f2):
    m = regular_measuring(inv_f2)
    unit = inv_f2.unit  # k -> A is an algebra morphism
    restricted = restrict_measuring(unit, m, trivial_algebra(F2))
    assert validate_measuring(restricted).ok
    assert restricted.psi == LinMap.identity(F2, 2)  # psi(1 (x) x) = x (x) 1


def test_corestrict_along_augmentation_gives_module(inv_f2, k_f2):
    dn = dual_numbers(F2)
    rhos = algebra_morphisms(inv_f2, dn)
    assert len(rhos) == 2
    augment = LinMap.from_rows(F2, [[1, 0]])  # 1 -> 1, y -> 0
    for rho in rhos:
        m = Measuring(inv_f2, dn, 1, rho)
        module = corestrict_measuring(m, augment, k_f2)
        assert module.b == k_f2
        assert validate_measuring(module).ok
