import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sweedler.errors import DimensionMismatch, FieldMismatch, Singular
from sweedler.fields import GF, QQ
from sweedler.linalg import (
    LinMap,
    compose,
    invert,
    is_invertible,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    swap_map,
)

F2 = GF(2)


def random_map(rng, field, cod, dom):
    if field.is_rational:
        entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cod * dom)]
    else:
        entries = [rng.randrange(field.char) for _ in range(cod * dom)]
    return LinMap.make(field, cod, dom, entries)


def fields():
    return st.sampled_from([QQ, F2, GF(3), GF(5)])


def maps(field, max_dim=3):
    def build(draw_dims):
        cod, dom = draw_dims
        return st.lists(st.integers(-6, 6), min_size=cod * dom, max_size=cod * dom).map(
            lambda xs: LinMap.make(field, cod, dom, xs))
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(build)


# -- compose -----------------------------------------------------------------


def test_compose_identity():
    i3 = LinMap.identity(QQ, 3)
    assert compose(i3, i3) == i3


def test_compose_scalars():
    assert compose(LinMap.make(QQ, 1, 1, [2]), LinMap.make(QQ, 1, 1, [3])) == \
        LinMap.make(QQ, 1, 1, [6])


def test_compose_matches_triple_loop_oracle():
    rng = random.Random(101)
    for _ in range(50):
        f = random_map(rng, F2, 3, 3)
        g = random_map(rng, F2, 3, 3)
        expected = [[sum(f.entries[r * 3 + t] * g.entries[t * 3 + c] for t in range(3)) % 2
                     for c in range(3)] for r in range(3)]
        assert compose(f, g) == LinMap.from_rows(F2, expected)


def test_compose_shape_errors():
    with pytest.raises(DimensionMismatch):
        compose(LinMap.identity(QQ, 2), LinMap.identity(QQ, 3))
    with pytest.raises(FieldMismatch):
        compose(LinMap.identity(QQ, 2), LinMap.identity(F2, 2))


# -- kron --------------------------------------------------------------------


def test_kron_identities():
    assert kron(LinMap.identity(QQ, 2), LinMap.identity(QQ, 3)) == LinMap.identity(QQ, 6)
    assert kron(LinMap.make(QQ, 1, 1, [2]), LinMap.make(QQ, 1, 1, [3])) == \
        LinMap.make(QQ, 1, 1, [6])


def test_kron_matches_four_index_oracle():
    rng = random.Random(202)
    for _ in range(50):
        f = random_map(rng, QQ, 2, 2)
        g = random_map(rng, QQ, 2, 2)
        k = kron(f, g)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        assert k[(a * 2 + c, b * 2 + d)] == f[(a, b)] * g[(c, d)]


@settings(max_examples=60)
@given(fields().flatmap(lambda k: st.tuples(
    maps(k, 2), maps(k, 2), maps(k, 2), maps(k, 2))))
def test_kron_functorial(four):
    f, fp, g, gp = four
    if f.dom != fp.cod or g.dom != gp.cod:
        return
    lhs = kron(compose(f, fp), compose(g, gp))
    rhs = compose(kron(f, g), kron(fp, gp))
    assert lhs == rhs


# -- kernels, ranks, inverses ------------------------------------------------


def test_kernel_of_zero_map():
    z = LinMap.zero(F2, 2, 2)
    assert kernel_basis(z) == [(1, 0), (0, 1)]


def test_kernel_matches_brute_force_over_f2():
    f = LinMap.from_rows(F2, [[1, 1], [0, 0]])
    brute = [(x, y) for x in range(2) for y in range(2)
             if (x + y) % 2 == 0 and (x, y) != (0, 0)]
    assert kernel_basis(f) == brute == [(1, 1)]


def test_kernel_of_invertible_is_empty():
    assert kernel_basis(LinMap.from_rows(QQ, [[1, 1], [0, 1]])) == []


def test_invert_examples():
    assert invert(LinMap.identity(QQ, 4)) == LinMap.identity(QQ, 4)
    u = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    assert invert(u) == LinMap.from_rows(QQ, [[1, -1], [0, 1]])
    assert is_invertible(LinMap.zero(QQ, 0, 0))
    assert not is_invertible(LinMap.zero(QQ, 2, 3))


def test_singular_carries_echelon_rank():
    rng = random.Random(303)
    for _ in range(40):
        f = random_map(rng, GF(3), 3, 3)
        try:
            inv = invert(f)
            assert compose(f, inv) == LinMap.identity(GF(3), 3)
            assert rank(f) == 3 and is_invertible(f)
        except Singular as exc:
            assert exc.rank == rank(f) < 3 and not is_invertible(f)


def test_rank_nullity():
    rng = random.Random(404)
    for _ in range(40):
        f = random_map(rng, GF(5), 3, 4)
        basis = kernel_basis(f)
        assert rank(f) + len(basis) == f.dom
        for vec in basis:
            assert all(x == 0 for x in f.apply(vec))


def test_kernel_vectors_independent():
    rng = random.Random(505)
    for _ in range(20):
        f = random_map(rng, F2, 2, 4)
        basis = kernel_basis(f)
        stacked = LinMap.from_rows(F2, [list(v) for v in basis])
        assert rank(stacked) == len(basis)


# -- swap --------------------------------------------------------------------


def test_swap_degenerate():
    assert swap_map(1, 5, QQ) == LinMap.identity(QQ, 5)
    assert swap_map(5, 1, QQ) == LinMap.identity(QQ, 5)


def test_swap_sends_basis_correctly():
    s = swap_map(2, 2, F2)
    vec = [0, 1, 0, 0]  # e_0 (x) e_1
    assert s.apply(vec) == (0, 0, 1, 0)  # e_1 (x) e_0


def test_swap_symmetry():
    for m, n in [(2, 3), (3, 2), (1, 4), (2, 2)]:
        assert compose(swap_map(n, m, QQ), swap_map(m, n, QQ)) == LinMap.identity(QQ, m * n)


def test_swap_naturality():
    rng = random.Random(606)
    for _ in range(30):
        f = random_map(rng, GF(3), 2, 3)
        g = random_map(rng, GF(3), 2, 2)
        lhs = compose(swap_map(f.cod, g.cod, GF(3)), kron(f, g))
        rhs = compose(kron(g, f), swap_map(f.dom, g.dom, GF(3)))
        assert lhs == rhs


# -- misc --------------------------------------------------------------------


def test_solve_consistency():
    f = LinMap.from_rows(QQ, [[1, 2], [2, 4]])
    assert solve(f, [1, 2]) == (Fraction(1), Fraction(0))
    assert solve(f, [1, 3]) is None


def test_zero_dimensional_maps():
    empty = LinMap.zero(QQ, 0, 3)
    assert compose(LinMap.zero(QQ, 2, 0), empty) == LinMap.zero(QQ, 2, 3)
    assert kron(empty, LinMap.identity(QQ, 2)).dom == 6
    assert rref(empty)[1] == ()


def test_exact_roundtrip_through_strings():
    rng = random.Random(707)
    for _ in range(30):
        f = random_map(rng, QQ, 3, 3)
        tokens = [QQ.show(x) for x in f.entries]
        back = LinMap.make(QQ, 3, 3, [QQ.parse(t) for t in tokens])
        assert back == f
