import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    assert_canonical,
    dense_chain,
    dense_compose,
    dense_kron,
    dense_permute,
    dense_reduce,
    dense_term_operator,
    operator_matrix,
    probing_operator_matrix,
    reference_invert,
    reference_kernel_basis,
    reference_matrix_equation_kernel,
    reference_null_vectors,
    reference_rank,
    reference_rref,
    reference_solve,
)
from sweedler import linalg
from sweedler.errors import DimensionMismatch, FieldMismatch, Singular
from sweedler.fields import GF, QQ
from sweedler.graded import GradedSpace, koszul_swap
from sweedler.linalg import (
    LinMap,
    _SignedSwap,
    compose,
    composite,
    invert,
    is_invertible,
    kernel_basis,
    kron,
    matrix_equation_kernel,
    permute_axes,
    rank,
    rref,
    solve,
    solve_matrix_equations,
    swap_map,
)
from sweedler.measurings import Measuring, enumerate_measurings, intertwiners, regular_measuring
from sweedler.structures import Algebra, Axiom, _failures, trivial_algebra
from sweedler.zoo import cyclic_group_hopf, dual_numbers

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


# -- nonzero-driven kernels against dense oracles ----------------------------


def sparse_maps(field, cod, dom):
    """Maps of the given shape with zeros among the entries, some with a whole
    zero row or column."""
    if field.is_rational:
        scalars = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    else:
        scalars = st.sampled_from(range(field.char))
    entries = st.lists(scalars, min_size=cod * dom, max_size=cod * dom)
    blanks = st.tuples(st.sets(st.integers(0, max(cod - 1, 0)), max_size=1),
                       st.sets(st.integers(0, max(dom - 1, 0)), max_size=1))

    def build(pair):
        xs, (zero_rows, zero_cols) = pair
        return LinMap.make(field, cod, dom, [
            0 if r in zero_rows or c in zero_cols else xs[r * dom + c]
            for r in range(cod) for c in range(dom)])
    return st.tuples(entries, blanks).map(build)


def chain(field):
    """Maps f: n -> m and g: p -> n, with every dimension possibly 0."""
    return st.tuples(*[st.integers(0, 4)] * 3).flatmap(lambda mnp: st.tuples(
        sparse_maps(field, mnp[0], mnp[1]), sparse_maps(field, mnp[1], mnp[2])))


@st.composite
def slot_chains(draw, field, koszul=False):
    """(chain, dom): 1 to 3 factors 1_a (x) t (x) 1_b that compose on k^dom,
    with a and b up to 3 and every dimension possibly 0; with ``koszul``,
    every other factor is a signed Koszul braiding."""
    chain, dom, cod = [], None, None
    for n in range(draw(st.integers(1, 3))):
        if not cod:
            a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            size = draw(st.integers(0, 3)) if cod is None or a * b == 0 else 0
        else:
            a = draw(st.sampled_from([x for x in (1, 2, 3) if cod % x == 0]))
            b = draw(st.sampled_from([x for x in (1, 2, 3) if cod // a % x == 0]))
            size = cod // (a * b)
        if koszul and n % 2 == 0:
            t = draw(koszul_swaps(field, size))
        else:
            t = draw(sparse_maps(field, draw(st.integers(0, 3)), size))
        dom = a * size * b if dom is None else dom
        cod = a * t.cod * b
        chain.append((t, a, b))
    return chain, dom


def koszul_swaps(field, size):
    """Koszul braidings V (x) W -> W (x) V with dim V * dim W = size."""
    shapes = ([(0, 0), (0, 2), (3, 0)] if size == 0
              else [(m, size // m) for m in range(1, size + 1) if size % m == 0])

    def degrees(n):
        return st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    return st.sampled_from(shapes).flatmap(lambda mn: st.tuples(
        degrees(mn[0]), degrees(mn[1]))).map(lambda dv: koszul_swap(
            GradedSpace(field, tuple(dv[0])), GradedSpace(field, tuple(dv[1]))))


@settings(max_examples=80, deadline=None)
@given(fields().flatmap(chain))
def test_compose_matches_the_dense_triple_loop(pair):
    f, g = pair
    assert compose(f, g) == dense_compose(f, g)


@settings(max_examples=80, deadline=None)
@given(fields().flatmap(chain))
def test_apply_matches_the_dense_product(pair):
    f, g = pair
    for c in range(g.dom):
        column = LinMap(g.field, g.cod, 1, g.col_at(c))
        assert f.apply(column.entries) == dense_compose(f, column).entries


@settings(max_examples=80, deadline=None)
@given(fields().flatmap(lambda k: st.tuples(
    *[st.integers(0, 3)] * 4).flatmap(lambda s: st.tuples(
        sparse_maps(k, s[0], s[1]), sparse_maps(k, s[2], s[3])))))
def test_kron_matches_the_definition(pair):
    f, g = pair
    assert kron(f, g) == dense_kron(f, g)


@settings(max_examples=80, deadline=None)
@given(fields().flatmap(slot_chains))
def test_composite_matches_the_built_factors(case):
    chain, dom = case
    assert composite(chain, dom) == dense_chain(chain, dom)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(3), GF(5)]).flatmap(lambda k: slot_chains(k, koszul=True)))
def test_composite_with_the_signed_koszul_braiding(case):
    chain, dom = case
    assert composite(chain, dom) == dense_chain(chain, dom)


def test_composite_over_q_holds_canonical_scalars():
    # integer structure constants run as ints through the chain kernel and
    # are stored as they come; a Fraction is stored canonically, as an int
    # when the products make it integral
    comult = LinMap.make(QQ, 4, 2, [1, 0, 0, 1, 0, 1, 1, 0])
    mult = LinMap.make(QQ, 2, 4, [1, 0, 0, -1, 0, 1, 1, 0])
    got = composite([(comult, 1, 2), (mult, 2, 1)], 4)
    assert got == LinMap.make(QQ, 4, 4, [1, 0, 0, -1, 0, 1, 1, 0, 0, -1, 1, 0, 1, 0, 0, 1])
    assert all(type(x) is int for x in got.entries + kron(comult, mult).entries)
    half = LinMap.make(QQ, 1, 2, [Fraction(1, 2), Fraction(-3, 2)])
    two = LinMap.make(QQ, 2, 1, [2, 4])
    assert compose(half, two).entries == (-5,) and type(compose(half, two)[0, 0]) is int
    assert compose(two, half).entries == (1, -3, 2, -6)
    assert kron(half, two).entries == (1, -3, 2, -6)
    assert kron(half, half).entries == (Fraction(1, 4), Fraction(-3, 4), Fraction(-3, 4),
                                        Fraction(9, 4))
    for f in (compose(half, two), compose(two, half), kron(half, two), kron(half, half)):
        assert_canonical(QQ, f.entries)


def test_map_arithmetic_over_q_holds_canonical_scalars():
    # sums, scalings, axis permutations, transposes, products and images of
    # maps over Q hold an int exactly where a value is integral
    rng = random.Random(2620)
    for _ in range(30):
        cod, dom = rng.randint(1, 4), rng.randint(1, 4)
        f, g = sparse_random_map(rng, QQ, cod, dom), sparse_random_map(rng, QQ, cod, dom)
        h = sparse_random_map(rng, QQ, dom, rng.randint(1, 3))
        vec = sparse_random_map(rng, QQ, dom, 1).entries
        for m in (f + g, f + f.scale(-1), f.scale(Fraction(2, 3)), f.scale(4), f.scale(0),
                  f.transpose(), permute_axes(f, (cod, dom), (1, 0), 2),
                  compose(f, h), kron(f, h), LinMap.identity(QQ, dom), LinMap.zero(QQ, 2, 2)):
            assert_canonical(QQ, m.entries)
        assert_canonical(QQ, f.apply(vec))
        assert f + f.scale(-1) == LinMap.zero(QQ, cod, dom)
        assert (f + g).entries == tuple(x + y for x, y in zip(f.entries, g.entries))


def test_chains_over_a_large_prime_reduce_once_at_the_end():
    # over p = 2^61 - 1 the raw sums between a chain's factors are congruent
    # to the reduced ones and only the last factor reduces them: a middle
    # sum (p - 1) + 1 = p, a nonzero multiple of p, goes on unreduced and the
    # last factor sends it to zero; random chains with entries near p and
    # anywhere in [0, p) match the factors built and multiplied densely
    k = GF(2**61 - 1)
    p = k.char
    split, join = LinMap.column(k, [p - 1, 1]), LinMap.row(k, [1, 1])
    scale = LinMap.column(k, [5])
    chain = [(split, 1, 1), (join, 1, 1), (scale, 1, 1)]
    assert linalg._chain_images(linalg._chain_steps(chain[:2]), range(1), 1, 0) == {0: p}
    assert composite(chain, 1) == dense_chain(chain, 1) == LinMap.zero(k, 1, 1)
    assert composite(chain[:2], 1) == LinMap.zero(k, 1, 1)
    rng = random.Random(2621)
    near = [1, 2, p - 1, p - 2, p // 2]

    def large(cod, dom):
        return LinMap.make(k, cod, dom, [
            rng.choice(near) if rng.random() < 0.5 else rng.randrange(p) if rng.random() < 0.5
            else 0 for _ in range(cod * dom)])
    wrapped = 0
    for _ in range(40):
        chain, dom = [], rng.randint(1, 3) * rng.randint(1, 2)
        cod = dom
        for _ in range(rng.randint(2, 4)):
            a = rng.choice([x for x in (1, 2) if cod % x == 0])
            b = rng.choice([x for x in (1, 2) if cod // a % x == 0])
            t = large(rng.randint(1, 3), cod // (a * b))
            chain.append((t, a, b))
            cod = a * t.cod * b
        got = composite(chain, dom)
        assert got == dense_chain(chain, dom)
        assert all(type(v) is int and 0 <= v < p for v in got.entries)
        raw = linalg._chain_images(linalg._chain_steps(chain[:-1]), range(dom), dom, 0)
        wrapped += any(v >= p or v < 0 for v in raw.values())
    assert wrapped > 10


def test_composite_shape_errors():
    t = LinMap.identity(QQ, 2)
    with pytest.raises(DimensionMismatch):
        composite([(t, 1, 1)], 3)
    with pytest.raises(DimensionMismatch):
        composite([(LinMap.zero(QQ, 3, 4), 1, 1), (t, 1, 3)], 4)
    with pytest.raises(DimensionMismatch):
        compose(LinMap.identity(QQ, 3), t)
    with pytest.raises(FieldMismatch):
        composite([(t, 1, 1), (LinMap.identity(F2, 2), 1, 1)], 2)


def _sparse(column: LinMap) -> dict:
    return {r: v for r, v in enumerate(column.entries) if v}


@pytest.mark.parametrize("p", [3, 5])
def test_each_entry_is_reduced_once_where_products_cancel_or_wrap(p):
    k = GF(p)
    rows, vector = [[1, p - 1], [p - 1, p - 1]], [[1], [1]]
    # over the integers t (1, 1) = (p, 2p - 2): the first entry's products
    # cancel mod p, the second's sum past p
    assert dense_compose(LinMap.from_rows(QQ, rows),
                         LinMap.from_rows(QQ, vector)).entries == (p, 2 * p - 2)
    t, ones = LinMap.from_rows(k, rows), LinMap.from_rows(k, vector)
    t_cols = t.nonzeros(by_col=True)

    def dense_image(chain, dom, vec):
        column = LinMap.from_nonzeros(k, dom, 1, [(r, 0, v) for r, v in vec.items()])
        return _sparse(dense_compose(dense_chain(chain, dom), column))

    # t alone, and 1_2 (x) t (x) 1_2 on a vector whose two j = 1 entries meet
    # t's first row (1 + (p - 1)) and second row (2 (p - 1)) at each i
    cases = [({0: 1, 1: 1}, 1, 1), ({1: 1, 3: 1, 5: 2, 7: 2, 4: 1}, 2, 2)]
    for vec, a, b in cases:
        got = linalg.apply_slot(dict(vec), t_cols, 2, 2, b, p)
        assert got == dense_image([(t, a, b)], a * 2 * b, vec)
        assert all(0 < v < p for v in got.values())
    assert linalg.apply_slot({0: 1, 1: 1}, t_cols, 2, 2, 1, p) == {1: p - 2}

    chains = [([(ones, 1, 1), (t, 1, 1)], 1),
              ([(ones, 2, 1), (t, 2, 1), (t, 1, 2)], 2),
              ([(t, 1, 2), (t, 2, 1), (t, 1, 2)], 4)]
    for chain, dom in chains:
        got = composite(chain, dom)
        assert got == dense_chain(chain, dom)
        assert all(type(v) is int and 0 <= v < p for v in got.entries)
        images = linalg._chain_images(linalg._chain_steps(chain), range(dom), dom, p)
        assert all(0 < v < p for v in images.values())
        assert images == {c * got.cod + r: v for r in range(got.cod) for c in range(dom)
                          if (v := got[r, c])}
    assert composite(chains[0][0], 1).entries == (0, p - 2)


# -- permute_axes ---------------------------------------------------------------


def permute_case(field):
    """(f, dims, c, order, split): up to four axes of size 0..3, the first c
    of them f's codomain axes, in a random order and split."""
    def with_dims(dims):
        n = len(dims)
        return st.tuples(st.integers(0, n), st.permutations(range(n)), st.integers(0, n)).flatmap(
            lambda cos: st.tuples(
                sparse_maps(field, prod(dims[:cos[0]]), prod(dims[cos[0]:])),
                st.just(dims), st.just(cos[0]), st.just(tuple(cos[1])), st.just(cos[2])))
    return st.lists(st.integers(0, 3), max_size=4).map(tuple).flatmap(with_dims)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, F2, GF(3)]).flatmap(permute_case))
def test_permute_axes_matches_the_entrywise_oracle(case):
    f, dims, c, order, split = case
    out = permute_axes(f, dims, order, split)
    assert out == dense_permute(f, dims, order, split)
    # the inverse order, split back at f's codomain axes, gives f again
    back = sorted(range(len(order)), key=lambda pos: order[pos])
    assert permute_axes(out, [dims[ax] for ax in order], back, c) == f
    # the transpose is the permutation of f's two axes
    assert f.transpose() == dense_permute(f, (f.cod, f.dom), (1, 0), 1)


def test_permute_axes_keeps_zero_size_shapes():
    empty = LinMap.zero(GF(3), 0, 5)
    assert permute_axes(empty, (0, 5), (0, 1), 1) == empty
    assert permute_axes(empty, (0, 5), (1, 0), 1) == LinMap.zero(GF(3), 5, 0)
    assert permute_axes(empty, (5, 0), (0, 1), 1) == LinMap.zero(GF(3), 5, 0)
    assert permute_axes(LinMap.zero(QQ, 4, 0), (2, 2, 0), (2, 0, 1), 1) == \
        LinMap.zero(QQ, 0, 4)
    assert empty.transpose() == LinMap.zero(GF(3), 5, 0)
    assert LinMap.zero(QQ, 4, 0).transpose() == LinMap.zero(QQ, 0, 4)


def test_permute_axes_shape_errors():
    f = LinMap.identity(QQ, 2)
    with pytest.raises(DimensionMismatch):
        permute_axes(f, (2, 3), (0, 1), 1)
    with pytest.raises(DimensionMismatch):
        permute_axes(f, (2, 2), (0, 0), 1)
    with pytest.raises(DimensionMismatch):
        permute_axes(f, (2, 2), (1, 0), 3)


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


# -- matrix equations and elimination against the dense oracles ---------------


def sparse_random_map(rng, field, cod, dom):
    """A random map with about half of its entries zero."""
    if field.is_rational:
        scalars = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)]
    else:
        scalars = range(1, field.char)
    return LinMap.make(field, cod, dom, [rng.choice(scalars) if rng.random() < 0.5 else 0
                                         for _ in range(cod * dom)])


def random_equation(rng, field, shape, same=False):
    """An equation (psi1, psi2, a, b) on a ``shape`` = (n2, n1) unknown, with
    a, b <= 3 and sparse psi1: n1*b x a*n1 and psi2: n2*b x a*n2; with
    ``same`` (n1 = n2) one map is both."""
    n2, n1 = shape
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    psi1 = sparse_random_map(rng, field, n1 * b, a * n1)
    psi2 = psi1 if same else sparse_random_map(rng, field, n2 * b, a * n2)
    return psi1, psi2, a, b


def random_shape(rng):
    return rng.randint(0, 3), rng.randint(0, 3)


def dense_operator(equation):
    """The dense probing operator X -> (X (x) 1_b).psi1 - psi2.(1_a (x) X)."""
    psi1, psi2, a, b = equation
    return dense_term_operator([(1, None, 1, b, psi1), (-1, psi2, a, 1, None)])


def probing_rows(field, shape, equations):
    """The stacked probing matrices of the equations, as dense rows."""
    blocks = [probing_operator_matrix(dense_operator(e), field, shape) for e in equations]
    return [list(m.row_at(r)) for m in blocks for r in range(m.cod)]


@pytest.mark.parametrize("field", [F2, GF(3), GF(5), QQ], ids=str)
def test_operator_matrix_matches_the_probing_oracle(field):
    rng = random.Random(811 + field.char)
    seen = set()
    for _ in range(80):
        shape = random_shape(rng)
        n2, n1 = shape
        equation = random_equation(rng, field, shape, same=n1 == n2 and rng.random() < 0.3)
        psi1, psi2, a, b = equation
        expected = probing_operator_matrix(dense_operator(equation), field, shape)
        assert operator_matrix(field, shape, equation) == expected
        # rows both sides write, by probing each side alone, and those left
        # after summing: exactly the nonzero rows of the probing matrix
        both = set.intersection(*(_probed_rows(field, shape, [term]) for term in
                                  [(1, None, 1, b, psi1), (-1, psi2, a, 1, None)]))
        left = linalg._equation_rows(shape, equation).keys()
        assert left == {r for r in range(expected.cod) if any(expected.row_at(r))}
        cases = {"rectangular": n1 != n2 and n1 * n2, "a, b > 1": a > 1 and b > 1 and n1 * n2,
                 "psi1 = psi2": psi1 is psi2 and n1, "0 x n": n1 and not n2,
                 "n x 0": n2 and not n1, "cancelled rows": both - left}
        seen.update(case for case, occurs in cases.items() if occurs)
    assert seen == {"rectangular", "a, b > 1", "psi1 = psi2", "0 x n", "n x 0",
                    "cancelled rows"}


def _probed_rows(field, shape, terms):
    """The indices of the nonzero rows of the probing matrix of a sum of terms."""
    m = probing_operator_matrix(dense_term_operator(terms), field, shape)
    return {r for r in range(m.cod) if any(m.row_at(r))}


def probing_kernel(field, shape, equations):
    """The kernel of the stacked probing matrices of the equations, by dense elimination."""
    rows = probing_rows(field, shape, equations)
    pivots = dense_reduce(field, rows, shape[0] * shape[1])
    return reference_null_vectors(field, dict(zip(pivots, rows)), shape[0] * shape[1])


def probing_solution(field, shape, equations, rhs):
    """The solution with free coordinates 0 of the stacked probing matrices
    against the stacked right-hand sides, or None, by dense elimination."""
    nvars = shape[0] * shape[1]
    rows = [[*row, t] for row, t in zip(probing_rows(field, shape, equations),
                                        (t for r in rhs for t in r.entries))]
    pivots = dense_reduce(field, rows, nvars + 1)
    if nvars in pivots:
        return None
    solution = [field.zero()] * nvars
    for row, c in zip(rows, pivots):
        solution[c] = row[nvars]
    return LinMap(field, *shape, tuple(solution))


def test_matrix_equations_match_the_probing_oracle():
    rng = random.Random(812)
    seen = set()
    for field in [F2, GF(3), GF(5), QQ] * 30:
        shape = random_shape(rng)
        n2, n1 = shape
        equations = [random_equation(rng, field, shape, same=n1 == n2 and rng.random() < 0.3)
                     for _ in range(rng.randint(1, 3))]
        kernel = matrix_equation_kernel(field, shape, equations)
        assert [f.entries for f in kernel] == probing_kernel(field, shape, equations)
        # a solvable right-hand side, the image of a random X, and a random one
        x = sparse_random_map(rng, field, *shape)
        images = [dense_operator(e)(x) for e in equations]
        drawn = [sparse_random_map(rng, field, m.cod, m.dom) for m in images]
        for rhs in (images, drawn):
            solution = solve_matrix_equations(field, shape, list(zip(equations, rhs)))
            assert solution == probing_solution(field, shape, equations, rhs)
            seen.add("inconsistent" if solution is None else "consistent")
            if solution is None:
                assert rhs is drawn
            else:
                assert_canonical(field, solution.entries)
                assert all(dense_operator(e)(solution) == r for e, r in zip(equations, rhs))
    assert seen == {"consistent", "inconsistent"}


def _copied(equations):
    """The equations with each map replaced by an equal copy, which has read nothing."""
    def copy(m):
        return LinMap(m.field, m.cod, m.dom, m.entries)
    return [(copy(psi1), copy(psi2), a, b) for psi1, psi2, a, b in equations]


def _recorded_rows(monkeypatch):
    """Every row table ``linalg._equation_rows`` returns, in call order."""
    returned = []
    original = linalg._equation_rows

    def recorded(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(linalg, "_equation_rows", recorded)
    return returned


def _keeps_only_nonzeros(m):
    """Whether a map keeps nothing but its nonzero lists and written positions."""
    return set(m._kept) <= {None, False, True}


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_shared_tables_match_fresh_calls_and_the_probing_oracle(monkeypatch, field):
    # a second call on the same maps writes its rows again, no map keeps
    # them, and it agrees with a call on equal copies of the maps and with
    # the probing oracle
    returned = _recorded_rows(monkeypatch)
    rng = random.Random(811 + field.char)
    for _ in range(60):
        shape = random_shape(rng)
        equations = [random_equation(rng, field, shape, same=shape[0] == shape[1])
                     for _ in range(rng.randint(1, 2))]
        first = matrix_equation_kernel(field, shape, equations)
        written = list(returned)
        returned.clear()
        again = matrix_equation_kernel(field, shape, equations)
        assert len(returned) == len(written) == len(equations)
        assert all(rows is not before for rows, before in zip(returned, written))
        assert all(_keeps_only_nonzeros(m) for psi1, psi2, _, _ in equations for m in (psi1, psi2))
        assert again == first == matrix_equation_kernel(field, shape, _copied(equations))
        assert [f.entries for f in again] == probing_kernel(field, shape, equations)
        returned.clear()


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=str)
def test_shared_tables_tell_apart_terms_on_one_map(field):
    # one map as psi1 and psi2 of one equation, in either role against
    # partners of two other sizes, and with other (a, b); the equations run
    # twice on the same maps
    m = LinMap.make(field, 2, 2, [1, 1, 0, 2])
    big = LinMap.make(field, 4, 4, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0])
    one, three = LinMap.make(field, 1, 1, [2]), LinMap.identity(field, 3)
    cases = [
        ((2, 2), [(m, m, 1, 1)]),
        ((1, 2), [(m, one, 1, 1)]),
        ((3, 2), [(m, three, 1, 1)]),
        ((2, 1), [(one, m, 1, 1)]),
        ((2, 3), [(three, m, 1, 1)]),
        ((2, 2), [(big, big, 2, 2)]),
        ((4, 4), [(big, big, 1, 1)]),
        ((4, 4), [(big, big, 1, 1), (LinMap.identity(field, 4), big, 1, 1)]),
        ((1, 1), [(one, one, 1, 1)]),
        ((2, 2), [(m, m, 1, 1), (big, big, 2, 2)]),
    ]
    results = [[matrix_equation_kernel(field, shape, equations)
                for shape, equations in cases] for _ in range(2)]
    for shared in results:
        for (shape, equations), kernel in zip(cases, shared):
            assert kernel == matrix_equation_kernel(field, shape, _copied(equations))
            assert [f.entries for f in kernel] == probing_kernel(field, shape, equations)
    assert len({tuple(f.entries for f in kernel) for kernel in results[0]}) > 5


def test_intertwiners_of_different_dimensions_match_copies():
    f2, q = (cyclic_group_hopf(GF(2), 2).algebra, dual_numbers(GF(2))), cyclic_group_hopf(QQ, 2)
    families = [
        [m for n in (1, 2) for m, _ in enumerate_measurings(*f2, n).orbits],
        [regular_measuring(q.algebra),
         *[Measuring(q.algebra, trivial_algebra(QQ), 1, LinMap.from_rows(QQ, [row]))
           for row in ([1, 1], [1, -1])]],
    ]
    for family in families:
        assert len({m.xdim for m in family}) == 2
        for m1 in family:
            for m2 in family:
                copies = [Measuring(m.a, m.b, m.xdim, LinMap(m.field, m.psi.cod, m.psi.dom,
                                                              m.psi.entries)) for m in (m1, m2)]
                assert ([iw.f for iw in intertwiners(m1, m2)]
                        == [iw.f for iw in intertwiners(*copies)])
        # each psi met partners of both dimensions and keeps no equation rows
        assert all(_keeps_only_nonzeros(m.psi) for m in family)


def test_nonzeros_are_listed_once_per_map(monkeypatch):
    f = LinMap.make(QQ, 2, 3, [1, 0, Fraction(1, 2), 0, -2, 0])
    assert f.nonzeros(by_col=False) == [[(0, 1), (2, Fraction(1, 2))], [(1, -2)]]
    assert f.nonzeros(by_col=True) == [[(0, 1)], [(1, -2)], [(0, Fraction(1, 2))]]
    # an integral value is stored, and listed, as an int
    assert [type(v) for row in f.nonzeros(by_col=False) for _, v in row] == [int, Fraction, int]
    # a product that every algebra axiom, two algebra values and a chain read:
    # associativity decides on its rows, the unit laws and the chain read columns
    listed = []
    original = LinMap._listed
    monkeypatch.setattr(LinMap, "_listed",
                        lambda self, by_col: listed.append((self, by_col)) or original(self, by_col))
    a = cyclic_group_hopf(GF(3), 3).algebra
    mult = LinMap(a.field, a.mult.cod, a.mult.dom, a.mult.entries)  # a copy, nothing listed yet
    assert Algebra(mult, a.unit).report.ok and Algebra(mult, a.unit).report.ok
    composite([(mult, 3, 1), (mult, 1, 1)], 27)
    assert sorted(by_col for m, by_col in listed if m is mult) == [False, True]


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
def test_maps_written_from_nonzeros_list_them_without_a_scan(monkeypatch, field):
    # from_nonzeros and composite keep the positions they write; the lists
    # equal those a scan of an equal map finds, written zeros are not
    # listed, and over Q only the written positions are tested for truth
    rng = random.Random(2615 + field.char)
    f, g = sparse_random_map(rng, field, 4, 5), sparse_random_map(rng, field, 5, 3)
    # integral values are ints, which are tested without a call: count on
    # maps with non-integral entries
    assert field.char or all(Fraction in {type(x) for x in m.entries} for m in (f, g))
    written = [
        LinMap.from_nonzeros(field, 4, 5, [(r, c, f[r, c]) for r in range(4) for c in range(5)]),
        LinMap.from_nonzeros(field, 2, 2, [(0, 0, 0), (1, 1, 1), (1, 0, -1)]),
        compose(f, g), kron(f, g), composite([(g, 1, 1), (f, 1, 1)], 3),
    ]
    scanned = [LinMap(m.field, m.cod, m.dom, m.entries) for m in written]
    truth = []
    monkeypatch.setattr(Fraction, "__bool__", lambda x: truth.append(x) or x.numerator != 0)
    for m, copy in zip(written, scanned):
        positions = m._kept[None]
        assert positions == sorted(set(positions))
        lists = (m.nonzeros(by_col=False), m.nonzeros(by_col=True))
        assert len(truth) <= 2 * len(positions)  # once per orientation
        assert lists == (copy.nonzeros(by_col=False), copy.nonzeros(by_col=True))
        truth.clear()
    assert len(written[2]._kept[None]) < len(written[2].entries)
    minus_one = field.char - 1 if field.char else -1
    assert written[1].nonzeros(by_col=False) == [[], [(0, minus_one), (1, 1)]]
    # a composite fills its zeros with one shared object
    product = written[2]
    assert len({id(x) for x in product.entries if not x}) <= 1


def test_matrix_equations_on_zero_shapes():
    psi = LinMap.identity(QQ, 2)
    empty = LinMap.zero(QQ, 0, 0)
    assert matrix_equation_kernel(QQ, (0, 2), [(psi, empty, 1, 1)]) == []
    assert solve_matrix_equations(QQ, (2, 0), [((empty, psi, 1, 1), LinMap.zero(QQ, 2, 0))]) == \
        LinMap.zero(QQ, 2, 0)
    # no equation: every X solves it
    assert len(matrix_equation_kernel(QQ, (2, 1), [])) == 2


def test_matrix_equation_term_shape_errors():
    psi, wide = LinMap.identity(QQ, 2), LinMap.zero(QQ, 2, 4)
    for equation in [(LinMap.identity(QQ, 3), psi, 1, 1), (psi, LinMap.identity(QQ, 3), 1, 1),
                     (psi, psi, 2, 1), (wide, psi, 2, 1), (psi, wide, 1, 1)]:
        with pytest.raises(DimensionMismatch):
            matrix_equation_kernel(QQ, (2, 2), [equation])
        with pytest.raises(DimensionMismatch):
            operator_matrix(QQ, (2, 2), equation)
    # (X (x) 1_2).psi1 = psi2.X for a 2 x 1 X: 4 x 1 images
    equation = (LinMap.make(QQ, 2, 1, [1, 0]), LinMap.zero(QQ, 4, 2), 1, 2)
    for rhs in (LinMap.zero(QQ, 1, 4), LinMap.zero(QQ, 2, 2), LinMap.zero(QQ, 4, 2)):
        with pytest.raises(DimensionMismatch):
            solve_matrix_equations(QQ, (2, 1), [(equation, rhs)])
    assert solve_matrix_equations(QQ, (2, 1), [(equation, LinMap.zero(QQ, 4, 1))]) == \
        LinMap.zero(QQ, 2, 1)


def elimination_cases(rng, field):
    """Random matrices with zero rows, zero columns, low rank, and empty shapes."""
    for _ in range(60):
        cod, dom = rng.randint(0, 6), rng.randint(0, 6)
        f = sparse_random_map(rng, field, cod, dom)
        if rng.random() < 0.5 and cod and dom:
            inner = rng.randint(0, min(cod, dom))
            f = compose(sparse_random_map(rng, field, cod, inner),
                        sparse_random_map(rng, field, inner, dom))
        blank_rows = set(rng.sample(range(cod), rng.randint(0, cod // 2)))
        blank_cols = set(rng.sample(range(dom), rng.randint(0, dom // 2)))
        yield LinMap(field, cod, dom, tuple(
            field.zero() if r in blank_rows or c in blank_cols else f[r, c]
            for r in range(cod) for c in range(dom)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Singular as exc:
        return ("singular", exc.rank)


@pytest.mark.parametrize("field", [F2, GF(3), GF(5), QQ], ids=str)
def test_elimination_matches_the_dense_oracle(field):
    rng = random.Random(813 + field.char)
    for f in elimination_cases(rng, field):
        n = min(f.cod, f.dom)
        square = LinMap(field, n, n, tuple(f[r, c] for r in range(n) for c in range(n)))
        targets = [f.apply(sparse_random_map(rng, field, f.dom, 1).entries),
                   sparse_random_map(rng, field, 1, f.cod).entries]
        assert (rref(f), kernel_basis(f), [solve(f, t) for t in targets],
                outcome(invert, square), rank(f)) == \
            (reference_rref(f), reference_kernel_basis(f),
             [reference_solve(f, t) for t in targets], outcome(reference_invert, square),
             reference_rank(f))


def echelon_cases(rng, field):
    """(kind, map) for each kind the echelon must treat: empty shapes, zero
    maps, zero rows and columns, duplicate rows, rank-deficient products,
    square, wide and tall; half of them written from their nonzeros (kept
    positions) and half from dense entries (scanned)."""
    zero = field.zero()
    for cod, dom in [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (5, 5), (2, 6), (6, 2), (3, 7),
                     (7, 3)]:
        f = sparse_random_map(rng, field, cod, dom)
        yield "random", f
        yield "zero", LinMap.zero(field, cod, dom)
        yield "kept", LinMap.from_nonzeros(field, cod, dom, [
            (r, c, f[r, c]) for r in range(cod) for c in range(dom)])
        if not (cod and dom):
            continue
        inner = rng.randrange(min(cod, dom))
        yield "rank-deficient", compose(sparse_random_map(rng, field, cod, inner),
                                        sparse_random_map(rng, field, inner, dom))
        blank_row, blank_col = rng.randrange(cod), rng.randrange(dom)
        yield "zero row and column", LinMap(field, cod, dom, tuple(
            zero if r == blank_row or c == blank_col else f[r, c]
            for r in range(cod) for c in range(dom)))
        if cod > 1:
            rows = [f.row_at(r) for r in range(cod)]
            rows[-1] = rows[0]
            yield "duplicate rows", LinMap(field, cod, dom, sum(rows, ()))


@pytest.mark.parametrize("field", [QQ, F2, GF(3), GF(5)], ids=str)
def test_sparse_echelon_matches_the_dense_reference(field):
    # rref (entries and pivots), rank, kernel_basis, solve, invert and the
    # rank Singular carries, entry for entry against the dense routines the
    # library once ran, and every entry a canonical scalar
    rng = random.Random(2611 + field.char)
    seen = set()
    for kind, f in echelon_cases(rng, field):
        seen.add(kind)
        echelon, pivots = rref(f)
        assert (echelon, pivots) == reference_rref(f), kind
        assert_canonical(field, echelon.entries)
        assert rank(f) == reference_rank(f) == len(pivots)
        basis = kernel_basis(f)
        assert basis == reference_kernel_basis(f), kind
        assert_canonical(field, [x for vec in basis for x in vec])
        image = f.apply(sparse_random_map(rng, field, f.dom, 1).entries)
        for target in (image, (0,) * f.cod, sparse_random_map(rng, field, 1, f.cod).entries,
                       *([(0,) * i + (1,) + (0,) * (f.cod - i - 1) for i in range(f.cod)])):
            solution = solve(f, target)
            assert solution == reference_solve(f, target), kind
            seen.add("inconsistent" if solution is None else "consistent")
            if solution is not None:
                assert_canonical(field, solution)
                assert f.apply(solution) == tuple(field.coerce(t) for t in target)
        n = min(f.cod, f.dom)
        for square in (LinMap(field, n, n, tuple(f[r, c] for r in range(n) for c in range(n))),
                       *([f] if f.cod == f.dom else [])):
            inverse = outcome(invert, square)
            assert inverse == outcome(reference_invert, square), kind
            if isinstance(inverse, LinMap):
                assert_canonical(field, inverse.entries)
                seen.add("invertible")
            else:
                seen.add("singular of positive rank" if inverse[1] else "singular")
    assert seen == {"random", "zero", "kept", "rank-deficient", "zero row and column",
                    "duplicate rows", "consistent", "inconsistent", "invertible", "singular",
                    "singular of positive rank"}


@pytest.mark.parametrize("field", [QQ, F2, GF(3), GF(5)], ids=str)
def test_matrix_equation_kernel_matches_the_dense_reference(field):
    rng = random.Random(2612 + field.char)
    for _ in range(40):
        shape = random_shape(rng)
        equations = [random_equation(rng, field, shape, same=shape[0] == shape[1])
                     for _ in range(rng.randint(1, 3))]
        kernel = matrix_equation_kernel(field, shape, equations)
        assert kernel == reference_matrix_equation_kernel(field, shape, equations)
        assert_canonical(field, [x for f in kernel for x in f.entries])


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



@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
def test_braiding_factor_runs_as_its_dense_map(field):
    # the factor lists its nonzeros; swap_map and koszul_swap write it densely
    left, right = (0, 1, 2), (1, 3)
    m, n = len(left), len(right)
    dense = koszul_swap(GradedSpace(field, left), GradedSpace(field, right))
    sign = {(i, j): -1 if p * q % 2 else 1 for i, p in enumerate(left)
            for j, q in enumerate(right)}
    assert dense == LinMap.make(field, m * n, m * n, [
        sign[c // n, c % n] if r == (c % n) * m + c // n else 0
        for r in range(m * n) for c in range(m * n)])
    assert swap_map(m, n, field) == koszul_swap(GradedSpace(field, (0,) * m),
                                                GradedSpace(field, (0,) * n))
    rng = random.Random(17)
    f, g = random_map(rng, field, m, 2), random_map(rng, field, 2, m)
    plain = [(f, 1, n), (swap_map(m, n, field), 1, 1), (g, n, 1)]
    for braiding, swap in ((_SignedSwap(field, left, right), dense),
                           (_SignedSwap(field, (0,) * m, (0,) * n), swap_map(m, n, field))):
        for pad in ((1, 1), (2, 1), (1, 3)):
            with_factor = [(braiding, *pad)]
            with_dense = [(swap, *pad)]
            dom = pad[0] * m * n * pad[1]
            assert composite(with_factor, dom) == composite(with_dense, dom)
        with_factor = [(f, 1, n), (braiding, 1, 1), (g, n, 1)]
        with_dense = [(f, 1, n), (swap, 1, 1), (g, n, 1)]
        assert composite(with_factor, 2 * n) == composite(with_dense, 2 * n)
        for by_row in (False, True):
            assert _failures([Axiom("same", with_factor, with_dense, (2, n), by_row)]) == []
            assert (_failures([Axiom("other", with_factor, plain, (2, n), by_row)])
                    == _failures([Axiom("other", with_dense, plain, (2, n), by_row)]))
    # the signs are seen: over Q the Koszul chain differs from the plain one
    koszul = [(f, 1, n), (_SignedSwap(field, left, right), 1, 1), (g, n, 1)]
    assert bool(_failures([Axiom("other", koszul, plain, (2, n))])) == (field.char != 2)


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


# -- from_nonzeros -----------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
def test_from_nonzeros_matches_the_dense_table(field):
    rng = random.Random(808)
    for _ in range(60):
        cod, dom = rng.randint(1, 5), rng.randint(0, 5)
        rows = [[0] * dom for _ in range(cod)]
        nonzeros = []
        for pos in rng.sample(range(cod * dom), rng.randint(0, cod * dom)):
            r, c = divmod(pos, dom)
            # ints of either sign, and Fractions, which the field must coerce
            v = rng.randint(-7, 7)
            if rng.random() < 0.5:
                v = Fraction(v, rng.randint(1, 4) if field.is_rational else 1)
            rows[r][c] = v
            nonzeros.append((r, c, v))
        assert LinMap.from_nonzeros(field, cod, dom, nonzeros) == LinMap.from_rows(field, rows)


@pytest.mark.parametrize("r, c", [(2, 0), (0, 3), (-1, 0), (0, -1), (5, 5)])
def test_from_nonzeros_rejects_positions_outside_the_shape(r, c):
    with pytest.raises(DimensionMismatch):
        LinMap.from_nonzeros(F2, 2, 3, [(0, 0, 1), (r, c, 1)])


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
def test_from_nonzeros_rejects_a_repeated_position(field):
    # one value would be stored, the position listed twice: compose would
    # read it twice on one side and once on the other
    for nonzeros in ([(0, 0, 1), (0, 0, 2)], [(1, 2, 1), (0, 0, 1), (1, 2, 1)],
                     [(0, 1, 0), (0, 1, 0)]):
        with pytest.raises(DimensionMismatch):
            LinMap.from_nonzeros(field, 2, 3, nonzeros)


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=str)
def test_from_nonzeros_builds_empty_shapes(field):
    assert LinMap.from_nonzeros(field, 0, 4, []) == LinMap.zero(field, 0, 4)
    assert LinMap.from_nonzeros(field, 4, 0, []) == LinMap.zero(field, 4, 0)
    assert LinMap.from_nonzeros(field, 0, 0, []) == LinMap.zero(field, 0, 0)


def test_exact_roundtrip_through_strings():
    rng = random.Random(707)
    for _ in range(30):
        f = random_map(rng, QQ, 3, 3)
        tokens = [QQ.show(x) for x in f.entries]
        back = LinMap.make(QQ, 3, 3, [QQ.parse(t) for t in tokens])
        assert back == f
