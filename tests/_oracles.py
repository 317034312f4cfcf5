"""Independent oracle constructions shared by the test modules.

These deliberately avoid the code paths they check: the classifying map below
is assembled directly from structure constants, and the brute-force helpers
do their arithmetic inline.
"""

import itertools
from collections import deque
from collections.abc import Sequence
from itertools import compress
from math import prod
from operator import itemgetter

from sweedler import tambara
from sweedler.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InducedStructureIllDefined,
    Singular,
    UnsupportedField,
)
from sweedler.fields import Field, same_field
from sweedler.linalg import (
    _BLOCK,
    LinMap,
    _chain_images,
    _chain_steps,
    _equation_rows,
    compose,
    composite,
    invert,
    is_invertible,
    kernel_basis,
    permute_axes,
    rank,
    rref,
    solve,
)
from sweedler.measurings import enumerate_measurings, intertwiners, measuring_from_matrix_morphism
from sweedler.structures import (
    DEFAULT_BUDGET,
    Algebra,
    Coalgebra,
    _live,
    _vectors,
    general_linear_group,
    is_algebra_morphism,
)


def classifying_iso_to_dual(g):
    """Oracle map D -> A* for stages with B = k: each generator (X, psi)
    classifies into A* by f_ij -> (a -> <e^i, psi(a (x) e_j)>); the direct sum
    of these maps kills the coend relations and descends along the section.
    Well-definedness is asserted, not assumed."""
    a = g.a
    k = a.field
    d = a.dim
    assert g.b.dim == 1
    total = g.section.cod
    cols = {}
    start = 0
    for m in g.generators:
        x = m.xdim
        for i in range(x):
            for j in range(x):
                cols[start + i * x + j] = tuple(
                    m.psi.entries[i * (d * x) + (t * x + j)] for t in range(d))
        start += x * x
    gamma = LinMap(k, d, total, tuple(
        cols.get(c, (k.zero(),) * d)[t] for t in range(d) for c in range(total)))
    phi = dense_compose(gamma, g.section)
    # well-definedness: gamma factors through the quotient
    for idx in range(len(g.generators)):
        assert dense_compose(phi, g.projections[idx]) == _gamma_summand(g, idx, gamma)
    return phi


def _gamma_summand(g, idx, gamma):
    k = g.a.field
    total = g.section.cod
    start = sum(m.xdim ** 2 for m in g.generators[:idx])
    width = g.generators[idx].xdim ** 2
    incl = LinMap(k, total, width, tuple(
        k.one() if r == start + c else k.zero()
        for r in range(total) for c in range(width)))
    return dense_compose(gamma, incl)


def algebra_product(a, u, v):
    """The product of coefficient vectors u and v of A over F_p, summed
    inline over its structure constants."""
    d, e = a.dim, a.mult.entries
    return tuple(sum(u[i] * v[j] * e[r * d * d + i * d + j] for i in range(d) for j in range(d))
                 % a.field.char for r in range(d))


def f2_2x2_product(m, n):
    """2x2 matrix product over F_2 with inline arithmetic."""
    return tuple(
        (m[2 * r] * n[c] + m[2 * r + 1] * n[2 + c]) % 2
        for r in range(2) for c in range(2))


def f2_2x2_invertible(m):
    return (m[0] * m[3] + m[1] * m[2]) % 2 == 1


def dense_compose(f, g):
    """f.g by the triple loop over every output entry, field ops inline."""
    k = f.field
    out = []
    for r in range(f.cod):
        for c in range(g.dom):
            acc = k.zero()
            for t in range(f.dom):
                acc = k.add(acc, k.mul(f.entries[r * f.dom + t], g.entries[t * g.dom + c]))
            out.append(acc)
    return LinMap(k, f.cod, g.dom, tuple(out))


def dense_kron(f, g):
    """f (x) g by definition: entry ((a, c), (b, d)) is f[a, b] * g[c, d]."""
    k = f.field
    return LinMap(k, f.cod * g.cod, f.dom * g.dom, tuple(
        k.mul(f.entries[a * f.dom + b], g.entries[c * g.dom + d])
        for a in range(f.cod) for c in range(g.cod)
        for b in range(f.dom) for d in range(g.dom)))


def slot_factor(t, a, b):
    """1_a (x) t (x) 1_b built explicitly: entry ((i, r, j), (i', s, j')) is
    t[r, s] when i = i' and j = j', else zero."""
    k = t.field
    cod, dom = a * t.cod * b, a * t.dom * b
    entries = []
    for row in range(cod):
        i, rest = divmod(row, t.cod * b)
        r, j = divmod(rest, b)
        for col in range(dom):
            i2, rest2 = divmod(col, t.dom * b)
            s, j2 = divmod(rest2, b)
            entries.append(t.entries[r * t.dom + s] if (i, j) == (i2, j2) else k.zero())
    return LinMap(k, cod, dom, tuple(entries))


def dense_chain(chain, dom):
    """The composite of a chain of factors (t, a, b) on k^dom: each factor
    built by ``slot_factor`` and multiplied densely."""
    out = LinMap.identity(chain[0][0].field, dom)
    for t, a, b in chain:
        out = dense_compose(slot_factor(t, a, b), out)
    return out


# One slot factor composed with a dense map, with no chain: the reference that
# the dense checks below and ``dense_reconstruct`` build their composites with.
def compose_slot(f: LinMap, t: LinMap, a: int, b: int, *, after: bool) -> LinMap:
    """f composed with the structural factor 1_a (x) t (x) 1_b, which is never built.

    With ``after`` the factor is applied after f, giving (1_a (x) t (x) 1_b).f;
    otherwise before it, giving f.(1_a (x) t (x) 1_b).  Each nonzero of f whose
    index on the shared axis is (i, s, j) meets the nonzeros of t along s, and
    lands at (i, u, j) on the result's axis.
    """
    k = same_field(f.field, t.field)
    meet, free = (t.dom, t.cod) if after else (t.cod, t.dom)
    shared = f.cod if after else f.dom
    if shared != a * meet * b:
        raise DimensionMismatch(
            f"cannot compose {f.cod}x{f.dom} with 1_{a} (x) {t.cod}x{t.dom} (x) 1_{b}")
    cod, dom = (a * free * b, f.dom) if after else (f.cod, a * free * b)
    # the result's entry (m, o) on (slot axis, other axis) sits at m*m_step + o*o_step
    m_step, o_step = (dom, 1) if after else (1, dom)
    t_along = t.nonzeros(by_col=after)
    p = k.char
    zero = k.zero()
    fe = f.entries
    out = [zero] * (cod * dom)
    for pos in compress(range(len(fe)), fe):
        r, c = divmod(pos, f.dom)
        m, o = (r, c) if after else (c, r)
        i, rest = divmod(m, meet * b)
        s, j = divmod(rest, b)
        x = fe[pos]
        base = i * free * b + j
        o_base = o * o_step
        for u, v in t_along[s]:
            idx = (base + u * b) * m_step + o_base
            acc = x * v
            if out[idx] is not zero:
                acc += out[idx]
            out[idx] = acc % p if p else acc
    return LinMap(k, cod, dom, tuple(out))


def probing_operator_matrix(op, field, shape):
    """Matrix of a linear operator on cod x dom matrices, in row-major vec
    coordinates: column i*dom + j is op applied to the matrix unit E_ij."""
    cod, dom = shape
    cols = []
    for r in range(cod):
        for c in range(dom):
            unit = [field.zero()] * (cod * dom)
            unit[r * dom + c] = field.one()
            cols.append(op(LinMap(field, cod, dom, tuple(unit))).entries)
    out_dim = len(cols[0]) if cols else 0
    flat = tuple(cols[c][r] for r in range(out_dim) for c in range(len(cols)))
    return LinMap(field, out_dim, cod * dom, flat)


def dense_term_operator(terms):
    """X -> sum of c.L.(1_a (x) X (x) 1_b).R over the terms (c, L, a, b, R),
    with the factor built by ``slot_factor`` and products by ``dense_compose``;
    None stands for an identity L or R."""
    def op(x):
        total = None
        for c, left, a, b, right in terms:
            image = slot_factor(x, a, b)
            if right is not None:
                image = dense_compose(image, right)
            if left is not None:
                image = dense_compose(left, image)
            image = image.scale(c)
            total = image if total is None else total + image
        return total
    return op


def dense_reduce(k, rows, ncols):
    """Gauss-Jordan elimination of ``rows`` in place over every entry, zeros
    included, pivoting in the first ``ncols`` columns: leftmost pivot,
    lowest-index row first."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = None
        for rr in range(r, len(rows)):
            if rows[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = k.inv(rows[r][c])
        rows[r] = [k.mul(inv, x) for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] != 0:
                factor = rows[rr][c]
                rows[rr] = [k.sub(x, k.mul(factor, y)) for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def dense_permute(f, dims, order, split):
    """permute_axes entry by entry: the result's entry at the multi-index
    (u_0, ..., u_r) on the axes in ``order`` is f's entry at the multi-index
    with u_p on axis order[p], flattened row-major over ``dims``."""
    new_dims = [dims[ax] for ax in order]
    cod = dom = 1
    for pos, d in enumerate(new_dims):
        if pos < split:
            cod *= d
        else:
            dom *= d
    entries = []
    for new_index in itertools.product(*(range(d) for d in new_dims)):
        old_index = [0] * len(dims)
        for pos, ax in enumerate(order):
            old_index[ax] = new_index[pos]
        flat = 0
        for ax, i in enumerate(old_index):
            flat = flat * dims[ax] + i
        entries.append(f.entries[flat])
    return LinMap(f.field, cod, dom, tuple(entries))


def exhaustive_morphisms(a, b, zero_coords=frozenset()):
    """All algebra morphisms A -> B over F_p by exhaustive search, sorted by entries.

    The unit condition f(1_A) = 1_B and the pinned coordinates f[q, t] = 0
    (at q*dim(A) + t) are linear: every point of that affine space, a
    particular solution plus each combination of a kernel basis, is tried
    with ``is_algebra_morphism``."""
    k = a.field
    da, db = a.dim, b.dim
    rows, target = [], []
    for q in range(db):
        row = [k.zero()] * (db * da)
        row[q * da:(q + 1) * da] = a.unit_vector()
        rows.append(row)
        target.append(b.unit_vector()[q])
    for coord in sorted(zero_coords):
        rows.append([k.one() if c == coord else k.zero() for c in range(db * da)])
        target.append(k.zero())
    system = LinMap.from_rows(k, rows)
    particular = solve(system, target)
    if particular is None:
        return []
    kernel = kernel_basis(system)
    found = []
    for coeffs in itertools.product(k.elements(), repeat=len(kernel)):
        vec = list(particular)
        for c, basis_vec in zip(coeffs, kernel):
            if c:
                vec = [(x + c * y) % k.char for x, y in zip(vec, basis_vec)]
        f = LinMap(k, db, da, tuple(vec))
        if is_algebra_morphism(f, a, b):
            found.append(f)
    return sorted(found, key=lambda f: f.entries)


def walk_tambara_modules(p, n: int, budget: int = DEFAULT_BUDGET) -> list[tuple[LinMap, ...]]:
    """``tambara.tambara_modules`` as it was before the quadratic search: every
    assignment of n x n matrices to the generators, in ``itertools.product``
    order, with every relation evaluated on it by dense ``compose``."""
    k = p.field
    if k.is_rational:
        raise UnsupportedField("module enumeration needs a finite field")
    g = len(p.generators)
    total = k.char ** (n * n * g)
    if total > budget:
        raise BudgetExceeded(k.char, n * n * g, budget)

    def evaluate_word(word, mats):
        out = LinMap.identity(k, n)
        for t in word:
            out = compose(out, mats[t])
        return out

    def satisfies(mats):
        zero = LinMap.zero(k, n, n)
        for relation in p.relations:
            acc = zero
            for coeff, word in relation:
                acc = acc + evaluate_word(word, mats).scale(coeff)
            if not acc.is_zero():
                return False
        return True

    found = []
    cells = n * n
    for flat in itertools.product(k.elements(), repeat=cells * g):
        mats = [LinMap(k, n, n, tuple(flat[t * cells:(t + 1) * cells])) for t in range(g)]
        if satisfies(mats):
            found.append(tuple(mats))
    return found


def diagonal_algebra(k, n: int) -> Algebra:
    """k^n with orthogonal idempotents e_i and unit their sum."""
    return Algebra(LinMap.from_nonzeros(k, n, n * n, [(i, i * n + i, 1) for i in range(n)]),
                   LinMap.from_nonzeros(k, n, 1, [(i, 0, 1) for i in range(n)]))


def truncated_algebra(k, n: int) -> Algebra:
    """k[y]/(y^n) on the basis 1, y, ..., y^(n-1)."""
    return Algebra(LinMap.from_nonzeros(k, n, n * n, [(i + j, i * n + j, 1) for i in range(n)
                                                      for j in range(n - i)]),
                   LinMap.from_nonzeros(k, n, 1, [(0, 0, 1)]))


def nonassociative_dual(k, counit: Sequence) -> Coalgebra:
    """A 3-dimensional C whose C* on 1, y, z (1 a unit on both sides) has
    yy = z, yz = 1 and zy = zz = 0, so (yy)y = 0 but y(yy) = 1: C is not
    coassociative.  ``counit`` is its counit, 1* for a counital C."""
    products = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2, (1, 1): 2, (1, 2): 0}
    return Coalgebra(LinMap.from_nonzeros(k, 9, 3, [(3 * i + j, t, 1)
                                                    for (i, j), t in products.items()]),
                     LinMap.from_nonzeros(k, 1, 3, [(0, t, x) for t, x in enumerate(counit)]))


def word_span(a: Algebra) -> tuple[list[int], list[tuple[list, list]], list[list]]:
    """``structures._word_span`` as it was before its incremental echelon:
    every candidate is reduced by a fresh Gauss-Jordan pass (``_reduce``)
    over a copy of the echelon, and every product is ``mult`` applied to a
    Kronecker vector."""
    k = a.field
    d = a.dim
    one, zero = k.one(), k.zero()
    # rows [u | c] with u = sum_j c_j word_j, in reduced echelon form on u
    echelon: list[list] = []
    vectors: list[tuple] = []  # of the words

    def reduce(rows: list[list], v: Sequence, marker: int | None = None) -> list | None:
        """Reduce [v | e_marker] into ``rows``: None when v is outside their
        span, and otherwise the row is dropped and v is returned in words."""
        rows.append(list(v) + [one if j == marker else zero for j in range(d)])
        if len(_reduce(k, rows, d)) == len(rows):
            return None
        return [(j, k.neg(c)) for j, c in enumerate(rows.pop()[d:]) if c and j != marker]

    vectors.append(a.unit_vector())
    reduce(echelon, vectors[0], 0)
    basis = [tuple(one if i == t else zero for i in range(d)) for t in range(d)]
    generators, stages = [], []
    for t in range(d):
        if reduce([list(row) for row in echelon], basis[t]) is not None:
            continue
        generators.append(t)
        words, relations = [], []
        pending = deque((w, len(generators) - 1) for w in range(len(vectors)))
        while pending:
            w, g = pending.popleft()
            v = a.mult.apply([x * y for x in vectors[w] for y in basis[generators[g]]])
            combo = reduce(echelon, v, len(vectors))
            if combo is None:
                pending.extend((len(vectors), h) for h in range(len(generators)))
                vectors.append(v)
                words.append((w, g))
            else:
                relations.append((w, g, combo))
        stages.append((words, relations))
    return generators, stages, [reduce([list(row) for row in echelon], e) for e in basis]


def exhaustive_grouplikes(c: Coalgebra, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """All grouplikes of C over F_p, as ``structures.grouplikes`` once found
    them: every one of the p^dim vectors, in lexicographic order, is tested."""
    k = c.field
    d = c.dim
    one = k.one()
    out = []
    for vec in _vectors(k, d, budget):
        if c.counit.apply(vec)[0] != one:
            continue
        if is_grouplike(c, vec):
            out.append(tuple(vec))
    return out


def is_grouplike(c: Coalgebra, x: Sequence) -> bool:
    """comult x = x (x) x and counit x = 1, entry by entry."""
    k = c.field
    lhs = c.comult.apply(x)
    d = c.dim
    for i in range(d):
        for j in range(d):
            if lhs[i * d + j] != k.mul(x[i], x[j]):
                return False
    return c.counit.apply(x)[0] == k.one()


def is_simple(m):
    """No proper nonzero subcomodule: every intertwiner from a smaller
    measuring is zero (a nonzero one has a subcomodule as its image)."""
    for d in range(1, m.xdim):
        for rep, _ in enumerate_measurings(m.a, m.b, d).orbits:
            if any(not iw.f.is_zero() for iw in intertwiners(rep, m)):
                return False
    return m.xdim > 0


def gl_conjugate(f, g, g_inv, a, b):
    """f with each n x n matrix m in the middle factor of its codomain
    k^a (x) M_n(k) (x) k^b replaced by g m g^-1, by inline products."""
    k = f.field
    n = g.cod
    ge, he = g.entries, g_inv.entries
    out = list(f.entries)
    for col in range(f.dom):
        for i in range(a):
            for q in range(b):
                at = [(((i * n + r) * n + s) * b + q) * f.dom + col
                      for r in range(n) for s in range(n)]
                m = [f.entries[x] for x in at]
                gm = [sum(ge[r * n + t] * m[t * n + s] for t in range(n))
                      for r in range(n) for s in range(n)]
                for r in range(n):
                    for s in range(n):
                        out[at[r * n + s]] = k.coerce(
                            sum(gm[r * n + t] * he[t * n + s] for t in range(n)))
    return LinMap(k, f.cod, f.dom, tuple(out))


def conjugation_orbits(items, conjugates):
    """Partition the keys of ``items`` into orbits.  Each orbit is seeded from
    the smallest remaining key; ``conjugates(value)`` yields the keys it reaches."""
    remaining = dict(items)
    orbits = []
    while remaining:
        seed_key = min(remaining)
        orbit = {seed_key, *conjugates(remaining.pop(seed_key))}
        for key in orbit:
            remaining.pop(key, None)
        orbits.append(frozenset(orbit))
    return orbits


def conjugation_partition(maps, n, a, b):
    """The GL_n(k)-conjugation orbits of maps into k^a (x) M_n(k) (x) k^b,
    each as the set of its members' entry tuples, by conjugating with every
    element of the group: morphisms A -> M_n(B) with a = 1 and b = dim B,
    Tambara modules with a = #generators, b = 1 and the generator matrices
    stacked in one column."""
    if not maps:
        return []
    gl = [(g, invert(g)) for g in general_linear_group(maps[0].field, n)]
    return conjugation_orbits(
        {f.entries: f for f in maps},
        lambda f: (gl_conjugate(f, g, g_inv, a, b).entries for g, g_inv in gl))


def gl_order(p, n):
    """|GL_n(F_p)| = prod_{i < n} (p^n - p^i)."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def orbit_size_by_stabiliser(rep) -> int:
    """The size of the GL_n(F_p)-conjugation orbit of the measuring ``rep``,
    by orbit-stabiliser and not by closing the orbit: |GL_n(F_p)| / |Aut(rep)|.
    The stabiliser Aut(rep) is the set of invertible elements of End(rep) =
    ``intertwiners(rep, rep)``, found by walking that span and testing rank."""
    k, n = rep.field, rep.xdim
    basis = [iw.f.entries for iw in intertwiners(rep, rep)]
    units = 0
    for coeffs in itertools.product(k.elements(), repeat=len(basis)):
        entries = tuple(sum(c * t[i] for c, t in zip(coeffs, basis)) % k.char
                        for i in range(n * n))
        units += reference_rank(LinMap(k, n, n, entries)) == n
    order = gl_order(k.char, n)
    assert order % units == 0, "Aut(rep) is not a subgroup of GL_n"
    return order // units


# The Hom-walk orbit routine the library once used: an item joins a class
# when a Hom space from the seed holds an invertible map.


def isomorphism_classes(items: Sequence, hom, invariant,
                        budget: int = DEFAULT_BUDGET) -> list[list]:
    """Partition ``items`` into isomorphism classes, each seeded by its first member.

    ``hom(x, y)`` is a basis of the n x n matrices T with T x = y T, such as
    the intertwiners of two measurings or of two modules, and isomorphic
    items have equal ``invariant(x)``, such as :func:`conjugation_invariant`.
    An item joins the first class, among those whose seed has its invariant,
    whose seed it is isomorphic to: Hom(seed, item) has the dimension of
    End(seed), and its span, walked lexicographically, holds an invertible T.
    Each walk counts p^dim Hom candidates against the budget.  Items in
    sorted order make each seed the smallest member of its class; no group
    is listed and nothing is inverted.
    """
    classes = []
    buckets: dict = {}  # invariant -> [(seed, dim End(seed), members)] in class order
    for item in items:
        bucket = buckets.setdefault(invariant(item), [])
        for seed, end_dim, members in bucket:
            basis = hom(seed, item)
            # only a 0-dimensional seed has End(seed) = 0, and 0-dim items are isomorphic
            if len(basis) == end_dim and (end_dim == 0 or _spans_invertible(basis, budget)):
                members.append(item)
                break
        else:
            classes.append([item])
            bucket.append((item, len(hom(item, item)), classes[-1]))
    return classes


def conjugation_invariant(mats: Sequence[LinMap]) -> tuple:
    """rank(m - c.1) for each n x n matrix m and each scalar c of a prime
    field, in order: unchanged when every m becomes g m g^-1."""
    out = []
    for m in mats:
        k, n = m.field, m.cod
        for c in k.elements():
            shifted = [[k.sub(x, c) if i == j else x for j, x in enumerate(m.row_at(i))]
                       for i in range(n)]
            out.append(len(_reduce(k, shifted, n)))
    return tuple(out)


def _spans_invertible(basis: Sequence[LinMap], budget: int) -> bool:
    """Whether the span of a nonempty basis of n x n maps holds an invertible map."""
    field = basis[0].field
    n = basis[0].cod
    p = field.char
    for coeffs in _vectors(field, len(basis), budget):
        if not any(coeffs):
            continue
        acc = [0] * (n * n)
        for c, t in zip(coeffs, basis):
            if c:
                for i, x in enumerate(t.entries):
                    acc[i] += c * x
        if is_invertible(LinMap(field, n, n, tuple(x % p for x in acc))):
            return True
    return False


def dense_reconstruct(measurings, morphisms, a, b):
    """The coend stage by dense direct sums, as ``reconstruct`` once built it.

    The comultiplication, counit and pairing of the whole direct sum of
    comatrix coalgebras are written out as dense matrices, pushed along the
    quotient by the coend relations of ``morphisms`` (source, target, map)
    and checked to kill every relation; InducedStructureIllDefined is raised
    when one does not.  Returns (d, pairing, projections, section)."""
    k = a.field
    xdims = [m.xdim for m in measurings]
    starts = []
    total = 0
    for x in xdims:
        starts.append(total)
        total += x * x
    relations = []
    for i, j, f in morphisms:
        xi, xj = xdims[i], xdims[j]
        for r in range(xj):
            for c in range(xi):
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
                    relations.append(vec)

    # the quotient: its basis is the non-pivot coordinates of the echelon form
    if relations:
        echelon, pivots = rref(LinMap.from_rows(k, relations))
    else:
        echelon, pivots = LinMap.zero(k, 0, total), ()
    free = [c for c in range(total) if c not in pivots]
    d = len(free)
    proj = [[k.zero()] * total for _ in range(d)]
    for col in range(total):
        if col in pivots:
            r = pivots.index(col)
            for out, fc in enumerate(free):
                val = echelon.entries[r * total + fc]
                if val != 0:
                    proj[out][col] = k.neg(val)
        else:
            proj[free.index(col)][col] = k.one()
    proj = LinMap.from_rows(k, proj) if d else LinMap.zero(k, 0, total)
    section = (LinMap.from_rows(k, [[k.one() if free[c] == r else k.zero() for c in range(d)]
                                    for r in range(total)])
               if total else LinMap.zero(k, 0, d))

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
    comult_sum = LinMap.from_rows(k, comult_sum) if total else LinMap.zero(k, 0, 0)
    counit_sum = LinMap.row(k, counit_sum)
    da, db = a.dim, b.dim
    beta_sum = [[k.zero()] * (da * total) for _ in range(db)]
    for idx, m in enumerate(measurings):
        x = m.xdim
        for t in range(da):
            for s in range(x):
                for c in range(x):
                    for q in range(db):
                        val = m.psi.entries[(s * db + q) * (da * x) + t * x + c]
                        if val != 0:
                            beta_sum[q][t * total + starts[idx] + s * x + c] = val
    beta_sum = LinMap.from_rows(k, beta_sum)

    descended = compose_slot(comult_sum, proj, total, 1, after=True)
    descended = compose_slot(descended, proj, 1, d, after=True)
    for vec in relations:
        if any(x != 0 for x in descended.apply(vec)):
            raise InducedStructureIllDefined("comultiplication does not descend")
        if any(x != 0 for x in counit_sum.apply(vec)):
            raise InducedStructureIllDefined("counit does not descend")
        if not compose_slot(beta_sum, LinMap.column(k, vec), da, 1, after=False).is_zero():
            raise InducedStructureIllDefined("pairing does not descend")
    coalgebra = Coalgebra(comult=dense_compose(descended, section),
                          counit=dense_compose(counit_sum, section))
    pairing = compose_slot(beta_sum, section, da, 1, after=False)
    projections = tuple(
        LinMap(k, d, x * x, tuple(proj.entries[r * total + starts[idx] + c]
                                  for r in range(d) for c in range(x * x)))
        for idx, x in enumerate(xdims))
    return coalgebra, pairing, projections, section


def _section_blocks(section, xdims):
    """S_i: the rows of the section on the i-th summand coend(X_i)."""
    d = section.dom
    blocks = []
    start = 0
    for x in xdims:
        end = start + x * x
        blocks.append(LinMap(section.field, x * x, d, section.entries[start * d:end * d]))
        start = end
    return blocks


def section_product(g1, g2, g12):
    """The product D1 (x) D2 -> D12 of generated stages as
    ``product_on_generated`` once assembled it: for each generator pair (i, j),
    the canonical map coend(X_i) (x) coend(Y_j) -> coend(X_i (x) Y_j) pushed
    to D12 along the pair's projection, pulled back along the section rows
    S_i (x) S_j, and the blocks summed.  No check is made."""
    n2 = len(g2.generators)
    blocks = [(i, j, mi.xdim, mj.xdim) for i, mi in enumerate(g1.generators)
              for j, mj in enumerate(g2.generators)]
    s1 = _section_blocks(g1.section, [m.xdim for m in g1.generators])
    s2 = _section_blocks(g2.section, [m.xdim for m in g2.generators])
    d1, d2, d12 = g1.d.dim, g2.d.dim, g12.d.dim
    result = LinMap.zero(g1.a.field, d12, d1 * d2)
    for i, j, x, y in blocks:
        # f_ab (x) g_cd -> F_(a,c),(b,d): the projection read on axes (a, b, c, d)
        piece = permute_axes(g12.projections[i * n2 + j], (d12, x, y, x, y), (0, 1, 3, 2, 4), 1)
        result = result + composite([(s2[j], d1, 1), (s1[i], 1, y * y), (piece, 1, 1)], d1 * d2)
    return result


def _grown_span(field, start, extend, flat):
    """A spanning list of the span of ``start`` and its images under
    ``extend`` (each element's list of next elements), closed length by
    length: the elements are stacked as the columns of one matrix, and only
    the new elements at the pivot columns of its ``rref`` (they raise the
    rank) are extended again, until the rank stops rising."""
    kept, new = [start], [start]
    while new:
        stacked = kept + [nxt for element in new for nxt in extend(element)]
        columns = LinMap.from_rows(field, [flat(element) for element in stacked]).transpose()
        new = [stacked[c] for c in rref(columns)[1] if c >= len(kept)]
        kept += new
    return kept


def block_algebra_dim(measurings) -> int:
    """dim E, for E the algebra that the blocks M_{t,q}[a, b] =
    psi_i[(a, q), (t, b)] of the measurings generate in the product of the
    End(X_i), from dense words: one matrix per generator, multiplied on the
    right by a block with ``compose`` per generator, from the identity."""
    if not measurings:
        return 0
    k, da, db = measurings[0].field, measurings[0].a.dim, measurings[0].b.dim
    blocks = [[LinMap(k, m.xdim, m.xdim, tuple(m.psi[a * db + q, t * m.xdim + b]
                                               for a in range(m.xdim) for b in range(m.xdim)))
               for m in measurings] for t in range(da) for q in range(db)]
    words = _grown_span(
        k, [LinMap.identity(k, m.xdim) for m in measurings],
        lambda word: [[compose(w, block) for w, block in zip(word, row)] for row in blocks],
        lambda word: [v for w in word for v in w.entries])
    return rank(LinMap.from_rows(k, [[v for w in word for v in w.entries] for word in words]))


def pairing_rank(g) -> int:
    """The rank of the functionals on D that the counit and the iterated
    pairings beta^(n)(e_t1 (x) ... (x) e_tn (x) c) = beta(e_t1 (x) c_(1)) (x) ...
    (x) beta(e_tn (x) c_(n)) in B^(x)n make, one for each coordinate: dim D
    exactly when the pairing separates D.  The coordinate (q1, ..., qn) is the
    functional psi_((t1, q1) ... (tn, qn)), a dense row with psi_() = counit
    and psi_((t, q) w) = (beta_tq (x) psi_w).comult_D, beta_tq = e^q.beta(e_t (x) -)."""
    k, d, db = g.a.field, g.d.dim, g.b.dim
    if d == 0:
        return 0
    betas = [LinMap(k, 1, d, tuple(g.pairing[q, t * d + c] for c in range(d)))
             for t in range(g.a.dim) for q in range(db)]
    functionals = _grown_span(
        k, g.d.counit,
        lambda psi: [dense_compose(dense_kron(beta, psi), g.d.comult) for beta in betas],
        lambda psi: list(psi.entries))
    return rank(LinMap.from_rows(k, [psi.entries for psi in functionals]))


# ---------------------------------------------------------------------------
# dense axiom checks: every composite written out, compared column by column


def _unflatten(index, dims):
    idx = []
    for d in reversed(dims):
        index, i = divmod(index, d)
        idx.append(i)
    return tuple(reversed(idx))


def _dense_check(failures, axiom, lhs, rhs, dims, by_row=False):
    """Append (axiom, witness) for the first differing column of two dense
    maps, or the first differing row with ``by_row``."""
    if lhs.entries == rhs.entries:
        return
    count, line = (lhs.cod, "row_at") if by_row else (lhs.dom, "col_at")
    for i in range(count):
        if getattr(lhs, line)(i) != getattr(rhs, line)(i):
            failures.append((axiom, _unflatten(i, dims)))
            return


def dense_algebra_failures(a):
    d = a.dim
    m = a.mult
    ident = LinMap.identity(a.field, d)
    failures = []
    _dense_check(failures, "associativity", compose_slot(m, m, 1, d, after=False),
                 compose_slot(m, m, d, 1, after=False), (d, d, d))
    _dense_check(failures, "left unit", compose_slot(m, a.unit, 1, d, after=False), ident, (d,))
    _dense_check(failures, "right unit", compose_slot(m, a.unit, d, 1, after=False), ident,
                 (d,))
    return failures


def dense_coalgebra_failures(c):
    d = c.dim
    delta = c.comult
    ident = LinMap.identity(c.field, d)
    failures = []
    _dense_check(failures, "coassociativity", compose_slot(delta, delta, 1, d, after=True),
                 compose_slot(delta, delta, d, 1, after=True), (d, d, d), by_row=True)
    _dense_check(failures, "left counit", compose_slot(delta, c.counit, 1, d, after=True),
                 ident, (d,))
    _dense_check(failures, "right counit", compose_slot(delta, c.counit, d, 1, after=True),
                 ident, (d,))
    return failures


def dense_bialgebra_failures(b, braiding, multiplicative="comult multiplicative"):
    """Algebra and coalgebra axioms, then the comultiplication and counit as
    algebra morphisms for (mult (x) mult).(1 (x) braiding (x) 1)."""
    d = b.dim
    failures = dense_algebra_failures(b.algebra) + dense_coalgebra_failures(b.coalgebra)
    rhs = compose_slot(dense_kron(b.mult, b.mult), braiding, d, d, after=False)
    rhs = compose_slot(rhs, b.comult, 1, d * d, after=False)
    rhs = compose_slot(rhs, b.comult, d, 1, after=False)
    _dense_check(failures, multiplicative, dense_compose(b.comult, b.mult), rhs, (d, d))
    _dense_check(failures, "comult unital", dense_compose(b.comult, b.unit),
                 dense_kron(b.unit, b.unit), (1,))
    _dense_check(failures, "counit multiplicative", dense_compose(b.counit, b.mult),
                 dense_kron(b.counit, b.counit), (d, d))
    _dense_check(failures, "counit unital", dense_compose(b.counit, b.unit),
                 LinMap.identity(b.field, 1), (1,))
    return failures


def dense_antipode_failures(b, s):
    d = b.dim
    unit_counit = dense_compose(b.unit, b.counit)
    failures = []
    _dense_check(failures, "left antipode",
                 dense_compose(compose_slot(b.mult, s, 1, d, after=False), b.comult),
                 unit_counit, (d,))
    _dense_check(failures, "right antipode",
                 dense_compose(compose_slot(b.mult, s, d, 1, after=False), b.comult),
                 unit_counit, (d,))
    return failures


def convolution_inverse(b, twisted):
    """Solve mult.(s (x) 1).D = unit.counit = mult.(1 (x) s).D for s, where
    D = comult (antipode) or swap.comult (opantipode).  None if inconsistent.

    Both operators on s are written entry by entry from the dense tables:
    at row (r, c), the unknown s[x, y] meets D[(y, z), c] and mult[r, (x, z)]
    on the left, and s[x, z] meets D[(y, z), c] and mult[r, (y, x)] on the right."""
    d = b.dim
    k = b.field
    mult, comult = b.mult.entries, b.comult.entries
    rhs = [k.mul(u, e) for u in b.unit.entries for e in b.counit.entries]
    triples = list(itertools.product(range(d), repeat=3))
    rows = []
    for left in (True, False):
        for r, c in itertools.product(range(d), repeat=2):
            row = [0] * (d * d)
            for x, y, z in triples:
                dlt = comult[((z * d + y) if twisted else (y * d + z)) * d + c]
                if left:
                    row[x * d + y] += mult[r * d * d + x * d + z] * dlt
                else:
                    row[x * d + z] += mult[r * d * d + y * d + x] * dlt
            rows.append([*map(k.coerce, row), rhs[r * d + c]])
    pivots = dense_reduce(k, rows, d * d + 1)
    if d * d in pivots:
        return None
    solution = [k.zero()] * (d * d)
    for row, c in zip(rows, pivots):
        solution[c] = row[d * d]
    return LinMap(k, d, d, tuple(solution))


def dense_measuring_failures(m):
    k = m.field
    da, x, db = m.a.dim, m.xdim, m.b.dim
    failures = []
    rhs = compose_slot(dense_kron(LinMap.identity(k, da), m.psi), m.psi, 1, db, after=True)
    rhs = compose_slot(rhs, m.b.mult, x, 1, after=True)
    _dense_check(failures, "measuring multiplicativity",
                 compose_slot(m.psi, m.a.mult, 1, x, after=False), rhs, (da, da, x))
    _dense_check(failures, "measuring unit", compose_slot(m.psi, m.a.unit, 1, x, after=False),
                 dense_kron(LinMap.identity(k, x), m.b.unit), (x,))
    return failures


def reference_differ_at(axiom) -> int | None:
    """The engine of ``structures._differ_at`` on the axiom's documented side
    only: the first basis vector (by row, the first row) at which the two
    chains differ, found by running every basis vector of that side, or None."""
    dom = prod(axiom.dims)
    if dom == 0:
        return None
    chains = [_chain_steps(chain, axiom.by_row) for chain in (axiom.lhs, axiom.rhs)]
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


def dense_homogeneity_failures(name, f, cod_degs, dom_degs):
    """[(axiom, witness)] for the first entry of f, in row-major order, that is
    nonzero between basis vectors of different degrees; every entry is read."""
    out = []
    for r in range(f.cod):
        for c in range(f.dom):
            if f.entries[r * f.dom + c] != 0 and cod_degs[r] != dom_degs[c]:
                out.append((f"{name} homogeneity", (r, c)))
                return out
    return out


def hom_walk_morphism_classes(a, b, n, morphisms):
    """The classes of morphisms A -> M_n(B) as measurings, by the Hom-walk
    routine: items bucketed by the conjugation invariant of their n x n
    blocks M_{t,q}[i, j] = psi[(i, q), (t, j)]."""
    measurings = [measuring_from_matrix_morphism(rho, a, b, n) for rho in morphisms]

    def invariant(m):
        stacked = permute_axes(m.psi, (n, b.dim, a.dim, n), (2, 1, 0, 3), 3).entries
        return conjugation_invariant([LinMap(a.field, n, n, stacked[s * n * n:(s + 1) * n * n])
                                      for s in range(a.dim * b.dim)])

    return isomorphism_classes(
        measurings, lambda m1, m2: [iw.f for iw in intertwiners(m1, m2)], invariant)


# ---------------------------------------------------------------------------
# the Tambara layer through a sparse polynomial algebra and dense LinMap sums:
# the relations and the canonical identification computed the long way


def _poly_add(field, p, q, scale=None):
    out = dict(p)
    for word, coeff in q.items():
        if scale is not None:
            coeff = field.mul(scale, coeff)
        acc = field.add(out.get(word, field.zero()), coeff)
        if acc == 0:
            out.pop(word, None)
        else:
            out[word] = acc
    return out


def _poly_mul(field, p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            word = w1 + w2
            acc = field.add(out.get(word, field.zero()), field.mul(c1, c2))
            if acc == 0:
                out.pop(word, None)
            else:
                out[word] = acc
    return out


def _canonical(poly):
    return tuple((poly[w], w) for w in sorted(poly, key=lambda w: (len(w), w)))


def _reference_forms(a, b):
    """Every coordinate x_{i,j} as (constant, ((generator, coefficient), ...)),
    the pivot coordinate of 1_B eliminated by the unit relation."""
    k = same_field(a.field, b.field)
    unit_a, unit_b = a.unit_vector(), b.unit_vector()
    pivot = next(j for j, u in enumerate(unit_b) if u != 0)
    inv_pivot = k.inv(unit_b[pivot])
    generators = [(i, j) for i in range(a.dim) for j in range(b.dim) if j != pivot]
    index = {ij: g for g, ij in enumerate(generators)}
    forms = {ij: (k.zero(), ((g, k.one()),)) for ij, g in index.items()}
    for i in range(a.dim):
        forms[i, pivot] = (k.mul(inv_pivot, unit_a[i]),
                           tuple((index[i, j], k.neg(k.mul(inv_pivot, u)))
                                 for j, u in enumerate(unit_b) if j != pivot and u != 0))
    return generators, forms


def reference_presentation(a, b):
    """(generator pairs (i, j), relations) of a(A, B), each relation
    ((coeff, word), ...) expanded in a polynomial algebra on the words."""
    k = same_field(a.field, b.field)
    da, db = a.dim, b.dim
    pairs, forms = _reference_forms(a, b)

    def image(i, j):
        """The linear polynomial representing x_{i,j}."""
        const, terms = forms[i, j]
        poly = {(): const} if const != 0 else {}
        poly.update(((g,), c) for g, c in terms)
        return poly

    relations = []
    for j in range(db):
        for l in range(db):
            product_col = b.mult.col_at(j * db + l)  # beta_j * beta_l in B
            for t in range(da):
                # sum_{i,u} c^t_{iu} x_{i,j} x_{u,l}  -  sum_m (beta_j beta_l)_m x_{t,m}
                poly = {}
                for i in range(da):
                    pi = image(i, j)
                    if not pi:
                        continue
                    for u in range(da):
                        coeff = a.mult[t, i * da + u]
                        if coeff == 0:
                            continue
                        pu = image(u, l)
                        if not pu:
                            continue
                        poly = _poly_add(k, poly, _poly_mul(k, pi, pu), scale=coeff)
                for m in range(db):
                    coeff = product_col[m]
                    if coeff == 0:
                        continue
                    poly = _poly_add(k, poly, image(t, m), scale=k.neg(coeff))
                if poly:
                    relations.append(_canonical(poly))
    return pairs, tuple(relations)


def reference_module_to_matrix_morphism(a, b, mats, n):
    """rho(beta_j) = sum_i a_i (x) m(x_{i,j}) as dense sums of scaled matrices,
    stacked on rows (j, i) and moved to rows (r, s, i)."""
    k = same_field(a.field, b.field)
    da, db = a.dim, b.dim
    _, forms = _reference_forms(a, b)

    def matrix_of(i, j):
        const, terms = forms[i, j]
        out = LinMap.identity(k, n).scale(const)
        for g, c in terms:
            out = out + mats[g].scale(c)
        return out

    blocks = LinMap(k, db * da, n * n, tuple(x for j in range(db) for i in range(da)
                                             for x in matrix_of(i, j).entries))
    return permute_axes(blocks, (db, da, n, n), (2, 3, 1, 0), 3)


def all_pairs_intertwiners_matched(a, b, n) -> bool:
    """The Tambara check's intertwiner comparison on every ordered pair of
    n-dimensional modules, as the library once ran it: the module Hom space
    against the Hom space of the two measurings, each module converted once
    through ``tambara.module_to_matrix_morphism``, looked up at call time so
    that a patched translation is the one compared."""
    p = tambara.tambara_presentation(a, b)
    modules = tambara.tambara_modules(p, n)
    mus = [measuring_from_matrix_morphism(tambara.module_to_matrix_morphism(p, a, b, mats, n),
                                          b, a, n) for mats in modules]
    return all([t.entries for t in tambara.module_intertwiners(m1, m2, p.field, n)]
               == [iw.f.entries for iw in intertwiners(mu1, mu2)]
               for m1, mu1 in zip(modules, mus) for m2, mu2 in zip(modules, mus))


# ---------------------------------------------------------------------------
# dense elimination: the batch Gauss-Jordan routine and the incremental
# echelon the library once ran on dense rows, and the solvers, the span of
# words and the quotient by relations written on them


def _reduce(k: Field, rows: list[list], ncols: int) -> tuple[int, ...]:
    """Gauss-Jordan elimination of ``rows`` in place, pivoting in the first
    ``ncols`` columns: leftmost pivot, lowest-index row first.

    The pivot row is normalised once and its nonzeros listed; only the rows
    with a nonzero in the pivot column are updated, at those positions.
    """
    p = k.char
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
            continue
        pivot = rows[pivot_row]
        rows[r], rows[pivot_row] = pivot, rows[r]
        # the pivot row is zero left of c
        support = list(compress(range(c, len(pivot)), pivot[c:]))
        if pivot[c] != 1:
            inv = k.inv(pivot[c])
            for j in support:
                pivot[j] = pivot[j] * inv % p if p else pivot[j] * inv
        nonzeros = [(j, pivot[j]) for j in support]
        for row in compress(rows, map(itemgetter(c), rows)):
            if row is not pivot:
                factor = row[c]
                if p:
                    for j, y in nonzeros:
                        row[j] = (row[j] - factor * y) % p
                else:
                    for j, y in nonzeros:
                        row[j] -= factor * y
        pivots.append(c)
        r += 1
    return tuple(pivots)


def reduce_row(k: Field, echelon: dict[int, list], row: list) -> None:
    """Clear the pivot columns of an incremental echelon {pivot column: row,
    1 there and 0 at the other pivots} from ``row``, in place."""
    p = k.char
    for c in [c for c in echelon if row[c]]:
        factor, pivot_row = row[c], echelon[c]
        for j in compress(range(c, len(row)), pivot_row[c:]):
            row[j] = (row[j] - factor * pivot_row[j]) % p if p else row[j] - factor * pivot_row[j]


def insert_row(k: Field, echelon: dict[int, list], row: list, ncols: int) -> None:
    """Add ``row``, already reduced, normalised at its leftmost nonzero among
    the first ``ncols`` columns, and clear that column from the other rows; a
    row with no nonzero there is left out."""
    c = next(compress(range(ncols), row), None)
    if c is not None:
        inv = k.inv(row[c])
        for j in compress(range(c, len(row)), row[c:]):
            row[j] = k.mul(row[j], inv)
        for other in echelon.values():
            reduce_row(k, {c: row}, other)
        echelon[c] = row


def reference_rref(f: LinMap) -> tuple[LinMap, tuple[int, ...]]:
    rows = [list(f.row_at(r)) for r in range(f.cod)]
    pivots = _reduce(f.field, rows, f.dom)
    return LinMap(f.field, f.cod, f.dom, tuple(x for row in rows for x in row)), pivots


def reference_rank(f: LinMap) -> int:
    return len(reference_rref(f)[1])


def reference_kernel_basis(f: LinMap) -> list[tuple]:
    echelon, pivots = reference_rref(f)
    return reference_null_vectors(f.field, {c: echelon.row_at(r) for r, c in enumerate(pivots)},
                                  f.dom)


def reference_null_vectors(k: Field, echelon: dict[int, Sequence], n: int) -> list[tuple]:
    one, zero = k.one(), k.zero()
    return [tuple(one if i == j else k.neg(echelon[i][j]) if i in echelon else zero
                  for i in range(n)) for j in range(n) if j not in echelon]


def reference_invert(f: LinMap) -> LinMap:
    if f.cod != f.dom:
        raise DimensionMismatch(f"only square maps can be inverted, got {f.cod}x{f.dom}")
    k = f.field
    n = f.cod
    one, zero = k.one(), k.zero()
    rows = [list(f.row_at(r)) + [one if i == r else zero for i in range(n)] for r in range(n)]
    found = len(_reduce(k, rows, n))
    if found < n:
        raise Singular(found)
    return LinMap(k, n, n, tuple(x for row in rows for x in row[n:]))


def reference_solve(f: LinMap, target: Sequence) -> tuple | None:
    k = f.field
    aug = LinMap(k, f.cod, f.dom + 1,
                 tuple(x for r in range(f.cod)
                       for x in (*f.row_at(r), k.coerce(target[r]))))
    echelon, pivots = reference_rref(aug)
    if f.dom in pivots:
        return None
    sol = [k.zero()] * f.dom
    for r, p in enumerate(pivots):
        sol[p] = echelon.entries[r * (f.dom + 1) + f.dom]
    return tuple(sol)


def reference_matrix_equation_kernel(field: Field, shape, equations) -> list[LinMap]:
    """The kernel of the rows the equations write, each made a dense row of
    canonical scalars and eliminated by ``_reduce``."""
    nvars = shape[0] * shape[1]
    rows = [[field.coerce(row.get(j, 0)) for j in range(nvars)] for equation in equations
            for row in _equation_rows(shape, equation).values()]
    pivots = _reduce(field, rows, nvars)
    return [LinMap(field, shape[0], shape[1], vec)
            for vec in reference_null_vectors(field, dict(zip(pivots, rows)), nvars)]


def reference_quotient_by_rows(field: Field, n: int, relations) -> tuple[list[tuple], LinMap]:
    """``reconstruction._quotient_by_rows`` on dense rows."""
    echelon: dict[int, list] = {}
    for row in relations:
        reduce_row(field, echelon, row)
        insert_row(field, echelon, row, n)
    free = [j for j in range(n) if j not in echelon]
    return (reference_null_vectors(field, echelon, n),
            LinMap.from_nonzeros(field, n, len(free), [(j, c, 1) for c, j in enumerate(free)]))


def reference_span_of_words(field: Field, measurings, starts: list[int],
                            total: int) -> tuple[list[list], LinMap]:
    """``reconstruction._span_of_words`` on dense rows."""
    p = field.char
    blocks: dict[tuple[int, int], dict[int, list]] = {}
    for start, m in zip(starts, measurings):
        x, db = m.xdim, m.b.dim
        for col, column in enumerate(m.psi.nonzeros(by_col=True)):
            t, b = divmod(col, x)
            for r, v in column:
                a, q = divmod(r, db)
                blocks.setdefault((t, q), {}).setdefault(start + a * x, []).append((b, v))
    where = [(start + s * m.xdim, start + a * m.xdim) for start, m in zip(starts, measurings)
             for a in range(m.xdim) for s in range(m.xdim)]
    echelon: dict[int, list] = {}
    zero = field.zero()

    def insert(nonzeros) -> list | None:
        row = [zero] * total
        for pos, v in nonzeros:
            row[total - 1 - pos] = v % p if p else field.coerce(v)
        reduce_row(field, echelon, row)
        if not any(row):
            return None
        insert_row(field, echelon, row, total)
        return [(total - 1 - c, v) for c, v in enumerate(row) if v]

    identity = insert((start + a * m.xdim + a, 1) for start, m in zip(starts, measurings)
                      for a in range(m.xdim))
    pending = [identity] if identity else []
    for u in pending:
        for block in blocks.values():
            product: dict[int, object] = {}
            for pos, x in u:
                row, base = where[pos]
                for b, v in block.get(row, ()):
                    product[base + b] = product.get(base + b, 0) + x * v
            remainder = insert(product.items())
            if remainder:
                pending.append(remainder)
    pivots = sorted(total - 1 - c for c in echelon)
    section = [(j, c, 1) for c, j in enumerate(pivots)]
    return ([echelon[total - 1 - j][::-1] for j in pivots],
            LinMap.from_nonzeros(field, total, len(pivots), section))


def operator_matrix(field: Field, shape, equation) -> LinMap:
    """The matrix of X -> (X (x) 1_b).psi1 - psi2.(1_a (x) X) for an equation
    (psi1, psi2, a, b), written from the sparse rows ``linalg._equation_rows``
    sums."""
    (n2, n1), (_, _, a, b) = shape, equation
    rows = _equation_rows(shape, equation)
    return LinMap.from_nonzeros(field, n2 * b * a * n1, n2 * n1,
                                [(r, c, v) for r, row in rows.items() for c, v in row.items()])
