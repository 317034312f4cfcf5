"""Tambara's coendomorphism algebra a(A, B) at the representation level.

The algebra is presented by generators x_{i,beta}, the coefficients along a
basis {a_i} of A of the universal map delta: B -> A (x) a(A,B), with the
relations that make delta unital and multiplicative.  Unitality eliminates
the pivot coordinates, so each coordinate x_{i,j} is a linear form in the
generators, kept in one table as its nonzero terms (word, coefficient).
The relations multiply the terms of two coordinates, and the canonical
identification rho(beta_j) = sum_i a_i (x) m(x_{i,j}) writes each term's
matrix into rho.  Through it the n-dimensional modules, enumerated
independently, are matched with the algebra morphisms B -> M_n(A).  GL_n(k)
acts on both by conjugation, and Hom(g.M1, h.M2) = h Hom(M1, M2) g^-1 on
each side; so once the identification commutes with the generator moves of
GL_n(k), hence with the whole group, the Hom spaces of all pairs agree as
soon as those of the pairs of orbit representatives do.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionViolated, UnsupportedField
from .fields import Field, Value, same_field
from .linalg import LinMap, matrix_equation_kernel
from .structures import (
    DEFAULT_BUDGET,
    Algebra,
    _conjugated,
    _moves,
    _QuadraticSearch,
    conjugation_classes,
)

Word = tuple[int, ...]
Forms = dict[tuple[int, int], list[tuple[Word, object]]]  # x_{i,j} -> its nonzero terms


class PresentedAlgebra(Value):
    field: Field
    generators: tuple[str, ...]
    relations: tuple[tuple[tuple[object, Word], ...], ...]
    # each relation: ((coeff, word), ...) sorted by (len(word), word)

    def __init__(self, field, generators, relations):
        vars(self).update(field=field, generators=generators, relations=relations)


def _generator_forms(a: Algebra, b: Algebra) -> tuple[list[tuple[int, int]], Forms]:
    """The generators x_{i,j} of a(A, B), numbered in the order of the first
    list, and every coordinate x_{i,j} as its nonzero terms (word,
    coefficient): the constant on the empty word () and generator g on (g,).

    The pivot, the first nonzero coordinate u_pivot of 1_B, is eliminated by
    the unit relation delta(1_B) = 1_A (x) 1:
    x_{i,pivot} = (1/u_pivot) ((1_A)_i * 1 - sum_{j != pivot} u_j x_{i,j}).
    """
    k = same_field(a.field, b.field)
    unit_a, unit_b = a.unit_vector(), b.unit_vector()
    pivot = next(j for j, u in enumerate(unit_b) if u != 0)
    inv_pivot = k.inv(unit_b[pivot])
    generators = [(i, j) for i in range(a.dim) for j in range(b.dim) if j != pivot]
    index = {ij: g for g, ij in enumerate(generators)}
    forms = {ij: [((g,), k.one())] for ij, g in index.items()}
    for i in range(a.dim):
        const = k.mul(inv_pivot, unit_a[i])
        forms[i, pivot] = ([((), const)] if const != 0 else []) + [
            ((index[i, j],), k.neg(k.mul(inv_pivot, u)))
            for j, u in enumerate(unit_b) if j != pivot and u != 0]
    return generators, forms


def tambara_presentation(a: Algebra, b: Algebra,
                         a_labels: list[str] | None = None,
                         b_labels: list[str] | None = None) -> PresentedAlgebra:
    """Finite presentation of the coendomorphism algebra of (A, B).

    Generators x_{i,beta} for every A-basis index i and non-pivot B-basis
    element beta; the pivot coordinates of delta(1_B) = 1_A (x) 1 are
    eliminated.  One (possibly zero, then dropped) relation per pair of
    B-basis elements and A-coordinate.
    """
    k = same_field(a.field, b.field)
    da, db = a.dim, b.dim
    if a_labels is None:
        a_labels = [f"a{i}" for i in range(da)]
    if b_labels is None:
        b_labels = [f"b{j}" for j in range(db)]
    pairs, forms = _generator_forms(a, b)
    generators = [f"x_{{{a_labels[i]},{b_labels[j]}}}" for i, j in pairs]
    zero = k.zero()
    structure = a.mult.nonzeros(by_col=False)  # row t: (i * da + u, c^t_{iu})
    products = b.mult.nonzeros(by_col=True)  # column (j, l): beta_j * beta_l in B

    relations = []
    for j in range(db):
        for l in range(db):
            for t in range(da):
                # sum_{i,u} c^t_{iu} x_{i,j} x_{u,l}  -  sum_m (beta_j beta_l)_m x_{t,m}
                terms: dict[Word, object] = {}
                for iu, c in structure[t]:
                    i, u = divmod(iu, da)
                    for w1, c1 in forms[i, j]:
                        for w2, c2 in forms[u, l]:
                            word = w1 + w2
                            terms[word] = k.add(terms.get(word, zero), k.mul(c, k.mul(c1, c2)))
                for m, c in products[j * db + l]:
                    for w, cw in forms[t, m]:
                        terms[w] = k.sub(terms.get(w, zero), k.mul(c, cw))
                relation = tuple((terms[w], w) for w in sorted(terms, key=lambda w: (len(w), w))
                                 if terms[w] != 0)
                if relation:
                    relations.append(relation)
    return PresentedAlgebra(k, tuple(generators), tuple(relations))


# ---------------------------------------------------------------------------
# module enumeration and the correspondence with measurings


def tambara_modules(p: PresentedAlgebra, n: int,
                    budget: int = DEFAULT_BUDGET) -> list[tuple[LinMap, ...]]:
    """All n-dimensional modules: assignments of n x n matrices to the
    generators satisfying every relation; lexicographic order of the
    generator matrices' entries, generator by generator and row by row.

    Those entries are the free coordinates of one quadratic search
    (``structures._QuadraticSearch``), visited in the order of its schedule
    and sorted after.  Coordinate (i, j) of a relation must vanish; its word
    xy gives sum_l c x[i, l] y[l, j], its word x gives c x[i, j], and its
    empty word c on the diagonal."""
    k = p.field
    if k.is_rational:
        raise UnsupportedField("module enumeration needs a finite field")
    g, cells = len(p.generators), n * n
    quadratic = _QuadraticSearch(k, g * cells, budget)

    def slot(t: int, i: int, j: int) -> int:
        return 1 + t * cells + i * n + j

    for relation in p.relations:
        for i, j in itertools.product(range(n), repeat=2):
            terms = []
            for c, word in relation:
                if len(word) == 2:
                    terms += [(slot(word[0], i, l), slot(word[1], l, j), c) for l in range(n)]
                elif len(word) == 1:
                    terms.append((0, slot(word[0], i, j), c))
                elif word:
                    raise PreconditionViolated("module search needs relations of degree <= 2")
                elif i == j:
                    terms.append((0, 0, c))
            quadratic.schedule(terms, False)
    found = []
    quadratic.run(lambda values: found.append(tuple(values[1:slot(g, 0, 0)])))
    found.sort()
    return [tuple(LinMap(k, n, n, entries[t * cells:(t + 1) * cells]) for t in range(g))
            for entries in found]


def _module_classes(p: PresentedAlgebra, modules: list[tuple[LinMap, ...]],
                    n: int) -> list[list[tuple[LinMap, ...]]]:
    """Conjugation orbits of all the modules, in the order of their smallest
    members (generator matrices stacked in one column), each listed smallest first."""
    ordered = sorted(modules, key=_stacked_entries)
    return [[ordered[i] for i in members] for members in
            conjugation_classes(p.field, n, [_stacked_entries(mats) for mats in ordered])]


def _stacked_entries(mats: tuple[LinMap, ...]) -> tuple:
    return tuple(x for m in mats for x in m.entries)


def module_to_matrix_morphism(p: PresentedAlgebra, a: Algebra, b: Algebra,
                              mats: tuple[LinMap, ...], n: int) -> LinMap:
    """The canonical identification: rho(beta_j) = sum_i a_i (x) m(x_{i,j})
    as an algebra morphism B -> M_n(A), written from the terms of each
    x_{i,j}: c times entry (r, s) of the term's matrix (the identity for the
    empty word) goes to row (r, s, i) and column j."""
    k = p.field
    zero, da = k.zero(), a.dim
    _, forms = _generator_forms(a, b)
    identity = LinMap.identity(k, n)
    written: dict[tuple[int, int], object] = {}
    for (i, j), terms in forms.items():
        for word, c in terms:
            rows = (mats[word[0]] if word else identity).nonzeros(by_col=False)
            for r, row in enumerate(rows):
                for s, v in row:
                    at = ((r * n + s) * da + i, j)
                    written[at] = k.add(written.get(at, zero), k.mul(c, v))
    return LinMap.from_nonzeros(k, n * n * da, b.dim, ((r, c, v) for (r, c), v in written.items()))


def module_intertwiners(mats1: tuple[LinMap, ...], mats2: tuple[LinMap, ...],
                        field: Field, n: int) -> list[LinMap]:
    """Echelon basis of {T : T m1(x) = m2(x) T for every generator x}: the
    intertwiner equation with a = b = 1, one per generator."""
    return matrix_equation_kernel(field, (n, n), [(m1, m2, 1, 1) for m1, m2 in zip(mats1, mats2)])


class CorrespondenceReport(Value):
    n: int
    module_count: int
    morphism_count: int
    module_orbit_sizes: tuple[int, ...]
    morphism_orbit_sizes: tuple[int, ...]
    matched: bool
    orbits_matched: bool
    intertwiners_matched: bool

    def __init__(self, n, module_count, morphism_count, module_orbit_sizes,
                 morphism_orbit_sizes, matched, orbits_matched, intertwiners_matched):
        vars(self).update(n=n, module_count=module_count, morphism_count=morphism_count,
                          module_orbit_sizes=module_orbit_sizes, matched=matched,
                          morphism_orbit_sizes=morphism_orbit_sizes, orbits_matched=orbits_matched,
                          intertwiners_matched=intertwiners_matched)

    @property
    def ok(self) -> bool:
        return self.matched and self.orbits_matched and self.intertwiners_matched


def correspondence_check(a: Algebra, b: Algebra, n: int,
                         budget: int = DEFAULT_BUDGET) -> CorrespondenceReport:
    """Verify that n-dimensional modules of a(A, B) are exactly the algebra
    morphisms B -> M_n(A), compatibly with conjugation orbits and intertwiners.
    At n = 0 the one module matches the one morphism into M_0(A) = 0.
    Intertwiners are compared on orbit representatives (module docstring)."""
    # imported here so that tests can patch the measurings module's functions
    from .measurings import (
        _block_order,
        _morphism_blocks,
        _read,
        intertwiners as measuring_intertwiners,
        measuring_from_matrix_morphism,
    )

    if n < 0:
        raise PreconditionViolated(f"modules need n >= 0, got {n}")
    p = tambara_presentation(a, b)
    k, q = p.field, p.field.char
    modules = tambara_modules(p, n, budget=budget)
    # the morphisms B -> M_n(A) as their blocks; into M_0(A) = 0 only the zero map
    images = [()] if n == 0 else _morphism_blocks(b, a, n, budget)
    rhos = {_stacked_entries(mats): module_to_matrix_morphism(p, a, b, mats, n)
            for mats in modules}
    # the translation: a module's generator matrices -> the blocks of its morphism
    order = _block_order(n, a.dim, b.dim)
    translate = {key: _read(rho.entries, order) for key, rho in rhos.items()}
    matched = sorted(translate.values()) == sorted(images)

    module_classes = _module_classes(p, modules, n)
    module_partition = [frozenset(translate[_stacked_entries(mats)] for mats in members)
                        for members in module_classes]
    morphism_partition = [frozenset(images[i] for i in members)
                          for members in conjugation_classes(k, n, images)]
    orbits_matched = set(module_partition) == set(morphism_partition)

    # (a) equivariance: a conjugate of a module translates to the conjugate
    # of its translation
    equivariant = all(translate.get(_conjugated(key, n, q, move)) == _conjugated(image, n, q, move)
                      for key, image in translate.items() for move in _moves(q, n, key, image))
    # (b) the same T solves both sides, in the same basis, on representatives;
    # each becomes a measuring once, through the checked conversion
    reps = [(mats, measuring_from_matrix_morphism(rhos[_stacked_entries(mats)], b, a, n))
            for mats, *_ in module_classes]
    intertwiners_ok = equivariant and all(
        [t.entries for t in module_intertwiners(mats1, mats2, k, n)]
        == [iw.f.entries for iw in measuring_intertwiners(mu1, mu2)]
        for mats1, mu1 in reps for mats2, mu2 in reps)
    return CorrespondenceReport(
        n=n,
        module_count=len(modules),
        morphism_count=len(images),
        module_orbit_sizes=tuple(sorted((len(o) for o in module_partition), reverse=True)),
        morphism_orbit_sizes=tuple(sorted((len(o) for o in morphism_partition), reverse=True)),
        matched=matched,
        orbits_matched=orbits_matched,
        intertwiners_matched=intertwiners_ok,
    )
