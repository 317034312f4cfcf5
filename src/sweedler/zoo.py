"""A small corpus of exactly-presented algebras used across tests and scripts.

Everything here is built from structure constants and revalidated in the test
suite; nothing is assumed.
"""

from __future__ import annotations

from .errors import UnsupportedField
from .fields import QQ, Field, GF
from .graded import Graded, GradedSpace
from .linalg import LinMap
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    group_algebra,
    matrix_algebra,
    trivial_algebra,
)


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def cyclic_group_hopf(field: Field, n: int) -> HopfAlgebra:
    """k[C_n] with grouplike basis 1, g, ..., g^(n-1)."""
    return group_algebra(field, cyclic_table(n))


def trivial_hopf(field: Field) -> HopfAlgebra:
    return cyclic_group_hopf(field, 1)


def involution_algebra(field: Field) -> Algebra:
    """k[g]/(g^2 - 1) = k[C_2]; over F_2 this is also F_2[g]/(g^2 + 1)."""
    return cyclic_group_hopf(field, 2).algebra


def dual_numbers(field: Field) -> Algebra:
    """k[y]/(y^2) on basis {1, y}."""
    k = field
    mult = LinMap.from_rows(k, [[1, 0, 0, 0], [0, 1, 1, 0]])
    unit = LinMap.column(k, [1, 0])
    return Algebra(mult=mult, unit=unit)


def idempotent_monoid_bialgebra(field: Field) -> Bialgebra:
    """Monoid bialgebra of {1, e} with e^2 = e and diagonal comultiplication.

    A bialgebra with no antipode: the standard small non-Hopf example.
    """
    k = field
    mult = LinMap.from_rows(k, [[1, 0, 0, 0], [0, 1, 1, 1]])
    unit = LinMap.column(k, [1, 0])
    comult = LinMap.from_rows(k, [[1, 0], [0, 0], [0, 0], [0, 1]])
    counit = LinMap.row(k, [1, 1])
    return Bialgebra(Algebra(mult, unit), Coalgebra(comult, counit))


def sweedler_hopf(field: Field) -> HopfAlgebra:
    """The 4-dimensional Hopf algebra on {1, g, x, gx}:

        g^2 = 1,  x^2 = 0,  xg = -gx,
        Delta g = g (x) g,  Delta x = x (x) 1 + g (x) x,
        s(g) = g, s(x) = -gx;  s^2 is not the identity.

    Needs characteristic != 2.
    """
    if field.char == 2:
        raise UnsupportedField("this Hopf algebra degenerates in characteristic 2")
    k = field
    one = k.one()
    minus = k.neg(one)
    dim = 4
    # basis order: 1, g, x, gx
    products = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: minus}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: minus}, (3, 2): {}, (3, 3): {},
    }
    mult = LinMap.from_nonzeros(k, dim, dim * dim, [
        (t, i * dim + j, coeff) for (i, j), image in products.items()
        for t, coeff in image.items()])
    comult = LinMap.from_nonzeros(k, dim * dim, dim, [
        # Delta 1 = 1 (x) 1; Delta g = g (x) g
        (0 * dim + 0, 0, one), (1 * dim + 1, 1, one),
        # Delta x = x (x) 1 + g (x) x
        (2 * dim + 0, 2, one), (1 * dim + 2, 2, one),
        # Delta gx = gx (x) g + 1 (x) gx
        (3 * dim + 1, 3, one), (0 * dim + 3, 3, one),
    ])
    counit = LinMap.row(k, [1, 1, 0, 0])
    antipode = LinMap.from_rows(k, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, minus, 0],
    ])
    alg = Algebra(mult, LinMap.column(k, [1, 0, 0, 0]))
    coalg = Coalgebra(comult, counit)
    return HopfAlgebra(Bialgebra(alg, coalg), antipode)


def graded_line_hopf(field: Field, degree: int = 1):
    """k[x]/(x^2) with x primitive (Delta x = 1 (x) x + x (x) 1), s(x) = -x,
    graded with deg x = degree.

    Over the rationals this is a Hopf algebra only in the graded (Koszul)
    sense and only for odd degree; in characteristic 2 any degree works.
    """
    k = field
    one, zero = k.one(), k.zero()
    mult = LinMap.from_rows(k, [[one, zero, zero, zero], [zero, one, one, zero]])
    unit = LinMap.column(k, [1, 0])
    comult = LinMap.from_rows(k, [[one, zero], [zero, one], [zero, one], [zero, zero]])
    counit = LinMap.row(k, [1, 0])
    antipode = LinMap.from_rows(k, [[one, zero], [zero, k.neg(one)]])
    hopf = HopfAlgebra(Bialgebra(Algebra(mult, unit), Coalgebra(comult, counit)), antipode)
    return Graded(hopf, GradedSpace(k, (0, degree)))


def graded_dual_numbers(field: Field, degree: int):
    """k[y]/(y^2) as a graded algebra with deg y = degree."""
    return Graded(dual_numbers(field), GradedSpace(field, (0, degree)))


def corpus_bialgebras() -> list[tuple[str, Bialgebra]]:
    """The bialgebra corpus used by the cross-checking suites."""
    return [
        ("Q[C2]", cyclic_group_hopf(QQ, 2).bialgebra),
        ("F3[C2]", cyclic_group_hopf(GF(3), 2).bialgebra),
        ("F2[C3]", cyclic_group_hopf(GF(2), 3).bialgebra),
        ("sweedler4/F3", sweedler_hopf(GF(3)).bialgebra),
        ("idempotent/F2", idempotent_monoid_bialgebra(GF(2))),
        ("trivial/Q", trivial_hopf(QQ).bialgebra),
    ]


def corpus_hopf_algebras() -> list[tuple[str, HopfAlgebra]]:
    return [
        ("Q[C2]", cyclic_group_hopf(QQ, 2)),
        ("F3[C2]", cyclic_group_hopf(GF(3), 2)),
        ("F2[C3]", cyclic_group_hopf(GF(2), 3)),
        ("sweedler4/F3", sweedler_hopf(GF(3))),
        ("trivial/Q", trivial_hopf(QQ)),
    ]


def corpus_algebras() -> list[tuple[str, Algebra]]:
    return [
        ("Q[C2]", cyclic_group_hopf(QQ, 2).algebra),
        ("F3[C2]", cyclic_group_hopf(GF(3), 2).algebra),
        ("F2[C2]", involution_algebra(GF(2))),
        ("F2[C3]", cyclic_group_hopf(GF(2), 3).algebra),
        ("F2[y]/(y2)", dual_numbers(GF(2))),
        ("M2(F2)", matrix_algebra(trivial_algebra(GF(2)), 2)),
        ("sweedler4/F3", sweedler_hopf(GF(3)).algebra),
        ("idempotent/F2", idempotent_monoid_bialgebra(GF(2)).algebra),
        ("trivial/Q", trivial_algebra(QQ)),
    ]
