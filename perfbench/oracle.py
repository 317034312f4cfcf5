"""Reference computations made apart from the program.

Everything here is plain-list arithmetic over Q (Fractions) or F_p, written
for clarity and small sizes only: brute-force counts of algebra morphisms out
of a monogenic algebra k[t]/(f), ranks by elimination, group orders and
coalgebra axioms on structure constants read back from a report.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def scalar(p: int, token: str):
    return int(token) % p if p else Fraction(token)


def reduce(p: int, x):
    return x % p if p else x


def matrix(p: int, rows) -> list:
    return [[scalar(p, x) for x in row] for row in rows]


def matmul(p: int, a, b) -> list:
    return [[reduce(p, sum(a[i][t] * b[t][j] for t in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rank(p: int, rows) -> int:
    m = [list(r) for r in rows]
    rk = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rk, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        inv = pow(m[rk][c], p - 2, p) if p else 1 / m[rk][c]
        m[rk] = [reduce(p, x * inv) for x in m[rk]]
        for r in range(len(m)):
            if r != rk and m[r][c] != 0:
                f = m[r][c]
                m[r] = [reduce(p, x - f * y) for x, y in zip(m[r], m[rk])]
        rk += 1
    return rk


def is_permutation_matrix(rows) -> bool:
    n = len(rows)
    return all(sorted(row) == [0] * (n - 1) + [1] for row in rows) and \
        all(sum(rows[r][c] for r in range(n)) == 1 for c in range(n))


def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


# ---------------------------------------------------------------------------
# brute-force morphism counts
#
# A morphism k[t]/(f) -> R is the choice of an element Z of R with f(Z) = 0.
# R = M_n(B) for a small commutative B, stored as n x n matrices of B-element
# tuples; B is k itself ("k"), k[s]/(s^2 - 1) = k[C_2] ("c2") or k[s]/(s^2) ("y2").


def _b_mul(p: int, kind: str, u: tuple, v: tuple) -> tuple:
    if kind == "k":
        return ((u[0] * v[0]) % p,)
    cross = (u[0] * v[1] + u[1] * v[0]) % p
    square = u[1] * v[1] if kind == "c2" else 0    # "y2": s^2 = 0
    return ((u[0] * v[0] + square) % p, cross)


def _mat_mul(p: int, kind: str, n: int, x: tuple, y: tuple) -> tuple:
    width = len(x[0])
    out = []
    for i in range(n):
        for j in range(n):
            acc = [0] * width
            for t in range(n):
                prod = _b_mul(p, kind, x[i * n + t], y[t * n + j])
                acc = [(a + b) % p for a, b in zip(acc, prod)]
            out.append(tuple(acc))
    return tuple(out)


@lru_cache(maxsize=None)
def count_roots(p: int, n: int, b_kind: str, poly: tuple) -> int:
    """#{Z in M_n(B) : sum_i poly[i] Z^i = 0} over F_p, by enumeration."""
    width = 1 if b_kind == "k" else 2
    cells = n * n
    one = tuple(((1 if i == j else 0),) + (0,) * (width - 1)
                for i in range(n) for j in range(n))
    count = 0
    for flat in itertools.product(range(p), repeat=cells * width):
        z = tuple(flat[c * width:(c + 1) * width] for c in range(cells))
        total = [[0] * width for _ in range(cells)]
        power = one
        for i, coeff in enumerate(poly):
            if i == 1:
                power = z
            elif i:
                power = _mat_mul(p, b_kind, n, power, z)
            if coeff % p:
                for c in range(cells):
                    total[c] = [(a + coeff * b) % p for a, b in zip(total[c], power[c])]
        if all(v == 0 for cell in total for v in cell):
            count += 1
    return count


def cyclic_poly(m: int) -> tuple:
    """t^m - 1, the relation of k[C_m]."""
    return (-1,) + (0,) * (m - 1) + (1,)


SQUARE_ZERO = (0, 0, 1)   # t^2, the relation of k[y]/(y^2)
UNIT = (-1, 1)            # t - 1, the relation of k itself


# ---------------------------------------------------------------------------
# coalgebra axioms on a structure dict read back from a report


def coalgebra_ok(p: int, doc: dict) -> bool:
    """Coassociativity and counitality of a document's comult/counit."""
    d = doc["dim"]
    delta = {i: {} for i in range(d)}
    for i, rows in doc["comult"]:
        for j in range(d):
            for k in range(d):
                c = scalar(p, rows[j][k])
                if c:
                    delta[i][(j, k)] = c
    eps = [scalar(p, x) for x in doc["counit"]]

    def add(acc, key, c):
        acc[key] = reduce(p, acc.get(key, 0) + c)

    for i in range(d):
        left, right = {}, {}
        for (j, k), c in delta[i].items():
            for (a, b), c2 in delta[j].items():
                add(left, (a, b, k), c * c2)
            for (a, b), c2 in delta[k].items():
                add(right, (j, a, b), c * c2)
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            return False
        lcount, rcount = [0] * d, [0] * d
        for (j, k), c in delta[i].items():
            lcount[k] = reduce(p, lcount[k] + eps[j] * c)
            rcount[j] = reduce(p, rcount[j] + eps[k] * c)
        unit_vec = [1 if t == i else 0 for t in range(d)]
        if lcount != unit_vec or rcount != unit_vec:
            return False
    return True
