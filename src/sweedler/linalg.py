"""Exact dense linear algebra with tensor (Kronecker) structure.

A :class:`LinMap` is a ``cod x dom`` matrix over a :class:`~sweedler.fields.Field`;
the j-th column is the image of the j-th domain basis vector.  Tensor products
use one global row-major index convention throughout the library:

    e_i (x) e_j  in  k^m (x) k^n   <->   index  i*n + j.

Echelon forms pick the leftmost pivot in the lowest-index row first, so every
derived basis (kernels, quotients, solution spaces) is deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import DimensionMismatch, Singular
from .fields import Field, same_field


@dataclass(frozen=True)
class LinMap:
    field: Field
    cod: int
    dom: int
    entries: tuple  # row-major, length cod*dom, canonical scalars

    def __post_init__(self):
        if self.cod < 0 or self.dom < 0:
            raise DimensionMismatch("negative dimension")
        if len(self.entries) != self.cod * self.dom:
            raise DimensionMismatch(
                f"{self.cod}x{self.dom} map needs {self.cod * self.dom} entries, "
                f"got {len(self.entries)}"
            )

    # construction ---------------------------------------------------------

    @staticmethod
    def make(field: Field, cod: int, dom: int, entries) -> LinMap:
        return LinMap(field, cod, dom, tuple(field.coerce(x) for x in entries))

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> LinMap:
        cod = len(rows)
        dom = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != dom:
                raise DimensionMismatch("ragged rows")
        return LinMap.make(field, cod, dom, [x for r in rows for x in r])

    @staticmethod
    def identity(field: Field, n: int) -> LinMap:
        one, zero = field.one(), field.zero()
        return LinMap(field, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @staticmethod
    def zero(field: Field, cod: int, dom: int) -> LinMap:
        return LinMap(field, cod, dom, (field.zero(),) * (cod * dom))

    @staticmethod
    def column(field: Field, vec: Sequence) -> LinMap:
        return LinMap.make(field, len(vec), 1, vec)

    @staticmethod
    def row(field: Field, vec: Sequence) -> LinMap:
        return LinMap.make(field, 1, len(vec), vec)

    # access ---------------------------------------------------------------

    def __getitem__(self, rc) -> object:
        r, c = rc
        return self.entries[r * self.dom + c]

    def row_at(self, r: int) -> tuple:
        return self.entries[r * self.dom : (r + 1) * self.dom]

    def col_at(self, c: int) -> tuple:
        return self.entries[c :: self.dom] if self.dom else ()

    def rows(self) -> list:
        return [list(self.row_at(r)) for r in range(self.cod)]

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for x in self.entries)

    def is_identity(self) -> bool:
        return self.cod == self.dom and self == LinMap.identity(self.field, self.cod)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: LinMap) -> LinMap:
        self._match_shape(other)
        f = self.field
        return LinMap(f, self.cod, self.dom,
                      tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: LinMap) -> LinMap:
        self._match_shape(other)
        f = self.field
        return LinMap(f, self.cod, self.dom,
                      tuple(f.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> LinMap:
        f = self.field
        return LinMap(f, self.cod, self.dom, tuple(f.neg(a) for a in self.entries))

    def scale(self, c) -> LinMap:
        f = self.field
        c = f.coerce(c)
        return LinMap(f, self.cod, self.dom, tuple(f.mul(c, a) for a in self.entries))

    def transpose(self) -> LinMap:
        return LinMap(self.field, self.dom, self.cod,
                      tuple(self.entries[r * self.dom + c]
                            for c in range(self.dom) for r in range(self.cod)))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product on a length-``dom`` vector."""
        if len(vec) != self.dom:
            raise DimensionMismatch(f"vector of length {len(vec)} for {self.dom}-dim domain")
        f = self.field
        out = []
        for r in range(self.cod):
            acc = f.zero()
            row = self.row_at(r)
            for x, v in zip(row, vec):
                if x != 0 and v != 0:
                    acc = f.add(acc, f.mul(x, v))
            out.append(acc)
        return tuple(out)

    def _match_shape(self, other: LinMap):
        same_field(self.field, other.field)
        if (self.cod, self.dom) != (other.cod, other.dom):
            raise DimensionMismatch(f"{self.cod}x{self.dom} vs {other.cod}x{other.dom}")


def compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product f.g: apply g first, then f."""
    same_field(f.field, g.field)
    if f.dom != g.cod:
        raise DimensionMismatch(f"cannot compose {f.cod}x{f.dom} with {g.cod}x{g.dom}")
    k = f.field
    zero = k.zero()
    gdom = g.dom
    zeros_row = (zero,) * gdom
    out = []
    for r in range(f.cod):
        frow = f.row_at(r)
        nonzero = [(t, a) for t, a in enumerate(frow) if a != 0]
        if not nonzero:
            out.extend(zeros_row)
            continue
        for c in range(gdom):
            acc = zero
            for t, a in nonzero:
                b = g.entries[t * gdom + c]
                if b != 0:
                    acc = k.add(acc, k.mul(a, b))
            out.append(acc)
    return LinMap(k, f.cod, gdom, tuple(out))


def compose_all(*maps: LinMap) -> LinMap:
    """Compose right-to-left: compose_all(f, g, h) = f.g.h."""
    result = maps[-1]
    for m in reversed(maps[:-1]):
        result = compose(m, result)
    return result


def kron(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product under the global convention: (f(x)g)[(a,c),(b,d)] = f[a,b]*g[c,d]."""
    k = same_field(f.field, g.field)
    cod, dom = f.cod * g.cod, f.dom * g.dom
    out = [k.zero()] * (cod * dom)
    for a in range(f.cod):
        for b in range(f.dom):
            x = f.entries[a * f.dom + b]
            if x == 0:
                continue
            for c in range(g.cod):
                base_r = (a * g.cod + c) * dom
                grow = g.row_at(c)
                for d in range(g.dom):
                    y = grow[d]
                    if y == 0:
                        continue
                    out[base_r + b * g.dom + d] = k.mul(x, y)
    return LinMap(k, cod, dom, tuple(out))


def kron_all(*maps: LinMap) -> LinMap:
    result = maps[0]
    for m in maps[1:]:
        result = kron(result, m)
    return result


def swap_map(m: int, n: int, field: Field) -> LinMap:
    """The symmetry k^m (x) k^n -> k^n (x) k^m, e_i (x) e_j -> e_j (x) e_i."""
    one, zero = field.one(), field.zero()
    size = m * n
    out = [zero] * (size * size)
    for i in range(m):
        for j in range(n):
            out[(j * m + i) * size + (i * n + j)] = one
    return LinMap(field, size, size, tuple(out))


# echelon machinery ---------------------------------------------------------


def rref(f: LinMap) -> tuple[LinMap, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (deterministic)."""
    rows = [list(f.row_at(r)) for r in range(f.cod)]
    pivots = _reduce(f.field, rows, f.dom)
    return LinMap(f.field, f.cod, f.dom, tuple(x for row in rows for x in row)), pivots


def _reduce(k: Field, rows: list[list], ncols: int) -> tuple[int, ...]:
    """Gauss-Jordan elimination of ``rows`` in place, pivoting in the first
    ``ncols`` columns: leftmost pivot, lowest-index row first."""
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


def rank(f: LinMap) -> int:
    return len(rref(f)[1])


def kernel_basis(f: LinMap) -> list[tuple]:
    """Basis of ker f, one vector per free column, in reduced column-echelon form.

    The vector for free column j has 1 at j, zero at every other free column.
    """
    k = f.field
    echelon, pivots = rref(f)
    pivot_set = set(pivots)
    free = [c for c in range(f.dom) if c not in pivot_set]
    basis = []
    for j in free:
        vec = [k.zero()] * f.dom
        vec[j] = k.one()
        for r, p in enumerate(pivots):
            vec[p] = k.neg(echelon.entries[r * f.dom + j])
        basis.append(tuple(vec))
    return basis


def invert(f: LinMap) -> LinMap:
    """Two-sided inverse, read off the reduced [f | I]; raises Singular (with
    the rank of f) when there is none."""
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


def is_invertible(f: LinMap) -> bool:
    return f.cod == f.dom and rank(f) == f.cod


def solve(f: LinMap, target: Sequence) -> tuple | None:
    """One solution x of f x = target (free coordinates 0), or None if inconsistent."""
    if len(target) != f.cod:
        raise DimensionMismatch(f"target length {len(target)} for {f.cod} rows")
    k = f.field
    aug = LinMap(k, f.cod, f.dom + 1,
                 tuple(x for r in range(f.cod)
                       for x in (*f.row_at(r), k.coerce(target[r]))))
    echelon, pivots = rref(aug)
    if f.dom in pivots:
        return None
    sol = [k.zero()] * f.dom
    for r, p in enumerate(pivots):
        sol[p] = echelon.entries[r * (f.dom + 1) + f.dom]
    return tuple(sol)


# operator equations on matrix unknowns --------------------------------------


def _elementary(field: Field, cod: int, dom: int, r: int, c: int) -> LinMap:
    out = [field.zero()] * (cod * dom)
    out[r * dom + c] = field.one()
    return LinMap(field, cod, dom, tuple(out))


def _operator_matrix(op: Callable[[LinMap], LinMap], field: Field,
                     shape: tuple[int, int]) -> LinMap:
    """Matrix of a linear operator on cod x dom matrices, in row-major vec coordinates."""
    cod, dom = shape
    cols = []
    for r in range(cod):
        for c in range(dom):
            image = op(_elementary(field, cod, dom, r, c))
            cols.append(image.entries)
    out_dim = len(cols[0]) if cols else 0
    flat = tuple(cols[c][r] for r in range(out_dim) for c in range(len(cols)))
    return LinMap(field, out_dim, cod * dom, flat)


def solve_matrix_equations(field: Field, shape: tuple[int, int],
                           equations: Sequence[tuple[Callable[[LinMap], LinMap], LinMap]],
                           ) -> LinMap | None:
    """Solve a system of linear matrix equations op_i(X) = rhs_i for one X, or None."""
    if shape[0] * shape[1] == 0:
        zero = LinMap.zero(field, shape[0], shape[1])
        return zero if all(rhs.is_zero() for _, rhs in equations) else None
    blocks = []
    targets = []
    for op, rhs in equations:
        blocks.append(_operator_matrix(op, field, shape))
        targets.extend(rhs.entries)
    stacked = LinMap(field, sum(b.cod for b in blocks), shape[0] * shape[1],
                     tuple(x for b in blocks for x in b.entries))
    sol = solve(stacked, targets)
    if sol is None:
        return None
    return LinMap(field, shape[0], shape[1], sol)


def matrix_equation_kernel(field: Field, shape: tuple[int, int],
                           operators: Sequence[Callable[[LinMap], LinMap]]) -> list[LinMap]:
    """Echelon-canonical basis of {X : op_i(X) = 0 for all i}."""
    blocks = [_operator_matrix(op, field, shape) for op in operators]
    stacked = LinMap(field, sum(b.cod for b in blocks), shape[0] * shape[1],
                     tuple(x for b in blocks for x in b.entries))
    return [LinMap(field, shape[0], shape[1], vec) for vec in kernel_basis(stacked)]
