"""Exact linear algebra with tensor (Kronecker) structure.

A :class:`LinMap` is a ``cod x dom`` matrix over a :class:`~sweedler.fields.Field`,
stored as one dense row-major tuple of canonical scalars; the j-th column is
the image of the j-th domain basis vector.  Tensor products use one global
row-major index convention throughout the library:

    e_i (x) e_j  in  k^m (x) k^n   <->   index  i*n + j.

Every product is a chain of structural factors ``1_a (x) t (x) 1_b`` (a
:data:`Factor` ``(t, a, b)``: an identity-padded ``t``, such as a braiding in
the middle of a tensor power; a braiding is given by its nonzeros alone),
applied in order.  There is one slot kernel, :func:`apply_slot`: it applies
one factor to a sparse vector, a dict of its nonzeros, by remapping indices
through the nonzeros of ``t``, so no factor is built and the work follows the
nonzeros, not the dense size.  It sums raw products and reduces each entry of
its result mod p once, where it drops the zeros.
:meth:`LinMap.apply` is one slot on a vector's nonzeros.  :func:`_chain_images`
runs a chain on the basis vectors, a block of them stacked into one sparse
vector: the first factor is written from its column nonzeros, since distinct
basis vectors never meet, and each later factor goes through :func:`apply_slot`.
:func:`composite` writes the dense result; :func:`compose` (f.g) and
:func:`kron` (f (x) g) are chains of two factors.
The axiom checks of :mod:`~sweedler.structures` run the same chains and
compare the images, without writing any composite.

:func:`permute_axes` is the one routine that moves data between layouts: it
reads a map's entries as a tensor with given axis sizes (codomain axes
first), reorders the axes and splits them into rows and columns again.  The
layouts of a measuring psi, its matrix morphism A -> M_n(B), a comodule, its
classifying coend morphism and a stack of module matrices all convert
through it, and :meth:`LinMap.transpose` swaps a map's two axes with it.

The one matrix equation solved is that of intertwiners, (X (x) 1_b).psi1 =
psi2.(1_a (x) X) for an unknown X (of measurings; of Tambara modules with
a = b = 1 for each generator).  :func:`_equation_rows` writes the rows of
the difference in row-major vec coordinates straight from the row nonzeros
of both maps, into fresh sparse rows for elimination, and drops a row that
cancels.

A map is a :class:`~sweedler.fields.Value`: its ``__init__`` sets its four
fields once, and setting or deleting an attribute raises AttributeError.  So
what is read off it is kept on it, outside its fields: :meth:`LinMap.nonzeros`
lists a map's nonzeros once, for every chain and equation it appears in, from
the positions it was written at when it was written from its nonzeros.

Elimination is one reduced echelon {pivot column: row} of sparse rows
{column: nonzero}, taken from kept nonzeros; over Q the values stay ints
while they are integral, and canonical Fractions are written only into maps
and vectors.  :func:`echelon_reduce` clears the pivot columns from a row, and
:func:`echelon_insert` adds what is left, normalised at its leftmost column,
and clears that column from the other rows.  Batch callers insert their rows
in order (:func:`_echelon`); the reduced echelon form is unique, so every
derived basis (kernels, quotients, solution spaces) is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import prod

from .errors import DimensionMismatch, Singular
from .fields import Field, Value, same_field


class LinMap(Value):
    field: Field
    cod: int
    dom: int
    entries: tuple  # row-major, length cod*dom, canonical scalars

    def __init__(self, field, cod, dom, entries):
        vars(self).update(field=field, cod=cod, dom=dom, entries=entries)
        if cod < 0 or dom < 0:
            raise DimensionMismatch("negative dimension")
        if len(entries) != cod * dom:
            raise DimensionMismatch(
                f"{cod}x{dom} map needs {cod * dom} entries, got {len(entries)}")

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
    def from_nonzeros(field: Field, cod: int, dom: int, nonzeros) -> LinMap:
        """The cod x dom map with the given (row, column, value) entries, each
        position at most once, and zero everywhere else; it keeps their positions."""
        out = [field.zero()] * (cod * dom)
        written = []
        for r, c, v in nonzeros:
            if not (0 <= r < cod and 0 <= c < dom):
                raise DimensionMismatch(f"entry ({r}, {c}) outside a {cod}x{dom} map")
            written.append(pos := r * dom + c)
            out[pos] = field.coerce(v)
        if len(set(written)) < len(written):
            raise DimensionMismatch(f"a position of a {cod}x{dom} map given twice")
        return LinMap(field, cod, dom, tuple(out))._written(written)

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

    def nonzeros(self, by_col: bool) -> list[list[tuple]]:
        """The nonzero entries, one (index, value) list per row, or per column
        when ``by_col``; the index is the entry's column (or row).  Listed on
        first use and kept, so the lists are shared and must not be changed;
        over Q a value with denominator 1 is an int, which multiplies faster."""
        kept = self._kept
        if by_col not in kept:
            kept[by_col] = self._listed(by_col)
        return kept[by_col]

    def _listed(self, by_col: bool) -> list[list[tuple]]:
        """The nonzeros grouped, from the kept positions or a scan of the entries."""
        groups = [[] for _ in range(self.dom if by_col else self.cod)]
        e, n, rational = self.entries, self.dom, not self.field.char
        written = self._kept.get(None)
        for pos in compress(range(len(e)) if written is None else written,
                            e if written is None else map(e.__getitem__, written)):
            r, c = divmod(pos, n)
            v = e[pos].numerator if rational and e[pos].denominator == 1 else e[pos]
            groups[c if by_col else r].append((r if by_col else c, v))
        return groups

    @cached_property
    def _kept(self) -> dict:
        """What is read off this map, kept: its nonzeros by orientation and,
        under None, the positions of its nonzeros, when it was written from them."""
        return {}

    def _written(self, positions) -> LinMap:
        """This map, keeping ``positions``, each once, which hold all its nonzeros
        (set in place of the cached property, which a new map has not made)."""
        self.__dict__["_kept"] = {None: sorted(positions)}
        return self

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

    def scale(self, c) -> LinMap:
        f = self.field
        c = f.coerce(c)
        return LinMap(f, self.cod, self.dom, tuple(f.mul(c, a) for a in self.entries))

    def transpose(self) -> LinMap:
        return permute_axes(self, (self.cod, self.dom), (1, 0), 1)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product on a length-``dom`` vector: the one slot
        kernel on the vector's nonzeros, written out densely."""
        if len(vec) != self.dom:
            raise DimensionMismatch(f"vector of length {len(vec)} for {self.dom}-dim domain")
        image = apply_slot({c: vec[c] for c in compress(range(self.dom), vec)},
                           self.nonzeros(by_col=True), self.dom, self.cod, 1, self.field.char)
        return _dense(self.field, image, self.cod)

    def _match_shape(self, other: LinMap):
        same_field(self.field, other.field)
        if (self.cod, self.dom) != (other.cod, other.dom):
            raise DimensionMismatch(f"{self.cod}x{self.dom} vs {other.cod}x{other.dom}")


def compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product f.g: apply g first, then f."""
    return composite([(g, 1, 1), (f, 1, 1)], g.dom)


def kron(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product under the global convention: (f(x)g)[(a,c),(b,d)] = f[a,b]*g[c,d]."""
    return composite([(g, f.dom, 1), (f, 1, g.cod)], f.dom * g.dom)


# A factor (t, a, b) is the map 1_a (x) t (x) 1_b, t a LinMap or a braiding
# (_SignedSwap); a chain lists factors in the order they apply, and the empty
# chain is the identity.
Factor = tuple["LinMap | _SignedSwap", int, int]

# basis vectors run through a chain together, which bounds the nonzeros held at a time
_BLOCK = 256


def composite(chain: Sequence[Factor], dom: int) -> LinMap:
    """The composite of a nonempty chain of factors on k^dom, as a dense map;
    DimensionMismatch when the factors do not compose.

    Its columns are the images of the basis vectors (:func:`_chain_images`),
    and its entries canonical scalars.
    """
    k = same_field(*(t.field for t, _, _ in chain))
    cod = dom
    for t, a, b in chain:
        if a * t.dom * b != cod:
            raise DimensionMismatch(
                f"cannot apply 1_{a} (x) {t.cod}x{t.dom} (x) 1_{b} to k^{cod}")
        cod = a * t.cod * b
    steps = _chain_steps(chain)
    p = k.char
    out = [k.zero()] * (cod * dom)
    written = []
    for start in range(0, dom, _BLOCK):
        block = range(start, min(start + _BLOCK, dom))
        for idx, v in _chain_images(steps, block, dom, p).items():
            pos, r = divmod(idx, cod)
            written.append(pos := r * dom + start + pos)
            out[pos] = v if p else Fraction(v)
    return LinMap(k, cod, dom, tuple(out))._written(written)


def _chain_steps(chain: Sequence[Factor], transposed: bool = False) -> list:
    """The steps (along, meet, free, b) that :func:`apply_slot` takes for the
    factors of a chain, in the order they apply: each factor's nonzeros by
    column, its domain and codomain.  ``transposed``, those of the transposed
    chain (the factors reversed, each transposed: its nonzeros by row)."""
    if transposed:
        return [(t.nonzeros(by_col=False), t.cod, t.dom, b) for t, _, b in reversed(chain)]
    return [(t.nonzeros(by_col=True), t.dom, t.cod, b) for t, _, b in chain]


def _chain_images(steps: list, block: Sequence[int], dom: int, p: int) -> dict:
    """The basis vectors ``block`` of k^dom run through the steps of a chain:
    stacked as one sparse vector whose outer axis is the position in the
    block, so each factor is applied once per block.  Over Q the nonzeros
    may be ints.

    The first factor is written from its nonzeros: the image of the basis
    vector (i, s, j) under 1_a (x) t (x) 1_b is column s of t placed at
    (i, ., j), and distinct basis vectors never meet, so its listed values
    go in as they are.
    """
    if not steps:
        return {pos * dom + c: 1 for pos, c in enumerate(block)}
    along, meet, free, b = steps[0]
    span, stride = meet * b, free * b
    per_pos = dom // span * stride
    vec = {}
    for pos, c in enumerate(block):
        i, rest = divmod(c, span)
        s, j = divmod(rest, b)
        base = pos * per_pos + i * stride + j
        for u, v in along[s]:
            vec[base + u * b] = v
    for along, meet, free, b in steps[1:]:
        vec = apply_slot(vec, along, meet, free, b, p)
    return vec


def apply_slot(vec: dict, t_along: list[list[tuple]], meet: int, free: int, b: int,
               p: int) -> dict:
    """1_a (x) t (x) 1_b applied to a sparse vector {index: nonzero}.

    ``t_along[s]`` lists the (index, value) nonzeros of t's column s, and t
    maps k^meet to k^free; given t's rows, this applies the transpose.  The
    nonzero at (i, s, j) meets the nonzeros of column s and lands at
    (i, u, j).  The products are summed raw and each entry of the result is
    reduced mod p once, over F_p, where the zeros are dropped; the result
    keeps only nonzeros.
    """
    out: dict = {}
    get = out.get
    span, stride = meet * b, free * b
    for m, x in vec.items():
        i, rest = divmod(m, span)
        s, j = divmod(rest, b)
        base = i * stride + j
        for u, v in t_along[s]:
            idx = base + u * b
            out[idx] = get(idx, 0) + x * v
    if p:
        return {idx: r for idx, v in out.items() if (r := v % p)}
    if 0 in out.values():
        return {idx: v for idx, v in out.items() if v}
    return out


def permute_axes(f: LinMap, dims: Sequence[int], order: Sequence[int], split: int) -> LinMap:
    """The entries of f, read as a tensor with axes of sizes ``dims``
    (row-major, codomain axes first), with the axes put in ``order``; the
    first ``split`` of them index the rows of the result, the rest its columns."""
    if sorted(order) != list(range(len(dims))) or not 0 <= split <= len(dims):
        raise DimensionMismatch(f"cannot put {len(dims)} axes in order {tuple(order)} "
                                f"split at {split}")
    if prod(dims) != f.cod * f.dom:
        raise DimensionMismatch(f"axes {tuple(dims)} do not fit a {f.cod}x{f.dom} map")
    strides = [prod(dims[ax + 1:]) for ax in range(len(dims))]
    # the source position of each result entry, in the result's row-major order
    src = [0]
    for ax in order:
        step = strides[ax]
        src = [s + i * step for s in src for i in range(dims[ax])]
    e = f.entries
    return LinMap(f.field, prod(dims[ax] for ax in order[:split]),
                  prod(dims[ax] for ax in order[split:]), tuple(e[s] for s in src))


def swap_map(m: int, n: int, field: Field) -> LinMap:
    """The symmetry k^m (x) k^n -> k^n (x) k^m, e_i (x) e_j -> e_j (x) e_i."""
    return composite([(_swap(m, n, field), 1, 1)], m * n)


def _swap(m: int, n: int, field: Field) -> _SignedSwap:
    """:func:`swap_map` as a chain factor."""
    return _SignedSwap(field, (0,) * m, (0,) * n)


class _SignedSwap(Value):
    """The braiding k^m (x) k^n -> k^n (x) k^m of basis vectors with the given
    degrees, m and n of them: e_i (x) e_j -> (-1)^(left[i] * right[j]) e_j (x) e_i.
    A chain factor given by its m*n nonzeros; only :func:`swap_map` and
    ``graded.koszul_swap`` write it densely."""

    field: Field
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __init__(self, field, left, right):
        vars(self).update(field=field, left=left, right=right)

    @property
    def dom(self) -> int:
        return len(self.left) * len(self.right)

    cod = dom

    def nonzeros(self, by_col: bool) -> list[list[tuple]]:
        """As :meth:`LinMap.nonzeros`; a row of the swap is a column of the
        swap the other way round, with the same signs."""
        left, right = (self.left, self.right) if by_col else (self.right, self.left)
        m, n = len(left), len(right)
        minus = self.field.char - 1 if self.field.char else -1
        return [[(j * m + i, minus if p * q % 2 else 1)]
                for i, p in enumerate(left) for j, q in enumerate(right)]


# echelon machinery ---------------------------------------------------------


def echelon_reduce(k: Field, echelon: dict[int, dict], row: dict) -> dict:
    """Clear the pivot columns of a reduced echelon {pivot column: row, 1
    there and 0 at the other pivots} from the sparse ``row``, in place."""
    for c in row.keys() & echelon.keys():
        _subtract(k.char, row, row[c], echelon[c].items())
    return row


def echelon_insert(k: Field, echelon: dict[int, dict], row: dict, ncols: int) -> int | None:
    """Add the sparse ``row``, already reduced, normalised at its leftmost
    column if that is one of the first ``ncols``, and clear that column from
    the other rows; return the pivot, or None for a row left out."""
    c = min(row) if row else ncols
    if c >= ncols:
        return None
    p = k.char
    if row[c] != 1:
        inv = k.inv(row[c])
        for j, v in row.items():
            row[j] = v * inv % p if p else v * inv
    for other in echelon.values():
        if c in other:
            _subtract(p, other, other[c], row.items())
    echelon[c] = row
    return c


def _subtract(p: int, row: dict, factor, other) -> None:
    """row -= factor * other, for the (column, nonzero) pairs of another row,
    in place, keeping only nonzeros."""
    get = row.get
    for j, y in other:
        v = (get(j, 0) - factor * y) % p if p else get(j, 0) - factor * y
        if v:
            row[j] = v
        else:
            del row[j]


def _echelon(k: Field, rows, ncols: int) -> dict[int, dict]:
    """The reduced echelon of the sparse ``rows``, pivoting in the first
    ``ncols`` columns: each row is reduced by the rows before it and
    inserted, so the pivots are the leftmost ones, lowest-index row first."""
    echelon: dict[int, dict] = {}
    for row in rows:
        if len(echelon) == ncols:  # every later row reduces to zero there
            break
        if row and echelon_reduce(k, echelon, row):
            echelon_insert(k, echelon, row, ncols)
    return echelon


def _dense(k: Field, vec: dict, n: int) -> tuple:
    """The sparse vector ``vec`` of k^n as a tuple of canonical scalars."""
    zero = k.zero()
    return tuple(k.coerce(vec[i]) if i in vec else zero for i in range(n))


def rref(f: LinMap) -> tuple[LinMap, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (deterministic)."""
    echelon = _echelon(f.field, map(dict, f.nonzeros(by_col=False)), f.dom)
    pivots = sorted(echelon)
    return (LinMap.from_nonzeros(f.field, f.cod, f.dom, [
        (r, c, v) for r, pivot in enumerate(pivots) for c, v in echelon[pivot].items()]),
        tuple(pivots))


def rank(f: LinMap) -> int:
    return len(_echelon(f.field, map(dict, f.nonzeros(by_col=False)), f.dom))


def kernel_basis(f: LinMap) -> list[tuple]:
    """Basis of ker f, one vector per free column, in reduced column-echelon form."""
    k = f.field
    echelon = _echelon(k, map(dict, f.nonzeros(by_col=False)), f.dom)
    return [_dense(k, vec, f.dom) for vec in null_vectors(k, echelon, f.dom)]


def null_vectors(k: Field, echelon: dict[int, dict], n: int) -> list[dict]:
    """Basis of the vectors of k^n that a reduced echelon {pivot column: row}
    kills, one sparse vector per free column j in order: 1 at j, minus column
    j at each pivot."""
    p = k.char
    vecs = {j: {j: 1} for j in range(n) if j not in echelon}
    for i, row in echelon.items():
        for j, v in row.items():
            if j in vecs:
                vecs[j][i] = p - v if p else -v
    return list(vecs.values())


def invert(f: LinMap) -> LinMap:
    """Two-sided inverse, read off the reduced [f | I]; raises Singular (with
    the rank of f) when there is none."""
    if f.cod != f.dom:
        raise DimensionMismatch(f"only square maps can be inverted, got {f.cod}x{f.dom}")
    k, n = f.field, f.cod
    echelon = _echelon(k, (dict(row) | {n + r: 1}
                           for r, row in enumerate(f.nonzeros(by_col=False))), n)
    if len(echelon) < n:
        raise Singular(len(echelon))
    return LinMap.from_nonzeros(k, n, n, [(r, c - n, v) for r in range(n)
                                          for c, v in echelon[r].items() if c >= n])


def is_invertible(f: LinMap) -> bool:
    return f.cod == f.dom and rank(f) == f.cod


def solve(f: LinMap, target: Sequence) -> tuple | None:
    """One solution x of f x = target (free coordinates 0), or None if inconsistent."""
    if len(target) != f.cod:
        raise DimensionMismatch(f"target length {len(target)} for {f.cod} rows")
    rows = [dict(row) for row in f.nonzeros(by_col=False)]
    for row, t in zip(rows, target):
        if t := f.field.coerce(t):
            row[f.dom] = t
    return _solution(f.field, rows, f.dom)


def _solution(k: Field, rows: list[dict], n: int) -> tuple | None:
    """One solution of the system whose augmented sparse rows carry the
    right-hand side in column n, or None."""
    echelon = _echelon(k, rows, n + 1)
    if n in echelon:
        return None
    return _dense(k, {c: row[n] for c, row in echelon.items() if n in row}, n)


# matrix equations ----------------------------------------------------------

Equation = tuple[LinMap, LinMap, int, int]  # (psi1, psi2, a, b): see matrix_equation_kernel


def _equation_rows(shape: tuple[int, int], equation: Equation) -> dict[int, dict]:
    """The nonzero rows {row: {column: nonzero}} of an equation on a ``shape``
    unknown, in row-major vec coordinates, written fresh from the row
    nonzeros of both maps: (X (x) 1_b).psi1 - psi2.(1_a (x) X), a row
    dropped once it cancels."""
    (n2, n1), (psi1, psi2, a, b) = shape, equation
    if (psi1.cod, psi1.dom, psi2.cod, psi2.dom) != (n1 * b, a * n1, n2 * b, a * n2):
        raise DimensionMismatch(f"{psi1.cod}x{psi1.dom} and {psi2.cod}x{psi2.dom} maps do not "
                                f"fit an {n2}x{n1} unknown with a = {a}, b = {b}")
    p, rows = psi1.field.char, {}
    # psi1's (j, beta), c meets X's (i, j) at row (i, beta), column c: once per row and unknown
    for r, entries in enumerate(psi1.nonzeros(by_col=False)):
        j, beta = divmod(r, b)
        for i in range(n2):
            var, base = i * n1 + j, (i * b + beta) * psi1.dom
            for c, v in entries:
                rows.setdefault(base + c, {})[var] = v
    # psi2's r, (alpha, i) meets X's (i, j) at row r, column (alpha, j), subtracted
    for r, entries in enumerate(psi2.nonzeros(by_col=False)):
        for s, v in entries:
            alpha, i = divmod(s, n2)
            base = (r * a + alpha) * n1
            for j in range(n1):
                row, var = rows.setdefault(base + j, {}), i * n1 + j
                w = (row.get(var, 0) - v) % p if p else row.get(var, 0) - v
                if w:
                    row[var] = w
                else:
                    del row[var]
    return {r: row for r, row in rows.items() if row}  # a row that cancels is no equation


def solve_matrix_equations(field: Field, shape: tuple[int, int],
                           equations: Sequence[tuple[Equation, LinMap]]) -> LinMap | None:
    """One X with (X (x) 1_b).psi1 - psi2.(1_a (x) X) = rhs for every
    ((psi1, psi2, a, b), rhs), free coordinates 0, or None if inconsistent."""
    n2, n1 = shape
    nvars, rows = n2 * n1, []
    for equation, rhs in equations:
        *_, a, b = equation
        if (rhs.cod, rhs.dom) != (n2 * b, a * n1):
            raise DimensionMismatch(f"{rhs.cod}x{rhs.dom} right-hand side for {n2 * b}x{a * n1}")
        summed = _equation_rows(shape, equation)
        for r in compress(range(len(rhs.entries)), rhs.entries):
            summed.setdefault(r, {})[nvars] = rhs.entries[r]
        rows += summed.values()
    sol = _solution(field, rows, nvars)
    return None if sol is None else LinMap(field, n2, n1, sol)


def matrix_equation_kernel(field: Field, shape: tuple[int, int],
                           equations: Sequence[Equation]) -> list[LinMap]:
    """Echelon-canonical basis of the n2 x n1 matrices X with
    (X (x) 1_b).psi1 = psi2.(1_a (x) X) for every equation (psi1, psi2, a, b),
    psi1 an n1*b x a*n1 map and psi2 an n2*b x a*n2 map; the rows of the
    differences go straight to elimination."""
    nvars = shape[0] * shape[1]
    rows = [row for equation in equations for row in _equation_rows(shape, equation).values()]
    return [LinMap(field, *shape, _dense(field, vec, nvars))
            for vec in null_vectors(field, _echelon(field, rows, nvars), nvars)]
