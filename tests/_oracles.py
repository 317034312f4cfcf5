"""Independent oracle constructions shared by the test modules.

These deliberately avoid the code paths they check: the classifying map below
is assembled directly from structure constants, and the brute-force helpers
do their arithmetic inline.
"""

import itertools

from sweedler.linalg import LinMap, compose


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
    phi = compose(gamma, g.section)
    # well-definedness: gamma factors through the quotient
    for idx in range(len(g.generators)):
        assert compose(phi, g.projections[idx]) == _gamma_summand(g, idx, gamma)
    return phi


def _gamma_summand(g, idx, gamma):
    k = g.a.field
    total = g.section.cod
    start = sum(m.xdim ** 2 for m in g.generators[:idx])
    width = g.generators[idx].xdim ** 2
    incl = LinMap(k, total, width, tuple(
        k.one() if r == start + c else k.zero()
        for r in range(total) for c in range(width)))
    return compose(gamma, incl)


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
