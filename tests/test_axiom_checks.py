"""The column-wise axiom checks against the dense reference checks.

Every structure of the corpus and the committed fixtures, and every
measuring fixture, is broken one structure constant at a time at seeded
positions.  The checks must report the same (axiom, witness) pairs, in the
same order, as the dense composites of ``_oracles`` compared column by column
(row by row for coassociativity).  Each axiom, decided on its smaller side,
must also give the index that running its documented side alone gives.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from _oracles import (
    dense_algebra_failures,
    dense_antipode_failures,
    dense_bialgebra_failures,
    dense_coalgebra_failures,
    dense_homogeneity_failures,
    dense_measuring_failures,
    reference_differ_at,
)

import sweedler.graded as graded
import sweedler.measurings as measurings
import sweedler.reconstruction as reconstruction
import sweedler.structures as structures
from sweedler.documents import parse_document, parse_measuring_document
from sweedler.fields import GF, QQ
from sweedler.graded import _homogeneity_failures, assemble, koszul_swap, parts
from sweedler.linalg import LinMap, _chain_images, _chain_steps, compose, invert, kron, swap_map
from sweedler.measurings import (
    Measuring,
    enumerate_measurings,
    regular_measuring,
    validate_measuring,
)
from sweedler.reconstruction import _classified_comodule, reconstruct, validate_comodule
from sweedler.structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    _antipode_axioms,
    dual_coalgebra,
    is_algebra_morphism,
    is_coalgebra_morphism,
    matrix_algebra,
    trivial_algebra,
)
from sweedler.zoo import (
    corpus_algebras,
    corpus_bialgebras,
    corpus_hopf_algebras,
    cyclic_group_hopf,
    dual_numbers,
)

FIXTURES = Path(__file__).parent / "fixtures"
POSITIONS = 4  # changed entries per structure map

ALL_AXIOMS = {
    "associativity", "left unit", "right unit", "coassociativity", "left counit",
    "right counit", "comult multiplicative", "comult multiplicative (Koszul)",
    "comult unital", "counit multiplicative", "counit unital", "left antipode",
    "right antipode", "measuring multiplicativity", "measuring unit",
}


def _structures():
    values = [v for _, v in corpus_algebras() + corpus_bialgebras() + corpus_hopf_algebras()]
    # more than one block of basis tensors, and first factors that kill some
    m3 = matrix_algebra(trivial_algebra(GF(2)), 3)
    values += [m3, cyclic_group_hopf(GF(3), 7)]
    # dim 7 with e1 e1 = e2 and e2 e1 = e3 only: not associative at (1, 1, 1)
    mult = [[0] * 49 for _ in range(7)]
    mult[2][1 * 7 + 1] = mult[3][2 * 7 + 1] = 1
    values.append(Algebra(LinMap.from_rows(GF(2), mult), LinMap.column(GF(2), [1] + [0] * 6)))
    values += [dual_coalgebra(a) for a in [a for _, a in corpus_algebras()] + [m3]]
    for path in sorted(FIXTURES.glob("*.json")):
        if not path.name.endswith(".measuring.json") and path.name != "broken_coassoc.json":
            values.append(parse_document(path.read_text()).value)
    return values


def _measurings():
    out = [regular_measuring(a) for _, a in corpus_algebras()]
    for path in sorted(FIXTURES.glob("*.measuring.json")):
        out.append(parse_measuring_document(
            path.read_text(), lambda ref: parse_document((FIXTURES / ref).read_text())).measuring)
    return out


def _changed(f: LinMap, rng: random.Random) -> LinMap:
    """f with one entry, at a seeded position, moved by a nonzero amount."""
    k = f.field
    pos = rng.randrange(len(f.entries))
    step = (Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2])) if k.is_rational
            else rng.randrange(1, k.char))
    entries = list(f.entries)
    entries[pos] = k.add(entries[pos], k.coerce(step))
    return LinMap(k, f.cod, f.dom, tuple(entries))


def _structure_mutants(value, rng):
    """The structure with one constant of one of its maps changed, repeatedly."""
    algebra, coalgebra, antipode, space = parts(value)
    for _ in range(POSITIONS):
        if algebra is not None:
            yield assemble(type(algebra)(_changed(algebra.mult, rng), algebra.unit),
                           coalgebra, antipode, space)
            yield assemble(type(algebra)(algebra.mult, _changed(algebra.unit, rng)),
                           coalgebra, antipode, space)
        if coalgebra is not None:
            yield assemble(algebra, type(coalgebra)(_changed(coalgebra.comult, rng),
                                                    coalgebra.counit), antipode, space)
            yield assemble(algebra, type(coalgebra)(coalgebra.comult,
                                                    _changed(coalgebra.counit, rng)),
                           antipode, space)
        if antipode is not None:
            yield assemble(algebra, coalgebra, _changed(antipode, rng), space)


def _dense_failures(value):
    """Every failure of a structure value as (axiom, witness), checked densely
    in the order of a value's ``report``: homogeneity first for a graded value."""
    algebra, coalgebra, antipode, space = parts(value)
    out = []
    if space is not None:
        degs = space.degrees
        pairs = [p + q for p in degs for q in degs]
        if algebra is not None:
            out += dense_homogeneity_failures("mult", algebra.mult, degs, pairs)
            out += dense_homogeneity_failures("unit", algebra.unit, degs, [0])
        if coalgebra is not None:
            out += dense_homogeneity_failures("comult", coalgebra.comult, pairs, degs)
            out += dense_homogeneity_failures("counit", coalgebra.counit, [0], degs)
    if coalgebra is None:
        return out + dense_algebra_failures(algebra)
    if algebra is None:
        return out + dense_coalgebra_failures(coalgebra)
    b = Bialgebra(algebra, coalgebra)
    if space is None:
        out += dense_bialgebra_failures(b, swap_map(b.dim, b.dim, b.field))
    else:
        out += dense_bialgebra_failures(b, koszul_swap(space, space),
                                        "comult multiplicative (Koszul)")
    if antipode is not None:
        if space is not None:
            out += dense_homogeneity_failures("antipode", antipode, space.degrees, space.degrees)
        out += dense_antipode_failures(b, antipode)
    return out


def _measuring_mutants(m, rng):
    for _ in range(POSITIONS):
        yield Measuring(m.a, m.b, m.xdim, _changed(m.psi, rng))
        for part in ("a", "b"):
            alg = getattr(m, part)
            for changed in (type(alg)(_changed(alg.mult, rng), alg.unit),
                            type(alg)(alg.mult, _changed(alg.unit, rng))):
                yield Measuring(changed if part == "a" else m.a,
                                changed if part == "b" else m.b, m.xdim, m.psi)


def test_structure_witnesses_match_the_dense_checks():
    rng = random.Random(12)
    seen = set()
    checked = 0
    for value in _structures():
        assert [(f.axiom, f.witness) for f in value.report.failures] == \
            _dense_failures(value)
        for mutant in _structure_mutants(value, rng):
            expected = _dense_failures(mutant)
            got = [(f.axiom, f.witness) for f in mutant.report.failures]
            assert got == expected, mutant
            seen.update(axiom for axiom, _ in expected)
            checked += 1
    assert checked > 500
    assert ALL_AXIOMS - {"measuring multiplicativity", "measuring unit"} <= seen


def _transported(h: HopfAlgebra, t: LinMap) -> HopfAlgebra:
    """h carried along the basis change t: each structure map conjugated by t."""
    ti, b = invert(t), h.bialgebra
    mult, unit = compose(compose(ti, b.mult), kron(t, t)), compose(ti, b.unit)
    comult, counit = compose(compose(kron(ti, ti), b.comult), t), compose(b.counit, t)
    return HopfAlgebra(Bialgebra(Algebra(mult, unit), Coalgebra(comult, counit)),
                       compose(compose(ti, h.antipode), t))


def test_witnesses_over_a_large_prime_match_the_dense_checks():
    # over p = 2^61 - 1 only a chain's last factor reduces mod p, so the raw
    # sums before it pass p and some are nonzero multiples of p: group
    # algebras carried along basis changes with entries -1 = p - 1 and
    # anywhere in [0, p), valid and broken one constant at a time, fail where
    # the dense checks fail
    k = GF(2**61 - 1)
    p = k.char
    rng = random.Random(61)
    values = []
    for n in (2, 3, 4):
        h = cyclic_group_hopf(k, n)
        steps = LinMap.from_nonzeros(k, n, n, [(i, i, 1) for i in range(n)]
                                     + [(i, i + 1, p - 1) for i in range(n - 1)])
        values += [_transported(h, steps), _transported(h, LinMap.make(
            k, n, n, [rng.randrange(p) for _ in range(n * n)]))]
    multiples = 0
    for value in values:
        b = value.bialgebra
        for axiom in _antipode_axioms(b, value.antipode):
            raw = _chain_images(_chain_steps(axiom.lhs[:-1]), range(b.dim), b.dim, 0)
            multiples += sum(v % p == 0 for v in raw.values())
        assert value.report.ok and not _dense_failures(value)
        assert not dense_algebra_failures(value.algebra)
        failing = 0
        for mutant in _structure_mutants(value, rng):
            expected = _dense_failures(mutant)
            assert [(f.axiom, f.witness) for f in mutant.report.failures] == expected
            algebra = parts(mutant)[0]
            assert [(f.axiom, f.witness) for f in algebra.report.failures] == \
                dense_algebra_failures(algebra)
            failing += bool(expected)
        assert failing > 10
    assert multiples > 0


def test_homogeneity_witness_is_the_first_in_row_major_order():
    """Several constants of a graded structure map changed at once: the
    witness is the first inhomogeneous entry of the dense walk."""
    rng = random.Random(14)
    checked = 0
    for value in _structures():
        algebra, coalgebra, antipode, space = parts(value)
        if space is None:
            continue
        degs = space.degrees
        pairs = [p + q for p in degs for q in degs]
        shapes = [("antipode", antipode, degs, degs)]
        if algebra is not None:
            shapes += [("mult", algebra.mult, degs, pairs), ("unit", algebra.unit, degs, [0])]
        if coalgebra is not None:
            shapes += [("comult", coalgebra.comult, pairs, degs),
                       ("counit", coalgebra.counit, [0], degs)]
        for name, f, cod_degs, dom_degs in shapes:
            if f is None:
                continue
            for _ in range(POSITIONS):
                for _ in range(3):
                    f = _changed(f, rng)
                got = [(x.axiom, x.witness)
                       for x in _homogeneity_failures(name, f, cod_degs, dom_degs)]
                assert got == dense_homogeneity_failures(name, f, cod_degs, dom_degs)
                checked += bool(got)
    assert checked > 40


def test_measuring_witnesses_match_the_dense_checks():
    rng = random.Random(13)
    seen = set()
    for m in _measurings():
        assert validate_measuring(m).ok and not dense_measuring_failures(m)
        for mutant in _measuring_mutants(m, rng):
            expected = dense_measuring_failures(mutant)
            got = [(f.axiom, f.witness) for f in validate_measuring(mutant).failures]
            assert got == expected, mutant
            seen.update(axiom for axiom, _ in expected)
    assert seen == {"measuring multiplicativity", "measuring unit"}


@pytest.mark.parametrize("seed", [21, 22])
def test_morphism_checks_agree_with_the_dense_identities(seed):
    rng = random.Random(seed)
    for _, a in corpus_algebras():
        c = dual_coalgebra(a)
        ident = LinMap.identity(a.field, a.dim)
        for f in [ident] + [_changed(ident, rng) for _ in range(2 * POSITIONS)]:
            assert is_algebra_morphism(f, a, a) == (
                compose(f, a.unit) == a.unit
                and compose(f, a.mult) == compose(a.mult, kron(f, f)))
            assert is_coalgebra_morphism(f, c, c) == (
                compose(c.counit, f) == c.counit
                and compose(c.comult, f) == compose(kron(f, f), c.comult))


def test_each_axiom_decides_as_its_documented_side_does(monkeypatch):
    # every axiom that the structures, measurings, reconstructed stages and
    # morphism tests of this module hand to the engine, valid and broken:
    # deciding on the smaller side and rerunning the documented one for the
    # witness gives what the documented side alone gives
    axioms = []
    collect = structures._failures

    def collecting(batch):
        batch = list(batch)
        axioms.extend(batch)
        return collect(batch)

    for module in (structures, graded, measurings, reconstruction):
        monkeypatch.setattr(module, "_failures", collecting)
    rng = random.Random(15)
    for value in _structures():
        for v in (value, *_structure_mutants(value, rng)):
            v.report
    for m in _measurings():
        for v in (m, *_measuring_mutants(m, rng)):
            validate_measuring(v)
    # stages spanned and stages by coend, and their comodules, broken too
    a, b = cyclic_group_hopf(GF(2), 2).algebra, dual_numbers(GF(2))
    reps = [rep for n in (1, 2) for rep, _ in enumerate_measurings(a, b, n).orbits]
    stages = [reconstruct(reps), reconstruct(reps, morphisms=[])]
    stages += [reconstruct([m]) for m in _measurings()]
    for g in stages:
        for p, m in zip(g.projections, g.generators):
            delta = _classified_comodule(p, g.d.dim, m.xdim)
            assert validate_comodule(delta, g.d)
            validate_comodule(_changed(delta, rng), g.d)
    for _, alg in corpus_algebras():
        c = dual_coalgebra(alg)
        ident = LinMap.identity(alg.field, alg.dim)
        for f in [ident] + [_changed(ident, rng) for _ in range(POSITIONS)]:
            is_algebra_morphism(f, alg, alg)
            is_coalgebra_morphism(f, c, c)
    monkeypatch.undo()
    names = {axiom.name for axiom in axioms}
    assert ALL_AXIOMS | {"coassociative", "counital", "multiplicative in A", "unital",
                         "multiplicative", "comultiplicative"} <= names
    differing = 0
    for axiom in axioms:
        expected = reference_differ_at(axiom)
        assert structures._differ_at(axiom) == expected, axiom.name
        differing += expected is not None
    assert len(axioms) > 5000 and differing > 2000


def test_associativity_and_coassociativity_run_on_dim_basis_vectors(monkeypatch):
    # valid values: each axiom is decided on its smaller side only, so no
    # chain runs on the d^3 basis tensors, and the counit is multiplicative
    # on its one row
    runs = []
    differ_at, chain_images = structures._differ_at, structures._chain_images
    current = []

    def naming(axiom):
        current.append(axiom.name)
        return differ_at(axiom)

    def recording(steps, block, dom, p):
        runs.append((current[-1], dom))
        return chain_images(steps, block, dom, p)

    monkeypatch.setattr(structures, "_differ_at", naming)
    monkeypatch.setattr(structures, "_chain_images", recording)
    for value in (cyclic_group_hopf(QQ, 8), matrix_algebra(trivial_algebra(GF(2)), 3)):
        runs.clear()
        assert value.report.ok
        d = value.dim
        assert d ** 3 not in {dom for _, dom in runs}
        assert {dom for name, dom in runs if name == "associativity"} == {d}
        if isinstance(value, Algebra):
            continue
        assert {dom for name, dom in runs if name == "coassociativity"} == {d}
        assert {dom for name, dom in runs if name == "counit multiplicative"} == {1}
