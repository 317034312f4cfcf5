"""Seeded input documents, written by the benchmark itself.

The documents follow docs/format.md (canonical JSON, fixed key order,
canonical scalar strings) but are produced here from explicit structure
constants, without the program's serializer, so that a serializer fault
cannot leak into the inputs.  A structure is described over abstract basis
labels, written in the order of ``labels``; ``names`` holds the string written
for each label.

The seed chooses the names but not the basis order: the cost of the program's
brute-force searches depends on where the unit sits in the basis (F3[C_2] ->
M_3(F3) takes 3.6 s with the unit first and 1.1 s with it second), so a
seeded basis order would make the work itself depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


def show(p: int, x) -> str:
    """Canonical scalar token of docs/format.md (p = 0 means Q)."""
    if p:
        return str(int(x) % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def field_name(p: int) -> str:
    return f"F{p}" if p else "Q"


def canonical(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@dataclass
class Spec:
    """Structure constants over abstract labels; absent maps mean absent parts."""

    p: int
    labels: list
    unit: dict | None = None          # label -> coeff
    mult: dict | None = None          # (l1, l2) -> {label: coeff}
    comult: dict | None = None        # label -> {(l1, l2): coeff}
    counit: dict | None = None        # label -> coeff
    antipode: dict | None = None      # label -> {label: coeff}
    degrees: dict | None = None       # label -> int
    names: dict = field(default_factory=dict)

    def index(self, label) -> int:
        return self.labels.index(label)

    @property
    def dim(self) -> int:
        return len(self.labels)


def named(spec: Spec, rng: random.Random | None) -> Spec:
    """Choose distinct basis names: two seeded letters and the index."""
    prefix = "".join(rng.choice("abcdefghjkmnpqrstuvwz") for _ in range(2)) if rng else "e"
    spec.names = {l: f"{prefix}{i}" for i, l in enumerate(spec.labels)}
    return spec


def _vec(spec: Spec, coeffs: dict) -> list:
    out = [0] * spec.dim
    for label, c in coeffs.items():
        out[spec.index(label)] += c
    return [show(spec.p, x) for x in out]


def _nonzero(p: int, x) -> bool:
    return (int(x) % p != 0) if p else x != 0


def structure_dict(spec: Spec) -> dict:
    p, d, order = spec.p, spec.dim, spec.labels
    out = {"field": field_name(p), "dim": d, "basis": [spec.names[l] for l in order]}
    if spec.unit is not None:
        out["unit"] = _vec(spec, spec.unit)
        support = [l for l, c in spec.unit.items() if _nonzero(p, c)]
        implied = spec.index(support[0]) if len(support) == 1 else None
        triples = []
        for i in range(d):
            for j in range(d):
                if implied is not None and implied in (i, j):
                    continue
                image = spec.mult.get((order[i], order[j]), {})
                vec = _vec(spec, image)
                if any(x != "0" for x in vec):
                    triples.append([i, j, vec])
        out["mult"] = triples
    if spec.comult is not None:
        entries = []
        for i in range(d):
            matrix = [[0] * d for _ in range(d)]
            for (l1, l2), c in spec.comult.get(order[i], {}).items():
                matrix[spec.index(l1)][spec.index(l2)] += c
            shown = [[show(p, x) for x in row] for row in matrix]
            if any(x != "0" for row in shown for x in row):
                entries.append([i, shown])
        out["comult"] = entries
        out["counit"] = _vec(spec, spec.counit)
    if spec.antipode is not None:
        out["antipode"] = [_vec(spec, spec.antipode[l]) for l in order]
    if spec.degrees is not None:
        out["degrees"] = [spec.degrees[l] for l in order]
    return out


def structure_text(spec: Spec) -> str:
    return canonical(structure_dict(spec))


def measuring_text(a_ref: str, b_ref: str, a: Spec, b: Spec, xdim: int, psi: dict) -> str:
    """``psi`` maps (a-label, x) to {(x', b-label): coeff}; x, x' are 0..xdim-1."""
    entries = []
    for t in range(a.dim):
        for x in range(xdim):
            vec = [0] * (xdim * b.dim)
            for (x2, bl), c in psi.get((a.labels[t], x), {}).items():
                vec[x2 * b.dim + b.index(bl)] += c
            shown = [show(a.p, v) for v in vec]
            if any(v != "0" for v in shown):
                entries.append([[t, x], shown])
    return canonical({"a": a_ref, "b": b_ref, "xdim": xdim, "psi": entries})


# ---------------------------------------------------------------------------
# the structures the workloads use


def cyclic_group(p: int, n: int, rng=None) -> Spec:
    """k[C_n] on the grouplike basis g^0..g^(n-1) (labels are the exponents)."""
    labels = list(range(n))
    return named(Spec(
        p, labels,
        unit={0: 1},
        mult={(a, b): {(a + b) % n: 1} for a in labels for b in labels},
        comult={a: {(a, a): 1} for a in labels},
        counit={a: 1 for a in labels},
        antipode={a: {(-a) % n: 1} for a in labels},
    ), rng)


def sweedler4(p: int, rng=None) -> Spec:
    """Sweedler's Hopf algebra on 1, g, x, gx: g^2 = 1, x^2 = 0, xg = -gx."""
    one, g, x, gx = "1", "g", "x", "gx"
    mult = {
        (one, one): {one: 1}, (one, g): {g: 1}, (one, x): {x: 1}, (one, gx): {gx: 1},
        (g, one): {g: 1}, (g, g): {one: 1}, (g, x): {gx: 1}, (g, gx): {x: 1},
        (x, one): {x: 1}, (x, g): {gx: -1},
        (gx, one): {gx: 1}, (gx, g): {x: -1},
    }
    comult = {one: {(one, one): 1}, g: {(g, g): 1},
              x: {(x, one): 1, (g, x): 1}, gx: {(gx, g): 1, (one, gx): 1}}
    return named(Spec(
        p, [one, g, x, gx], unit={one: 1}, mult=mult, comult=comult,
        counit={one: 1, g: 1, x: 0, gx: 0},
        antipode={one: {one: 1}, g: {g: 1}, x: {gx: -1}, gx: {x: 1}},
    ), rng)


def idempotent_monoid(p: int, rng=None) -> Spec:
    """The monoid bialgebra of {1, e}, e^2 = e: a bialgebra with no antipode."""
    return named(Spec(
        p, ["1", "e"], unit={"1": 1},
        mult={("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1},
              ("e", "e"): {"e": 1}},
        comult={"1": {("1", "1"): 1}, "e": {("e", "e"): 1}},
        counit={"1": 1, "e": 1},
    ), rng)


def matrix_units(p: int, n: int, rng=None) -> Spec:
    """M_n(k) on the matrix units e_ij."""
    labels = [f"e{i}{j}" for i in range(n) for j in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    mult[(f"e{i}{j}", f"e{k}{l}")] = {f"e{i}{l}": 1} if j == k else {}
    return named(Spec(p, labels, unit={f"e{i}{i}": 1 for i in range(n)}, mult=mult), rng)


def dual_numbers(p: int, rng=None, degree: int | None = None) -> Spec:
    """k[y]/(y^2), graded with deg y = degree when a degree is given."""
    spec = Spec(p, ["1", "y"], unit={"1": 1},
                mult={("1", "1"): {"1": 1}, ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
                      ("y", "y"): {}})
    if degree is not None:
        spec.degrees = {"1": 0, "y": degree}
    return named(spec, rng)


def graded_line(p: int, degree: int, rng=None) -> Spec:
    """k[x]/(x^2) with x primitive and s(x) = -x, deg x = degree (Koszul Hopf)."""
    return named(Spec(
        p, ["1", "x"], unit={"1": 1},
        mult={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
              ("x", "x"): {}},
        comult={"1": {("1", "1"): 1}, "x": {("1", "x"): 1, ("x", "1"): 1}},
        counit={"1": 1, "x": 0},
        antipode={"1": {"1": 1}, "x": {"x": -1}},
        degrees={"1": 0, "x": degree},
    ), rng)


def trivial(p: int) -> Spec:
    return named(Spec(p, ["1"], unit={"1": 1}, mult={("1", "1"): {"1": 1}}), None)


# measurings ----------------------------------------------------------------


def character(a: Spec, b: Spec, value: int) -> dict:
    """The 1-dim measuring k[C_n] -> k with g |-> value."""
    return {(t, 0): {(0, "1"): value ** t} for t in a.labels}


def regular(a: Spec) -> dict:
    """A acting on X = A (basis in A's written order) with B = k: psi = mult."""
    out = {}
    for t in a.labels:
        for x in range(a.dim):
            image = a.mult.get((t, a.labels[x]), {})
            out[(t, x)] = {(a.index(l), "1"): c for l, c in image.items()}
    return out


def identity(a: Spec) -> dict:
    """The 1-dim measuring A -> A with psi(a (x) x0) = x0 (x) a."""
    return {(t, 0): {(0, t): 1} for t in a.labels}
