"""The three workloads: their inputs, their jobs and the check of every output.

A workload's ``setup`` writes its seeded input documents into the working
directory and returns the round: a list of phases, each a function from the
round's shared state to a list of jobs.  A later phase may use what an earlier
one reported (the census reconstructs the orbit representatives it has just
enumerated).  Every round runs the same jobs in the same order, and that order
does not depend on the seed: with a seeded order, peak memory followed it
(hopf_solve read 47.4 or 52.4 MiB by seed) and so did the short jobs' times.

Each check returns None when the output is right and a message otherwise.  It
compares with a computation made in ``oracle`` or with a property the method
must have, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import docgen as g
import oracle as o


@dataclass
class Job:
    argv: list
    expect: int = 0                      # the exit code docs/format.md documents
    check: Callable | None = None        # check(result, state) -> message | None
    tag: tuple | None = None             # (field, command, n): pairs Q with F3 jobs
    output: str | None = None            # the --output file the job writes, if any


@dataclass
class Result:
    code: int
    stdout: str
    text: str                            # the --output file if there is one, else stdout

    def report(self) -> dict:
        return json.loads(self.stdout)

    def result(self) -> dict:
        return self.report()["result"]


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def expected_map(spec: g.Spec, images: dict) -> list:
    """The matrix (rows = output index) of label -> {label: coeff} in spec's order."""
    d = spec.dim
    out = [[0] * d for _ in range(d)]
    for src, image in images.items():
        for dst, c in image.items():
            out[spec.index(dst)][spec.index(src)] = o.reduce(spec.p, c)
    return out


def check_validate(spec: g.Spec, kind: str):
    def check(res: Result, state) -> str | None:
        r = res.result()
        if not (r["valid"] and r["dim"] == spec.dim and r["kind"] == kind):
            return f"validate: {r}"
    return check


def check_antipode(spec: g.Spec, name: str = "antipode"):
    """k[G]: the inversion permutation; Sweedler: s(g) = g, s(x) = -gx, s^2 != id;
    no antipode when the spec has none (the idempotent monoid)."""
    def check(res: Result, state) -> str | None:
        r = res.result()[name]
        if spec.antipode is None:
            return None if r == {"present": False} else f"{name} should be absent"
        if not r["present"]:
            return f"{name} missing"
        got = o.matrix(spec.p, r["matrix"])
        s = expected_map(spec, spec.antipode)
        if name == "antipode":
            if got != s:
                return "antipode differs from the expected map"
            if "gx" in spec.labels and o.matmul(spec.p, s, s) == o.identity(spec.dim):
                return "Sweedler's antipode squared to the identity"
        elif o.matmul(spec.p, got, s) != o.identity(spec.dim):
            return "opantipode is not the inverse of the antipode"
    return check


def check_fusion(spec: g.Spec):
    """Hopf: all four operators invertible (for k[G] each a permutation
    matrix); no antipode: h is singular."""
    def check(res: Result, state) -> str | None:
        r = res.result()
        d2 = spec.dim ** 2
        if spec.antipode is None:
            h = o.matrix(spec.p, r["h"]["matrix"])
            if r["h"]["invertible"] or o.rank(spec.p, h) == d2:
                return "h should be singular"
            return None
        for key in ("h", "h_prime", "h_bar", "h_bar_prime"):
            m = o.matrix(spec.p, r[key]["matrix"])
            if not r[key]["invertible"]:
                return f"{key} should be invertible"
            if isinstance(spec.labels[0], int):
                if not o.is_permutation_matrix(m):
                    return f"{key} of a group algebra is not a permutation matrix"
            elif o.rank(spec.p, m) != d2:
                return f"{key} is singular"
    return check


def check_orbits(p: int, n: int, expected):
    """Totals equal the brute-force count; orbit sizes sum to it and divide |GL_n|.

    ``expected()`` gives the count; it runs at check time, outside set-up."""
    def check(res: Result, state) -> str | None:
        count = expected()
        r = res.result()
        sizes = [orbit["size"] for orbit in r["orbits"]]
        if r["total"] != count or sum(sizes) != count or r["orbit_count"] != len(sizes):
            return f"enumeration total {r['total']} (sizes {sizes}), expected {count}"
        order = o.gl_order(p, n)
        if any(order % s for s in sizes):
            return f"orbit sizes {sizes} do not divide |GL_{n}(F_{p})| = {order}"
    return check


def check_reconstruct(xdims: list, dim_a: int | None = None):
    """D is a coalgebra of dim <= sum x^2 with one projection per generator;
    for a regular measuring with B = k, dim D = dim A."""
    def check(res: Result, state) -> str | None:
        r = res.result()
        d = r["d"]
        p = 0 if d["field"] == "Q" else int(d["field"][1:])
        if len(r["projections"]) != len(xdims) or d["dim"] > sum(x * x for x in xdims):
            return f"reconstruct shape: dim {d['dim']} for xdims {xdims}"
        if dim_a is not None and d["dim"] != dim_a:
            return f"regular reconstruct: dim D = {d['dim']}, dim A = {dim_a}"
        if not o.coalgebra_ok(p, d):
            return "generated D is not a coalgebra"
    return check


def check_tambara(expected):
    def check(res: Result, state) -> str | None:
        count = expected()
        r = res.result()
        if not (r["matched"] and r["orbits_matched"] and r["intertwiners_matched"]):
            return "correspondence not ok"
        if r["module_count"] != r["morphism_count"] or r["morphism_count"] != count:
            return f"counts {r['module_count']}/{r['morphism_count']}, expected {count}"
    return check


def check_valid(res: Result, state) -> str | None:
    return None if res.result()["valid"] else "not valid"


def check_graded(res: Result, state) -> str | None:
    r = res.result()
    return None if r["valid"] and r["connected"] else f"graded-check: {r}"


# ---------------------------------------------------------------------------
# hopf_solve


HOPF_LADDER = (3, 4, 5)   # every command; n = 6 is validated only (antipode alone takes ~2 s)


def hopf_commands(name: str, spec: g.Spec, kind: str, n: int | None = None) -> list:
    """validate, antipode, opantipode and fusion on ``name``.json; ``n`` tags
    the jobs on k[C_n] for fields.q_over_f3."""
    checks = {"validate": check_validate(spec, kind),
              "antipode": check_antipode(spec, "antipode"),
              "opantipode": check_antipode(spec, "opantipode"),
              "fusion": check_fusion(spec)}
    return [Job([cmd, f"{name}.json"], check=check, tag=(spec.p, cmd, n) if n else None)
            for cmd, check in checks.items()]


def setup_hopf_solve(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for p in (0, 3):
        k = g.field_name(p)
        for n in HOPF_LADDER:
            spec = g.cyclic_group(p, n, rng)
            _write(f"{k}_c{n}.json", g.structure_text(spec))
            jobs += hopf_commands(f"{k}_c{n}", spec, "hopf", n)
        c6 = g.cyclic_group(p, 6, rng)
        _write(f"{k}_c6.json", g.structure_text(c6))
        jobs.append(Job(["validate", f"{k}_c6.json"], check=check_validate(c6, "hopf"),
                      tag=(p, "validate", 6)))
        sw = g.sweedler4(p, rng)
        _write(f"sweedler_{k}.json", g.structure_text(sw))
        jobs += hopf_commands(f"sweedler_{k}", sw, "hopf")
        idem = g.idempotent_monoid(p, rng)
        _write(f"idempotent_{k}.json", g.structure_text(idem))
        jobs += hopf_commands(f"idempotent_{k}", idem, "bialgebra")
        # the regular measuring of k[C_3] generates the coalgebra of its dual
        c3, t = g.cyclic_group(p, 3, rng), g.trivial(p)
        _write(f"{k}_c3r.json", g.structure_text(c3))
        _write(f"{k}_k.json", g.structure_text(t))
        _write(f"{k}_regular.measuring.json",
               g.measuring_text(f"{k}_c3r.json", f"{k}_k.json", c3, t, 3, g.regular(c3)))
        jobs.append(Job(["reconstruct", f"{k}_regular.measuring.json"],
                      check=check_reconstruct([3], dim_a=3), tag=(p, "reconstruct", 3)))
    for n in (3, 4):
        spec = g.matrix_units(0, n, rng)
        _write(f"Q_m{n}.json", g.structure_text(spec))
        jobs.append(Job(["validate", f"Q_m{n}.json"], check=check_validate(spec, "algebra")))
    _write("Q_graded_line.json", g.structure_text(g.graded_line(0, 1, rng)))
    jobs.append(Job(["graded-check", "Q_graded_line.json"], check=check_graded))
    # characters of F3[C_2] as measurings, and the matching a(A, k)-modules
    _write("F3_c2.json", g.structure_text(g.cyclic_group(3, 2, rng)))
    jobs.append(Job(["enumerate-measurings", "F3_c2.json", "F3_k.json", "1"],
                  check=check_orbits(3, 1, lambda: o.count_roots(3, 1, "k", o.cyclic_poly(2)))))
    jobs.append(Job(["tambara-check", "F3_c2.json", "F3_k.json", "--n", "1"],
                  check=check_tambara(lambda: o.count_roots(3, 1, "c2", o.UNIT))))
    return [lambda state: jobs]


# ---------------------------------------------------------------------------
# measuring_census


# (name, A, B, the oracle's (B kind, relation of A) or None for M_2(F_2), dims)
def _census_pairs(rng):
    return [
        ("F2C2_F2", g.cyclic_group(2, 2, rng), g.trivial(2), ("k", o.cyclic_poly(2)), (1, 2)),
        ("F2C3_F2", g.cyclic_group(2, 3, rng), g.trivial(2), ("k", o.cyclic_poly(3)), (1, 2)),
        ("F3C2_F3", g.cyclic_group(3, 2, rng), g.trivial(3), ("k", o.cyclic_poly(2)), (1, 2, 3)),
        ("F2C2_F2y", g.cyclic_group(2, 2, rng), g.dual_numbers(2, rng),
         ("y2", o.cyclic_poly(2)), (1, 2)),
        ("M2F2_F2", g.matrix_units(2, 2, rng), g.trivial(2), None, (1, 2)),
    ]


def _census_count(p: int, n: int, relation) -> int:
    if relation is None:
        # M_2(F_2) is simple: no 1-dim representation, and its automorphisms
        # are inner (Skolem-Noether), |PGL_2(F_2)| = |GL_2(F_2)| / |F_2^*|
        return 0 if n == 1 else o.gl_order(2, 2) // (2 - 1)
    kind, poly = relation
    return o.count_roots(p, n, kind, poly)


def _keep_representatives(name: str, n: int, check):
    """Check an enumeration, then write its orbit representatives as measuring
    documents for the reconstruct jobs of the next phase."""
    def run(res: Result, state) -> str | None:
        message = check(res, state)
        paths = state.setdefault(name, {})[n] = []
        for i, orbit in enumerate(res.result()["orbits"]):
            paths.append(f"{name}.n{n}.rep{i}.json")
            _write(paths[-1], g.canonical(orbit["representative"]))
        return message
    return run


def setup_measuring_census(seed: int) -> list:
    rng = random.Random(seed)
    pairs = _census_pairs(rng)
    enumerations = []
    for name, a, b, relation, dims in pairs:
        _write(f"{name}.A.json", g.structure_text(a))
        _write(f"{name}.B.json", g.structure_text(b))
        for n in dims:
            count = lambda p=a.p, n=n, r=relation: _census_count(p, n, r)
            enumerations.append(
                Job(["enumerate-measurings", f"{name}.A.json", f"{name}.B.json", str(n)],
                    check=_keep_representatives(name, n, check_orbits(a.p, n, count))))

    fixed = []
    for p in (0, 3):
        k = g.field_name(p)
        t = g.trivial(p)
        _write(f"{k}_k.json", g.structure_text(t))
        for n in (2, 3, 4):
            a = g.cyclic_group(p, n, rng)
            _write(f"{k}_c{n}.json", g.structure_text(a))
            _write(f"{k}_c{n}.regular.json",
                   g.measuring_text(f"{k}_c{n}.json", f"{k}_k.json", a, t, n, g.regular(a)))
            fixed.append(Job(["reconstruct", f"{k}_c{n}.regular.json"],
                             check=check_reconstruct([n], dim_a=n), tag=(p, "reconstruct", n)))
    for name, source in (("F2y", pairs[3][2]), ("M2F2", pairs[4][1])):
        _write(f"{name}.R.json", g.structure_text(source))
        _write(f"{name}.regular.json",
               g.measuring_text(f"{name}.R.json", "F2C2_F2.B.json", source, g.trivial(2),
                                source.dim, g.regular(source)))
        fixed.append(Job(["reconstruct", f"{name}.regular.json"],
                         check=check_reconstruct([source.dim], dim_a=source.dim)))
    for name, a, *_ in pairs[1:3]:
        fixed += hopf_commands(f"{name}.A", a, "hopf")[1:]
    fixed.append(Job(["tambara-check", "F2C2_F2y.A.json", "F2C2_F2y.B.json", "--n", "2"],
                     check=check_tambara(lambda: o.count_roots(2, 2, "c2", o.SQUARE_ZERO))))
    _write("F2y_graded.json", g.structure_text(g.dual_numbers(2, rng, degree=1)))
    fixed.append(Job(["graded-check", "F2y_graded.json"], check=check_graded))

    def reconstructions(state) -> list:
        jobs = list(fixed)
        for name, a, _b, _r, dims in pairs:
            reps = state[name]
            family = [(path, n) for n in dims if n < 3 for path in reps[n]]
            jobs.append(Job(["reconstruct", *(path for path, _ in family)],
                          check=check_reconstruct([n for _, n in family])))
            if 3 in dims:
                jobs.append(Job(["reconstruct", *reps[3]],
                              check=check_reconstruct([3] * len(reps[3]))))
            jobs += [Job(["reconstruct", path], check=check_reconstruct([n]))
                     for n in dims for path in reps[n]]
        return jobs

    return [lambda state: enumerations, reconstructions]


# ---------------------------------------------------------------------------
# cli_mix


def check_round_trip(kind: str):
    """An emitted document must satisfy serialize(parse(text)) == text."""
    def check(res: Result, state) -> str | None:
        docs = state["documents"]
        if kind == "structure":
            again = docs.serialize_document(docs.parse_document(res.text))
        else:
            loader = lambda ref: docs.parse_document(Path(ref).read_text())
            again = docs.serialize_measuring_document(
                docs.parse_measuring_document(res.text, loader))
        if again != res.text:
            return "emitted document does not round-trip"
    return check


def _all(*checks):
    def check(res: Result, state) -> str | None:
        for c in checks:
            message = c(res, state)
            if message:
                return message
    return check


def check_xdim(xdim: int):
    def check(res: Result, state) -> str | None:
        got = json.loads(res.text)["xdim"]
        return None if got == xdim else f"xdim {got}, expected {xdim}"
    return check


def check_double_dual(original: str):
    def check(res: Result, state) -> str | None:
        a = json.loads(Path(original).read_text())
        b = json.loads(res.text)
        a.pop("basis"), b.pop("basis")
        return None if a == b else "dual applied twice changed the structure constants"
    return check


def check_dim(dim: int):
    def check(res: Result, state) -> str | None:
        got = json.loads(res.text)["dim"]
        return None if got == dim else f"dim {got}, expected {dim}"
    return check


def check_grouplikes(spec: g.Spec):
    """Every structure here is pointed with the grouplikes among its basis
    (k[G]: G; Sweedler: 1, g; the idempotent monoid: 1, e)."""
    count = sum(1 for l in spec.labels if spec.comult[l] == {(l, l): 1})

    def check(res: Result, state) -> str | None:
        got = res.result()["count"]
        return None if got == count else f"{got} grouplikes, expected {count}"
    return check


def check_count(expected):
    def check(res: Result, state) -> str | None:
        count = expected()
        got = res.result()["count"]
        return None if got == count else f"{got} morphisms, expected {count}"
    return check


def check_presentation(dim_a: int, dim_b: int):
    """One generator per (a_i, b_j) with b_j off the unit axis of B."""
    def check(res: Result, state) -> str | None:
        got = len(res.result()["generators"])
        return None if got == dim_a * (dim_b - 1) else f"{got} generators"
    return check


def _dual_chain(name: str, spec: g.Spec) -> list:
    d1, d2 = f"{name}.dual.json", f"{name}.dual2.json"
    doc_check = check_round_trip("structure")
    return [
        Job(["dual", f"{name}.json", "--format", "document", "--output", d1],
            check=_all(doc_check, check_dim(spec.dim)), output=d1),
        Job(["validate", d1], check=check_valid),
        Job(["dual", d1, "--format", "document", "--output", d2],
            check=_all(doc_check, check_double_dual(f"{name}.json")), output=d2),
    ]


def setup_cli_mix(seed: int, fixtures: Path) -> list:
    rng = random.Random(seed)
    shutil.copytree(fixtures, "fx", dirs_exist_ok=True)
    hopf = {
        "qc2": g.cyclic_group(0, 2, rng), "qc3": g.cyclic_group(0, 3, rng),
        "f3c2": g.cyclic_group(3, 2, rng), "f3c3": g.cyclic_group(3, 3, rng),
        "f2c2": g.cyclic_group(2, 2, rng), "f2c3": g.cyclic_group(2, 3, rng),
        "f5c4": g.cyclic_group(5, 4, rng), "sw3": g.sweedler4(3, rng), "swq": g.sweedler4(0, rng),
        "idq": g.idempotent_monoid(0, rng), "id3": g.idempotent_monoid(3, rng),
    }
    algebras = {
        "dn2": g.dual_numbers(2, rng), "dn3": g.dual_numbers(3, rng),
        "m2f2": g.matrix_units(2, 2, rng), "m2q": g.matrix_units(0, 2, rng),
        "tq": g.trivial(0), "t2": g.trivial(2), "t3": g.trivial(3), "t5": g.trivial(5),
    }
    graded = {
        "glq": g.graded_line(0, 1, rng), "gl2": g.graded_line(2, 2, rng),
        "gdn1": g.dual_numbers(2, rng, degree=1), "gdn2": g.dual_numbers(2, rng, degree=2),
    }
    specs = {**hopf, **algebras, **graded}
    for name, spec in specs.items():
        _write(f"{name}.json", g.structure_text(spec))
    measurings = {
        "qc2_sign": ("qc2", "tq", 1, g.character(hopf["qc2"], algebras["tq"], -1)),
        "qc2_triv": ("qc2", "tq", 1, g.character(hopf["qc2"], algebras["tq"], 1)),
        "f3c2_sign": ("f3c2", "t3", 1, g.character(hopf["f3c2"], algebras["t3"], 2)),
        "f3c2_triv": ("f3c2", "t3", 1, g.character(hopf["f3c2"], algebras["t3"], 1)),
        "f5c4_2": ("f5c4", "t5", 1, g.character(hopf["f5c4"], algebras["t5"], 2)),
        "f5c4_4": ("f5c4", "t5", 1, g.character(hopf["f5c4"], algebras["t5"], 4)),
        "reg_f2c2": ("f2c2", "t2", 2, g.regular(hopf["f2c2"])),
        "reg_f3c3": ("f3c3", "t3", 3, g.regular(hopf["f3c3"])),
        "reg_qc2": ("qc2", "tq", 2, g.regular(hopf["qc2"])),
        "id_qc2": ("qc2", "qc2", 1, g.identity(hopf["qc2"])),
        "id_t3": ("t3", "t3", 1, g.identity(algebras["t3"])),
    }
    for name, (a, b, xdim, psi) in measurings.items():
        _write(f"{name}.m.json",
               g.measuring_text(f"{a}.json", f"{b}.json", specs[a], specs[b], xdim, psi))
    xdim = {name: m[2] for name, m in measurings.items()}
    fp = lambda name: specs[name].p

    jobs = []
    for name, spec in hopf.items():
        kind = "hopf" if spec.antipode is not None else "bialgebra"
        jobs += hopf_commands(name, spec, kind, spec.dim if name[:2] in ("qc", "f3") else None)
        jobs.append(Job(["grouplikes", f"{name}.json"], expect=0 if spec.p else 5,
                        check=check_grouplikes(spec) if spec.p else None))
        jobs += _dual_chain(name, spec)
    for name, spec in algebras.items():
        jobs.append(Job(["validate", f"{name}.json"], check=check_validate(spec, "algebra")))
        jobs += _dual_chain(name, spec)
    for name, spec in graded.items():
        kind = "graded hopf" if spec.antipode is not None else "graded algebra"
        jobs.append(Job(["graded-check", f"{name}.json"], check=check_graded))
        jobs.append(Job(["validate", f"{name}.json"], check=check_validate(spec, kind)))
        jobs += _dual_chain(name, spec)
        zero = f"{name}.deg0.json"
        jobs += [
            Job(["degree0", f"{name}.json", "--format", "document", "--output", zero],
                check=_all(check_round_trip("structure"),
                           check_dim(sum(1 for d in spec.degrees.values() if d == 0))),
                output=zero),
            Job(["validate", zero], check=check_valid),
        ]
    for c, b in (("f3c2", "f3c3"), ("f2c2", "dn2"), ("qc2", "qc2"), ("sw3", "t3"), ("f5c4", "t5")):
        out = f"{c}.{b}.conv.json"
        jobs += [
            Job(["convolution", f"{c}.json", f"{b}.json", "--format", "document", "--output", out],
                check=_all(check_round_trip("structure"), check_dim(specs[c].dim * specs[b].dim)),
                output=out),
            Job(["validate", out], check=check_valid),
        ]
    jobs += [
        Job(["morphisms", "f2c2.json", "dn2.json"],
            check=check_count(lambda: o.count_roots(2, 1, "y2", o.cyclic_poly(2)))),
        Job(["morphisms", "f3c2.json", "t3.json"],
            check=check_count(lambda: o.count_roots(3, 1, "k", o.cyclic_poly(2)))),
        Job(["morphisms", "f2c3.json", "t2.json"],
            check=check_count(lambda: o.count_roots(2, 1, "k", o.cyclic_poly(3)))),
        Job(["morphisms", "f5c4.json", "t5.json"],
            check=check_count(lambda: o.count_roots(5, 1, "k", o.cyclic_poly(4)))),
        Job(["morphisms", "qc2.json", "tq.json"], expect=5),
        Job(["morphisms", "f3c3.json", "f3c3.json", "--budget", "2"], expect=4),
    ]
    for a, b, n, kind, poly in (("f2c2", "t2", 2, "k", o.cyclic_poly(2)),
                                ("f3c2", "t3", 1, "k", o.cyclic_poly(2)),
                                ("f2c3", "t2", 2, "k", o.cyclic_poly(3)),
                                ("f2c2", "dn2", 1, "y2", o.cyclic_poly(2)),
                                ("f5c4", "t5", 1, "k", o.cyclic_poly(4))):
        jobs.append(Job(["enumerate-measurings", f"{a}.json", f"{b}.json", str(n),
                         "--seed", str(seed)],
                        check=check_orbits(fp(a), n, lambda p=fp(a), n=n, kind=kind, poly=poly:
                                           o.count_roots(p, n, kind, poly))))
    jobs += [
        Job(["enumerate-measurings", "qc2.json", "tq.json", "1"], expect=5),
        Job(["enumerate-measurings", "f3c3.json", "t3.json", "2", "--budget", "10"], expect=4),
        # known fault: a negative n is unsupported input (5) but ends as a
        # DimensionMismatch in the catch-all, exit 3
        Job(["enumerate-measurings", "f2c2.json", "t2.json", "-1"], expect=5),
    ]
    for name, (a, _b, x, _psi) in measurings.items():
        jobs.append(Job(["reconstruct", f"{name}.m.json"],
                        check=check_reconstruct([x],
                                                dim_a=specs[a].dim if name.startswith("reg")
                                                else None)))
    for first, second in (("qc2_sign", "qc2_triv"), ("f3c2_sign", "f3c2_triv"),
                          ("f5c4_2", "f5c4_4")):
        jobs.append(Job(["reconstruct", f"{first}.m.json", f"{second}.m.json"],
                        check=check_reconstruct([1, 1])))
    for cmd, first, second in (("tensor", "qc2_sign", "qc2_sign"),
                               ("tensor", "f3c2_sign", "f3c2_triv"),
                               ("tensor", "f5c4_2", "f5c4_4"),
                               ("tensor", "reg_f2c2", "reg_f2c2"),
                               ("tensor", "id_qc2", "id_qc2"),
                               ("compose", "id_qc2", "qc2_sign"),
                               ("compose", "f3c2_sign", "id_t3"),
                               ("compose", "reg_f3c3", "id_t3")):
        out = f"{first}.{cmd}.{second}.m.json"
        x = xdim[first] * xdim[second]
        jobs += [
            Job([cmd, f"{first}.m.json", f"{second}.m.json", "--format", "document",
                 "--output", out],
                check=_all(check_round_trip("measuring"), check_xdim(x)), output=out),
            Job(["reconstruct", out], check=check_reconstruct([x])),
        ]
    jobs += [
        Job(["tensor", "fx/m2_standard.measuring.json", "fx/m2_standard.measuring.json"],
            expect=5),
        Job(["compose", "f3c2_sign.m.json", "f3c2_sign.m.json"], expect=5),
    ]
    for a, b in (("f2c2", "dn2"), ("f3c2", "t3"), ("qc2", "tq"), ("dn2", "f2c2")):
        jobs.append(Job(["tambara-presentation", f"{a}.json", f"{b}.json"],
                        check=check_presentation(specs[a].dim, specs[b].dim)))
    for a, b, n, kind, poly in (("f2c2", "dn2", 1, "c2", o.SQUARE_ZERO),
                                ("f3c2", "t3", 1, "c2", o.UNIT),
                                ("f2c2", "t2", 2, "c2", o.UNIT),
                                ("dn2", "t2", 2, "y2", o.UNIT)):
        jobs.append(Job(["tambara-check", f"{a}.json", f"{b}.json", "--n", str(n)],
                        check=check_tambara(lambda p=fp(a), n=n, kind=kind, poly=poly:
                                           o.count_roots(p, n, kind, poly))))
    for path in sorted(Path("fx").iterdir()):
        if path.name.endswith(".measuring.json"):
            jobs.append(Job(["reconstruct", f"fx/{path.name}"], check=check_reconstruct([
                json.loads(path.read_text())["xdim"]])))
        elif path.name == "broken_coassoc.json":
            jobs.append(Job(["validate", f"fx/{path.name}"], expect=3))
        else:
            jobs.append(Job(["validate", f"fx/{path.name}"], check=check_valid))
    _write("truncated.json", g.structure_text(algebras["t3"])[:40])
    _write("noncanonical.json", g.canonical({"field": "Q", "dim": 1, "basis": ["1"],
                                             "unit": ["2/2"], "mult": []}))
    # known fault: a boolean dim is not an integer and should be a parse error
    _write("dim_true.json", g.structure_text(algebras["t3"]).replace('"dim": 1', '"dim": true'))
    jobs += [
        Job(["validate", "truncated.json"], expect=2),
        Job(["validate", "noncanonical.json"], expect=2),
        Job(["validate", "missing.json"], expect=2),
        Job(["validate", "dim_true.json"], expect=2),
    ]
    return [lambda state: jobs]


WORKLOADS = {
    "hopf_solve": setup_hopf_solve,
    "measuring_census": setup_measuring_census,
    "cli_mix": setup_cli_mix,
}
