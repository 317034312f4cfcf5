#!/usr/bin/env python3
"""Regenerate the committed fixture documents in tests/fixtures/ and the
broken documents in tests/broken/.

Everything is produced through the canonical serializer, so running this
script must leave a clean git tree.  Each broken document fails one axiom
(and those that follow from it) on purpose, or carries one scalar token too
long to convert; the golden corpus pins the witnesses and parse errors that
``validate`` or ``reconstruct`` reports for them.  The one valid document in
tests/broken/ is the zero coalgebra, whose dual is refused.
"""

from __future__ import annotations

from pathlib import Path

from sweedler.documents import Document, MeasuringDocument, canonical_json, \
    measuring_to_dict, serialize_document, structure_to_dict
from sweedler.fields import GF, QQ
from sweedler.linalg import LinMap
from sweedler.measurings import (
    enumerate_measurings,
    identity_measuring,
    measuring_from_matrix_morphism,
    regular_measuring,
)
from sweedler.measurings import Measuring
from sweedler.structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    HopfAlgebra,
    matrix_algebra,
    trivial_algebra,
)
from sweedler.zoo import (
    cyclic_group_hopf,
    dual_numbers,
    graded_dual_numbers,
    graded_line_hopf,
    idempotent_monoid_bialgebra,
    involution_algebra,
    sweedler_hopf,
)

TESTS = Path(__file__).resolve().parent.parent / "tests"
OUT = TESTS / "fixtures"
BROKEN = TESTS / "broken"


def write(name: str, text: str, out: Path = OUT) -> None:
    (out / name).write_text(text)
    print(f"wrote {out.name}/{name}")


def structure(name: str, value, labels, out: Path = OUT) -> None:
    write(name, serialize_document(Document(value, tuple(labels))), out)


def changed(f: LinMap, row: int, col: int, value) -> LinMap:
    """f with the entry at (row, col) replaced by ``value``."""
    entries = list(f.entries)
    entries[row * f.dom + col] = f.field.coerce(value)
    return LinMap(f.field, f.cod, f.dom, tuple(entries))


def broken_documents() -> None:
    """Documents that fail associativity, comult multiplicativity, the
    antipode axioms and measuring multiplicativity, three whose counit
    has an over-long token, and the zero coalgebra, which is valid but whose
    dual has no unit.  The measuring refers to its algebras in tests/fixtures/."""
    BROKEN.mkdir(parents=True, exist_ok=True)
    f2, f3 = GF(2), GF(3)
    c3 = cyclic_group_hopf(f2, 3)
    # g * g2 = g instead of 1
    a = c3.algebra
    structure("broken_assoc.json", Algebra(changed(changed(a.mult, 0, 1 * 3 + 2, 0),
                                                    1, 1 * 3 + 2, 1), a.unit),
              ["1", "g", "g2"], BROKEN)
    # F3[y]/(y^2) with y primitive: Delta(y)^2 = 2 y (x) y, not Delta(y^2) = 0
    dn = dual_numbers(f3)
    comult = LinMap.from_rows(f3, [[1, 0], [0, 1], [0, 1], [0, 0]])
    structure("broken_comult_mult.json",
              Bialgebra(dn, Coalgebra(comult, LinMap.row(f3, [1, 0]))), ["1", "y"], BROKEN)
    # s(g2) = g2 instead of g
    structure("broken_antipode.json",
              HopfAlgebra(c3.bialgebra, changed(changed(c3.antipode, 1, 2, 0), 2, 2, 1)),
              ["1", "g", "g2"], BROKEN)
    # the regular measuring of F2[C_2] with psi(g (x) x1) = x1 instead of x0
    regular = regular_measuring(involution_algebra(f2))
    psi = changed(changed(regular.psi, 0, 1 * 2 + 1, 0), 1, 1 * 2 + 1, 1)
    write("broken_mult.measuring.json",
          canonical_json(measuring_to_dict(MeasuringDocument(
              "../fixtures/f2_c2.json", "../fixtures/f2_trivial.json",
              Measuring(regular.a, regular.b, 2, psi)))), BROKEN)
    # the counit of k[C_2] with a second token past CPython's 4,300-digit int
    # conversion: a parse error before any digit is converted
    for name, field, token in (("long_integer_q.json", QQ, "7" * 5000),
                               ("long_fraction_q.json", QQ, "1/" + "7" * 5000),
                               ("long_token_f3.json", f3, "7" * 5000)):
        raw = structure_to_dict(Document(cyclic_group_hopf(field, 2), ("1", "g")))
        raw["counit"][1] = token
        write(name, canonical_json(raw), BROKEN)
    structure("zero_coalgebra_f2.json", Coalgebra(LinMap.zero(f2, 0, 0), LinMap.zero(f2, 1, 0)),
              [], BROKEN)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    f2, f3 = GF(2), GF(3)

    structure("f2_trivial.json", trivial_algebra(f2), ["1"])
    structure("q_trivial.json", trivial_algebra(QQ), ["1"])
    structure("f2_c2.json", cyclic_group_hopf(f2, 2), ["1", "g"])
    structure("q_c2.json", cyclic_group_hopf(QQ, 2), ["1", "g"])
    structure("f3_c2.json", cyclic_group_hopf(f3, 2), ["1", "g"])
    structure("f2_c3.json", cyclic_group_hopf(f2, 3), ["1", "g", "g2"])
    structure("sweedler4_f3.json", sweedler_hopf(f3), ["1", "g", "x", "gx"])
    structure("idempotent_f2.json", idempotent_monoid_bialgebra(f2), ["1", "e"])
    structure("f2_dualnum.json", dual_numbers(f2), ["1", "y"])
    structure("m2_f2.json", matrix_algebra(trivial_algebra(f2), 2),
              ["e00", "e01", "e10", "e11"])
    structure("graded_line_f2.json", graded_line_hopf(f2, 1), ["1", "x"])
    structure("graded_line_q.json", graded_line_hopf(QQ, 1), ["1", "x"])
    structure("graded_dualnum_f2_deg1.json", graded_dual_numbers(f2, 1), ["1", "y"])
    structure("graded_dualnum_f2_deg2.json", graded_dual_numbers(f2, 2), ["1", "y"])

    # a coalgebra document with broken coassociativity (for the validate command)
    broken = {
        "field": "F2",
        "dim": 2,
        "basis": ["1", "g"],
        "comult": [
            [0, [["1", "0"], ["0", "0"]]],
            [1, [["1", "0"], ["0", "1"]]],
        ],
        "counit": ["1", "0"],
    }
    write("broken_coassoc.json", canonical_json(broken))

    # measuring fixtures
    a = involution_algebra(f2)
    write("f2_c2_regular.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("f2_c2.json", "f2_trivial.json", regular_measuring(a)))))
    # the trivial character g -> 1, the only 1-dimensional F2[C_2]-module
    f2_triv = measuring_from_matrix_morphism(LinMap.from_rows(f2, [[1, 1]]), a,
                                             trivial_algebra(f2), 1)
    write("f2_c2_triv.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("f2_c2.json", "f2_trivial.json", f2_triv))))
    m2 =matrix_algebra(trivial_algebra(f2), 2)
    std = measuring_from_matrix_morphism(LinMap.identity(f2, 4), m2, trivial_algebra(f2), 2)
    write("m2_standard.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("m2_f2.json", "f2_trivial.json", std))))

    # the 1st, 4th and 7th 2-dimensional orbit representatives of
    # F2[C_2] -> F2[y]/(y^2): the coend over every intertwiner between them has
    # dimension 4, the subcoalgebra of P(A, B) that they span dimension 3
    orbits = enumerate_measurings(a, dual_numbers(f2), 2).orbits
    for i in (1, 4, 7):
        write(f"f2_c2_dualnum_n2_{i}.measuring.json",
              canonical_json(measuring_to_dict(
                  MeasuringDocument("f2_c2.json", "f2_dualnum.json", orbits[i - 1][0]))))

    HQ = cyclic_group_hopf(QQ, 2)
    kq = trivial_algebra(QQ)
    sign = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, -1]]),
                                          HQ.algebra, kq, 1)
    triv = measuring_from_matrix_morphism(LinMap.from_rows(QQ, [[1, 1]]),
                                          HQ.algebra, kq, 1)
    write("q_c2_sign.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("q_c2.json", "q_trivial.json", sign))))
    write("q_c2_triv.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("q_c2.json", "q_trivial.json", triv))))
    write("q_c2_identity.measuring.json",
          canonical_json(measuring_to_dict(
              MeasuringDocument("q_c2.json", "q_c2.json", identity_measuring(HQ.algebra)))))

    broken_documents()


if __name__ == "__main__":
    main()
