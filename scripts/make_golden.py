#!/usr/bin/env python3
"""Regenerate the golden-report corpus in tests/golden/.

Every CLI command is run in-process over every committed fixture it applies
to (pairs of fixtures over one field for the two-input commands), and
``validate`` or ``reconstruct`` over each broken document, from the
repository root so that the reports carry repo-relative paths.  The exit
code and the exact stdout bytes of each run are stored; tests/test_golden.py
replays the corpus and demands byte equality.

Run from anywhere:  PYTHONPATH=src python scripts/make_golden.py
Only regenerate when a report is meant to change, and say which one.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stdout
from pathlib import Path

from sweedler.cli import main
from sweedler.documents import algebra_of, coalgebra_of, parse_document
from sweedler.errors import SweedlerError
from sweedler.graded import parts

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "tests/fixtures"
BROKEN = "tests/broken"
OUT = ROOT / "tests" / "golden"
MANIFEST = OUT / "cases.json"


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run from the repo root."""
    here = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(ROOT)
        with redirect_stdout(buf):
            code = main(list(argv))
    finally:
        os.chdir(here)
    return code, buf.getvalue()


def _fixture(name: str) -> str:
    return f"{FIXTURES}/{name}"


def cases() -> list[list[str]]:
    names = sorted(p.name for p in (ROOT / FIXTURES).glob("*.json"))
    structures = [n for n in names if not n.endswith(".measuring.json")]
    measurings = [n for n in names if n.endswith(".measuring.json")]
    values = {}
    for n in structures:
        try:
            values[n] = parse_document((ROOT / FIXTURES / n).read_text())
        except SweedlerError:
            values[n] = None  # an invalid fixture: only `validate` applies
    docs = {n: d for n, d in values.items() if d is not None}
    field = {n: str(d.field) for n, d in docs.items()}
    algebras = [n for n, d in docs.items() if algebra_of(d) is not None]
    coalgebras = [n for n, d in docs.items() if coalgebra_of(d) is not None]
    bialgebras = [n for n in algebras if coalgebra_of(docs[n]) is not None]
    graded_algebras = [n for n in algebras if parts(docs[n].value)[3] is not None]
    finite = lambda n: field[n] != "Q"
    small = lambda n: docs[n].dim <= 2

    out: list[list[str]] = []
    for n in structures:
        out.append(["validate", _fixture(n)])
    for n in docs:
        out.append(["dual", _fixture(n)])
        out.append(["dual", _fixture(n), "--format", "document"])
    for n in bialgebras:
        for cmd in ("fusion", "antipode", "opantipode"):
            out.append([cmd, _fixture(n)])
    for n in coalgebras:
        out.append(["grouplikes", _fixture(n)])
    # the grouplike bound is p to the number of generators of the dual algebra
    for n, budget in (("sweedler4_f3.json", "26"), ("f2_c3.json", "3"),
                      ("sweedler4_f3.json", "27")):
        out.append(["grouplikes", _fixture(n), "--budget", budget])
    for n in docs:
        out.append(["graded-check", _fixture(n)])
    for n in graded_algebras:
        out.append(["degree0", _fixture(n)])
    for c in coalgebras:
        for a in algebras:
            if field[c] == field[a] and (small(c) or small(a)):
                out.append(["convolution", _fixture(c), _fixture(a)])
    for a in algebras:
        for b in algebras:
            if field[a] != field[b]:
                continue
            out.append(["tambara-presentation", _fixture(a), _fixture(b)])
            out.append(["morphisms", _fixture(a), _fixture(b)])
            for n in ["1"] + (["2"] if small(a) and docs[b].dim == 1 else []):
                out.append(["enumerate-measurings", _fixture(a), _fixture(b), n])
            if finite(a) and small(a) and small(b):
                out.append(["tambara-check", _fixture(a), _fixture(b), "--n", "1"])
    out.append(["enumerate-measurings", _fixture("f2_c2.json"), _fixture("f2_dualnum.json"), "0"])
    # bounds 2^7200 (2,168 digits, written in decimal) and 2^16200 (4,877 digits,
    # past CPython's int-to-decimal limit: written as a power)
    for n in ("2", "3", "60", "90"):
        out.append(["tambara-check", _fixture("f2_c2.json"), _fixture("f2_dualnum.json"),
                    "--n", n])
    for n in measurings:
        out.append(["reconstruct", _fixture(n)])
        out.append(["reconstruct", _fixture(n), "--auto-intertwiners", "false"])
    mdocs = {n: json.loads((ROOT / FIXTURES / n).read_text()) for n in measurings}
    for m1 in measurings:
        for m2 in measurings:
            same_pair = (mdocs[m1]["a"], mdocs[m1]["b"]) == (mdocs[m2]["a"], mdocs[m2]["b"])
            if same_pair and m1 <= m2:
                out.append(["reconstruct", _fixture(m1), _fixture(m2)])
            if same_pair:
                for mode in ("auto", "bialgebra", "endo"):
                    out.append(["tensor", _fixture(m1), _fixture(m2), "--mode", mode])
            if mdocs[m1]["b"] == mdocs[m2]["a"]:
                out.append(["compose", _fixture(m1), _fixture(m2)])
    # a stage where the coend over the intertwiners does not inject into P(A, B)
    out.append(["reconstruct", *(_fixture(f"f2_c2_dualnum_n2_{i}.measuring.json")
                                 for i in (1, 4, 7))])
    for n in sorted(p.name for p in (ROOT / BROKEN).glob("*.json")):
        out.append(["reconstruct" if n.endswith(".measuring.json") else "validate",
                    f"{BROKEN}/{n}"])
    out.append(["validate", _fixture("f2_c2.json"), "--seed", "7"])
    # the dual of the zero coalgebra has no unit: a precondition failure
    zero = f"{BROKEN}/zero_coalgebra_f2.json"
    out += [["dual", zero], ["convolution", zero, _fixture("f2_c2.json")]]
    out.append(["validate", _fixture("missing.json")])
    return out


def case_id(argv: list[str]) -> str:
    words = [Path(a).name.removesuffix(".json") if a.startswith((FIXTURES, BROKEN)) else a
             for a in argv]
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", "__".join(w.lstrip("-") for w in words))


def main_() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.glob("*.txt"):
        old.unlink()
    manifest = []
    for argv in cases():
        code, text = run_case(argv)
        name = case_id(argv) + ".txt"
        (OUT / name).write_text(text)
        manifest.append({"argv": argv, "exit": code, "report": name})
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} cases to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main_()
