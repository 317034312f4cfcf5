"""Batch command-line front end.

Every command reads structure/measuring documents, runs one operation and
emits a deterministic JSON report (or a bare result document with
``--format document``).  Negative mathematical findings (no antipode, zero
grouplikes) are successful runs with status 0; only operational problems
(parse, validation, budget, unsupported inputs) are nonzero:

    0 success          3 validation error     5 unsupported input, precondition
    1 internal error   4 budget exceeded        violation, inputs over different
    2 parse error, unreadable input or          fields, or tables too large
      unwritable ``--output``

The argument parser is built once per process (``build_parser`` is cached)
and shared by every in-process caller of ``main``: ``parse_args`` returns a
fresh namespace each call, and argparse picks its streams and help width when
it prints, not when it is built.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import documents as docs
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    IncompatibleMeasurings,
    NotCommutative,
    ParseError,
    PreconditionViolated,
    SweedlerError,
    UnsupportedField,
    ValidationError,
    echo,
)
from .graded import assemble, bialgebra_of, degree0_part, dual, is_connected, parts, validate_graded
from .linalg import LinMap, is_invertible
from .measurings import (
    compose_measuring,
    enumerate_measurings,
    tensor_measuring_bialgebra,
    tensor_measuring_endo,
)
from .reconstruction import reconstruct
from .structures import (
    DEFAULT_BUDGET,
    Bialgebra,
    algebra_morphisms,
    convolution_algebra,
    find_antipode,
    find_opantipode,
    fusion_operators,
    grouplikes,
)
from .tambara import correspondence_check, tambara_presentation

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_UNSUPPORTED = 5


def _read_text(path: str | Path) -> str:
    """A document's text; a file that is not UTF-8 is a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 ({exc.reason} at byte {exc.start})", path=str(path)) from exc


def _read_document(path: str | Path) -> docs.Document:
    return docs.parse_document(_read_text(path))


def _read_shared(path: Path, loaded: dict) -> docs.Document:
    """The structure document at ``path``, parsed once per ``loaded`` dict (one
    per command) keyed by the file's device and inode: every path to a file
    shares its parse, for one stat call where resolving takes one per part."""
    stat = path.stat()
    key = (stat.st_dev, stat.st_ino)
    if key not in loaded:
        loaded[key] = _read_document(path)
    return loaded[key]


def _read_measuring(path: str, loaded: dict) -> docs.MeasuringDocument:
    base = Path(path).parent
    return docs.parse_measuring_document(
        _read_text(path), lambda ref: _read_shared(base / ref, loaded))


def _matrix(f: LinMap) -> list[list[str]]:
    """The shown rows of f: copies of a shown zero row, with f's nonzeros shown."""
    show = f.field.show
    zero = [show(f.field.zero())] * f.dom
    rows = [zero.copy() for _ in range(f.cod)]
    for row, nonzeros in zip(rows, f.nonzeros(by_col=False)):
        for c, v in nonzeros:
            row[c] = show(v)
    return rows


def _kind(value) -> str:
    algebra, coalgebra, antipode, space = parts(value)
    kind = ("coalgebra" if algebra is None else "algebra" if coalgebra is None
            else "bialgebra" if antipode is None else "hopf")
    return kind if space is None else f"graded {kind}"


# ---------------------------------------------------------------------------
# command handlers: each returns (result dict, is_document)


def cmd_validate(args):
    doc = _read_document(args.document)
    return {"input": args.document, "kind": _kind(doc.value), "dim": doc.dim,
            "valid": True}, False


def cmd_dual(args):
    doc = _read_document(args.document)
    labels = tuple(f"{name}*" for name in doc.labels)
    return docs.structure_to_dict(docs.Document(dual(doc.value), labels)), True


def cmd_convolution(args):
    cdoc = _read_document(args.coalgebra)
    bdoc = _read_document(args.algebra)
    c = docs.coalgebra_of(cdoc)
    b = docs.algebra_of(bdoc)
    if c is None:
        raise ValidationError("first input needs a coalgebra part")
    if b is None:
        raise ValidationError("second input needs an algebra part")
    conv = convolution_algebra(c, b)
    labels = tuple(f"[{cl}->{bl}]" for cl in cdoc.labels for bl in bdoc.labels)
    return docs.structure_to_dict(docs.Document(conv, labels)), True


def _require_bialgebra(doc: docs.Document) -> Bialgebra:
    """The document's Bialgebra object itself, with the reports its parse kept."""
    b = bialgebra_of(doc.value)
    if b is None:
        raise ValidationError("input must be a bialgebra document")
    return b


def cmd_fusion(args):
    ops = fusion_operators(_require_bialgebra(_read_document(args.document)))
    out = {}
    for name, op in [("h", ops.h), ("h_prime", ops.h_prime),
                     ("h_bar", ops.h_bar), ("h_bar_prime", ops.h_bar_prime)]:
        out[name] = {"invertible": is_invertible(op), "matrix": _matrix(op)}
    return out, False


def cmd_antipode(args):
    b = _require_bialgebra(_read_document(args.document))
    if args.command == "opantipode":
        s = find_opantipode(b)
    else:
        hopf = find_antipode(b)
        s = None if hopf is None else hopf.antipode
    if s is None:
        return {args.command: {"present": False}}, False
    return {args.command: {"present": True, "matrix": _matrix(s)}}, False


def cmd_grouplikes(args):
    doc = _read_document(args.document)
    c = docs.coalgebra_of(doc)
    if c is None:
        raise ValidationError("input needs a coalgebra part")
    found = grouplikes(c, budget=args.budget)
    return {"count": len(found),
            "grouplikes": [docs.show_vector(c.field, v) for v in found]}, False


def _algebra_operands(args):
    """The algebra parts of the source and target documents, and their labels."""
    adoc, bdoc = _read_document(args.source), _read_document(args.target)
    a, b = docs.algebra_of(adoc), docs.algebra_of(bdoc)
    if a is None or b is None:
        raise ValidationError("both inputs need algebra parts")
    return a, b, (adoc.labels, bdoc.labels)


def cmd_morphisms(args):
    a, b, _ = _algebra_operands(args)
    found = algebra_morphisms(a, b, budget=args.budget)
    return {"count": len(found), "morphisms": [_matrix(f) for f in found]}, False


def cmd_enumerate_measurings(args):
    a, b, _ = _algebra_operands(args)
    report = enumerate_measurings(a, b, args.n, budget=args.budget)
    orbits = [{"size": size,
               "representative": docs.measuring_to_dict(
                   docs.MeasuringDocument(args.source, args.target, rep))}
              for rep, size in report.orbits]
    return {"total": report.total_count, "orbit_count": len(report.orbits),
            "orbits": orbits}, False


def cmd_reconstruct(args):
    loaded: dict = {}
    mdocs = [_read_measuring(path, loaded) for path in args.measurings]
    generated = reconstruct([m.measuring for m in mdocs],
                            morphisms=None if args.auto_intertwiners else [])
    d = generated.d
    labels = tuple(f"d{i}" for i in range(d.dim))
    return {
        "a": mdocs[0].a_ref if mdocs else None,
        "b": mdocs[0].b_ref if mdocs else None,
        "d": docs.structure_to_dict(docs.Document(d, labels)),
        "pairing": docs.column_entries(generated.pairing, d.dim),
        "projections": [_matrix(p) for p in generated.projections],
    }, True


def cmd_tensor(args):
    loaded: dict = {}
    m1 = _read_measuring(args.first, loaded)
    m2 = _read_measuring(args.second, loaded)
    bialgebra = None
    if args.mode != "endo":
        a_doc = _read_shared(Path(args.first).parent / m1.a_ref, loaded)
        try:
            bialgebra = _require_bialgebra(a_doc)
        except ValidationError:
            if args.mode == "bialgebra":
                raise
    if bialgebra is not None:
        result = tensor_measuring_bialgebra(m1.measuring, m2.measuring, bialgebra)
    else:
        result = tensor_measuring_endo(m1.measuring, m2.measuring)
    out = docs.MeasuringDocument(m1.a_ref, m1.b_ref, result)
    return docs.measuring_to_dict(out), True


def cmd_compose(args):
    loaded: dict = {}
    m_ab = _read_measuring(args.first, loaded)
    m_bc = _read_measuring(args.second, loaded)
    result = compose_measuring(m_ab.measuring, m_bc.measuring)
    out = docs.MeasuringDocument(m_ab.a_ref, m_bc.b_ref, result)
    return docs.measuring_to_dict(out), True


def cmd_graded_check(args):
    doc = _read_document(args.document)
    space = parts(doc.value)[3]
    if space is None:
        raise PreconditionViolated("input carries no degrees")
    report = validate_graded(doc.value)
    connected = None
    if all(d >= 0 for d in space.degrees):
        connected = is_connected(space)
    return {"valid": report.ok, "connected": connected, "failures": _failure_list(report)}, False


def cmd_degree0(args):
    doc = _read_document(args.document)
    algebra, _, _, space = parts(doc.value)
    if algebra is None or space is None:
        raise ValidationError("input must be a graded algebra document")
    part = degree0_part(assemble(algebra, None, space=space))
    labels = tuple(lbl for lbl, d in zip(doc.labels, space.degrees) if d == 0)
    return docs.structure_to_dict(docs.Document(part, labels)), True


def cmd_tambara_presentation(args):
    a, b, (alabels, blabels) = _algebra_operands(args)
    pres = tambara_presentation(a, b, list(alabels), list(blabels))
    relations = [[[pres.field.show(coeff), list(word)] for coeff, word in rel]
                 for rel in pres.relations]
    return {"field": str(pres.field), "generators": list(pres.generators),
            "relations": relations}, True


def cmd_tambara_check(args):
    a, b, _ = _algebra_operands(args)
    report = correspondence_check(a, b, args.n, budget=args.budget)
    if not report.ok:
        raise AssertionError("internal error: the canonical identification failed")
    return {"n": report.n, "module_count": report.module_count,
            "morphism_count": report.morphism_count,
            "module_orbit_sizes": list(report.module_orbit_sizes),
            "morphism_orbit_sizes": list(report.morphism_orbit_sizes),
            "matched": report.matched, "orbits_matched": report.orbits_matched,
            "intertwiners_matched": report.intertwiners_matched}, False


# ---------------------------------------------------------------------------
# wiring


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _boolean(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected one of true/false/yes/no/1/0, got {echo(repr(value))}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and returned by every
    later one: callers share it and must not change it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration candidate budget")
    shared.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report (for reproducibility logs)")
    shared.add_argument("--output", type=str, default=None, help="write the report here")
    shared.add_argument("--format", choices=["report", "document"], default="report")
    shared.add_argument("--auto-intertwiners", dest="auto_intertwiners",
                        type=_boolean, default=True,
                        metavar="BOOL",
                        help="reconstruct the span of the generators; false: the direct sum "
                             "of their comatrix coalgebras (default true)")
    parser = argparse.ArgumentParser(
        prog="sweedler",
        description="exact computations with algebras, Hopf algebras and measurings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *specs, **kwargs):
        p = sub.add_parser(name, parents=[shared], **kwargs)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, ((["document"], {})),
        help="parse and revalidate a structure document")
    add("dual", cmd_dual, ((["document"], {})),
        help="linear dual (algebra <-> coalgebra, full dual for bialgebras)")
    add("convolution", cmd_convolution, ((["coalgebra"], {})), ((["algebra"], {})),
        help="convolution algebra [C, B]")
    add("fusion", cmd_fusion, ((["document"], {})),
        help="the four fusion operators and their invertibility")
    add("antipode", cmd_antipode, ((["document"], {})),
        help="read an antipode off the fusion operator (absent is a successful result)")
    add("opantipode", cmd_antipode, ((["document"], {})),
        help="read an opantipode off the fusion operator")
    add("grouplikes", cmd_grouplikes, ((["document"], {})),
        help="enumerate grouplike elements (finite fields)")
    add("morphisms", cmd_morphisms, ((["source"], {})), ((["target"], {})),
        help="enumerate algebra morphisms (finite fields)")
    add("enumerate-measurings", cmd_enumerate_measurings,
        ((["source"], {})), ((["target"], {})), ((["n"], {"type": int})),
        help="n-dimensional measurings with conjugation orbits")
    add("reconstruct", cmd_reconstruct,
        ((["measurings"], {"nargs": "+"})),
        help="generated subcoalgebra of a family of measurings")
    p = add("tensor", cmd_tensor, ((["first"], {})), ((["second"], {})),
            help="tensor product of measurings")
    p.add_argument("--mode", choices=["auto", "bialgebra", "endo"], default="auto")
    add("compose", cmd_compose, ((["first"], {})), ((["second"], {})),
        help="composition of measurings across a common middle algebra")
    add("graded-check", cmd_graded_check, ((["document"], {})),
        help="homogeneity and Koszul-braided axioms of a graded document")
    add("degree0", cmd_degree0, ((["document"], {})),
        help="degree-0 part of a graded algebra")
    add("tambara-presentation", cmd_tambara_presentation,
        ((["source"], {})), ((["target"], {})),
        help="presentation of the coendomorphism algebra a(A, B)")
    p = add("tambara-check", cmd_tambara_check, ((["source"], {})), ((["target"], {})),
            help="match a(A, B)-modules with morphisms B -> M_n(A)")
    p.add_argument("--n", type=int, required=True)
    return parser


def _report(args, payload: dict, is_document: bool) -> str:
    if args.format == "document" and is_document:
        return docs.canonical_json(payload)
    report = {"command": args.command, "status": "ok"}
    if args.seed is not None:
        report["seed"] = args.seed
    report["result"] = payload
    return docs.canonical_json(report)


def _error_report(args, exc: Exception) -> str:
    report = {"command": args.command, "status": "error",
              "error": type(exc).__name__, "message": str(exc)}
    checked = getattr(exc, "report", None)
    if checked is not None:
        report["failures"] = _failure_list(checked)
    return docs.canonical_json(report)


def _failure_list(report) -> list[dict]:
    """The failures of an axiom report, one {"axiom", "witness"} each."""
    return [{"axiom": f.axiom, "witness": list(f.witness)} for f in report.failures]


def _run(args) -> tuple[int, str]:
    """Exit code and report text of one parsed command line."""
    try:
        payload, is_document = args.handler(args)
    except ParseError as exc:
        return EXIT_PARSE, _error_report(args, exc)
    except ValidationError as exc:
        return EXIT_VALIDATION, _error_report(args, exc)
    except BudgetExceeded as exc:
        return EXIT_BUDGET, _error_report(args, exc)
    except (UnsupportedField, PreconditionViolated, IncompatibleMeasurings, FieldMismatch,
            NotCommutative) as exc:
        return EXIT_UNSUPPORTED, _error_report(args, exc)
    except OSError as exc:
        return EXIT_PARSE, _error_report(args, exc)
    except SweedlerError as exc:
        return EXIT_VALIDATION, _error_report(args, exc)
    except AssertionError as exc:
        return EXIT_INTERNAL, _error_report(args, exc)
    except MemoryError:
        return EXIT_UNSUPPORTED, _error_report(
            args, MemoryError("the input's tables do not fit in memory"))
    return EXIT_OK, _report(args, payload, is_document)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code, text = _run(args)
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        # the report is lost; say why on stdout rather than retry the path
        sys.stdout.write(_error_report(args, exc))
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
