"""The structure-constant document format (canonical JSON).

A structure document carries ``field`` ("Q" or "F<p>"), ``dim``, ``basis``
labels, an algebra part (``unit`` vector + ``mult`` triples), a coalgebra part
(``counit`` vector + ``comult`` entries), an optional ``antipode`` and
optional ``degrees``.  Omitted mult/comult entries are zero, with one
exception: when the unit is supported on a single basis vector the products
forced by unitality are implied and must be omitted.  Serialization is
canonical and byte-exact under round-trips; the precise grammar lives in
docs/format.md.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

from .errors import ParseError, ValidationError, echo
from .fields import Field, Value, parse_field
from .graded import GradedSpace, assemble, parts
from .linalg import LinMap
from .measurings import Measuring, validate_measuring
from .structures import Algebra, Coalgebra

_STRUCTURE_KEYS = ("field", "dim", "basis", "unit", "mult",
                   "comult", "counit", "antipode", "degrees")


class Document(Value):
    """A parsed structure document: the validated value plus its basis labels."""

    value: object
    labels: tuple[str, ...]

    def __init__(self, value, labels):
        vars(self).update(value=value, labels=labels)

    @property
    def field(self) -> Field:
        algebra, coalgebra, _, _ = parts(self.value)
        return (algebra or coalgebra).field

    @property
    def dim(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# serialization


def show_vector(field: Field, vec) -> list[str]:
    return [field.show(x) for x in vec]


def _unit_support(algebra: Algebra) -> int | None:
    """The index of the single supporting basis vector of the unit, if unique."""
    support = [i for i, x in enumerate(algebra.unit_vector()) if x != 0]
    return support[0] if len(support) == 1 else None


def column_entries(f: LinMap, inner: int, omit: int | None = None) -> list[list]:
    """[[i, j], shown column] for each nonzero column c = i*inner + j of f, in
    column order; a column with ``omit`` in (i, j) is skipped unread."""
    cells = ((c, divmod(c, inner)) for c in range(f.dom))
    columns = ((ij, f.col_at(c)) for c, ij in cells if omit not in ij)
    return [[list(ij), show_vector(f.field, col)] for ij, col in columns if any(col)]


def structure_to_dict(doc: Document) -> dict:
    algebra, coalgebra, antipode, space = parts(doc.value)
    field = doc.field
    dim = doc.dim
    out: dict = {"field": str(field), "dim": dim, "basis": list(doc.labels)}
    if algebra is not None:
        out["unit"] = show_vector(field, algebra.unit_vector())
        out["mult"] = [[i, j, col] for (i, j), col in
                       column_entries(algebra.mult, dim, _unit_support(algebra))]
    if coalgebra is not None:
        out["comult"] = [[i, [col[r * dim:(r + 1) * dim] for r in range(dim)]]
                         for (i, _), col in column_entries(coalgebra.comult, 1)]
        out["counit"] = show_vector(field, coalgebra.counit.row_at(0))
    if antipode is not None:
        out["antipode"] = [show_vector(field, antipode.col_at(i)) for i in range(dim)]
    if space is not None:
        out["degrees"] = list(space.degrees)
    return out


def canonical_json(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2) + "\\n"``, written in one pass:
    the standard library runs its pure-Python encoder whenever it indents."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """obj as ``json.dumps(obj, indent=2)`` writes it at the indent of
    ``newline``: a list of strings is one join, and what is neither a string
    nor a nonempty list or dict with string keys is left to ``json``."""
    if isinstance(obj, str):
        return _string(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)) and obj:
        items = (map(_string, obj) if all(type(x) is str for x in obj)
                 else (_json(x, inner) for x in obj))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        return "{" + inner + ("," + inner).join(
            _string(key) + ": " + _json(value, inner) for key, value in obj.items()) + newline + "}"
    container = isinstance(obj, (list, tuple, dict))
    return json.dumps(obj, indent=2 if container else None).replace("\n", newline)


def serialize_document(doc: Document) -> str:
    return canonical_json(structure_to_dict(doc))


# ---------------------------------------------------------------------------
# parsing


def _want(cond: bool, message: str, path: str):
    if not cond:
        raise ParseError(message, path=path)


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are not (``bool`` is an ``int``)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("JSON integer too long to convert") from exc


def _parse_vector(field: Field, data, length: int, path: str, tokens: dict) -> tuple:
    """The scalars of a vector.  ``tokens`` {token: value} belongs to one
    document, so each distinct token in it is parsed once; anything not a
    string goes to ``Field.parse``, which refuses it."""
    _want(isinstance(data, list) and len(data) == length,
          f"expected a vector of {length} scalars", path)
    try:
        return tuple([tokens[x] for x in data])
    except (KeyError, TypeError):  # a token not seen yet, or not a string
        for x in data:
            if not isinstance(x, str) or x not in tokens:
                tokens[x] = field.parse(x)
        return tuple([tokens[x] for x in data])


def parse_structure_dict(raw: dict) -> Document:
    _want(isinstance(raw, dict), "document must be an object", "$")
    for key in raw:
        _want(key in _STRUCTURE_KEYS, f"unknown key {echo(repr(key))}", echo(key))
    for key in ("field", "dim", "basis"):
        _want(key in raw, f"missing key {key!r}", "$")
    field = parse_field(raw["field"]) if isinstance(raw["field"], str) else None
    _want(field is not None, "field must be a string", "field")
    dim = raw["dim"]
    _want(_is_int(dim) and dim >= 0, "dim must be a nonnegative integer", "dim")
    basis = raw["basis"]
    _want(isinstance(basis, list) and len(basis) == dim
          and all(isinstance(x, str) and x for x in basis)
          and len(set(basis)) == dim,
          "basis must list dim distinct nonempty labels", "basis")

    has_alg = "unit" in raw or "mult" in raw
    has_coalg = "counit" in raw or "comult" in raw
    _want(not has_alg or ("unit" in raw and "mult" in raw),
          "an algebra part needs both unit and mult", "$")
    _want(not has_coalg or ("counit" in raw and "comult" in raw),
          "a coalgebra part needs both counit and comult", "$")
    _want(has_alg or has_coalg, "document carries no structure", "$")
    _want("antipode" not in raw or (has_alg and has_coalg),
          "an antipode needs a full bialgebra", "antipode")

    tokens: dict = {}
    algebra = _parse_algebra(field, dim, raw, tokens) if has_alg else None
    coalgebra = _parse_coalgebra(field, dim, raw, tokens) if has_coalg else None
    antipode = None
    if "antipode" in raw:
        data = raw["antipode"]
        _want(isinstance(data, list) and len(data) == dim, "antipode must list dim images",
              "antipode")
        cols = [_parse_vector(field, v, dim, f"antipode[{i}]", tokens)
                for i, v in enumerate(data)]
        antipode = LinMap.from_nonzeros(
            field, dim, dim, [(r, j, x) for j, col in enumerate(cols) for r, x in enumerate(col) if x])
    space = None
    if "degrees" in raw:
        data = raw["degrees"]
        _want(isinstance(data, list) and len(data) == dim
              and all(_is_int(x) for x in data),
              "degrees must list dim integers", "degrees")
        space = GradedSpace(field, tuple(data))

    value = assemble(algebra, coalgebra, antipode, space)
    value.report.raise_if_failed(ValidationError)
    return Document(value, tuple(basis))


def _parse_algebra(field: Field, dim: int, raw: dict, tokens: dict) -> Algebra:
    _want(dim >= 1, "an algebra needs dim >= 1", "dim")
    unit_vec = _parse_vector(field, raw["unit"], dim, "unit", tokens)
    support = [i for i, x in enumerate(unit_vec) if x != 0]
    _want(bool(support), "the unit vector cannot be zero", "unit")
    implied = support[0] if len(support) == 1 else None
    nonzeros = []
    if implied is not None:
        # products with the unit axis are forced: e_t e_j = e_j e_t = (1/u) e_j
        inv = field.inv(unit_vec[implied])
        for j in range(dim):
            nonzeros.append((j, implied * dim + j, inv))
            if j != implied:
                nonzeros.append((j, j * dim + implied, inv))
    data = raw["mult"]
    _want(isinstance(data, list), "mult must be a list of triples", "mult")
    last = None
    for idx, triple in enumerate(data):
        path = f"mult[{idx}]"
        _want(isinstance(triple, list) and len(triple) == 3, "expected [i, j, vector]", path)
        i, j, vec_data = triple
        _want(_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim,
              "indices out of range", path)
        _want(last is None or (i, j) > last, "triples must be strictly sorted by (i, j)", path)
        last = (i, j)
        _want(implied is None or (i != implied and j != implied),
              "products with the unit axis are implied and must be omitted", path)
        vec = _parse_vector(field, vec_data, dim, path, tokens)
        _want(any(vec), "zero triples must be omitted", path)
        nonzeros += [(t, i * dim + j, x) for t, x in enumerate(vec) if x]
    return Algebra(mult=LinMap.from_nonzeros(field, dim, dim * dim, nonzeros),
                   unit=LinMap.make(field, dim, 1, unit_vec))


def _parse_coalgebra(field: Field, dim: int, raw: dict, tokens: dict) -> Coalgebra:
    counit_vec = _parse_vector(field, raw["counit"], dim, "counit", tokens)
    data = raw["comult"]
    _want(isinstance(data, list), "comult must be a list of [i, matrix] entries", "comult")
    nonzeros = []
    last = None
    for idx, entry in enumerate(data):
        path = f"comult[{idx}]"
        _want(isinstance(entry, list) and len(entry) == 2, "expected [i, matrix]", path)
        i, matrix = entry
        _want(_is_int(i) and 0 <= i < dim, "index out of range", path)
        _want(last is None or i > last, "entries must be strictly sorted by index", path)
        last = i
        _want(isinstance(matrix, list) and len(matrix) == dim, "expected a dim x dim matrix", path)
        rows = [_parse_vector(field, row, dim, f"{path}[{r}]", tokens)
                for r, row in enumerate(matrix)]
        flat = [x for row in rows for x in row]
        _want(any(flat), "zero entries must be omitted", path)
        nonzeros += [(rc, i, x) for rc, x in enumerate(flat) if x]
    return Coalgebra(comult=LinMap.from_nonzeros(field, dim * dim, dim, nonzeros),
                     counit=LinMap.make(field, 1, dim, counit_vec))


def parse_document(text: str) -> Document:
    return parse_structure_dict(_load_json(text))


# ---------------------------------------------------------------------------
# measuring documents


class MeasuringDocument(Value):
    a_ref: str
    b_ref: str
    measuring: Measuring

    def __init__(self, a_ref, b_ref, measuring):
        vars(self).update(a_ref=a_ref, b_ref=b_ref, measuring=measuring)


def measuring_to_dict(mdoc: MeasuringDocument) -> dict:
    m = mdoc.measuring
    return {"a": mdoc.a_ref, "b": mdoc.b_ref, "xdim": m.xdim,
            "psi": column_entries(m.psi, m.xdim)}


def serialize_measuring_document(mdoc: MeasuringDocument) -> str:
    return canonical_json(measuring_to_dict(mdoc))


def parse_measuring_document(text: str, loader) -> MeasuringDocument:
    """``loader(ref)`` must return the referenced structure Document."""
    raw = _load_json(text)
    _want(isinstance(raw, dict), "measuring document must be an object", "$")
    for key in raw:
        _want(key in ("a", "b", "xdim", "psi"), f"unknown key {echo(repr(key))}", echo(key))
    for key in ("a", "b", "xdim", "psi"):
        _want(key in raw, f"missing key {key!r}", "$")
    _want(isinstance(raw["a"], str) and isinstance(raw["b"], str),
          "a and b must be document references", "$")
    a_doc = loader(raw["a"])
    b_doc = loader(raw["b"])
    a = _require_algebra(a_doc, "a")
    b = _require_algebra(b_doc, "b")
    xdim = raw["xdim"]
    _want(_is_int(xdim) and xdim >= 0, "xdim must be a nonnegative integer", "xdim")
    field = a.field
    nonzeros = []
    last = None
    tokens: dict = {}
    _want(isinstance(raw["psi"], list), "psi must be a list of entries", "psi")
    for idx, entry in enumerate(raw["psi"]):
        path = f"psi[{idx}]"
        _want(isinstance(entry, list) and len(entry) == 2, "expected [[a, x], vector]", path)
        pair, vec_data = entry
        _want(isinstance(pair, list) and len(pair) == 2
              and all(_is_int(v) for v in pair), "expected [a-index, x-index]", path)
        t, x = pair
        _want(0 <= t < a.dim and 0 <= x < xdim, "indices out of range", path)
        _want(last is None or (t, x) > last, "entries must be strictly sorted", path)
        last = (t, x)
        vec = _parse_vector(field, vec_data, xdim * b.dim, path, tokens)
        _want(any(vec), "zero entries must be omitted", path)
        nonzeros += [(r, t * xdim + x, v) for r, v in enumerate(vec) if v]
    psi = LinMap.from_nonzeros(field, xdim * b.dim, a.dim * xdim, nonzeros)
    measuring = Measuring(a, b, xdim, psi)
    validate_measuring(measuring).raise_if_failed(ValidationError, "not a measuring: ")
    return MeasuringDocument(raw["a"], raw["b"], measuring)


def _require_algebra(doc: Document, which: str) -> Algebra:
    algebra = algebra_of(doc)
    if algebra is None:
        raise ValidationError(f"referenced document {which!r} has no algebra part")
    return algebra


def algebra_of(doc: Document) -> Algebra | None:
    return parts(doc.value)[0]


def coalgebra_of(doc: Document) -> Coalgebra | None:
    return parts(doc.value)[1]
