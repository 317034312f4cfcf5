import json
from pathlib import Path

import pytest

from sweedler.cli import main
from sweedler.documents import (
    Document,
    MeasuringDocument,
    canonical_json,
    parse_document,
    parse_measuring_document,
    serialize_document,
    serialize_measuring_document,
)
from sweedler.errors import ParseError, ValidationError
from sweedler.fields import GF, QQ
from sweedler.graded import Graded
from sweedler.measurings import regular_measuring
from sweedler.structures import HopfAlgebra, matrix_algebra, trivial_algebra
from sweedler.zoo import (
    cyclic_group_hopf,
    graded_line_hopf,
    idempotent_monoid_bialgebra,
    involution_algebra,
    sweedler_hopf,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("value,labels", [
    (cyclic_group_hopf(QQ, 2), ("1", "g")),
    (cyclic_group_hopf(GF(3), 2), ("1", "g")),
    (sweedler_hopf(GF(3)), ("1", "g", "x", "gx")),
    (idempotent_monoid_bialgebra(GF(2)), ("1", "e")),
    (matrix_algebra(trivial_algebra(GF(2)), 2), ("e00", "e01", "e10", "e11")),
    (graded_line_hopf(QQ, 1), ("1", "x")),
    (involution_algebra(GF(2)), ("1", "g")),
])
def test_roundtrip_is_exact(value, labels):
    doc = Document(value, labels)
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed == doc
    assert serialize_document(parsed) == text


def test_committed_fixtures_reparse_canonically():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        if path.name.endswith(".measuring.json"):
            loader = lambda ref: parse_document((FIXTURES / ref).read_text())
            mdoc = parse_measuring_document(text, loader)
            assert serialize_measuring_document(mdoc) == text
        elif path.name == "broken_coassoc.json":
            with pytest.raises(ValidationError):
                parse_document(text)
        else:
            assert serialize_document(parse_document(text)) == text


def test_broken_documents_fail_validation_with_a_witness():
    broken = sorted((FIXTURES.parent / "broken").glob("broken_*.json"))
    assert len(broken) == 4
    for path in broken:
        text = path.read_text()
        with pytest.raises(ValidationError) as info:
            if path.name.endswith(".measuring.json"):
                parse_measuring_document(
                    text, lambda ref: parse_document((path.parent / ref).read_text()))
            else:
                parse_document(text)
        assert info.value.report.failures


def test_trivial_algebra_document():
    doc = parse_document(json.dumps({
        "field": "Q", "dim": 1, "basis": ["1"], "unit": ["1"], "mult": []}))
    assert doc.value == trivial_algebra(QQ)


def test_scaled_unit_axis_roundtrip():
    # the unit element 2*e0 forces e0*e0 = (1/2) e0; those products are implied
    from fractions import Fraction

    from sweedler.linalg import LinMap
    from sweedler.structures import Algebra, validate_algebra

    alg = Algebra(mult=LinMap.make(QQ, 1, 1, [Fraction(1, 2)]),
                  unit=LinMap.make(QQ, 1, 1, [2]))
    assert validate_algebra(alg).ok
    doc = Document(alg, ("e",))
    text = serialize_document(doc)
    assert json.loads(text)["mult"] == []
    assert parse_document(text) == doc


def test_zero_dimensional_coalgebra_document():
    doc = parse_document(json.dumps({
        "field": "Q", "dim": 0, "basis": [], "counit": [], "comult": []}))
    assert doc.value.dim == 0


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_document("{\n  \"field\": }")
    assert err.value.line == 2


@pytest.mark.parametrize("mutate,message_part", [
    (lambda d: d.update(unit=["2/4", "0"]), "lowest terms"),
    (lambda d: d.update(extra=1), "unknown key"),
    (lambda d: d.update(basis=["1", "1"]), "distinct"),
    (lambda d: d.pop("counit"), "coalgebra part needs"),
    (lambda d: d.update(mult=[[1, 1, ["0", "0"]]]), "zero triples"),
    (lambda d: d.update(mult=[[0, 1, ["1", "0"]]]), "implied"),
])
def test_grammar_violations(mutate, message_part):
    base = json.loads(serialize_document(Document(cyclic_group_hopf(QQ, 2), ("1", "g"))))
    mutate(base)
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(base))
    assert message_part in str(err.value)


def test_axiom_failure_is_a_validation_error():
    base = json.loads(serialize_document(Document(cyclic_group_hopf(QQ, 2), ("1", "g"))))
    base["antipode"] = [["1", "0"], ["1", "1"]]  # not an antipode
    with pytest.raises(ValidationError):
        parse_document(json.dumps(base))


def test_unsorted_triples_are_rejected():
    m2 = matrix_algebra(trivial_algebra(GF(2)), 2)
    base = json.loads(serialize_document(Document(m2, ("a", "b", "c", "d"))))
    base["mult"] = list(reversed(base["mult"]))
    with pytest.raises(ParseError):
        parse_document(json.dumps(base))


def test_graded_document_roundtrip_and_homogeneity_validation():
    gh = graded_line_hopf(GF(2), 1)
    doc = Document(gh, ("1", "x"))
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert isinstance(parsed.value, Graded) and isinstance(parsed.value.value, HopfAlgebra)
    # break homogeneity: claim deg x = 3 while x is primitive of square zero
    raw = json.loads(text)
    raw["degrees"] = [0, 3]
    reparsed = parse_document(json.dumps(raw))  # still homogeneous: 3+3 has no target
    assert isinstance(reparsed.value, Graded) and isinstance(reparsed.value.value, HopfAlgebra)
    raw["degrees"] = [1, 0]  # the unit moves out of degree 0
    with pytest.raises(ValidationError):
        parse_document(json.dumps(raw))


def test_measuring_document_roundtrip(inv_f2, k_f2):
    mdoc = MeasuringDocument("a.json", "b.json", regular_measuring(inv_f2))
    text = serialize_measuring_document(mdoc)
    table = {
        "a.json": Document(inv_f2, ("1", "g")),
        "b.json": Document(k_f2, ("1",)),
    }
    parsed = parse_measuring_document(text, table.__getitem__)
    assert parsed == mdoc
    assert serialize_measuring_document(parsed) == text


def test_invalid_measuring_is_rejected(inv_f2, k_f2):
    text = json.dumps({
        "a": "a.json", "b": "b.json", "xdim": 1,
        "psi": [[[1, 0], ["1"]]],  # psi(g (x) x) = x but psi(1 (x) x) = 0
    })
    table = {
        "a.json": Document(inv_f2, ("1", "g")),
        "b.json": Document(k_f2, ("1",)),
    }
    with pytest.raises(ValidationError):
        parse_measuring_document(text, table.__getitem__)



# each mutation is accepted if ``bool`` passes for ``int``: True == 1, False == 0
@pytest.mark.parametrize("mutate", [
    lambda d: d.update(dim=True, basis=["1"], unit=["1"], mult=[], comult=[], counit=["1"],
                       antipode=[["1"]], degrees=[0]),
    lambda d: d.update(degrees=[0, False]),
    lambda d: d["mult"][0].__setitem__(0, True),
    lambda d: d["comult"][1].__setitem__(0, True),
])
def test_booleans_are_not_integers_in_structure_documents(mutate):
    base = json.loads(serialize_document(Document(cyclic_group_hopf(QQ, 2), ("1", "g"))))
    base["degrees"] = [0, 0]
    parse_document(json.dumps(base))
    mutate(base)
    with pytest.raises(ParseError):
        parse_document(json.dumps(base))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(xdim=True),
    lambda d: d["psi"][1].__setitem__(0, [1, False]),
    lambda d: d.update(psi=5),
])
def test_malformed_measuring_documents_are_parse_errors(inv_f2, k_f2, mutate):
    # the trivial character of F2[C2]: g acts as 1 on a one-dimensional X
    base = {"a": "a.json", "b": "b.json", "xdim": 1,
            "psi": [[[0, 0], ["1"]], [[1, 0], ["1"]]]}
    table = {"a.json": Document(inv_f2, ("1", "g")), "b.json": Document(k_f2, ("1",))}
    parse_measuring_document(json.dumps(base), table.__getitem__)
    mutate(base)
    with pytest.raises(ParseError):
        parse_measuring_document(json.dumps(base), table.__getitem__)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_document("[" * 100_000)
    with pytest.raises(ParseError):
        parse_measuring_document("[" * 100_000, lambda ref: None)


@pytest.mark.parametrize("name", ["f3_c2.json", "q_c2_sign.measuring.json"])
def test_layout_and_key_order_are_accepted(name):
    # parsing checks canonical content, not layout: compact JSON and any key
    # order parse to the same value, which serializes to the canonical text
    text = (FIXTURES / name).read_text()
    raw = json.loads(text)
    if name.endswith(".measuring.json"):
        loader = lambda ref: parse_document((FIXTURES / ref).read_text())
        parse = lambda t: parse_measuring_document(t, loader)
        serialize = serialize_measuring_document
    else:
        parse, serialize = parse_document, serialize_document
    compact = json.dumps(raw, separators=(",", ":"))
    reordered = json.dumps(dict(reversed(list(raw.items()))), indent=2) + "\n"
    for variant in (compact, reordered):
        assert variant != text
        assert parse(variant) == parse(text)
        assert serialize(parse(variant)) == text


def test_over_long_tokens_are_parse_errors_before_any_conversion(capsys):
    # the counit's second token has 5,000 digits, past CPython's int conversion
    for path in sorted((FIXTURES.parent / "broken").glob("long_*.json")):
        with pytest.raises(ParseError, match="4300 digits|canonical representative mod 3"):
            parse_document(path.read_text())
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


# Each site's last scalar, after the document has repeated valid tokens: the
# site's vector misses the token dict, or cannot look its scalar up in it.
SCALAR_SITES = {
    "unit": lambda d, x: d["unit"].__setitem__(1, x),
    "mult": lambda d, x: d["mult"][0][2].__setitem__(1, x),
    "comult": lambda d, x: d["comult"][1][1][1].__setitem__(1, x),
    "counit": lambda d, x: d["counit"].__setitem__(1, x),
    "antipode": lambda d, x: d["antipode"][1].__setitem__(1, x),
    "psi": lambda d, x: d["psi"][3][1].__setitem__(1, x),
}


_VALID = object()


def _document(tmp_path, site: str, scalar=_VALID) -> Path:
    """A valid document for ``site``, Q[C_2] or a measuring of F2[C_2],
    written to a file; with ``scalar`` at the last position of the site."""
    name = "f2_c2_regular.measuring.json" if site == "psi" else "q_c2.json"
    raw = json.loads((FIXTURES / name).read_text())
    if site == "psi":
        raw["a"], raw["b"] = str(FIXTURES / raw["a"]), str(FIXTURES / raw["b"])
    if scalar is not _VALID:
        SCALAR_SITES[site](raw, scalar)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def _parse_file(path: Path):
    text = path.read_text()
    if path.name.endswith(".measuring.json"):
        return parse_measuring_document(text, lambda ref: parse_document(Path(ref).read_text()))
    return parse_document(text)


def _command(site: str) -> str:
    return "reconstruct" if site == "psi" else "validate"


@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
@pytest.mark.parametrize("scalar", [[1], {"a": "1"}, 1, 1.5, None, True],
                         ids=["list", "dict", "int", "float", "null", "true"])
def test_non_string_scalars_are_parse_errors_at_every_site(tmp_path, capsys, site, scalar):
    _parse_file(_document(tmp_path, site))  # valid, with "0" and "1" repeated before the site
    path = _document(tmp_path, site, scalar)
    with pytest.raises(ParseError, match="scalar must be a string"):
        _parse_file(path)
    assert main([_command(site), str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ParseError"
    assert report["message"].startswith("scalar must be a string")


@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
@pytest.mark.parametrize("token", ["01", "-0", "2/4"])
def test_non_canonical_tokens_after_repeats_are_rejected(tmp_path, capsys, site, token):
    _parse_file(_document(tmp_path, site))  # valid, with "0" and "1" repeated before the site
    path = _document(tmp_path, site, token)
    with pytest.raises(ParseError):
        _parse_file(path)
    assert main([_command(site), str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


def _with_long_key(d):
    d["k" * 5000] = "1"


# inputs that an error message quotes, each far longer than the quotation
ECHOED = {
    "malformed-q-token": ("q_c2.json", lambda d: d["counit"].__setitem__(1, "7" * 5000 + "x")),
    "malformed-f3-token": ("f3_c2.json", lambda d: d["counit"].__setitem__(1, "-" + "7" * 5000)),
    "structure-key": ("q_c2.json", _with_long_key),
    "measuring-key": ("f2_c2_regular.measuring.json", _with_long_key),
    "field-name": ("q_c2.json", lambda d: d.update(field="G" * 5000)),
    "list-scalar": ("q_c2.json", lambda d: d["counit"].__setitem__(1, ["1"] * 10_000)),
}


@pytest.mark.parametrize("case", sorted(ECHOED))
def test_error_reports_quote_a_bounded_part_of_the_input(tmp_path, capsys, case):
    name, mutate = ECHOED[case]
    raw = json.loads((FIXTURES / name).read_text())
    if name.endswith(".measuring.json"):
        raw["a"], raw["b"] = str(FIXTURES / raw["a"]), str(FIXTURES / raw["b"])
    mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    assert main(["reconstruct" if name.endswith(".measuring.json") else "validate",
                 str(path)]) == 2
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["error"] == "ParseError"
    assert "characters)" in report["message"]
    assert len(out) < 400


def test_a_json_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "q_c2.json"
    path.write_text((FIXTURES / "q_c2.json").read_text().replace('"dim": 2', '"dim": ' + "7" * 5000))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert json.loads(out)["error"] == "ParseError"
    assert len(out) < 400


def _payload(rng, depth):
    """A seeded JSON value: nested dicts and lists (empty ones included),
    tuples, strings with non-ASCII, control characters, quotes and
    backslashes, booleans, None, ints past 2^64, floats, and lists that mix
    scalars with containers."""
    scalars = [True, False, None, 0, -7, 2 ** 64 + 1, -(3 ** 50), 1.5, -0.0, "",
               "plain", "é ü ∞", "\U0001d11e", "tab\tnew\nline\x00\x1f\x7f", 'q"uo\\te', "/"]
    kind = rng.randrange(6 if depth else 1)
    if kind == 0:
        return rng.choice(scalars)
    if kind == 1:
        return [str(rng.randrange(-5, 5)) for _ in range(rng.randrange(4))]
    items = [_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {rng.choice(["a", "é", "k\"ey", "\n", ""]) + str(i): v for i, v in enumerate(items)}


def test_canonical_json_writes_the_bytes_of_the_standard_library():
    import random

    rng = random.Random(2614)
    payloads = [_payload(rng, 4) for _ in range(300)]
    payloads += [{}, [], (), "", {"a": {}, "b": [], "c": [[]], "d": [{}]}, [1, "1", [1], {"1": 1}],
                 {1: "int key", None: "null key", True: "bool key", 2.5: "float key"}]
    kinds = set()

    def walk(x):
        kinds.add(type(x))
        for y in (x.values() if isinstance(x, dict) else x if isinstance(x, (list, tuple))
                  else ()):
            walk(y)
    for payload in payloads:
        walk(payload)
    assert kinds == {dict, list, tuple, str, bool, type(None), int, float}
    for payload in payloads:
        assert canonical_json(payload) == json.dumps(payload, indent=2) + "\n", payload


def test_canonical_json_rewrites_every_golden_report():
    reports = sorted((Path(__file__).parent / "golden").glob("*.txt"))
    assert len(reports) > 500
    for path in reports:
        text = path.read_text()
        assert canonical_json(json.loads(text)) == json.dumps(json.loads(text), indent=2) + "\n"
        assert canonical_json(json.loads(text)) == text, path.name
