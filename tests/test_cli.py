import argparse
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path


import pytest

from sweedler import cli
from sweedler.cli import main
from sweedler.documents import (
    Document,
    MeasuringDocument,
    serialize_document,
    serialize_measuring_document,
    show_vector,
)
from sweedler.fields import GF, QQ
from sweedler.linalg import LinMap
from sweedler.measurings import regular_measuring
from sweedler.structures import dual_coalgebra
from sweedler.zoo import cyclic_group_hopf

from _oracles import nonassociative_dual, truncated_algebra

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fixture("f2_c2.json"))
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"]["kind"] == "hopf"


def test_validate_broken_coassociativity_reports_witness(capsys):
    code, out = run(capsys, "validate", fixture("broken_coassoc.json"))
    report = json.loads(out)
    assert code == 3
    assert report["status"] == "error"
    witnesses = {f["axiom"]: f["witness"] for f in report["failures"]}
    assert len(witnesses["coassociativity"]) == 3


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
    assert "not UTF-8" in json.loads(out)["message"]
    # a measuring document, and a structure document it refers to
    measuring = (FIXTURES / "f2_c2_regular.measuring.json").read_text()
    (tmp_path / "f2_trivial.json").write_text((FIXTURES / "f2_trivial.json").read_text())
    (tmp_path / "f2_c2.json").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "m.json").write_text(measuring)
    (tmp_path / "bad_m.json").write_bytes(measuring.encode() + b"\xff")
    for path in ("m.json", "bad_m.json"):
        code, out = run(capsys, "reconstruct", str(tmp_path / path))
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def test_antipode_absent_is_success(capsys):
    code, out = run(capsys, "antipode", fixture("idempotent_f2.json"))
    report = json.loads(out)
    assert code == 0
    assert report["result"]["antipode"] == {"present": False}


def test_antipode_present(capsys):
    code, out = run(capsys, "antipode", fixture("sweedler4_f3.json"))
    report = json.loads(out)
    assert code == 0
    antipode = report["result"]["antipode"]
    # s(x) = -gx: the gx-row of the x-column carries 2 = -1 mod 3
    assert antipode["present"] and antipode["matrix"][3][2] == "2"


def test_opantipode_absent(capsys):
    code, out = run(capsys, "opantipode", fixture("idempotent_f2.json"))
    assert code == 0
    assert json.loads(out)["result"]["opantipode"] == {"present": False}


def test_enumerate_measurings_counts(capsys):
    code, out = run(capsys, "enumerate-measurings",
                    fixture("f2_c2.json"), fixture("f2_trivial.json"), "2")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["total"] == 4
    assert report["result"]["orbit_count"] == 2


def test_budget_exceeded_exit_code(capsys):
    code, out = run(capsys, "enumerate-measurings",
                    fixture("f2_c2.json"), fixture("f2_trivial.json"), "2",
                    "--budget", "2")
    assert code == 4
    assert json.loads(out)["error"] == "BudgetExceeded"


def test_morphism_budget_reports_the_generator_bound(capsys, tmp_path):
    # F3[C_3] is generated by g: the bound is 3 to the 3 coordinates of g's image
    f3c3 = tmp_path / "f3c3.json"
    f3c3.write_text(serialize_document(Document(cyclic_group_hopf(GF(3), 3), ("e", "g", "g2"))))
    code, out = run(capsys, "morphisms", str(f3c3), str(f3c3), "--budget", "2")
    assert code == 4
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert report["message"] == "enumeration needs 27 candidates, budget is 2"


def test_budget_bounds_past_the_decimal_limit_are_written_as_powers(capsys):
    # tambara-check of F2[C_2] -> F2[y]/(y^2) has two generators: bound 2^(2 n^2)
    args = ["tambara-check", fixture("f2_c2.json"), fixture("f2_dualnum.json"), "--n"]
    code, out = run(capsys, *args, "60")
    assert code == 4
    assert json.loads(out)["message"] == (f"enumeration needs {2 ** 7200} candidates, "
                                          "budget is 16777216")
    code, out = run(capsys, *args, "90")
    assert code == 4
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert report["message"] == "enumeration needs 2^16200 candidates, budget is 16777216"


def test_grouplikes_of_a_long_truncated_dual_fit_a_small_budget(capsys, tmp_path):
    # the dual of F2[y]/(y^20): its grouplikes are the algebra maps out of
    # F2[y]/(y^20), which y generates, so 2 candidates bound the search
    path = tmp_path / "dual_trunc20.json"
    path.write_text(serialize_document(Document(dual_coalgebra(truncated_algebra(GF(2), 20)),
                                                tuple(f"y{i}" for i in range(20)))))
    code, out = run(capsys, "grouplikes", str(path), "--budget", "1024")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 1


def test_grouplikes_of_an_invalid_coalgebra_fail_validation(capsys, tmp_path):
    # not coassociative, with the counit 1* or zero: parsing rejects both
    for name, counit in [("noncoassoc", (1, 0, 0)), ("zero_counit", (0, 0, 0))]:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_document(Document(nonassociative_dual(GF(2), counit),
                                                    ("1", "y", "z"))))
        code, out = run(capsys, "grouplikes", str(path))
        assert code == 3, name
        report = json.loads(out)
        assert report["error"] == "ValidationError"
        assert report["failures"][0]["axiom"] == "coassociativity"


def test_grouplikes_over_q_is_unsupported(capsys):
    code, out = run(capsys, "grouplikes", fixture("q_c2.json"))
    assert code == 5
    assert json.loads(out)["error"] == "UnsupportedField"


def test_reports_are_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        _, out = run(capsys, "enumerate-measurings",
                     fixture("f2_c2.json"), fixture("f2_trivial.json"), "2")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_seed_is_recorded(capsys):
    code, out = run(capsys, "fusion", fixture("q_c2.json"), "--seed", "42")
    report = json.loads(out)
    assert code == 0 and report["seed"] == 42


def test_dual_document_roundtrips_through_validate(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code, _ = run(capsys, "dual", fixture("m2_f2.json"),
                  "--format", "document", "--output", str(out_path))
    assert code == 0
    code, out = run(capsys, "validate", str(out_path))
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "coalgebra"


def test_convolution_command(capsys):
    code, out = run(capsys, "convolution", fixture("f2_c2.json"),
                    fixture("f2_trivial.json"), "--format", "document")
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == 2 and doc["field"] == "F2"


def test_reconstruct_command(capsys):
    code, out = run(capsys, "reconstruct", fixture("f2_c2_regular.measuring.json"))
    report = json.loads(out)
    assert code == 0
    assert report["result"]["d"]["dim"] == 2
    assert len(report["result"]["projections"]) == 1


def test_tensor_command_uses_bialgebra_structure(capsys):
    code, out = run(capsys, "tensor", fixture("q_c2_sign.measuring.json"),
                    fixture("q_c2_sign.measuring.json"), "--format", "document")
    doc = json.loads(out)
    assert code == 0
    # sign (x) sign = trivial character: psi sends both basis vectors to 1
    assert doc["xdim"] == 1
    assert doc["psi"] == [[[0, 0], ["1"]], [[1, 0], ["1"]]]


def test_compose_command(capsys):
    code, out = run(capsys, "compose", fixture("q_c2_identity.measuring.json"),
                    fixture("q_c2_sign.measuring.json"), "--format", "document")
    doc = json.loads(out)
    assert code == 0
    assert doc["a"] == "q_c2.json" and doc["b"] == "q_trivial.json"


def test_compose_mismatch_is_a_precondition_failure(capsys):
    code, out = run(capsys, "compose", fixture("q_c2_sign.measuring.json"),
                    fixture("q_c2_sign.measuring.json"))
    assert code == 5


def test_graded_check_command(capsys):
    code, out = run(capsys, "graded-check", fixture("graded_line_q.json"))
    report = json.loads(out)
    assert code == 0
    assert report["result"]["valid"] and report["result"]["connected"]


def test_graded_check_requires_degrees(capsys):
    # a missing grading is a precondition, not a failed axiom
    code, out = run(capsys, "graded-check", fixture("q_c2.json"))
    assert code == 5
    assert json.loads(out)["error"] == "PreconditionViolated"


def test_degree0_command(capsys):
    code, out = run(capsys, "degree0", fixture("graded_dualnum_f2_deg1.json"),
                    "--format", "document")
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == 1 and doc["basis"] == ["1"]


def test_tambara_commands(capsys):
    code, out = run(capsys, "tambara-presentation", fixture("f2_c2.json"),
                    fixture("f2_dualnum.json"), "--format", "document")
    doc = json.loads(out)
    assert code == 0
    assert doc["generators"] == ["x_{1,y}", "x_{g,y}"]
    code, out = run(capsys, "tambara-check", fixture("f2_c2.json"),
                    fixture("f2_dualnum.json"), "--n", "1")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["matched"] and report["result"]["module_count"] == 2


def test_morphisms_command(capsys):
    code, out = run(capsys, "morphisms", fixture("f2_c2.json"), fixture("m2_f2.json"))
    report = json.loads(out)
    assert code == 0
    assert report["result"]["count"] == 4


def test_dual_of_a_dual_is_an_algebra_document(tmp_path, capsys):
    first = tmp_path / "dual.json"
    second = tmp_path / "double.json"
    run(capsys, "dual", fixture("m2_f2.json"), "--format", "document",
        "--output", str(first))
    code, _ = run(capsys, "dual", str(first), "--format", "document",
                  "--output", str(second))
    assert code == 0
    code, out = run(capsys, "validate", str(second))
    assert json.loads(out)["result"]["kind"] == "algebra"


def test_opantipode_present(capsys):
    code, out = run(capsys, "opantipode", fixture("sweedler4_f3.json"))
    report = json.loads(out)
    assert code == 0 and report["result"]["opantipode"]["present"]


def test_enumerate_measurings_dimension_one(capsys):
    code, out = run(capsys, "enumerate-measurings",
                    fixture("f2_c2.json"), fixture("f2_trivial.json"), "1")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["total"] == 1 and report["result"]["orbit_count"] == 1


def test_tensor_endo_mode(capsys):
    code, out = run(capsys, "tensor", fixture("q_c2_identity.measuring.json"),
                    fixture("q_c2_identity.measuring.json"), "--mode", "endo",
                    "--format", "document")
    doc = json.loads(out)
    assert code == 0 and doc["xdim"] == 1


def test_degree0_of_graded_hopf_document(capsys):
    code, out = run(capsys, "degree0", fixture("graded_line_f2.json"),
                    "--format", "document")
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 1


def test_reconstruct_without_intertwiners(capsys):
    code, out = run(capsys, "reconstruct", fixture("f2_c2_regular.measuring.json"),
                    "--auto-intertwiners", "false")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["d"]["dim"] == 4


@pytest.mark.parametrize("value, dim", [("TRUE", 2), ("Yes", 2), ("1", 2),
                                        ("False", 4), ("no", 4), ("0", 4)])
def test_auto_intertwiners_spellings(capsys, value, dim):
    code, out = run(capsys, "reconstruct", fixture("f2_c2_regular.measuring.json"),
                    "--auto-intertwiners", value)
    assert code == 0
    assert json.loads(out)["result"]["d"]["dim"] == dim


@pytest.mark.parametrize("value", ["maybe", "", "on", "2"])
def test_auto_intertwiners_rejects_other_values(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", fixture("f2_c2_regular.measuring.json"),
              "--auto-intertwiners", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --auto-intertwiners: expected one of" in captured.err


def test_fusion_command_reports_invertibility(capsys):
    code, out = run(capsys, "fusion", fixture("idempotent_f2.json"))
    report = json.loads(out)
    assert code == 0
    assert not report["result"]["h"]["invertible"]
    code, out = run(capsys, "fusion", fixture("q_c2.json"))
    assert json.loads(out)["result"]["h"]["invertible"]


def test_negative_measuring_dimension_is_unsupported(capsys):
    code, out = run(capsys, "enumerate-measurings",
                    fixture("f2_c2.json"), fixture("f2_trivial.json"), "-1")
    assert code == 5
    assert json.loads(out)["error"] == "PreconditionViolated"


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_tambara_check_at_n_zero(capsys):
    code, out = run(capsys, "tambara-check", fixture("f2_c2.json"),
                    fixture("f2_dualnum.json"), "--n", "0")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["module_count"] == result["morphism_count"] == 1
    assert result["module_orbit_sizes"] == result["morphism_orbit_sizes"] == [1]
    assert result["matched"] and result["orbits_matched"] and result["intertwiners_matched"]


@pytest.fixture
def parses(monkeypatch):
    """The texts of the structure documents parsed from here on."""
    import sweedler.documents as documents

    calls = []
    original = documents.parse_document
    monkeypatch.setattr(documents, "parse_document",
                        lambda text: calls.append(text) or original(text))
    return calls


def test_tensor_parses_the_source_algebra_once(parses, capsys):
    sign = fixture("q_c2_sign.measuring.json")
    code, _ = run(capsys, "tensor", sign, sign)
    assert code == 0
    # A and B once each: both measurings and A's coproduct share them
    assert len(parses) == 2


def test_reconstruct_parses_each_shared_document_once(parses, capsys):
    code, _ = run(capsys, "reconstruct", fixture("f2_c2_regular.measuring.json"),
                  fixture("f2_c2_triv.measuring.json"))
    assert code == 0
    assert sorted(parses) == sorted(Path(fixture(name)).read_text()
                                    for name in ("f2_c2.json", "f2_trivial.json"))


def test_reconstruct_validates_each_generator_once(evaluated_axioms, capsys):
    code, _ = run(capsys, "reconstruct", fixture("f2_c2_regular.measuring.json"),
                  fixture("f2_c2_triv.measuring.json"))
    assert code == 0
    # parsing checks each generator; reconstruct reads the kept report
    assert set(evaluated_axioms.values()) == {1}
    names = Counter(name for name, _, _ in evaluated_axioms)
    assert names["measuring multiplicativity"] == names["measuring unit"] == 2
    assert names["coassociative"] == names["counital"] == 2
    # A and B, A and the stage D
    assert names["associativity"] == names["coassociativity"] == 2


def test_graded_check_evaluates_the_koszul_axioms_once(evaluated_axioms, capsys):
    code, out = run(capsys, "graded-check", fixture("graded_line_q.json"))
    assert code == 0 and json.loads(out)["result"]["valid"] is True
    assert [count for (name, _, _), count in evaluated_axioms.items()
            if name == "comult multiplicative (Koszul)"] == [1]
    assert set(evaluated_axioms.values()) == {1}


def test_antipode_of_a_graded_document_checks_each_axiom_once(evaluated_axioms, capsys):
    # parsing checks the parts and the Koszul compatibility; the solver adds
    # the plain compatibility, which fails here, and reuses the parts' reports
    code, out = run(capsys, "antipode", fixture("graded_line_q.json"))
    assert code == 3 and json.loads(out)["error"] == "InvalidBialgebra"
    names = Counter(name for name, _, _ in evaluated_axioms)
    assert names["associativity"] == names["coassociativity"] == 1
    assert names["comult multiplicative"] == names["comult multiplicative (Koszul)"] == 1
    assert set(evaluated_axioms.values()) == {1}


def test_two_paths_to_one_document_share_its_parse(parses, capsys, tmp_path):
    for name in ("q_c2.json", "q_trivial.json", "q_c2_sign.measuring.json"):
        (tmp_path / name).write_text(Path(fixture(name)).read_text())
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "link.json").symlink_to(tmp_path / "q_c2.json")
    other = tmp_path / "sub" / "sign.measuring.json"
    other.write_text((tmp_path / "q_c2_sign.measuring.json").read_text()
                     .replace('"q_c2.json"', '"link.json"')
                     .replace('"q_trivial.json"', '"../q_trivial.json"'))
    code, _ = run(capsys, "tensor", str(tmp_path / "q_c2_sign.measuring.json"), str(other))
    assert code == 0
    assert len(parses) == 2


def _run_under_memory_limit(argv, limit_bytes, timeout=300):
    """Run the CLI in a child process whose address space is capped, so that a
    blow-up fails this test instead of exhausting the machine."""
    return _python_under_memory_limit(["-m", "sweedler", *argv], limit_bytes, timeout)


def _python_under_memory_limit(args, limit_bytes, timeout=300):
    """Run the interpreter on ``args`` in a child process whose address space
    is capped, with the library on its path."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=timeout)


def test_wide_algebra_with_empty_mult_fails_validation_within_a_gib(tmp_path):
    # no products: the unit is not a basis vector, so nothing is implied and
    # the unit axioms fail.  Associativity once built the factor mult (x) 1
    # with dim^5 entries, and then dense dim x dim^3 composites, which at
    # dim 100 (10^8 entries) ended in a MemoryError traceback.
    for dim, size in ((60, 1500), (100, 2100)):
        doc = {"field": "F2", "dim": dim, "basis": [f"e{i}" for i in range(dim)],
               "unit": ["1", "1"] + ["0"] * (dim - 2), "mult": []}
        path = tmp_path / f"wide{dim}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert len(path.read_bytes()) < size
        proc = _run_under_memory_limit(["validate", str(path)], 1 << 30)
        assert proc.returncode == 3, proc.stderr
        report = json.loads(proc.stdout)
        assert [f["axiom"] for f in report["failures"]] == ["left unit", "right unit"]
    # a bialgebra with no products or coproducts and a zero counit, plain and
    # in degree 0: its braiding was once a dense dim^2 x dim^2 swap (10^8
    # entries), built before any check
    dim = 100
    doc = {"field": "F2", "dim": dim, "basis": [f"e{i}" for i in range(dim)],
           "unit": ["1"] + ["0"] * (dim - 1), "mult": [], "comult": [], "counit": ["0"] * dim}
    for name, degrees, size in (("bialgebra", None, 1800), ("graded", [0] * dim, 2100)):
        if degrees is not None:
            doc["degrees"] = degrees
        path = tmp_path / f"{name}{dim}.json"
        path.write_text(json.dumps(doc))
        assert len(path.read_bytes()) < size
        proc = _run_under_memory_limit(["validate", str(path)], 256 << 20)
        assert proc.returncode == 3, proc.stderr
        report = json.loads(proc.stdout)
        assert [f["axiom"] for f in report["failures"]] == [
            "left counit", "right counit", "comult unital", "counit unital"]


@pytest.mark.parametrize("argv", [["validate", "wide300.json"], ["dual", "wide300.json"],
                                  ["enumerate-measurings", "wide300.json", "wide300.json", "1"],
                                  ["reconstruct", "big.measuring.json"]],
                         ids=lambda argv: argv[0])
def test_documents_too_large_for_memory_end_in_an_error_report(tmp_path, argv):
    # small documents declaring dense tables that do not fit in 256 MiB: a
    # 300 x 90,000 mult (unit e0, no products) and a 3,000 x 6,000 psi
    dim = 300
    (tmp_path / "wide300.json").write_text(json.dumps(
        {"field": "F2", "dim": dim, "basis": [f"e{i}" for i in range(dim)],
         "unit": ["1"] + ["0"] * (dim - 1), "mult": []}))
    for name in ("f2_c2.json", "f2_trivial.json"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    (tmp_path / "big.measuring.json").write_text(json.dumps(
        {"a": "f2_c2.json", "b": "f2_trivial.json", "xdim": 3000, "psi": []}) + "\n")
    assert len((tmp_path / "wide300.json").read_bytes()) == 3850
    assert len((tmp_path / "big.measuring.json").read_bytes()) == 69
    proc = _run_under_memory_limit(
        [str(tmp_path / a) if a.endswith(".json") else a for a in argv], 256 << 20)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert (report["status"], report["error"]) == ("error", "MemoryError")
    assert report["message"] == "the input's tables do not fit in memory"


def test_regular_stage_of_q_c16_is_built_within_256_mib(tmp_path):
    # X = Q^16: written out, its comatrix coalgebra is a dense 65,536 x 256 map.
    # A is the Hopf algebra, whose axioms are checked when it is parsed.
    h = cyclic_group_hopf(QQ, 16)
    m = regular_measuring(h.algebra)
    labels = tuple(f"g{i}" for i in range(16))
    (tmp_path / "q_c16.json").write_text(serialize_document(Document(h, labels)))
    (tmp_path / "q.json").write_text(serialize_document(Document(m.b, ("1",))))
    path = tmp_path / "regular.measuring.json"
    path.write_text(serialize_measuring_document(MeasuringDocument("q_c16.json", "q.json", m)))
    proc = _run_under_memory_limit(["reconstruct", str(path)], 256 << 20)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert report["d"]["dim"] == 16
    assert len(report["projections"]) == 1


def test_stages_of_f2_c16_and_their_product_are_built_within_256_mib():
    # X (x) X = F2^256 for the regular measuring X of F2[C_16]: the stage's
    # (delta (x) 1).delta and the comultiplication of D (x) D that the product
    # is checked against were each once written as a dense 65,536 x 256 map
    code = "\n".join([
        "from sweedler.fields import GF",
        "from sweedler.measurings import regular_measuring, tensor_measuring_bialgebra",
        "from sweedler.reconstruction import product_on_generated, reconstruct",
        "from sweedler.zoo import cyclic_group_hopf",
        "h = cyclic_group_hopf(GF(2), 16)",
        "r = regular_measuring(h.algebra)",
        "rr = tensor_measuring_bialgebra(r, r, h.bialgebra)",
        "g1, g12 = reconstruct([r]), reconstruct([rr])",
        "product = product_on_generated(g1, g1, g12, h.bialgebra)",
        "print(rr.xdim, g1.d.dim, g12.d.dim, product.cod, product.dom)",
    ])
    proc = _python_under_memory_limit(["-c", code], 256 << 20, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["256", "16", "16", "16", "256"]


def test_long_truncated_dual_validates_within_256_mib(tmp_path):
    # the dual of F2[y]/(y^40): coassociativity is decided on its 40 columns,
    # not on the 64,000 rows of (Delta (x) 1).Delta
    path = tmp_path / "dual_trunc40.json"
    path.write_text(serialize_document(Document(dual_coalgebra(truncated_algebra(GF(2), 40)),
                                                tuple(f"y{i}" for i in range(40)))))
    proc = _run_under_memory_limit(["validate", str(path)], 256 << 20, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert (report["kind"], report["dim"], report["valid"]) == ("coalgebra", 40, True)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_reported_matrices_show_every_dense_entry(field):
    # shown from the nonzeros over copies of a shown zero row: the same rows
    # as every entry shown, for zero rows, empty shapes, and over Q for
    # Fractions, negative values and the ints the nonzeros are listed as
    rng = random.Random(40 + field.char)
    scalars = ([Fraction(1), Fraction(-1), Fraction(3), Fraction(-7, 3), Fraction(1, 2)]
               if field.is_rational else range(1, field.char))
    maps = [LinMap.zero(field, 0, 3), LinMap.zero(field, 3, 0), LinMap.zero(field, 0, 0),
            LinMap.zero(field, 2, 3)]
    for cod, dom in ((1, 1), (3, 4), (5, 2), (4, 7)):
        entries = [0] * dom + [rng.choice(scalars) if rng.random() < 0.5 else 0
                               for _ in range((cod - 1) * dom)]
        f = LinMap.make(field, cod, dom, entries)
        maps += [f, LinMap.from_nonzeros(field, cod, dom, [
            (r, c, f[r, c]) for r in range(cod) for c in range(dom) if f[r, c]])]
    maps.append(cyclic_group_hopf(field, 3).antipode)
    listed = [v for f in maps for row in f.nonzeros(by_col=False) for _, v in row]
    assert not field.is_rational or {int, Fraction} <= {type(v) for v in listed}
    for f in maps:
        assert cli._matrix(f) == [show_vector(f.field, f.row_at(r)) for r in range(f.cod)]


@pytest.mark.parametrize("argv", [["enumerate-measurings", "k.json", "k.json", "1"],
                                  ["enumerate-measurings", "k.json", "k.json", "2"],
                                  ["tambara-check", "k.json", "k.json", "--n", "1"],
                                  ["tambara-check", "k.json", "k.json", "--n", "2"]])
def test_census_over_a_large_prime_does_no_work_per_scalar(tmp_path, argv):
    # conjugation fixes the unit in M_n(k): no move may cost p or sqrt(p) steps
    (tmp_path / "k.json").write_text(json.dumps(
        {"field": "F1000000000000000000000007", "dim": 1, "basis": ["1"], "unit": ["1"],
         "mult": []}, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "sweedler", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    if argv[0] == "tambara-check":
        assert (result["module_count"], result["module_orbit_sizes"]) == (1, [1])
        assert (result["morphism_count"], result["morphism_orbit_sizes"]) == (1, [1])
    else:
        assert (result["total"], result["orbit_count"]) == (1, 1)


def test_huge_prime_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": "F1000000000000000000000000000057", "dim": 1,
                                "basis": ["1"], "unit": ["1"], "mult": []}, indent=2) + "\n")
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_unwritable_output_of_a_report_is_a_structured_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out = run(capsys, "validate", fixture("f2_c2.json"), "--output", str(target))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error" and report["command"] == "validate"
    assert report["error"] == "FileNotFoundError" and str(target) in report["message"]
    assert not target.parent.exists()


def test_unwritable_output_of_an_error_report_is_a_structured_error(tmp_path, capsys,
                                                                     monkeypatch):
    writes = []
    original = Path.write_text
    monkeypatch.setattr(Path, "write_text",
                        lambda self, *a, **k: writes.append(self) or original(self, *a, **k))
    target = tmp_path / "missing" / "x.json"
    code, out = run(capsys, "validate", fixture("broken_coassoc.json"),
                    "--output", str(target))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error" and report["error"] == "FileNotFoundError"
    # the failed path is tried once, not again for the write error's report
    assert writes == [target]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    assert run(capsys, "validate", fixture("f2_c2.json"))[0] == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert run(capsys, "validate", fixture("f2_c2.json"))[0] == 0
        assert run(capsys, "fusion", fixture("q_c2.json"))[0] == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_seed_does_not_leak_into_the_next_call(capsys):
    code, out = run(capsys, "fusion", fixture("q_c2.json"), "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out = run(capsys, "fusion", fixture("q_c2.json"))
    assert code == 0 and "seed" not in json.loads(out)


def test_tensor_mode_does_not_leak_into_the_next_call(capsys):
    sign = fixture("q_c2_sign.measuring.json")
    code, out = run(capsys, "tensor", sign, sign, "--mode", "endo")
    assert code == 5 and json.loads(out)["error"] == "IncompatibleMeasurings"
    code, out = run(capsys, "tensor", sign, sign, "--format", "document")
    assert code == 0
    assert json.loads(out)["psi"] == [[[0, 0], ["1"]], [[1, 0], ["1"]]]


def test_output_and_format_do_not_leak_into_the_next_call(tmp_path, capsys):
    target = tmp_path / "dual.json"
    code, out = run(capsys, "dual", fixture("m2_f2.json"),
                    "--format", "document", "--output", str(target))
    assert code == 0 and out == ""
    written = target.read_text()
    target.unlink()
    code, out = run(capsys, "dual", fixture("m2_f2.json"))
    assert code == 0 and not target.exists()
    report = json.loads(out)
    assert report["status"] == "ok" and report["result"] == json.loads(written)


@pytest.mark.parametrize("argv", [["--help"], ["tensor", "--help"], [],
                                  ["tensor", "a", "b", "--mode", "sideways"],
                                  ["tambara-check", "a", "b"]])
def test_help_and_usage_errors_repeat_byte_for_byte(capsys, argv):
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        seen.append((exc.value.code, captured.out, captured.err))
    assert seen[0] == seen[1]
    assert seen[0][1] or seen[0][2]
