import json
import os
import resource
import subprocess
import sys
from pathlib import Path


from sweedler.cli import main

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
    code, _ = run(capsys, "graded-check", fixture("q_c2.json"))
    assert code == 3


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


def test_tensor_parses_the_source_algebra_once(monkeypatch, capsys):
    import sweedler.documents as documents

    calls = []
    original = documents.parse_document
    monkeypatch.setattr(documents, "parse_document",
                        lambda text: calls.append(text) or original(text))
    sign = fixture("q_c2_sign.measuring.json")
    code, _ = run(capsys, "tensor", sign, sign)
    assert code == 0
    # A and B for each of the two measurings, then A once more for its coproduct
    assert len(calls) == 5


def _run_under_memory_limit(argv, limit_bytes):
    """Run the CLI in a child process whose address space is capped, so that a
    blow-up fails this test instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "sweedler", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=300)


def test_wide_algebra_with_empty_mult_fails_validation_within_a_gib(tmp_path):
    # dim 60 and no products: the unit is not a basis vector, so nothing is
    # implied and the unit axioms fail.  Associativity once built the factor
    # mult (x) 1 with dim^5 entries and was killed for memory.
    dim = 60
    doc = {"field": "F2", "dim": dim, "basis": [f"e{i}" for i in range(dim)],
           "unit": ["1", "1"] + ["0"] * (dim - 2), "mult": []}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert len(path.read_bytes()) < 1500
    proc = _run_under_memory_limit(["validate", str(path)], 1 << 30)
    assert proc.returncode == 3, proc.stderr
    report = json.loads(proc.stdout)
    assert [f["axiom"] for f in report["failures"]] == ["left unit", "right unit"]


def test_huge_prime_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": "F1000000000000000000000000000057", "dim": 1,
                                "basis": ["1"], "unit": ["1"], "mult": []}, indent=2) + "\n")
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
