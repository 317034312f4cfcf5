"""Byte-for-byte replay of the golden-report corpus in tests/golden/.

Each case is one CLI run from the repository root; its exit code and stdout
must match what scripts/make_golden.py recorded.
"""

import json
from pathlib import Path

from sweedler.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def test_golden_reports_are_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    cases = json.loads((GOLDEN / "cases.json").read_text())
    assert len(cases) > 500
    changed = []
    for case in cases:
        code = main(list(case["argv"]))
        out = capsys.readouterr().out
        if code != case["exit"] or out != (GOLDEN / case["report"]).read_text():
            changed.append(" ".join(case["argv"]))
    assert not changed, f"{len(changed)} reports changed: {changed[:10]}"
