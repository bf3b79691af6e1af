"""`skeinhc trace --spec N` prints exactly the bytes it printed before the
cyclotomic kernel moved to integers.  The expected stdout in
``data/trace_spec_golden.json`` was captured at the commit named there, for
fixed words on n = 2, 3, 4 strands and N = 2..8."""

import json
from pathlib import Path

import pytest

from skeinhc.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "trace_spec_golden.json").read_text()
)


def test_golden_covers_strands_and_points():
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    assert {a[2] for a in argvs} == {"2", "3", "4"}
    assert {a[6] for a in argvs} == {str(N) for N in range(2, 9)}


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: f"n{c['argv'][2]}-N{c['argv'][6]}-{c['argv'][4]}"
)
def test_trace_spec_stdout_unchanged(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
