"""The CLI prints exactly the bytes it printed before the scalar kernels
moved to integers.

``data/trace_spec_golden.json`` holds `skeinhc trace --spec N` for fixed
words on n = 2, 3, 4 strands and N = 2..8, captured before the cyclotomic
kernel changed.  ``data/scalar_str_golden.json`` holds the generic Q(i)(q)
strings: `trace` and `normalize` for fixed words on n = 2, 3, 4, and the
`gram` JSON of `++` and `+-`, captured before ScalarQ changed.  Each file
names the commit it was captured at."""

import json
from pathlib import Path

import pytest

from skeinhc.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "trace_spec_golden.json").read_text())
SCALAR_GOLDEN = json.loads((DATA / "scalar_str_golden.json").read_text())


def test_golden_covers_strands_and_points():
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    assert {a[2] for a in argvs} == {"2", "3", "4"}
    assert {a[6] for a in argvs} == {str(N) for N in range(2, 9)}
    argvs = [case["argv"] for case in SCALAR_GOLDEN["cases"]]
    for command in ("trace", "normalize"):
        assert {a[2] for a in argvs if a[0] == command} == {"2", "3", "4"}
    assert {a[2] for a in argvs if a[0] == "gram"} == {"++", "+-"}


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: f"n{c['argv'][2]}-N{c['argv'][6]}-{c['argv'][4]}"
)
def test_trace_spec_stdout_unchanged(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", SCALAR_GOLDEN["cases"], ids=lambda c: " ".join(c["argv"][:5]))
def test_generic_scalar_stdout_unchanged(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
