"""Command-line surface: outputs, schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from math import comb, factorial, prod
from pathlib import Path

import pytest

import skeinhc
from skeinhc import cli
from skeinhc.cli import MAX_DECOMPOSE_N, MAX_WORD_STRANDS, _build_parser, main
from skeinhc.combinatorics import MAX_SHAPE_BOXES, MAX_SHAPE_STATES, dim_hom_formula
from skeinhc.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "+++", "+++")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "dims", "+", "-", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"source": "+", "target": "-", "dimension": 0,
                               "enumerated": 0, "agrees": True}


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--N", "4", "--object", "A",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    weights = {tuple(r["weight"]) for r in payload["summands"]}
    assert weights == {(0, 0, 0, 0), (2, 0, -1, -1), (1, 1, 0, -2), (2, 2, -2, -2)}


def test_tableaux_and_paths(capsys):
    code, out, _ = run(capsys, "tableaux", "--mu", "2", "--lam", "2,1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "tableaux", "--shape", "2,2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "paths", "--end-lam", "2,1", "--length", "3")
    assert code == 0 and out.strip() == "2"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--n", "2", "--word", "t1 t1")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "even"
    coeffs = {tuple(t["w"]): t["coeff"] for t in payload["terms"]}
    assert coeffs[(1, 2)] == "1"


def test_trace(capsys):
    code, out, _ = run(capsys, "trace", "--n", "2", "--word", "t1", "--spec", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == "(-2*q)/(q^2 - 1)"
    assert payload["spec"]["N"] == 2
    code, out, _ = run(capsys, "trace", "--n", "2", "--word", "t1",
                       "--format", "text")
    assert code == 0 and out.strip() == "(-2*q)/(q^2 - 1)"


def test_normalize_full_variant(capsys):
    code, out, _ = run(capsys, "normalize", "--n", "2", "--word", "v1")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "full"
    assert payload["terms"] == [{"w": [1, 2], "s": "10", "coeff": "1"}]


def test_gram(capsys):
    code, out, _ = run(capsys, "gram", "--source", "++", "--target", "++",
                       "--spec", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["ranks"] == {"5": 4}
    assert len(payload["entries"]) == 4


def test_determinism(capsys):
    args = ("gram", "--source", "++", "--target", "++", "--spec", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("verify", "--suite", "dims", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "antisymmetrizer")
    assert code == 0
    assert "OK (0 failures)" in out
    assert all(line.startswith(("PASS", "OK")) for line in out.strip().splitlines())


def test_exit_codes(capsys):
    code, _, _ = run(capsys, "dims", "+?", "++")
    assert code == 2
    code, _, _ = run(capsys, "trace", "--n", "5", "--word", "t9")
    assert code == 2
    code, _, _ = run(capsys, "normalize", "--n", "3", "--word", "t1 e3")
    assert code == 2
    code, _, _ = run(capsys, "tableaux")
    assert code == 2
    assert main(["nosuchcommand"]) == 1
    assert main(["dims"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "--n", "-1", "--word", ""),
        ("trace", "--n", "-3", "--word", ""),
        ("trace", "--n", "-1", "--word", "", "--spec", "3"),
    ],
)
def test_negative_strand_count_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: strand count must be nonnegative")


@pytest.mark.parametrize("command", ["trace", "normalize"])
def test_strand_count_work_bound(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--n", "99999", "--word", "t1")
    assert time.perf_counter() - start < 1  # refused before any work
    assert code == 2 and out == ""
    limit = MAX_WORD_STRANDS
    assert err == f"error: {command} needs 99999 strands, over the limit {limit}\n"
    code, _, _ = run(capsys, command, "--n", str(MAX_WORD_STRANDS), "--word", "t1")
    assert code == 0


@pytest.mark.parametrize(
    "argv, message, limit",
    [
        (("tableaux", "--shape", "2000"), "tableaux needs 2000 boxes", MAX_SHAPE_BOXES),
        (("tableaux", "--mu", "1", "--lam", "1200"), "tableaux needs 1201 boxes",
         MAX_SHAPE_BOXES),
        (("paths", "--end-lam", "1500", "--length", "1500"), "paths needs 1500 boxes",
         MAX_SHAPE_BOXES),
        (("tableaux", "--shape", ",".join(["12"] * 12)),
         "tableaux may visit 2704156 states", MAX_SHAPE_STATES),
        (("paths", "--end-lam", "8,6,5,3,2,1", "--start-mu", "8,6,5,3,2,1",
          "--length", "50"), "paths may visit 9018009 states", MAX_SHAPE_STATES),
        (("decompose", "--N", "17", "--object", "A"), "decompose needs N = 17",
         MAX_DECOMPOSE_N),
    ],
)
def test_combinatorics_work_bounds(capsys, argv, message, limit):
    # the first three exited 1 with a RecursionError traceback, the next two
    # ran for over 20 s, and decompose ran for over 120 s already at N = 14
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: {message}, over the limit {limit}\n"


def hook_length_count(rows):
    """Standard tableaux of shape rows by the hook length formula."""
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    hooks = prod(rows[i] - j + cols[j] - i - 1 for i, j in cells)
    return factorial(len(cells)) // hooks


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("tableaux", "--shape", "200"), 1),
        (("tableaux", "--mu", "1", "--lam", "199"), 199),
        (("tableaux", "--shape", ",".join(["8"] * 8)), hook_length_count([8] * 8)),
        # interleavings of the boxes added to lam and removed from mu
        (("paths", "--end-lam", "100", "--start-mu", "100", "--length", "200"),
         comb(200, 100)),
        (("paths", "--end-lam", "5,5,5,5", "--start-mu", "5,5,5,5", "--length", "40"),
         comb(40, 20) * hook_length_count([5] * 4) ** 2),
        # the skew counter's states add over mu and lam: 70 + 495
        (("tableaux", "--mu", "4,4,4,4", "--lam", "8,8,8,8"), 346915095471584640),
    ],
)
def test_combinatorics_within_the_work_bounds(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and int(out) == expected


def test_decompose_at_its_work_bound(capsys):
    code, out, _ = run(capsys, "decompose", "--N", str(MAX_DECOMPOSE_N), "--object",
                       "B", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 ** (MAX_DECOMPOSE_N - 2)


def test_longest_word_with_a_clifford_letter_at_the_strand_bound(capsys):
    # 8,128 crossings of the longest permutation, then v1: the full basis
    # folds it letter by letter without recursion
    n = MAX_WORD_STRANDS
    word = " ".join(f"t{j}" for i in range(1, n) for j in range(i, 0, -1)) + " v1"
    code, out, _ = run(capsys, "normalize", "--n", str(n), "--word", word)
    assert code == 0
    assert json.loads(out)["variant"] == "full"


def test_zero_strands_unchanged(capsys):
    code, out, _ = run(capsys, "trace", "--n", "0", "--word", "")
    assert code == 0 and out == '{"n": 0, "trace": "1", "word": ""}\n'
    code, out, _ = run(capsys, "normalize", "--n", "0", "--word", "")
    assert code == 0
    assert json.loads(out) == {
        "n": 0,
        "terms": [{"coeff": "1", "s": "", "w": []}],
        "variant": "even",
    }


@pytest.mark.parametrize(
    "sig, message",
    [
        ("+++++", "gram needs 5 strands, over the all-plus limit 4"),
        ("+++-", "gram needs 4 strands, over the mixed limit 3"),
    ],
)
def test_gram_work_bound(capsys, sig, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "gram", "--source", sig, "--target", sig)
    assert time.perf_counter() - start < 5  # refused before any basis is built
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "source, target, message",
    [
        ("+--", "+--", "gram needs 2 '-' letters on a boundary at 3 strands, "
         "over the mixed limit 1"),
        ("---", "---", "gram needs 3 '-' letters on a boundary at 3 strands, "
         "over the mixed limit 1"),
        ("+-", "++--", "gram needs 2 '-' letters on a boundary at 3 strands, "
         "over the mixed limit 1"),
        ("-", "++---", "gram needs 3 '-' letters on a boundary at 3 strands, "
         "over the mixed limit 1"),
    ],
)
def test_gram_mixed_work_bound(capsys, source, target, message):
    # each of these ran for 19 s to over 900 s under the strand-count bound alone
    start = time.perf_counter()
    code, out, err = run(capsys, "gram", f"--source={source}", f"--target={target}")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("source, target", [("++--", ""), ("++", "+++-")])
def test_gram_accepts_a_long_boundary(capsys, source, target):
    # the length of a boundary bounds no work: these take 0.1-0.2 s with all
    # eight ranks, less than the 0.5 s of ++-/++-
    code, out, err = run(capsys, "gram", f"--source={source}", f"--target={target}",
                         "--spec", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["dimension"] == len(payload["basis"]) == dim_hom_formula(source, target)


@pytest.mark.parametrize(
    "source, target",
    [("+x+x+", "+x+x+"), ("++x", "++x"), ("+", "x")],
)
def test_gram_bad_signature_before_the_work_bounds(capsys, source, target):
    # the hom space is sized first, so a bad letter is named even where the
    # strand count alone is over a work bound
    code, out, err = run(capsys, "gram", "--source", source, "--target", target)
    assert code == 2 and out == ""
    bad = source if "x" in source else target
    assert err == f"error: bad signature {bad!r}\n"


# every nonzero-dimension pair up to 3 strands with an unsorted signature and
# a sorted one (swapped below), then those with two unsorted signatures
UNSORTED_PAIRS = [("-+", ""), ("-+", "+-"), ("+-+", "+"), ("+-+", "++-"), ("-++", "+"),
                  ("-++", "++-"), ("-+-", "-"), ("--+", "-"), ("++-+", "++"),
                  ("+-++", "++"), ("-+++", "++"), ("+-+-", ""), ("+--+", ""),
                  ("-++-", ""), ("-+-+", ""), ("--++", "")]
BOTH_UNSORTED = [("-+", "-+"), ("+-+", "+-+"), ("+-+", "-++"), ("-++", "+-+"),
                 ("-++", "-++")]


@pytest.mark.parametrize(
    "source, target",
    UNSORTED_PAIRS + [(t, s) for s, t in UNSORTED_PAIRS] + BOTH_UNSORTED,
)
def test_gram_names_an_unsorted_signature(capsys, source, target):
    # refused before the skein layer; with two unsorted signatures, the source is named
    code, out, err = run(capsys, "gram", f"--source={source}", f"--target={target}")
    assert code == 2 and out == ""
    bad = source if "-+" in source else target
    assert err == (f"error: signature {bad!r} is not sorted: gram needs signatures "
                   "sorted like '++--'\n")


def test_gram_unsorted_zero_dimension_is_empty(capsys):
    code, out, err = run(capsys, "gram", "--source=-+", "--target=++", "--spec", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["dimension"] == 0 and payload["ranks"] == {"2": 0}


def test_gram_text_lists_ranks_by_level(capsys):
    code, out, err = run(capsys, "gram", "--source", "++", "--target", "++",
                         "--spec", "10", "--spec", "2", "--spec", "5", "--generic",
                         "--format", "text")
    assert code == 0 and err == ""
    assert out == ("dim 4\nrank at N=2: 2\nrank at N=5: 4\nrank at N=10: 4\n"
                   "generic rank: 4\n")


@pytest.mark.parametrize("n, word", [(2, "t1"), (3, "t1 e2 t2'")])
def test_trace_text_prints_the_json_strings(capsys, n, word):
    argv = ("trace", "--n", str(n), "--word", word, "--spec", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == 0 and err == ""
    assert out == f"{payload['trace']}\n{payload['spec']['value']}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--n", "3", "--word", "t1 e2 t2'", "--spec", "101"),
        ("trace", "--n", "3", "--word", "t1 e2 t2'", "--spec", "101",
         "--format", "text"),
        ("gram", "--source", "+++", "--target", "+++", "--spec", "101"),
        ("gram", "--source", "++++", "--target", "++++", "--spec", "1"),
    ],
)
def test_bad_spec_fails_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: specialization points require 2 <= N <= 100")


@pytest.mark.parametrize("argv", [("--source=--", "--target=++"),
                                  ("--source=++", "--target=--")])
def test_double_minus_signature_is_a_usage_error(capsys, argv):
    # argparse reads the value -- as its end-of-options marker and stores []
    code, out, err = run(capsys, "gram", *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: skeinhc gram")
    assert "the signature '--' is library-only" in err


def fresh(*argv):
    """One CLI call in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(skeinhc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "skeinhc.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    # the parser is built once per process; each call must still read as
    # the same call in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
    calls = [
        ("gram", "--source", "++", "--target", "++", "--spec", "2"),
        ("gram", "--source", "++", "--target", "++"),
        ("gram", "--source", "++"),
        ("gram", "--source", "++", "--target", "++"),
        ("verify", "--suite", "nosuch"),
    ]
    results = [run(capsys, *argv) for argv in calls]
    assert _build_parser() is _build_parser()
    assert [code for code, _, _ in results] == [0, 0, 1, 0, 1]
    assert json.loads(results[0][1])["ranks"] == {"2": 2}
    assert json.loads(results[1][1])["ranks"] == {}
    assert results[3] == results[1]
    assert all(repr(name) in results[4][2] for name in SUITES)
    for argv, result in zip(calls, results):
        assert fresh(*argv) == result, argv


DISPATCH_ARGV = [
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("nosuch",),
    *((command, "-h") for command in
      ("dims", "decompose", "tableaux", "paths", "normalize", "trace", "gram", "verify")),
    ("trace", "--n", "2"),
    ("trace", "--n", "3", "--wor", "t1 e2", "--spec", "3"),
    ("normalize", "--n", "2", "--word", "t1 e1"),
    ("dims", "++", "+-+-", "--format", "json"),
    ("dims", "++", "++", "+-", "--"),
    ("trace", "--n", "2", "--word", "t1", "--foo", "1", "-x"),
    ("trace", "--n", "2", "--word", "t1", "--he"),
    ("--", "trace", "--n", "2", "--word", "t1"),
    ("trace", "--", "--n", "2", "--word", "t1"),
    ("trace", "--n", "2", "--word", "t1", "--"),
    ("gram", "--source=--", "--target", "++"),
    ("verify", "--suite", "nosuch"),
    ("trace", "--n", "2", "--word", "t1", "--spec", "101"),
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "none")
def test_dispatch_matches_the_top_level_parse(capsys, monkeypatch, argv):
    # main parses a known command with its own subparser; the oracle is main
    # with every argv through the top-level parser.parse_args
    monkeypatch.setenv("COLUMNS", "80")
    result = run(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
        assert run(capsys, *argv) == result
    assert fresh(*argv) == result


def test_suite_names_match_the_verify_suites():
    from skeinhc.cli import SUITE_NAMES

    assert SUITE_NAMES == tuple(sorted(SUITES))


def test_gram_on_plus_loads_neither_skein_nor_verify():
    env = dict(os.environ, PYTHONPATH=str(Path(skeinhc.__file__).parents[1]))
    script = (
        "import sys\n"
        "from skeinhc.cli import main\n"
        "code = main(['gram', '--source', '+++', '--target', '+++', '--spec', '2'])\n"
        "print(code, sorted(m for m in ('skeinhc.skein', 'skeinhc.verify')"
        " if m in sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)["ranks"] == {"2": 4}


def test_package_does_not_load_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(skeinhc.__file__).parents[1]))
    script = (
        "import importlib, pkgutil, sys, skeinhc\n"
        "for m in pkgutil.iter_modules(skeinhc.__path__):\n"
        "    importlib.import_module('skeinhc.' + m.name)\n"
        "print(len([m for m in sys.modules if m.startswith('skeinhc.')]),"
        " 'dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.split()
    assert int(count) >= 9 and loaded == "False"
