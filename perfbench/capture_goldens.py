"""Regenerate the benchmark goldens from the current source tree.

    python3 perfbench/capture_goldens.py [--only gram_end3|skein_mixed|trace_stream]

Run from the repository root.  Goldens record the exact output of the
program at the commit they were captured at (stored with them); a change
that deliberately alters an output regenerates them in a change of its
own and says which output changed and why.  skein_mixed takes about four
minutes: it computes the whole 24 x 24 ++- Gram matrix twice, once with
gram_matrix for the entries and once entry by entry to time them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from skeinhc.skein import basis_indices  # noqa: E402
from skeinhc.trace_gram import gram_matrix  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_DIR,
    GRAM_SPECS,
    MIXED_SIG,
    gram_argv,
    mixed_entry,
    run_cli,
    sha256,
    stream_pool,
)


def commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    if proc.returncode != 0 or dirty:
        raise SystemExit("capture goldens from a clean git checkout of src/")
    return proc.stdout.strip()


def gram_end3() -> dict:
    argv = gram_argv(GRAM_SPECS)
    proc = subprocess.run(
        [sys.executable, "-m", "skeinhc.cli"] + argv,
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return {"argv": argv, "stdout_sha256": sha256(proc.stdout), "stdout": proc.stdout}


def skein_mixed() -> dict:
    """The entries come from gram_matrix itself.  The per-entry cost, which
    only sets the sampling strata, is timed in a fresh interpreter that
    computes every entry the way the workload does, in a shuffled order."""
    report = gram_matrix(MIXED_SIG, MIXED_SIG)
    entries = [[str(c) for c in row] for row in report.entries]
    proc = subprocess.run(
        [sys.executable, __file__, "--time-mixed-entries"],
        capture_output=True, text=True, check=True,
    )
    cost = [[0.0] * len(entries) for _ in entries]
    for (j, k), text, ms in json.loads(proc.stdout):
        if text != entries[j][k]:
            raise SystemExit(f"workload entry ({j},{k}) differs from gram_matrix")
        cost[j][k] = ms
    return {"source": MIXED_SIG, "target": MIXED_SIG, "entries": entries, "cost_ms": cost}


def time_mixed_entries():
    basis = basis_indices(MIXED_SIG, MIXED_SIG)
    jobs = [(j, k) for j in range(len(basis)) for k in range(len(basis))]
    random.Random(0).shuffle(jobs)
    out = []
    for j, k in jobs:
        start = time.perf_counter()
        text = mixed_entry(basis, j, k)
        out.append([(j, k), text, round(1000 * (time.perf_counter() - start), 3)])
    print(json.dumps(out))


def trace_stream() -> dict:
    queries = []
    for query in stream_pool():
        code, out = run_cli(query["argv"])
        if code != 0:
            raise SystemExit(f"query {query['argv']} exited {code}")
        queries.append(dict(query, stdout_sha256=sha256(out)))
    return {"queries": queries}


CAPTURES = {"gram_end3": gram_end3, "skein_mixed": skein_mixed, "trace_stream": trace_stream}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=sorted(CAPTURES))
    parser.add_argument("--time-mixed-entries", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.time_mixed_entries:
        time_mixed_entries()
        return 0
    sha = commit()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, capture in CAPTURES.items():
        if args.only in (None, name):
            payload = {"commit": sha, **capture()}
            with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=0, sort_keys=True)
                fh.write("\n")
            print(f"wrote {GOLDEN_DIR / name}.json at {sha}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
