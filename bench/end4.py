"""Direct timing of the End(+^4) Gram matrix and its ranks, for a
BENCH_*.json entry.

    python3 bench/end4.py --out BENCH_x.json [--spec 2 ... 8]

Run from the root of a checkout; the package is imported from ./src.  The
entry records the assembly time of ``gram_matrix('++++', '++++')``, whether
the matrix is symmetric, for each N the rank at q = zeta_4N with its time
and the path-count prediction ``rank_oracle(4, N)``, and the certified
generic rank with its time.  It also times the trace vector of End(+^5)
from cold caches, building every right-action row of End(+^5) (each basis
monomial times each t_j and e_j) and assembling the full
``gram_matrix('++-', '++-')``.  It is merged into --out under the key
``end4/direct``; other keys in the file are kept.  The script exits 1 if a
rank differs from its prediction.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from skeinhc.combinatorics import rank_oracle  # noqa: E402
from skeinhc.hecke_clifford import (  # noqa: E402
    _ladder_moves,
    _right_action,
    basis_keys_even,
)
from skeinhc.scalars import QIQ  # noqa: E402
from skeinhc.trace_gram import (  # noqa: E402
    _close_monomial,
    _trace_vector,
    gram_matrix,
    gram_rank,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spec", type=int, nargs="+", default=list(range(2, 9)))
    args = parser.parse_args()

    start = time.perf_counter()
    report = gram_matrix("++++", "++++")
    entry = {"assembly_s": time.perf_counter() - start, "dimension": report.dimension}
    n = report.dimension
    entry["symmetric"] = all(
        report.entries[j][k] == report.entries[k][j] for j in range(n) for k in range(j)
    )
    entry["ranks"] = {}
    mismatches = []
    for N in args.spec:
        start = time.perf_counter()
        rank = gram_rank(report, N)
        seconds = time.perf_counter() - start
        oracle = rank_oracle(4, N)
        entry["ranks"][str(N)] = {"rank": rank, "oracle": oracle, "seconds": seconds}
        print(f"N={N}: rank {rank}, oracle {oracle}", file=sys.stderr)
        if rank != oracle:
            mismatches.append(N)
    entry["spec_total_s"] = sum(r["seconds"] for r in entry["ranks"].values())
    start = time.perf_counter()
    entry["generic_rank"] = gram_rank(report, "generic")
    entry["generic_rank_s"] = time.perf_counter() - start

    start = time.perf_counter()
    letters = [(kind, j) for j in range(4) for kind in ("t", "e")]
    rows = [_right_action(*key, g, QIQ) for key in basis_keys_even(5) for g in letters]
    entry["end5_action_rows"] = len(rows)
    entry["end5_action_rows_s"] = time.perf_counter() - start
    start = time.perf_counter()
    gram_matrix("++-", "++-")
    entry["gram_mixed3_s"] = time.perf_counter() - start
    for table in (_close_monomial, _ladder_moves, _right_action, _trace_vector):
        table.cache_clear()
    start = time.perf_counter()
    _trace_vector(5, QIQ)
    entry["end5_trace_vector_cold_s"] = time.perf_counter() - start

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["end4/direct"] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps(entry))
    if mismatches:
        print(f"rank differs from rank_oracle(4, N) at N = {mismatches}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
