"""Interleaved before/after runs of a perfbench workload, summarised for a
BENCH_*.json entry.

    python3 bench/compare.py --before DIR --after DIR --workload W \
        --seed S --pairs K [--seconds 36] [--trace] --out BENCH_x.json

DIR are two checkouts (say, the parent commit and the change, each a plain
copy of the tree).  Each pair runs ``python3 perfbench/run.py`` once from
the root of each checkout, alternating which side runs first, so that slow
and fast phases of a shared machine fall on both sides alike.  The entry
records, for every metric, the per-run values, the median and quartiles of
each side, and in how many pairs ``after`` beat ``before``.  Entries are
merged into --out under the key ``<workload>/seed<S>`` (``/trace`` added for
--trace runs); other keys in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Direction of each end-to-end metric; traced (per-layer) metrics are all
# "lower is better" except hit ratios.
HIGHER_IS_BETTER = {"jobs_per_s", "memo.reduced_word.hit_ratio"}


def run_once(checkout: Path, args) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: outputs did not match: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    runs = {"before": [], "after": []}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
            print(f"pair {pair} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr)

    metrics = {}
    for name in runs["before"][0]:
        before = [r[name] for r in runs["before"]]
        after = [r[name] for r in runs["after"]]
        higher = name in HIGHER_IS_BETTER
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        metrics[name] = {
            "better": "higher" if higher else "lower",
            "before": summary(before),
            "after": summary(after),
            "after_wins": f"{wins}/{len(before)}",
        }
    key = f"{args.workload}/seed{args.seed}" + ("/trace" if args.trace else "")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[key] = {"pairs": args.pairs, "seconds": args.seconds, "metrics": metrics}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
