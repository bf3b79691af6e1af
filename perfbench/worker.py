"""One benchmark session in a fresh interpreter.

Protocol with run.py, on this process's stdin and stdout: after importing
skeinhc, generating the session's inputs and loading the goldens, the
worker prints ``ready``; it then reads one line, ``go`` or ``quit``.  On
``go`` it runs every job of the session in order, checks the outputs, and
prints one JSON line with the per-job latencies and the check results.

    python3 perfbench/worker.py --workload W --seed N --session I [--traced]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from tracer import Tracer
from workloads import OUT_DIR, WORKLOADS  # imports skeinhc: part of set-up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session", type=int, required=True)
    parser.add_argument("--max-jobs", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--stop-after", type=float, default=float("inf"),
        help="start no job after this many seconds (a guard, not a budget)",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.session, args.max_jobs)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.traced and workload.in_process:
        tracer = Tracer()
        tracer.install()
    latencies, outputs, bad = [], [], []
    clock = time.perf_counter
    loop_start = clock()
    for job_id, job in enumerate(workload.jobs):
        if clock() - loop_start > args.stop_after:
            break
        if tracer is not None:
            tracer.job = job_id
        start = clock()
        try:
            ok, output = workload.run_job(job, args.traced, job_id)
        except Exception as exc:  # a job that raises is a failed job
            ok, output = False, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        outputs.append(output)
        if not (ok and workload.check(job, output)):
            bad.append(job_id)
    loop_s = clock() - loop_start

    inputs = [workload.job_input(job) for job in workload.jobs[: len(outputs)]]
    result = {
        "latencies": latencies,
        "loop_s": loop_s,
        "failed_jobs": bad,
        "oracle_failures": workload.oracle_failures(outputs),
        "peak_rss_kb": workload.peak_rss_kb(),
        "inputs_sha256": hashlib.sha256(json.dumps(inputs).encode()).hexdigest(),
        "outputs_sha256": hashlib.sha256("\0".join(outputs).encode()).hexdigest(),
        "extra": workload.extra(outputs),
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
        result["layers"] = tracer.metrics()
    elif args.traced:
        result["layers"] = workload.trace_metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
