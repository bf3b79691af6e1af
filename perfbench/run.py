"""skeinhc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads (see perfbench/README.md): gram-end3, skein-mixed, trace-stream.

Each session is a fresh worker process with a fixed, seeded job list, run
closed loop by one client.  With --trace 0, sessions repeat (with new
inputs from the same seed) while the next one is expected to end within
--seconds; at least one runs.  Set-up is timed on every session and on
extra start-ups until there are nine, and its median is reported.  With
--trace 1, session 0 runs once untraced and once traced; the per-layer
numbers come from the traced one and the overhead is the difference of
the two job medians.

Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  Exit status 0
means a result was printed (``correct`` says whether every output matched
its golden and oracles); any other status means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer  # noqa: E402  (imports no skeinhc code)

WORKLOADS = ("gram-end3", "skein-mixed", "trace-stream")
OVERHEAD = ("tracing.overhead.job_p50_s", "s")
MIN_SETUPS = 9
STOP_AFTER_S = 120  # no job starts later than this into the run
KILL_AFTER_S = 170  # a worker still running then is killed; no result


class BenchError(Exception):
    pass


def _kill(proc):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


class Run:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.start = time.perf_counter()
        self.worker = None  # the running worker, killed if the run is stopped
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _spawn(self, session: int, traced: bool):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--session", str(session),
            "--stop-after", str(max(0.0, STOP_AFTER_S - self.elapsed())),
        ]
        if self.args.max_jobs is not None:
            cmd += ["--max-jobs", str(self.args.max_jobs)]
        if traced:
            cmd.append("--traced")
        t0 = time.perf_counter()
        # Its own process group, so that a kill also reaches the job
        # processes a gram-end3 worker starts.
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, text=True, start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.worker = proc
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("worker did not start")
        return proc, setup

    def _finish(self, proc, command: str) -> str:
        try:
            out, _ = proc.communicate(command + "\n", timeout=KILL_AFTER_S - self.elapsed())
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the time limit and was killed")
        self.worker = None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
        return out

    def session(self, index: int, traced: bool = False):
        proc, setup = self._spawn(index, traced)
        lines = self._finish(proc, "go").strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1]), setup

    def setup_only(self, index: int) -> float:
        proc, setup = self._spawn(index, traced=False)
        self._finish(proc, "quit")
        return setup


def tail(values: list, session_size: int):
    """The tail percentile is the highest whole percentile that leaves at
    least ten samples beyond it in a single session, so it is the same in
    every run of a workload however many sessions fit.  Returns (value,
    percentile, samples beyond)."""
    pct = 100 if session_size <= 10 else math.floor(100 * (session_size - 10) / session_size)
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[index], pct, len(ordered) - 1 - index


def count_failed(results: list) -> int:
    failed = 0
    for res in results:
        failed += len(res["latencies"]) if res["oracle_failures"] else len(res["failed_jobs"])
    return failed


def report(lines: list, metrics: dict, correct: bool, attempted: int, failed: int):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def describe(results: list) -> list:
    lines = []
    for index, res in enumerate(results):
        for problem in res["oracle_failures"]:
            lines.append(f"oracle failure in session {index}: {problem}")
        if res["failed_jobs"]:
            lines.append(f"session {index}: failed jobs {res['failed_jobs']}")
    first = results[0]
    lines.append(f"inputs_sha256 {first['inputs_sha256']} (session 0)")
    lines.append(f"outputs_sha256 {first['outputs_sha256']} (session 0)")
    asym = [res["extra"] for res in results if "gram_asym_pairs" in res["extra"]]
    if asym:
        lines.append(
            f"gram_asym_pairs {sum(e['gram_asym_pairs'] for e in asym)} count "
            f"(of {sum(e['gram_pairs_sampled'] for e in asym)} sampled pairs; "
            "known defect: the ++- Gram matrix is not symmetric)"
        )
    return lines


def run_untraced(run: Run) -> None:
    results, setups = [], []
    while True:
        begin = run.elapsed()
        res, setup = run.session(len(results))
        results.append(res)
        setups.append(setup)
        last = run.elapsed() - begin
        if run.elapsed() + last > run.args.seconds or run.elapsed() > STOP_AFTER_S:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run.setup_only(len(results) + len(setups)))

    latencies = [x for res in results for x in res["latencies"]]
    attempted = len(latencies)
    failed = count_failed(results)
    session_size = max(len(res["latencies"]) for res in results)
    tail_value, pct, beyond = tail(latencies, session_size)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "jobs_per_s": (attempted / sum(res["loop_s"] for res in results), "1/s"),
        "peak_rss_mb": (max(res["peak_rss_kb"] for res in results) / 1024, "MB"),
    }
    lines = [
        f"workload {run.args.workload} seed {run.args.seed}: {len(results)} sessions, "
        f"{attempted} jobs, closed loop, 1 client",
        f"setup_s is the median of {len(setups)} set-ups",
        f"job_tail_s is p{pct} of {attempted} jobs ({beyond} samples beyond it)",
        f"failed_share {failed / attempted!r} share ({failed} of {attempted})",
    ] + describe(results)
    report(lines, metrics, failed == 0, attempted, failed)


def run_traced(run: Run) -> None:
    plain, _ = run.session(0)
    traced, _ = run.session(0, traced=True)
    results = [plain, traced]
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    failed = count_failed(results)
    metrics = per_layer(traced["layers"] or {})
    overhead = statistics.median(traced["latencies"]) - statistics.median(plain["latencies"])
    metrics[OVERHEAD[0]] = (overhead, OVERHEAD[1])
    lines = [
        f"workload {run.args.workload} seed {run.args.seed}: session 0 untraced, then traced",
        f"{OVERHEAD[0]} is traced minus untraced job median "
        f"({statistics.median(traced['latencies'])!r} - {statistics.median(plain['latencies'])!r})",
        f"spans written under {HERE / 'out'}",
        f"failed_share {failed / attempted!r} share ({failed} of {attempted})",
    ] + describe(results)
    report(lines, metrics, failed == 0, attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-jobs", type=int,
        help="cap the jobs of each session (for the benchmark's self-test)",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "skeinhc" / "__init__.py").is_file():
        print("perfbench: no src/skeinhc here; run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(root, args)
    signal.signal(signal.SIGTERM, _stop)
    try:
        (run_traced if args.trace else run_untraced)(run)
    except BenchError as exc:
        if run.worker is not None:
            _kill(run.worker)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
