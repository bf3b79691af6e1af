"""Self-test of the benchmark: each workload at a tiny size.

    python3 -m pytest perfbench/tests -q

Takes about two minutes, most of it two gram-end3 jobs of ~20 s each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, load_golden, sha256  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"gram-end3": 1, "skein-mixed": 4, "trace-stream": 12}
SEED = 3


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--max-jobs", str(TINY[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    return res


def digests(proc: subprocess.CompletedProcess) -> list:
    return [line for line in proc.stdout.splitlines() if "_sha256 " in line]


def copy_checkout(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def alter_first_golden(checkout: Path, workload: str):
    """Change the golden of session 0's first job so that it cannot match."""
    job = WORKLOADS[workload](SEED, 0, TINY[workload]).jobs[0]
    goldens = checkout / "perfbench" / "goldens"
    name = workload.replace("-", "_")
    data = load_golden(name)
    if workload == "gram-end3":
        data["stdout_sha256"] = sha256("altered")
    elif workload == "skein-mixed":
        j, k = job
        data["entries"][j][k] += " + 1"
    else:
        data["queries"][job]["stdout_sha256"] = sha256("altered")
    (goldens / f"{name}.json").write_text(json.dumps(data))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_failures_and_determinism(workload, tmp_path):
    plain = bench(ROOT, workload, 0)
    res = result(plain)
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in plain.stdout.splitlines()), name
    assert any(line.startswith("failed_share 0.0 share") for line in plain.stdout.splitlines())
    if workload == "skein-mixed":
        assert "gram_asym_pairs " in plain.stdout

    checkout = copy_checkout(tmp_path)
    alter_first_golden(checkout, workload)
    altered = bench(checkout, workload, 0)
    res = result(altered)
    assert not res["correct"] and res["failed"] >= 1
    assert f"failed_share {res['failed'] / res['attempted']!r} share" in altered.stdout
    # Same seed: same inputs and same program outputs, golden or not.
    assert digests(altered) == digests(plain) and len(digests(plain)) == 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run(workload):
    runs = [result(bench(ROOT, workload, 1)) for _ in range(1 if workload == "gram-end3" else 2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if k.endswith((".calls", ".entries"))}
        for res in runs
    ]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["trace_gram.markov_trace.calls"] > 0


def test_refuses_without_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
