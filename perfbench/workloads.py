"""The three benchmark workloads: seeded inputs, the timed call for one job,
and the checks of each output against goldens and independent oracles.

A session is one fresh worker process that runs a fixed, seeded list of
jobs, one at a time (closed loop, one client).  Memo tables inside skeinhc
persist across the jobs of a session and start empty in the next one.

Job lists are stratified rather than drawn independently: per-job cost
depends mostly on a known property of the input (the pair of basis indices
in skein-mixed; command, strand count and word length in trace-stream), so
giving every session the same mix keeps its median from swinging with the
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import subprocess
import sys
from pathlib import Path

# Jobs call skeinhc through module attributes, so that the functions the
# tracer swaps in are the ones called.
from skeinhc import cli, skein, trace_gram
from skeinhc.combinatorics import dim_end_oracle, dim_hom_formula
from skeinhc.verify import _tl_gram_rank

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
OUT_DIR = Path(__file__).resolve().parent / "out"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(seed: int, session: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{session}")


class Workload:
    """Base class: ``jobs`` is the session's input list; ``run_job`` is the
    timed call and returns (exit status ok, stdout-like text)."""

    name = ""
    in_process = True  # jobs call skeinhc inside the worker process

    def __init__(self, seed: int, session: int, max_jobs: int | None):
        self.seed = seed
        self.jobs = self.make_jobs(seed, session)[:max_jobs]

    def make_jobs(self, seed, session) -> list:
        raise NotImplementedError

    def run_job(self, job, traced: bool, job_id: int) -> tuple[bool, str]:
        raise NotImplementedError

    def job_input(self, job):
        """What the program receives for a job, for the inputs digest."""
        return job

    def check(self, job, output: str) -> bool:
        """Golden comparison of one job's output (untimed)."""
        raise NotImplementedError

    def oracle_failures(self, outputs: list) -> list[str]:
        """Independent checks run after the timed loop; each message found
        makes every job of the session count as failed."""
        return []

    def extra(self, outputs: list) -> dict:
        return {}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_metrics(self) -> dict | None:
        """Per-layer numbers recorded by traced job processes."""
        return None


# ---------------------------------------------------------------------------
# gram-end3: the paper's headline computation, one fresh interpreter per job.

GRAM_SPECS = tuple(range(2, 9))
GRAM_RANKS = {"2": 4, "3": 16, "4": 24, "5": 24, "6": 24, "7": 24, "8": 24}
GRAM_GENERIC_RANK = 24


def gram_argv(specs) -> list[str]:
    argv = ["gram", "--source", "+++", "--target", "+++"]
    for N in specs:
        argv += ["--spec", str(N)]
    return argv + ["--generic", "--format", "json"]


class GramEnd3(Workload):
    """``skeinhc gram --source +++ --target +++ --spec 2..8 --generic``.

    The seed orders the --spec flags; the printed ranks are keyed and
    sorted, so every order must print the golden bytes."""

    name = "gram-end3"
    in_process = False

    def __init__(self, seed, session, max_jobs):
        super().__init__(seed, session, max_jobs)
        self.golden = load_golden("gram_end3")
        self._trace_files = []

    def make_jobs(self, seed, session):
        specs = list(GRAM_SPECS)
        _rng(seed, session, self.name).shuffle(specs)
        return [gram_argv(specs)]

    def run_job(self, job, traced, job_id):
        cmd = [sys.executable]
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            prefix = OUT_DIR / f"{self.name}-seed{self.seed}-job{job_id}"
            self._trace_files.append(prefix.with_suffix(".json"))
            cmd += [str(Path(__file__).with_name("tracer.py")), str(prefix), str(job_id), "--"]
        else:
            cmd += ["-m", "skeinhc.cli"]
        proc = subprocess.run(cmd + job, capture_output=True, text=True)
        return proc.returncode == 0, proc.stdout

    def check(self, job, output):
        return sha256(output) == self.golden["stdout_sha256"]

    def oracle_failures(self, outputs):
        problems = []
        dim = dim_hom_formula("+++", "+++")
        if dim != dim_end_oracle(3):
            problems.append(f"dim_hom_formula {dim} != dim_end_oracle(3)")
        tl_rank = _tl_gram_rank(3)
        for text in set(outputs):
            try:
                payload = json.loads(text)
            except ValueError:
                problems.append("gram output is not JSON")
                continue
            if payload.get("dimension") != dim:
                problems.append(f"dimension {payload.get('dimension')} != {dim}")
            if payload.get("ranks") != GRAM_RANKS:
                problems.append(f"ranks {payload.get('ranks')} != {GRAM_RANKS}")
            if payload.get("generic_rank") != GRAM_GENERIC_RANK:
                problems.append(f"generic rank {payload.get('generic_rank')}")
            if payload.get("ranks", {}).get("2") != tl_rank:
                problems.append(f"N=2 rank differs from the Temperley-Lieb rank {tl_rank}")
        return problems

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def trace_metrics(self):
        if not self._trace_files:
            return None
        merged: dict = {}
        for path in self._trace_files:
            with open(path, encoding="utf-8") as fh:
                for name, value in json.load(fh).items():
                    merged[name] = merged.get(name, 0) + value
            path.unlink()
        return merged


# ---------------------------------------------------------------------------
# skein-mixed: off-diagonal entries of the 24-dimensional ++- Gram matrix.

MIXED_SIG = "++-"
MIXED_PAIRS_PER_SESSION = 24


def mixed_entry(basis: list, j: int, k: int) -> str:
    bj = skein.hom_basis_element(MIXED_SIG, MIXED_SIG, basis[j])
    rk = skein.hom_basis_element(MIXED_SIG, MIXED_SIG, basis[k]).rotate_180()
    return str(trace_gram.markov_trace(bj.compose(rk).bend()))


def stratified_pairs(rng: random.Random, cost: list, count: int) -> list:
    """``count`` pairs (j, k), j < k, whose 2 * count entries (j, k) and
    (k, j) fall exactly twice into each of ``count`` equal strata of entry
    cost.  Randomised greedy with restarts; on the ++- costs it needs a few
    restarts at most."""
    size = len(cost)
    entries = sorted(
        ((j, k) for j in range(size) for k in range(size) if j != k),
        key=lambda e: (cost[e[0]][e[1]], e),
    )
    stratum = {e: i * count // len(entries) for i, e in enumerate(entries)}
    pairs = [(j, k) for j in range(size) for k in range(j + 1, size)]
    for _ in range(10_000):
        rng.shuffle(pairs)
        fill = [0] * count
        chosen = []
        for j, k in pairs:
            a, b = stratum[j, k], stratum[k, j]
            fill[a] += 1
            fill[b] += 1
            if fill[a] > 2 or fill[b] > 2:
                fill[a] -= 1
                fill[b] -= 1
                continue
            chosen.append((j, k))
            if len(chosen) == count:
                return chosen
    raise RuntimeError("no stratified sample of pairs found")


class SkeinMixed(Workload):
    """Entry (j, k) is tr(rot(b_k) o b_j), computed with exactly the calls
    ``gram_matrix`` makes for a mixed signature.  Each sampled pair is
    computed in both orders, one order right after the other.

    Entry costs span three orders of magnitude, and the two orders of one
    pair often differ tenfold, so a plain random sample of pairs gives a
    median that swings with the seed.  A session instead draws 24 pairs
    whose 48 entries fall twice into each of 24 strata of the entry cost
    recorded with the goldens."""

    name = "skein-mixed"

    def __init__(self, seed, session, max_jobs):
        self.basis = skein.basis_indices(MIXED_SIG, MIXED_SIG)
        golden = load_golden("skein_mixed")
        self.golden = golden["entries"]
        self.cost = golden["cost_ms"]
        super().__init__(seed, session, max_jobs)

    def make_jobs(self, seed, session):
        rng = _rng(seed, session, self.name)
        pairs = stratified_pairs(rng, self.cost, MIXED_PAIRS_PER_SESSION)
        jobs = []
        for j, k in pairs:
            jobs += [(j, k), (k, j)] if rng.random() < 0.5 else [(k, j), (j, k)]
        return jobs

    def run_job(self, job, traced, job_id):
        return True, mixed_entry(self.basis, *job)

    def check(self, job, output):
        j, k = job
        return output == self.golden[j][k]

    def oracle_failures(self, outputs):
        dim = len(self.basis)
        if dim == dim_hom_formula(MIXED_SIG, MIXED_SIG) == dim_end_oracle(3):
            return []
        return [f"basis size {dim} disagrees with dim_hom_formula or dim_end_oracle(3)"]

    def extra(self, outputs):
        """Known defect: the ++- Gram matrix is not symmetric.  Counted over
        the pairs whose two orders were both computed."""
        value = {job: out for job, out in zip(self.jobs, outputs)}
        pairs = {tuple(sorted(job)) for job in value}
        both = [(j, k) for j, k in pairs if (j, k) in value and (k, j) in value]
        asym = sum(value[j, k] != value[k, j] for j, k in both)
        return {"gram_asym_pairs": asym, "gram_pairs_sampled": len(both)}


# ---------------------------------------------------------------------------
# trace-stream: many short CLI queries in one library session.

STREAM_NS = (2, 3, 4)
STREAM_LENGTHS = tuple(range(5, 11))
# Jobs per (command, n, length) cell in one session, and in the golden pool.
STREAM_PER_SESSION = {"trace": 12, "normalize": 4}
STREAM_POOL_FACTOR = 4
STREAM_POOL_SEED = 20250313


def _random_word(rng: random.Random, n: int, length: int, clifford: bool) -> str:
    kinds = ["t", "t'", "e"] + (["v"] if clifford else [])
    letters = [rng.choice(kinds) for _ in range(length)]
    if clifford and "v" not in letters:
        letters[rng.randrange(length)] = "v"
    out = []
    for kind in letters:
        if kind == "v":
            out.append(f"v{rng.randint(1, n)}")
        else:
            out.append(f"{kind[0]}{rng.randint(1, n - 1)}{kind[1:]}")
    return " ".join(out)


def stream_cell(command: str, n: int, length: int) -> str:
    return f"{command}/n={n}/len={length}"


def stream_pool() -> list[dict]:
    """The fixed query pool that the goldens cover: per cell, distinct
    queries; trace words use t, t' and e only, normalize words contain at
    least one Clifford letter v."""
    rng = random.Random(STREAM_POOL_SEED)
    pool = []
    for command, per_session in STREAM_PER_SESSION.items():
        for n in STREAM_NS:
            for length in STREAM_LENGTHS:
                cell = stream_cell(command, n, length)
                seen: set = set()
                while len(seen) < per_session * STREAM_POOL_FACTOR:
                    word = _random_word(rng, n, length, clifford=command == "normalize")
                    argv = [command, "--n", str(n), "--word", word]
                    if command == "trace":
                        argv += ["--spec", str(rng.randint(2, 8))]
                    if word in seen:
                        continue
                    seen.add(word)
                    pool.append({"cell": cell, "argv": argv})
    return pool


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


class TraceStream(Workload):
    """About three quarters ``trace --n n --word w --spec N`` and one
    quarter ``normalize`` on Clifford words, through ``cli.main`` in
    process, in seeded order."""

    name = "trace-stream"

    def __init__(self, seed, session, max_jobs):
        self.pool = load_golden("trace_stream")["queries"]
        super().__init__(seed, session, max_jobs)

    def make_jobs(self, seed, session):
        rng = _rng(seed, session, self.name)
        cells: dict = {}
        for index, query in enumerate(self.pool):
            cells.setdefault(query["cell"], []).append(index)
        jobs = []
        for cell, indices in sorted(cells.items()):
            jobs += rng.sample(indices, STREAM_PER_SESSION[cell.split("/")[0]])
        rng.shuffle(jobs)
        return jobs

    def job_input(self, job):
        return self.pool[job]["argv"]

    def run_job(self, job, traced, job_id):
        code, out = run_cli(self.pool[job]["argv"])
        return code == 0, out

    def check(self, job, output):
        return sha256(output) == self.pool[job]["stdout_sha256"]


WORKLOADS = {cls.name: cls for cls in (GramEnd3, SkeinMixed, TraceStream)}
