"""Direct timing of the skein layer's change of basis, for a BENCH_*.json
entry.

    python3 bench/basis.py --out BENCH_x.json [--key basis/direct]

Run from the root of a checkout; the package is imported from ./src and only
public calls are used.  For each hom space below the entry records its
dimension, the time of the first ``HomElement.unbend`` (which builds the
bent columns of the basis and whatever the solve needs), the time of one
warm ``unbend``, and whether both round trips are exact:
``unbend(x).bend() == x`` for random bent x, and ``unbend(h.bend()) == h``
for random hom elements h.  It is merged into --out under --key; other keys
in the file are kept.  The script exits 1 if a round trip is not exact.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from skeinhc.hecke_clifford import AlgebraElement  # noqa: E402
from skeinhc.scalars import QIQ  # noqa: E402
from skeinhc.skein import HomElement, basis_indices  # noqa: E402

PAIRS = [("++-", "++-"), ("+-+", "++-"), ("+--", "-"), ("+++-", "+++-"), ("++--", "++--")]
TERMS = 8
SAMPLES = 3


def random_coeffs(keys, rng) -> dict:
    return {k: QIQ.q ** rng.randint(-2, 2) for k in rng.sample(keys, min(TERMS, len(keys)))}


def measure(source: str, target: str, rng) -> dict:
    keys = basis_indices(source, target)
    m = (len(source) + len(target)) // 2
    bent = [AlgebraElement(m, "even", random_coeffs(keys, rng), QIQ) for _ in range(SAMPLES)]
    homs = [HomElement(source, target, random_coeffs(keys, rng)) for _ in range(SAMPLES)]
    start = time.perf_counter()
    HomElement.unbend(bent[0], source, target)
    first_s = time.perf_counter() - start
    start = time.perf_counter()
    HomElement.unbend(bent[1], source, target)
    warm_s = time.perf_counter() - start
    exact = all(HomElement.unbend(x, source, target).bend() == x for x in bent) and all(
        HomElement.unbend(h.bend(), source, target) == h for h in homs
    )
    return {"dimension": len(keys), "first_unbend_s": first_s, "warm_unbend_s": warm_s,
            "round_trips_exact": exact}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", default="basis/direct")
    args = parser.parse_args()

    rng = random.Random(11)
    entry = {"layer": "skein change of basis", "spaces": {}}
    inexact = []
    for source, target in PAIRS:
        row = measure(source, target, rng)
        entry["spaces"][f"{source}/{target}"] = row
        print(f"{source}/{target}: {json.dumps(row)}", file=sys.stderr)
        if not row["round_trips_exact"]:
            inexact.append(f"{source}/{target}")

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.key] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if inexact:
        print(f"round trip not exact on {inexact}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
