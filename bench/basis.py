"""Direct timing of the skein layer's change of basis, for a BENCH_*.json
entry.

    python3 bench/basis.py --out BENCH_x.json [--key basis/direct]

Run from the root of a checkout; the package is imported from ./src and only
public calls are used, chosen so that they do the same work whether a
morphism is stored by coordinates or by its bent element.  For each hom
space below the entry records its dimension; the time of the first
``HomElement.unbend(x, s, t).coeffs`` (which builds the bent columns of the
basis and whatever the solve needs, then solves); the time of one warm such
solve; the time of one warm ``HomElement(s, t, c).bend()`` (a product with
the columns); and whether both round trips through coordinates are exact:
``HomElement(s, t, h.coeffs) == h`` for random hom elements h, and
``HomElement(s, t, unbend(x).coeffs).bend() == x`` for random bent x.  A
last row times the tensor product of random elements of +-/+- and +--/-,
whose result lies in the 5-strand hom space +-+--/+--.  It is merged into
--out under --key; other keys in the file are kept.  The script exits 1 if
a round trip is not exact.
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
TENSOR = (("+-", "+-"), ("+--", "-"))
TERMS = 8
SAMPLES = 3


def random_coeffs(keys, rng) -> dict:
    return {k: QIQ.q ** rng.randint(-2, 2) for k in rng.sample(keys, min(TERMS, len(keys)))}


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measure(source: str, target: str, rng) -> dict:
    keys = basis_indices(source, target)
    m = (len(source) + len(target)) // 2
    bent = [AlgebraElement(m, "even", random_coeffs(keys, rng), QIQ) for _ in range(SAMPLES)]
    coords = [random_coeffs(keys, rng) for _ in range(SAMPLES)]
    _, first_s = timed(lambda: HomElement.unbend(bent[0], source, target).coeffs)
    _, warm_s = timed(lambda: HomElement.unbend(bent[1], source, target).coeffs)
    _, bend_s = timed(lambda: HomElement(source, target, coords[0]).bend())
    homs = [HomElement(source, target, c) for c in coords]
    exact = all(HomElement(source, target, h.coeffs) == h for h in homs) and all(
        HomElement(source, target, HomElement.unbend(x, source, target).coeffs).bend() == x
        for x in bent
    )
    return {"dimension": len(keys), "first_coeffs_s": first_s, "warm_coeffs_s": warm_s,
            "warm_bend_s": bend_s, "round_trips_exact": exact}


def measure_tensor(rng) -> dict:
    a, b = (HomElement(s, t, random_coeffs(basis_indices(s, t), rng)) for s, t in TENSOR)
    product, seconds = timed(lambda: a.tensor(b))
    return {"factors": [f"{s}/{t}" for s, t in TENSOR], "tensor_s": seconds,
            "bent_terms": len(product.bend().terms)}


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
    entry["tensor"] = measure_tensor(rng)
    print(f"tensor: {json.dumps(entry['tensor'])}", file=sys.stderr)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.key] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if inexact:
        print(f"round trip not exact on {inexact}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
