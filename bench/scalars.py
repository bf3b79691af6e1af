"""Direct timing of ScalarQ products, sums, negations, printing and
specialization, for a BENCH_*.json entry.

    python3 bench/scalars.py --out BENCH_x.json [--key scalars/direct]

Run from the root of a checkout; the package is imported from ./src, so the
same script times any checkout that has the private helpers it reads
(``_canonical``, ``_gmul``, ``_comb``, ``_exponents``, ``ScalarQ._jk``,
``_right_action``, ``CyclotomicField._image``).  The operand mix is fixed
and seeded:

* action coefficients: every coefficient of the ``_right_action`` rows of
  t_j, t_j^(-1) and e_j on the even basis of 4 strands (mostly 1 and -1);
* state coefficients: the coefficients of ``normalize`` of random t and e
  words on 4 strands (Laurent polynomials over Z[i] over q^k);
* other values, one in ten states: Markov traces of random words and the
  distinct End(+^4) trace-vector entries, whose denominators are
  q^j (q^2 - 1)^k, the loop value and its powers up to the fourth, and
  1/(2q).

Products are state times action coefficient, as in the even action; sums
add a product to another state; negations negate each product.  ``str``
prints every state, and ``specialize`` sends every state, and separately
every state over q^j (q^2 - 1)^k with k > 0, to q = zeta_32 (N = 8), with no
inverses shared between calls, as in ``trace --spec``.  Each list is timed
REPEATS times and the fastest run is kept.  Every product, sum and negation
is then compared with ``_canonical`` applied to the unreduced parts, and
its carried exponents ``_jk`` with ``_exponents`` of its denominator (as
are those of every parsed string); every string with ``parse_scalar`` of
it and with a text built here from the int parts ``_parts``; every image
with the image of the
numerator times the ``CyclotomicValue.inv`` of the image of the
denominator.  The script exits 1 on any mismatch.  The entry is merged into
--out under --key; other keys in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from skeinhc.hecke_clifford import _right_action, all_perms, normalize  # noqa: E402
from skeinhc.scalars import (  # noqa: E402
    QIQ,
    CyclotomicField,
    CyclotomicValue,
    ScalarQ,
    _canonical,
    _comb,
    _exponents,
    _gmul,
    loop_value,
    parse_scalar,
    specialize,
)
from skeinhc.trace_gram import _trace_vector, markov_trace  # noqa: E402

STRANDS = 4
WORDS = 40
WORD_LENGTH = 6
OPERATIONS = 20_000
REPEATS = 5
SPEC_N = 8


def random_word(rng) -> list:
    letters = []
    for _ in range(WORD_LENGTH):
        j = rng.randrange(STRANDS - 1)
        kind = rng.choice("tte")
        letters.append(("t", j, rng.choice((1, -1))) if kind == "t" else ("e", j))
    return letters


def operands(rng) -> tuple:
    actions = [
        c
        for w in all_perms(STRANDS)
        for s in range(1 << (STRANDS - 1))
        for j in range(STRANDS - 1)
        for letter in (("t", j), ("t", j, -1), ("e", j))
        for _key, c in _right_action(w, s, letter, QIQ)
    ]
    words = [random_word(rng) for _ in range(WORDS)]
    states = [c for word in words for c in normalize(word, STRANDS).terms.values()]
    others = [markov_trace(normalize(random_word(rng), STRANDS)) for _ in range(8)]
    others += sorted(set(_trace_vector(STRANDS, QIQ)), key=str)
    others += [loop_value() ** k for k in range(1, 5)] + [ScalarQ(1) / (2 * QIQ.q)]
    for k in range(0, len(states), 10):
        states[k] = others[k // 10 % len(others)]
    return actions, states


def denominator_kind(x: ScalarQ) -> str:
    """"laurent" for a denominator q^j, "family" for q^j (q^2 - 1)^k with
    k > 0, else "other" (read from the parts, so that every checkout can be
    timed)."""
    dr, di = x._parts[2:]
    j = next(k for k, c in enumerate(dr) if c)
    z = (1,)
    while len(z) < len(dr) - j:
        z = tuple(a - b for a, b in zip((0, 0, *z), (*z, 0, 0)))
    if di or dr[j:] != z:
        return "other"
    return "laurent" if len(z) == 1 else "family"


def parts_text(x: ScalarQ) -> str:
    """str(x) rendered from the int parts (nr + i*ni)/(dr + i*di) of x, each
    coefficient divided by the lead L of dr, highest power of q first."""
    nr, ni, dr, di = x._parts
    lead = dr[-1]

    def coeff(a: int, b: int) -> str:
        re, im = Fraction(a, lead), Fraction(b, lead)
        if not im:
            return str(re)
        i = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if not re:
            return i if im > 0 else f"-{i}"
        return f"{re} {'+' if im > 0 else '-'} {i}"

    def poly(re: tuple, im: tuple) -> str:
        out = ""
        for k in range(max(len(re), len(im)) - 1, -1, -1):
            a, b = re[k] if k < len(re) else 0, im[k] if k < len(im) else 0
            if a or b:
                cs = f"({coeff(a, b)})" if a and b and k else coeff(a, b)
                if k:
                    mon = "q" if k == 1 else f"q^{k}"
                    cs = mon if cs == "1" else f"-{mon}" if cs == "-1" else f"{cs}*{mon}"
                out += cs if not out else f" - {cs[1:]}" if cs[0] == "-" else f" + {cs}"
        return out or "0"

    num = poly(nr, ni)
    if len(dr) == 1:
        return num
    if max(len(nr), len(ni)) > 1 or (nr and ni):
        num = f"({num})"
    return f"{num}/({poly(dr, di)})"


def quotient_image(x: ScalarQ, field: CyclotomicField) -> CyclotomicValue:
    """The image of x at q = zeta as image(numerator) * image(denominator)^-1."""
    nr, ni, dr, di = x._parts
    num = CyclotomicValue(field.order, field._image(nr, ni), 1)
    return num * CyclotomicValue(field.order, field._image(dr, di), 1).inv()


def fastest(fn) -> tuple:
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def unreduced(op: str, a: ScalarQ, b: ScalarQ | None) -> tuple:
    """The parts of the result of op before any reduction."""
    nr, ni, dr, di = a._parts
    if op == "neg":
        return _comb(-1, nr, 0, ()), _comb(-1, ni, 0, ()), dr, di
    onr, oni, odr, odi = b._parts
    den = _gmul(dr, di, odr, odi)
    if op == "mul":
        return (*_gmul(nr, ni, onr, oni), *den)
    (ar, ai), (br, bi) = _gmul(nr, ni, odr, odi), _gmul(onr, oni, dr, di)
    return _comb(1, ar, 1, br), _comb(1, ai, 1, bi), *den


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", default="scalars/direct")
    args = parser.parse_args()

    rng = random.Random(13)
    actions, states = operands(rng)
    pairs = [(rng.choice(states), rng.choice(actions)) for _ in range(OPERATIONS)]
    products, mul_s = fastest(lambda: [a * b for a, b in pairs])
    addends = [(p, rng.choice(states)) for p in products]
    sums, add_s = fastest(lambda: [a + b for a, b in addends])
    negations, neg_s = fastest(lambda: [-a for a in products])
    kinds = [denominator_kind(s) for s in states]
    family = [s for s, kind in zip(states, kinds) if kind == "family"]
    texts, str_s = fastest(lambda: [str(s) for s in states])
    images, spec_s = fastest(lambda: [specialize(s, SPEC_N) for s in states])
    family_images, family_s = fastest(lambda: [specialize(s, SPEC_N) for s in family])

    checks = [("mul", pairs, products), ("add", addends, sums),
              ("neg", [(a, None) for a in products], negations)]
    arithmetic = sum(
        result._parts != _canonical(*unreduced(op, a, b))
        for op, operand_pairs, results in checks
        for (a, b), result in zip(operand_pairs, results)
    )
    distinct = dict(zip(states, texts))
    parsed = {s: parse_scalar(text) for s, text in distinct.items()}
    text_mismatches = sum(
        text != parts_text(s) or parsed[s] != s for s, text in distinct.items()
    )
    exponent_mismatches = sum(
        x._jk != _exponents(*x._parts[2:])
        for x in [*products, *sums, *negations, *parsed.values()]
    )
    field = CyclotomicField(SPEC_N)
    quotients = {s: quotient_image(s, field) for s in distinct}
    image_mismatches = sum(
        image != quotients[s]
        for values, results in ((states, images), (family, family_images))
        for s, image in zip(values, results)
    )
    mismatches = arithmetic + exponent_mismatches + text_mismatches + image_mismatches
    units = sum(c in (1, -1) for c in actions)
    entry = {
        "layer": "scalar arithmetic",
        "operands": {"action_coefficients": len(actions), "unit_actions": units,
                     "states": len(states), "distinct_states": len(distinct),
                     "laurent_states": kinds.count("laurent"),
                     "family_states": kinds.count("family")},
        "products": {"ops": len(pairs), "seconds": mul_s},
        "sums": {"ops": len(addends), "seconds": add_s},
        "negations": {"ops": len(products), "seconds": neg_s},
        "str": {"ops": len(states), "seconds": str_s, "mismatches": text_mismatches},
        "specialize": {"N": SPEC_N, "ops": len(states), "seconds": spec_s},
        "specialize_family": {"N": SPEC_N, "ops": len(family), "seconds": family_s},
        "exponent_mismatches": exponent_mismatches,
        "mismatches": mismatches,
    }
    print(json.dumps(entry), file=sys.stderr)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.key] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if mismatches:
        print(f"{mismatches} results differ from their oracles", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
