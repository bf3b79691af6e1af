"""Mutation check of the tier-1 tests.

    python3 bench/mutants.py

Each entry of MUTANTS is one textual change to the package: a file under
src/skeinhc, a snippet that must occur there exactly once, and its
replacement.  For each, the checkout (without .git and caches) is copied to
a temporary directory, the mutant is applied to the copy, and the tier-1
tests run there with -x.  A mutant that the tests do not fail survives.
The script prints one line per mutant and exits 1 if any mutant survives
or a snippet is no longer found.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # a mutant that hangs the tests counts as failed by them

MUTANTS = [
    ("_family without the q-power strip", "scalars.py",
     "    shift = min(_low(nr), _low(ni), j)\n",
     "    shift = 0\n"),
    ("specialize without the -k shift", "scalars.py",
     "field._image(nr, ni, -jk[0] - jk[1])",
     "field._image(nr, ni, -jk[0])"),
    ("_ladder_moves multiplying by QIQ.z", "hecke_clifford.py",
     "c * field.z if b else None",
     "c * QIQ.z if b else None"),
    ("_normal times the lead instead of its conjugate", "scalars.py",
     "(_comb(a, re, b, im), _comb(a, im, -b, re))",
     "(_comb(a, re, -b, im), _comb(a, im, b, re))"),
    ("CyclotomicValue.inv skipping the last conjugate", "scalars.py",
     "        for k in range(2, m):\n",
     "        for k in range(2, m - 1):\n"),
    ("CyclotomicValue.__str__ without /den", "scalars.py",
     "            if self.den != 1:\n                c = Fraction(c, self.den)\n",
     ""),
    ("_gdivmod with the imaginary sign flipped", "scalars.py",
     "            ar[j] += ci * c\n",
     "            ar[j] -= ci * c\n"),
    ("residue with the sign of i flipped", "scalars.py",
     "    return (at(nr) + i * at(ni)) * inv % p\n",
     "    return (at(nr) - i * at(ni)) * inv % p\n"),
    ("_close_monomial without its psi sign flip", "trace_gram.py",
     "        coeff = -coeff\n",
     "        coeff = coeff\n"),
    ("the command dispatch without the leftover-arguments error", "cli.py",
     "    if extras:\n        parser.error(",
     "    if False:\n        parser.error("),
    ("ScalarQ.__neg__ dropping the carried exponents", "scalars.py",
     "        return _new((*neg, dr, di), self._jk)\n",
     "        return _new((*neg, dr, di), None)\n"),
    ("ScalarQ.__init__ dropping the imaginary part of a constant coefficient",
     "scalars.py",
     "            return Fraction(sum(nr), dr[0]), Fraction(sum(ni), dr[0])\n",
     "            return Fraction(sum(nr), dr[0]), Fraction(0)\n"),
    ("point_order accepting N = 1", "scalars.py",
     "    if not 2 <= N <= MAX_SPEC_N:\n",
     "    if not 1 <= N <= MAX_SPEC_N:\n"),
    ("gram_matrix without its sorted-signature check", "trace_gram.py",
     '            if "-+" in sig:\n',
     "            if False:\n"),
    ("_rmul_word keeping a term that cancelled to zero", "hecke_clifford.py",
     "                    if c.is_zero:\n                        del out[key]\n"
     "                    else:\n",
     "                    if True:\n"),
    ("ScalarQ.__add__ passing sign 1 to _sum whatever the sign", "scalars.py",
     "        return _sum(self._parts, _scalar(other)._parts, sign)\n",
     "        return _sum(self._parts, _scalar(other)._parts, 1)\n"),
    ("the product table keyed by the first operand only", "scalars.py",
     "@lru_cache(maxsize=1 << 14)\ndef _product(a: tuple, b: tuple) -> ScalarQ:\n",
     "def _by_first(kernel):\n"
     "    second = [None]\n"
     "    table = lru_cache(maxsize=1 << 14)(lambda a: kernel(a, second[0]))\n"
     "    def product(a, b):\n"
     "        second[0] = b\n"
     "        return table(a)\n"
     "    product.cache_info, product.cache_clear = table.cache_info, table.cache_clear\n"
     "    return product\n"
     "\n"
     "\n"
     "@_by_first\ndef _product(a: tuple, b: tuple) -> ScalarQ:\n"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_mutant(name: str, path: str, old: str, new: str) -> str:
    """'failed by <test>', 'survived' or 'stale' for one mutant."""
    text = (ROOT / "src" / "skeinhc" / path).read_text()
    if text.count(old) != 1:
        return "stale: the snippet does not occur exactly once"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        (copy / "src" / "skeinhc" / path).write_text(text.replace(old, new))
        path_var = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path_var)
        try:
            proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"failed by a timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return f"failed by {failed[0].split()[1] if failed else 'exit ' + str(proc.returncode)}"


def main() -> int:
    bad = 0
    for name, path, old, new in MUTANTS:
        start = time.perf_counter()
        result = run_mutant(name, path, old, new)
        print(f"{name}: {result} ({time.perf_counter() - start:.1f} s)", flush=True)
        bad += not result.startswith("failed")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants fail tier-1")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
