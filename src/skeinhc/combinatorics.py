"""Young-diagram machinery: staircase decompositions and path-counting oracles.

Diagrams are weakly decreasing tuples of positive integers; () is the empty
diagram.  Paths live either on the Young graph (add one box per step) or on
the double Young graph, whose vertices are pairs of diagrams and whose steps
add a box to the first coordinate or remove one from the second.

>>> hook11((2, 2))
3
>>> count_standard_tableaux((2, 1))
2
>>> count_pair_tableaux((2,), (2, 1))
3
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

from .errors import ConsistencyError, DomainError
from .records import FrozenRecord

__all__ = [
    "YoungDiagram",
    "YoungPair",
    "as_diagram",
    "hook11",
    "transpose",
    "partitions",
    "add_box_results",
    "remove_box_results",
    "check_shapes",
    "count_standard_tableaux",
    "count_pair_tableaux",
    "count_paths_double_young",
    "decompose_object",
    "pair_weight",
    "dim_end_oracle",
    "rank_oracle",
    "dim_hom_formula",
]

YoungDiagram = tuple  # tuple[int, ...], weakly decreasing positive parts

# Work bounds of the tableau and path counters, which recurse once per box
# (400 boxes overflowed the stack) and memoise one state per sub-diagram of
# each shape (tableaux) or per tuple of sub-diagrams (paths), at most
# C(rows + columns, rows) for a shape, at about 40 us a state.
MAX_SHAPE_BOXES = 200
MAX_SHAPE_STATES = 20_000  # 0.6 s for the 12,870 of an 8 x 8 square


def as_diagram(rows) -> YoungDiagram:
    """Canonicalize a row sequence: trim zeros, check weak decrease."""
    rows = tuple(int(r) for r in rows if int(r) != 0)
    if any(r < 0 for r in rows):
        raise DomainError(f"negative row length in {rows}")
    if any(rows[k] < rows[k + 1] for k in range(len(rows) - 1)):
        raise DomainError(f"rows must be weakly decreasing: {rows}")
    return rows


def hook11(lam: YoungDiagram) -> int:
    """Hook length at the top-left box, lam_1 + len(lam) - 1; 0 for the empty diagram."""
    if not lam:
        return 0
    return lam[0] + len(lam) - 1


def transpose(lam: YoungDiagram) -> YoungDiagram:
    """Reflect rows into columns.

    >>> transpose((3,))
    (1, 1, 1)
    """
    if not lam:
        return ()
    return tuple(sum(1 for r in lam if r > c) for c in range(lam[0]))


def size(lam: YoungDiagram) -> int:
    return sum(lam)


def contains(mu: YoungDiagram, lam: YoungDiagram) -> bool:
    """mu subseteq lam, rowwise."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def add_box_results(lam: YoungDiagram) -> list[YoungDiagram]:
    """All diagrams obtained from lam by adding one box."""
    out = []
    for k in range(len(lam) + 1):
        cur = lam[k] if k < len(lam) else 0
        above = lam[k - 1] if k > 0 else None
        if above is None or cur < above:
            out.append(as_diagram(lam[:k] + (cur + 1,) + lam[k + 1 :]))
    return out


def remove_box_results(lam: YoungDiagram) -> list[YoungDiagram]:
    """All diagrams obtained from lam by removing one box."""
    out = []
    for k in range(len(lam)):
        below = lam[k + 1] if k + 1 < len(lam) else 0
        if lam[k] > below:
            out.append(as_diagram(lam[:k] + (lam[k] - 1,) + lam[k + 1 :]))
    return out


def check_shapes(command: str, *shapes, joint: bool = False):
    """Refuse shapes beyond the work bounds of the counters, before any work.
    The states of the shapes add, or multiply when the counter walks them
    jointly (the path counter)."""
    boxes = sum(map(sum, shapes))
    if boxes > MAX_SHAPE_BOXES:
        raise DomainError(
            f"{command} needs {boxes} boxes, over the limit {MAX_SHAPE_BOXES}"
        )
    # the sub-diagrams of a shape fit in its bounding rectangle
    counts = [comb(len(lam) + lam[0], len(lam)) for lam in shapes if lam]
    states = prod(counts) if joint else sum(counts)
    if states > MAX_SHAPE_STATES:
        raise DomainError(
            f"{command} may visit {states} states, over the limit {MAX_SHAPE_STATES}"
        )


def partitions(n: int, max_part: int | None = None, max_len: int | None = None):
    """Yield all partitions of n with parts bounded by max_part and at most
    max_len parts, in decreasing lexicographic order."""
    if n < 0 or (n > 0 and max_len == 0):
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first, max_len and max_len - 1):
            yield (first,) + rest


def count_standard_tableaux(lam: YoungDiagram) -> int:
    """Number of standard tableaux of shape lam, by path counting on the
    Young graph (no hook-length formula involved).

    >>> count_standard_tableaux((2, 2))
    2
    """
    lam = as_diagram(lam)
    check_shapes("count_standard_tableaux", lam)
    return _skew_tableaux((), lam)


def count_pair_tableaux(mu: YoungDiagram, lam: YoungDiagram) -> int:
    """Number of fillings of lam with 1..|lam| that are standard on mu and
    standard on the skew part lam/mu (no constraint across the two regions):
    choose the |mu| labels of mu, then fill each region standardly.

    Returns 0 when mu is not contained in lam.
    """
    mu, lam = as_diagram(mu), as_diagram(lam)
    check_shapes("count_pair_tableaux", mu, lam)
    return comb(size(lam), size(mu)) * _skew_tableaux((), mu) * _skew_tableaux(mu, lam)


@lru_cache(maxsize=None)
def _skew_tableaux(mu: YoungDiagram, lam: YoungDiagram) -> int:
    """Standard tableaux of the skew shape lam/mu: paths mu -> lam on the
    Young graph, counted back from lam; 0 unless mu is contained in lam."""
    if lam == mu:
        return 1
    return sum(
        _skew_tableaux(mu, nu) for nu in remove_box_results(lam) if contains(mu, nu)
    )


def count_paths_double_young(
    start: tuple[YoungDiagram, YoungDiagram],
    end: tuple[YoungDiagram, YoungDiagram],
    length: int,
) -> int:
    """Oriented paths on the double Young graph: each step adds a box to the
    first coordinate or removes a box from the second.

    >>> count_paths_double_young(((), ()), ((2, 1), ()), 3)
    2
    """
    if length < 0:
        raise DomainError("path length must be nonnegative")
    start = (as_diagram(start[0]), as_diagram(start[1]))
    end = (as_diagram(end[0]), as_diagram(end[1]))
    # lam grows into end[0] and mu shrinks from start[1], one box a step
    check_shapes("count_paths_double_young", end[0], start[1], joint=True)

    @lru_cache(maxsize=None)
    def rec(state, remaining):
        if remaining == 0:
            return 1 if state == end else 0
        lam, mu = state
        total = 0
        for nxt in add_box_results(lam):
            if contains(nxt, end[0]):
                total += rec((nxt, mu), remaining - 1)
        for nxt in remove_box_results(mu):
            if contains(end[1], nxt):
                total += rec((lam, nxt), remaining - 1)
        return total

    return rec(start, length)


class YoungPair(FrozenRecord):
    """A pair (lam, mu) of diagrams encoding a dominant integral GL(N) weight."""

    _fields = ("lam", "mu", "N")

    def __init__(self, lam: YoungDiagram, mu: YoungDiagram, N: int):
        self._set(lam=lam, mu=mu, N=N)
        if len(self.lam) + len(self.mu) > self.N:
            raise DomainError(
                f"pair ({self.lam}, {self.mu}) needs more than {self.N} rows"
            )

    def weight(self) -> tuple[int, ...]:
        return pair_weight(self.lam, self.mu, self.N)


def pair_weight(lam: YoungDiagram, mu: YoungDiagram, N: int) -> tuple[int, ...]:
    """The weight lam_1 e_1 + ... - mu_1 e_N attached to a diagram pair."""
    if len(lam) + len(mu) > N:
        raise DomainError("diagram pair does not fit in N rows")
    entries = [0] * N
    for k, r in enumerate(lam):
        entries[k] = r
    for k, r in enumerate(mu):  # mu_1 ends up in the last slot
        entries[N - 1 - k] = -r
    return tuple(entries)


def decompose_object(N: int, parity: str) -> list[tuple[YoungPair, tuple[int, ...]]]:
    """Summands of the even (parity='even') or odd (parity='odd') algebra
    object: all mu with hook11(mu) < N and |mu| of the given parity, as pairs
    (mu, transpose(mu)) with their GL(N) weights.

    Sorted by (|mu|, rows lexicographically).
    """
    if N < 2:
        raise DomainError("decompose_object requires N >= 2")
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    want = 0 if parity == "even" else 1
    # hook11(mu) < N: below a first row of length a lie at most N - 1 - a rows
    mus = [()] + [
        (a,) + rest
        for a in range(1, N)
        for m in range(a * (N - 1 - a) + 1)
        for rest in partitions(m, a, N - 1 - a)
    ]
    mus.sort(key=lambda mu: (sum(mu), mu))
    pairs = [YoungPair(mu, transpose(mu), N) for mu in mus if sum(mu) % 2 == want]
    return [(pair, pair.weight()) for pair in pairs]


def dim_end_oracle(n: int) -> int:
    """Dimension of the n-strand endomorphism algebra by explicit path
    counting on the (double) Young graph, with the closed form 2^(n-1)*n!
    asserted as a cross-check.
    """
    if n < 1:
        raise DomainError("dim_end_oracle requires n >= 1")
    total = 0
    for lam in partitions(n):
        left = count_standard_tableaux(lam)  # paths () -> lam
        right = 0
        for m in range(0, n + 1, 2):
            for mu in partitions(m):
                right += count_paths_double_young((mu, transpose(mu)), (lam, ()), n)
        total += left * right
    expected = 2 ** (n - 1) * factorial(n)
    if total != expected:
        raise ConsistencyError(
            f"path count {total} disagrees with 2^(n-1)*n! = {expected} at n={n}"
        )
    return total


@lru_cache(maxsize=None)
def rank_oracle(n: int, N: int) -> int:
    """Predicted rank of the End(+^n) Gram matrix at q = zeta_4N, by path
    counting in the level-N alcove of dominant GL(N) weights.

    A step adds 1 to one coordinate, keeping the weight dominant with
    w_1 - w_N <= N.  With a_v the number of n-step paths from 0 to v and
    b_v the number of n-step paths to v from the summands of the even
    algebra object (`decompose_object`) that lie in the alcove, the
    prediction is sum_v a_v * b_v: Hom from X^n to A (x) X^n, semisimplified
    at level N.

    >>> [rank_oracle(4, N) for N in range(2, 9)]
    [8, 64, 160, 192, 192, 192, 192]
    """
    if n < 0:
        raise DomainError("rank_oracle requires n >= 0")

    def walk(counts: dict) -> dict:
        for _ in range(n):
            nxt: dict = {}
            for w, c in counts.items():
                for j in range(N):
                    if j and w[j - 1] == w[j]:
                        continue
                    v = w[:j] + (w[j] + 1,) + w[j + 1 :]
                    if v[0] - v[-1] <= N:
                        nxt[v] = nxt.get(v, 0) + c
            counts = nxt
        return counts

    starts: dict = {}
    for _, w in decompose_object(N, "even"):
        if w[0] - w[-1] <= N:
            starts[w] = starts.get(w, 0) + 1
    a, b = walk({(0,) * N: 1}), walk(starts)
    return sum(c * b.get(v, 0) for v, c in a.items())


def dim_hom_formula(s1: str, s2: str) -> int:
    """Dimension of the hom space between boundary signatures.

    Zero unless the signed sums agree; 1 for the empty boundary; otherwise
    2^(m/2-1) * (m/2)! with m the total number of boundary points.

    >>> dim_hom_formula("+++", "+++")
    24
    >>> dim_hom_formula("+", "-")
    0
    """
    for s in (s1, s2):
        if any(c not in "+-" for c in s):
            raise DomainError(f"bad signature {s!r}")
    charge = lambda s: s.count("+") - s.count("-")
    if charge(s1) != charge(s2):
        return 0
    m = len(s1) + len(s2)
    if m == 0:
        return 1
    half = m // 2
    return 2 ** (half - 1) * factorial(half)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
