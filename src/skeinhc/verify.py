"""Named verification suites, one per acceptance criterion.

Each suite returns a list of (check name, passed, detail) triples; the CLI
`verify` command runs them with a reproducible seed and reports pass/fail
counts.  The test suite drives the same functions.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb, factorial

from .combinatorics import (
    count_pair_tableaux,
    count_paths_double_young,
    count_standard_tableaux,
    decompose_object,
    dim_end_oracle,
    dim_hom_formula,
    partitions,
    rank_oracle,
    transpose,
)
from .hecke_clifford import (
    AlgebraElement,
    alpha,
    antisymmetrizer,
    closure_dimension,
    e_element,
    even_convert,
    even_expand,
    identity_element,
    multiply,
    normalize,
    normalize_full,
    t_element,
)
from .scalars import (
    QIQ,
    CyclotomicField,
    SpecializationPoint,
    q_power,
    specialize,
)
from .skein import (
    basis_indices,
    insert_random_identities,
    random_diagram_word,
    straighten,
)
from .trace_gram import (
    gram_matrix,
    gram_rank,
    markov_trace,
    markov_trace_at,
    verify_derived_closures,
)

__all__ = ["SUITES", "run_suite"]


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


def _random_even_word(n, rng, max_letters=6):
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        if rng.random() < 0.6:
            letters.append(("t", rng.randrange(n - 1), rng.choice([1, -1])))
        else:
            letters.append(("e", rng.randrange(n - 1)))
    return letters


def _random_even_element(n, rng, max_letters=6, field=QIQ):
    return normalize(_random_even_word(n, rng, max_letters), n, field)


def suite_dims(seed=0):
    """Criterion 1: enumerated hom bases match the dimension formula for all
    signature pairs with at most 8 boundary points."""
    out = []
    bad = 0
    total = 0
    for k in range(0, 9):
        for a in range(0, k + 1):
            b = k - a
            for s1 in map("".join, product("+-", repeat=a)):
                for s2 in map("".join, product("+-", repeat=b)):
                    total += 1
                    want = dim_hom_formula(s1, s2)
                    got = len(basis_indices(s1, s2))
                    if got != want:
                        bad += 1
    out.append(
        _check(
            "enumerated |B| = 2^(m/2-1) (m/2)! over all pairs, m <= 8",
            bad == 0,
            f"{total} signature pairs checked",
        )
    )
    out.append(_check("End(+^3) has dimension 24", dim_hom_formula("+++", "+++") == 24))
    out.append(_check("Hom(+ -> -) is zero", dim_hom_formula("+", "-") == 0))
    out.append(_check("End(unit) has dimension 1", dim_hom_formula("", "") == 1))
    return out


def suite_algebra(seed=0):
    """Criterion 2: dimensions by closure, associativity, and the defining
    plus mixed relations."""
    rng = random.Random(seed)
    out = []
    for n, want in ((1, 1), (2, 4), (3, 24), (4, 192)):
        got = closure_dimension(n, "even")
        out.append(_check(f"dim of even part at n={n} is {want}", got == want, f"got {got}"))
    for n, want in ((3, 48), (4, 384)):
        got = closure_dimension(n, "full")
        out.append(
            _check(f"dim of full algebra at n={n} is {want}", got == want, f"got {got}")
        )

    ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        u, v, w = (_random_even_element(n, rng, 4) for _ in range(3))
        if multiply(multiply(u, v), w) != multiply(u, multiply(v, w)):
            ok = False
            break
    out.append(_check("associativity on 100 random triples", ok))

    one = QIQ.one
    z = QIQ.z
    rel_ok = []
    for n in range(2, 5):
        idn = identity_element(n)
        ts = [t_element(n, j) for j in range(n - 1)]
        tinv = [t_element(n, j, inverse=True) for j in range(n - 1)]
        es = [e_element(n, j) for j in range(n - 1)]
        # (H) quadratic and braid
        rel_ok.append(all(multiply(t, t) == idn + t.scale(z) for t in ts))
        rel_ok.append(
            all(
                multiply(multiply(ts[j], ts[j + 1]), ts[j])
                == multiply(multiply(ts[j + 1], ts[j]), ts[j + 1])
                for j in range(n - 2)
            )
        )
        rel_ok.append(
            all(
                multiply(ts[j], ts[k]) == multiply(ts[k], ts[j])
                for j in range(n - 1)
                for k in range(n - 1)
                if abs(j - k) >= 2
            )
        )
        # (E)
        rel_ok.append(all(multiply(e, e) == idn.scale(-one) for e in es))
        rel_ok.append(
            all(
                multiply(es[j], es[j + 1]) == multiply(es[j + 1], es[j]).scale(-one)
                for j in range(n - 2)
            )
        )
        rel_ok.append(
            all(
                multiply(es[j], es[k]) == multiply(es[k], es[j])
                for j in range(n - 1)
                for k in range(n - 1)
                if abs(j - k) >= 2
            )
        )
        # the four mixed identities (products read left to right, bottom to
        # top; the displayed forms hold with the factors reversed, and the
        # quadratic one holds both ways)
        for j in range(n - 2):
            rel_ok.append(
                multiply(es[j], ts[j]) + multiply(tinv[j], es[j]) == idn.scale(z)
            )
            rel_ok.append(
                multiply(ts[j], es[j]) + multiply(es[j], tinv[j]) == idn.scale(z)
            )
            rel_ok.append(
                multiply(es[j + 1], ts[j])
                == multiply(multiply(ts[j], es[j + 1]), es[j]).scale(-one)
            )
            rel_ok.append(
                multiply(ts[j + 1], es[j])
                == multiply(multiply(es[j + 1], es[j]), ts[j + 1]).scale(-one)
            )
            rel_ok.append(
                multiply(multiply(ts[j], ts[j + 1]), es[j])
                == multiply(es[j + 1], multiply(ts[j], ts[j + 1]))
            )
    out.append(_check("(H), (E), and mixed relations for n <= 4", all(rel_ok)))

    # the token-level relations in the full algebra: Clifford quadratic and
    # anticommutation, and the three rules moving tokens past crossings
    from .hecke_clifford import v_element

    tok_ok = []
    for n in range(2, 5):
        one_full = identity_element(n, "full")
        vs = [v_element(n, l) for l in range(n)]
        tf = [even_expand(t_element(n, j)) for j in range(n - 1)]
        for l in range(n):
            tok_ok.append(multiply(vs[l], vs[l]) == one_full)
            for k in range(n):
                if k != l:
                    tok_ok.append(
                        (multiply(vs[l], vs[k]) + multiply(vs[k], vs[l])).is_zero
                    )
        for j in range(n - 1):
            tok_ok.append(multiply(tf[j], vs[j]) == multiply(vs[j + 1], tf[j]))
            tok_ok.append(
                multiply(tf[j], vs[j + 1])
                == multiply(vs[j], tf[j]) - (vs[j] - vs[j + 1]).scale(z)
            )
            for l in range(n):
                if l not in (j, j + 1):
                    tok_ok.append(multiply(tf[j], vs[l]) == multiply(vs[l], tf[j]))
    out.append(_check("token-level (C) and (M) relations for n <= 4", all(tok_ok)))

    # (C)/(M) at the v-token level, through the even-part conversion
    out.append(
        _check(
            "v1 v2 converts to e1",
            even_convert(normalize([("v", 0), ("v", 1)], 2)) == e_element(2, 0),
        )
    )
    out.append(
        _check(
            "v1 v3 converts to e1 e2",
            even_convert(normalize([("v", 0), ("v", 2)], 3))
            == multiply(e_element(3, 0), e_element(3, 1)),
        )
    )
    lhs = multiply(t_element(2, 0), e_element(2, 0))
    rhs = multiply(e_element(2, 0), t_element(2, 0)).scale(-one) + (
        e_element(2, 0) + identity_element(2)
    ).scale(z)
    out.append(_check("t1 e1 = -e1 t1 + (q - q^(-1))(e1 + 1)", lhs == rhs))

    # the order-two automorphism negating v-tokens fixes exactly the even part
    ok_alpha = True
    for _ in range(20):
        n = rng.randint(2, 3)
        letters = [("v", rng.randrange(n)) for _ in range(rng.randint(1, 4))]
        x = normalize(letters, n)
        if x.variant == "even":
            x = even_expand(x)
        ax = alpha(x)
        if alpha(ax) != x:
            ok_alpha = False
        even_part = AlgebraElement(
            n,
            "full",
            {k: c for k, c in x.terms.items() if not (bin(k[0]).count("1") & 1)},
            QIQ,
        )
        fixed = AlgebraElement(
            n,
            "full",
            {k: c for k, c in x.terms.items() if c == ax.terms.get(k)},
            QIQ,
        )
        if fixed != even_part:
            ok_alpha = False
    out.append(_check("alpha squares to the identity and fixes the even part", ok_alpha))

    # normalize folds t/e words through the even action; the full basis is
    # the oracle
    bad = 0
    for _ in range(50):
        n = rng.randint(2, 4)
        letters = _random_even_word(n, rng, 8)
        if normalize(letters, n) != even_convert(normalize_full(letters, n)):
            bad += 1
    out.append(
        _check(
            "normalize of 50 random t/e words matches the full-basis conversion",
            bad == 0,
            f"{bad} mismatches",
        )
    )
    return out


def suite_trace(seed=0):
    """Criterion 3: trace normalization, cyclicity, multiplicativity, and the
    re-derived closure values."""
    rng = random.Random(seed)
    out = []
    d = QIQ.loop
    try:
        verify_derived_closures(QIQ)
        out.append(_check("derived closure values re-verified", True))
    except Exception as exc:  # pragma: no cover
        out.append(_check("derived closure values re-verified", False, str(exc)))
    ok = True
    for n in range(1, 5):
        if markov_trace(identity_element(n)) != d ** n:
            ok = False
    out.append(_check("tr(1_n) = d^n for n <= 4", ok))
    ok = True
    for _ in range(100):
        n = rng.randint(2, 3)
        a, b = _random_even_element(n, rng, 4), _random_even_element(n, rng, 4)
        if markov_trace(multiply(a, b)) != markov_trace(multiply(b, a)):
            ok = False
            break
    out.append(_check("cyclicity on 100 random pairs", ok))
    ok = True
    for _ in range(20):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        a = _random_even_element(max(na, 2), rng, 3) if na >= 2 else identity_element(1)
        b = _random_even_element(max(nb, 2), rng, 3) if nb >= 2 else identity_element(1)
        ab = multiply(_shift(a, 0, na + nb), _shift(b, na, na + nb))
        if markov_trace(ab) != markov_trace(a) * markov_trace(b):
            ok = False
            break
    out.append(_check("tensor multiplicativity", ok))
    return out


def _shift(x, off, n_new):
    out = {}
    for (w, emask), c in x.terms.items():
        wn = list(range(n_new))
        for k, v in enumerate(w):
            wn[k + off] = v + off
        out[(tuple(wn), emask << off)] = c
    return AlgebraElement(n_new, "even", out, x.field)


def suite_ranks(seed=0):
    """Criterion 4: semisimplification ranks at the special points, with the
    Temperley-Lieb oracle at N = 2 and the path-count oracle at N = 2..8."""
    out = []
    r2 = gram_matrix("++", "++")
    out.append(_check("rank of End(+^2) at N=5 is 4", gram_rank(r2, 5) == 4))
    rank_n2 = gram_rank(r2, 2)
    out.append(_check("rank of End(+^2) at N=2 is 2", rank_n2 == 2))
    tl2 = _tl_gram_rank(2)
    out.append(
        _check(
            "N=2 rank matches the Temperley-Lieb oracle at delta = sqrt(2)",
            rank_n2 == tl2,
            f"oracle rank {tl2}",
        )
    )
    r3 = gram_matrix("+++", "+++")
    out.append(_check("rank of End(+^3) at N=7 is 24", gram_rank(r3, 7) == 24))
    out.append(
        _check(
            "rank of End(+^3) at N=2 matches the Temperley-Lieb oracle",
            gram_rank(r3, 2) == _tl_gram_rank(3),
            f"oracle rank {_tl_gram_rank(3)}",
        )
    )
    got = {N: gram_rank(r3, N) for N in range(2, 9)}
    want = {N: rank_oracle(3, N) for N in range(2, 9)}
    out.append(
        _check(
            "ranks of End(+^3) at N=2..8 match the path-count oracle",
            got == want,
            f"computed {got}, oracle {want}",
        )
    )
    return out


def _tl_gram_rank(n: int) -> int:
    """Independent oracle: the n-strand Temperley-Lieb Gram rank at loop
    value delta = zeta_8 + zeta_8^(-1), by closed-diagram loop counting.

    A planar diagram on n bottom and n top points is a non-crossing perfect
    matching of 2n boundary points (bottom 0..n-1 left to right, then top
    2n-1..n so that the boundary reads cyclically).  The pairing of two
    diagrams glues bottoms to bottoms and tops to tops; each entry is delta
    to the number of closed loops, counted as connected components of the
    union of the two matchings.
    """
    from .trace_gram import matrix_rank

    order = list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def matchings(points):
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            left = points[1:j]
            right = points[j + 1 :]
            for ml in matchings(left):
                for mr in matchings(right):
                    yield ((first, points[j]),) + ml + mr

    diagrams = []
    for pairing in matchings(order):
        match = [0] * (2 * n)
        for a, b in pairing:
            match[a], match[b] = b, a
        diagrams.append(tuple(match))

    def loops(d1, d2) -> int:
        seen = set()
        count = 0
        for start in range(2 * n):
            if start in seen:
                continue
            count += 1
            p, use_first = start, True
            while p not in seen:
                seen.add(p)
                p = d1[p] if use_first else d2[p]
                use_first = not use_first
        return count

    field = CyclotomicField(2)
    delta = field.zeta + field.zeta.inv()
    mat = [[delta ** loops(d1, d2) for d2 in diagrams] for d1 in diagrams]
    return matrix_rank(mat)


def suite_combinatorics(seed=0):
    """Criterion 5: staircase decompositions, tableau counts, and the
    path-counting dimension oracle."""
    out = []
    even_weights = {w for _, w in decompose_object(4, "even")}
    odd_weights = {w for _, w in decompose_object(4, "odd")}
    out.append(
        _check(
            "even summands at N=4",
            even_weights
            == {(0, 0, 0, 0), (2, 0, -1, -1), (1, 1, 0, -2), (2, 2, -2, -2)},
        )
    )
    out.append(
        _check(
            "odd summands at N=4",
            odd_weights
            == {(1, 0, 0, -1), (2, 1, -1, -2), (3, -1, -1, -1), (1, 1, 1, -3)},
        )
    )
    out.append(
        _check(
            "only the unit survives the staircase at N=2 (even)",
            [w for _, w in decompose_object(2, "even")] == [(0, 0)],
        )
    )
    out.append(_check("pair tableaux for (2) in (2,1)", count_pair_tableaux((2,), (2, 1)) == 3))
    ok = True
    for lamsize in range(0, 7):
        for lam in partitions(lamsize):
            f = count_standard_tableaux(lam)
            for mmu in range(0, lamsize + 1):
                s = sum(count_pair_tableaux(mu, lam) for mu in partitions(mmu))
                if s != comb(lamsize, mmu) * f:
                    ok = False
    out.append(_check("summed subset identity for |lam| <= 6", ok))
    ok = all(
        sum(count_standard_tableaux(lam) ** 2 for lam in partitions(n)) == factorial(n)
        for n in range(1, 9)
    )
    out.append(_check("sum of squares of tableau counts is n! for n <= 8", ok))
    ok = True
    for n in range(1, 7):
        if dim_end_oracle(n) != 2 ** (n - 1) * factorial(n):
            ok = False
    out.append(_check("path-counting dimension oracle for n <= 6", ok))
    ok = True
    for lamsize in range(0, 6):
        for lam in partitions(lamsize):
            for msize in range(0, lamsize + 1):
                for mu in partitions(msize):
                    paths = count_paths_double_young(
                        (mu, transpose(mu)), (lam, ()), lamsize
                    )
                    if paths != count_pair_tableaux(mu, lam):
                        ok = False
    out.append(_check("double-graph paths match pair tableaux, |lam| <= 5", ok))
    return out


def suite_antisymmetrizer(seed=0):
    """Criterion 6: the quantum antisymmetrizer's defining properties."""
    out = []
    one = QIQ.one
    for N in range(2, 5):
        p = antisymmetrizer(N)
        ok = multiply(p, p) == p
        eig = p.scale(-q_power(-1))
        ok = ok and all(
            multiply(t_element(N, j), p) == eig and multiply(p, t_element(N, j)) == eig
            for j in range(N - 1)
        )
        out.append(_check(f"p^2 = p and t p = p t = -q^(-1) p at N={N}", ok))
    expect = (
        identity_element(2) - t_element(2, 0).scale(q_power(-1))
    ).scale(one / (one + q_power(-2)))
    out.append(_check("closed form at N=2", antisymmetrizer(2) == expect))
    return out


def suite_specialization(seed=0):
    """Criterion 7: tracing commutes with specialization; the loop value at
    N = 2 is the Temperley-Lieb loop."""
    rng = random.Random(seed)
    out = []
    lv = specialize(QIQ.loop, SpecializationPoint(2))
    field8 = CyclotomicField(2)
    out.append(
        _check(
            "loop value at N=2 is zeta_8 + zeta_8^(-1)",
            lv == field8.zeta + field8.zeta.inv(),
        )
    )
    ok_hom = True
    for N in (2, 3, 5):
        ok_all = True
        for _ in range(50):
            n = rng.randint(2, 3)
            x = _random_even_element(n, rng, 5)
            lhs = specialize(markov_trace(x), SpecializationPoint(N))
            rhs = markov_trace_at(x, N)
            if lhs != rhs:
                ok_all = False
                break
        out.append(_check(f"trace commutes with specialization at N={N}", ok_all))
        # homomorphism spot-check of the specialization map itself
        a = (QIQ.q - QIQ.q ** -1) * QIQ.i + QIQ.from_int(rng.randint(-3, 3))
        b = QIQ.q ** rng.randint(-2, 2) + QIQ.from_int(1)
        pt = SpecializationPoint(N)
        if specialize(a * b, pt) != specialize(a, pt) * specialize(b, pt):
            ok_hom = False
        if specialize(a + b, pt) != specialize(a, pt) + specialize(b, pt):
            ok_hom = False
    out.append(_check("specialization is a ring homomorphism (spot checks)", ok_hom))
    return out


def suite_straighten(seed=0):
    """Criterion 8: straightening is independent of the rewriting route."""
    rng = random.Random(seed)
    out = []
    bad = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        word = random_diagram_word(
            n, rng, length=rng.randint(3, 7), max_cups=1 if n == 3 else 2
        )
        base = straighten(word, n)
        rewritten = insert_random_identities(word, "+" * n, rng, count=2)
        if straighten(rewritten, n) != base:
            bad += 1
    out.append(
        _check(
            "100 random words match after random identity-pair insertion",
            bad == 0,
            f"{bad} mismatches",
        )
    )
    return out


SUITES = {
    "dims": suite_dims,
    "algebra": suite_algebra,
    "trace": suite_trace,
    "ranks": suite_ranks,
    "combinatorics": suite_combinatorics,
    "antisymmetrizer": suite_antisymmetrizer,
    "specialization": suite_specialization,
    "straighten": suite_straighten,
}


def run_suite(name: str, seed: int = 0):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
