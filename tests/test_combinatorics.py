"""Young-diagram machinery against brute-force oracles."""

from itertools import permutations
from math import comb, factorial

import pytest

from skeinhc.combinatorics import (
    as_diagram,
    count_pair_tableaux,
    count_paths_double_young,
    count_standard_tableaux,
    decompose_object,
    dim_end_oracle,
    dim_hom_formula,
    hook11,
    partitions,
    rank_oracle,
    transpose,
)
from skeinhc.errors import DomainError


def brute_force_pair_tableaux(mu, lam):
    """Enumerate all bijective fillings of lam and keep those that are
    strictly increasing in rows and columns separately on mu and on lam/mu.

    The pair is only defined for mu contained in lam; otherwise 0.
    """
    mu, lam = as_diagram(mu), as_diagram(lam)
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]
    n = len(cells)

    def region(cell):
        r, c = cell
        return 0 if r < len(mu) and c < mu[r] else 1

    count = 0
    for perm in permutations(range(1, n + 1)):
        entry = dict(zip(cells, perm))
        ok = True
        for (r, c), v in entry.items():
            right = (r, c + 1)
            below = (r + 1, c)
            if right in entry and region(right) == region((r, c)):
                ok = ok and entry[right] > v
            if below in entry and region(below) == region((r, c)):
                ok = ok and entry[below] > v
        count += ok
    return count


def test_hook11():
    assert hook11((2, 2)) == 3
    assert hook11((2, 1)) == 3
    assert hook11((3,)) == 3
    assert hook11(()) == 0


def test_transpose():
    assert transpose((2, 1)) == (2, 1)
    assert transpose((3,)) == (1, 1, 1)
    assert transpose(()) == ()
    for n in range(7):
        for lam in partitions(n):
            assert transpose(transpose(lam)) == lam


def test_as_diagram_validation():
    with pytest.raises(DomainError):
        as_diagram((1, 2))


def test_standard_tableaux_counts():
    assert count_standard_tableaux((2, 1)) == 2
    assert count_standard_tableaux((1,)) == 1
    assert count_standard_tableaux(()) == 1


def test_standard_tableaux_against_brute_force():
    for n in range(1, 6):
        for lam in partitions(n):
            assert count_standard_tableaux(lam) == brute_force_pair_tableaux((), lam)


def test_pair_tableaux_paper_example():
    assert count_pair_tableaux((2,), (2, 1)) == 3


def test_pair_tableaux_against_brute_force():
    for n in range(0, 6):
        for lam in partitions(n):
            for m in range(0, n + 1):
                for mu in partitions(m):
                    assert count_pair_tableaux(mu, lam) == brute_force_pair_tableaux(
                        mu, lam
                    )


def test_pair_tableaux_reductions():
    for lam in partitions(4):
        assert count_pair_tableaux((), lam) == count_standard_tableaux(lam)
    assert count_pair_tableaux((3,), (2, 1)) == 0  # not contained


def test_paths_examples():
    assert count_paths_double_young(((), ()), ((2, 1), ()), 3) == 2
    assert count_paths_double_young(((2,), (1, 1)), ((2, 1), ()), 3) == 3
    assert count_paths_double_young(((), ()), ((), ()), 1) == 0


def test_paths_match_pair_tableaux():
    # comb(|lam|, |mu|) * f^mu * f^(lam/mu) against the double Young graph
    for n in range(0, 9):
        for lam in partitions(n):
            for m in range(0, n + 1):
                for mu in partitions(m):
                    assert count_paths_double_young(
                        (mu, transpose(mu)), (lam, ()), n
                    ) == count_pair_tableaux(mu, lam)


def test_decompose_examples():
    even = [w for _, w in decompose_object(4, "even")]
    assert set(even) == {
        (0, 0, 0, 0),
        (2, 0, -1, -1),
        (1, 1, 0, -2),
        (2, 2, -2, -2),
    }
    odd = [w for _, w in decompose_object(4, "odd")]
    assert set(odd) == {
        (1, 0, 0, -1),
        (2, 1, -1, -2),
        (3, -1, -1, -1),
        (1, 1, 1, -3),
    }
    assert [w for _, w in decompose_object(2, "even")] == [(0, 0)]


def test_decompose_structure():
    for N in range(2, 6):
        rows = decompose_object(N, "even")
        mus = [pair.lam for pair, _ in rows]
        assert mus.count(()) == 1
        assert all(hook11(mu) < N for mu in mus)
        sizes = [sum(mu) for mu in mus]
        assert sizes == sorted(sizes)


def test_partitions_length_bound():
    for n in range(9):
        for k in range(5):
            short = [mu for mu in partitions(n, 3) if len(mu) <= k]
            assert list(partitions(n, 3, k)) == short


def test_decompose_lists_every_diagram_with_hook_below_N():
    # the oracle filters every partition with parts below N by hook11 < N
    for N in range(2, 8):
        for parity, want in (("even", 0), ("odd", 1)):
            oracle = [
                mu
                for n in range(want, (N - 1) ** 2 + 1, 2)
                for mu in partitions(n, N - 1)
                if hook11(mu) < N
            ]
            oracle.sort(key=lambda mu: (sum(mu), mu))
            assert [pair.lam for pair, _ in decompose_object(N, parity)] == oracle
    # hook11(mu) < N picks one diagram per subset of the N - 1 diagonals
    for N in range(2, 13):
        both = decompose_object(N, "even") + decompose_object(N, "odd")
        assert len(both) == 2 ** (N - 1)


def test_summed_subset_identity():
    for n in range(0, 7):
        for lam in partitions(n):
            f = count_standard_tableaux(lam)
            for m in range(0, n + 1):
                total = sum(count_pair_tableaux(mu, lam) for mu in partitions(m))
                assert total == comb(n, m) * f


def test_sum_of_squares():
    for n in range(1, 9):
        assert sum(count_standard_tableaux(l) ** 2 for l in partitions(n)) == factorial(n)


def test_dim_end_oracle():
    assert dim_end_oracle(1) == 1
    assert dim_end_oracle(2) == 4
    assert dim_end_oracle(3) == 24
    assert [dim_end_oracle(n) for n in range(1, 7)] == [
        2 ** (n - 1) * factorial(n) for n in range(1, 7)
    ]


def test_dim_hom_formula():
    assert dim_hom_formula("+++", "+++") == 24
    assert dim_hom_formula("+", "-") == 0
    assert dim_hom_formula("", "") == 1
    assert dim_hom_formula("+-", "-+") == 4


def test_rank_oracle():
    # path counts in the level-N alcove; the End(+^2..4) rows equal every
    # computed Gram rank (test_trace_gram), the End(+^5) row is a prediction
    table = {
        2: [2, 4, 4, 4, 4, 4, 4],
        3: [4, 16, 24, 24, 24, 24, 24],
        4: [8, 64, 160, 192, 192, 192, 192],
        5: [16, 256, 1088, 1792, 1920],
    }
    for n, row in table.items():
        assert [rank_oracle(n, N) for N in range(2, 2 + len(row))] == row
    assert rank_oracle(0, 3) == rank_oracle(1, 3) == 1
    with pytest.raises(DomainError):
        rank_oracle(-1, 3)
    with pytest.raises(DomainError):
        rank_oracle(2, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_standard_tableaux((400,)),
         "count_standard_tableaux needs 400 boxes"),
        (lambda: count_pair_tableaux((1,), (600,)),
         "count_pair_tableaux needs 601 boxes"),
        (lambda: count_paths_double_young(((), ()), ((500,), ()), 500),
         "count_paths_double_young needs 500 boxes"),
        (lambda: count_standard_tableaux((12,) * 12),
         "count_standard_tableaux may visit 2704156 states"),
        (lambda: count_pair_tableaux((), (12,) * 12),
         "count_pair_tableaux may visit 2704156 states"),
    ],
)
def test_counters_refuse_shapes_beyond_their_work_bounds(call, message):
    # the first three raised RecursionError before the bound moved here
    with pytest.raises(DomainError, match=message + ", over the limit"):
        call()
