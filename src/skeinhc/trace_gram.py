"""Markov trace, Gram matrices, and semisimplification ranks.

Closing the last strand of an n-strand even element is a bimodule map onto
the (n-1)-strand algebra, determined by the closure values of the letters
touching that strand:

    nothing      -> loop value d = 2i/(q - q^(-1))
    t (positive) -> i            t inverse -> -i      (curl values)
    e            -> 0                                 (closed ladder leg)
    t then e     -> i                                 (mixed closure)

With g = n-2, a basis monomial h_w e_s whose w moves the last strand
factors as h_w = h_u t_g h_c: u fixes the last strand and c is the
descending chain s_(g-1) ... s_k.  Without e_g in e_s it closes to
i * h_u h_c e_s.  With e_s = e_s' e_g, conjugation psi(x) = e_g^(-1) x e_g
gives t_g y e_g = (t_g e_g) psi(y), where psi(t_(g-1)) = t_(g-1) e_(g-1),
psi(e_(g-1)) = -e_(g-1) and psi fixes the lower generators; so it closes to
i * h_u psi(h_c e_s').  Either way the closure is one fold of the even
right action from h_u (test_psi_conjugation_identities checks psi).

The full trace iterates the closure down to zero strands; it is cyclic and
multiplicative under disjoint union, and a Gram matrix is the table of
traces of products against 180-degree-rotated basis elements.  Ranks at the
points q = exp(2*pi*i/4N) and over Q(i)(q) are certified mod one prime p:
full rank mod p is full rank in characteristic 0.  Below full rank, or where
a denominator vanishes mod p, the matrix is eliminated exactly over
Q(zeta_4N) or Q(i)(q).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import ConsistencyError, DomainError, PoleError
from .hecke_clifford import (
    AlgebraElement,
    _add_term,
    _bits,
    _right_action,
    _rmul_word,
    _theta_word,
    basis_keys_even,
    e_element,
    identity_element,
    multiply,
    reduced_word,
    t_element,
)
from .scalars import (
    QIQ,
    _field_for,
    _modular_point,
    point_order,
    residue,
    specialize,
)
from .combinatorics import dim_hom_formula
from .records import Record

__all__ = [
    "closure_values",
    "close_last_strand",
    "markov_trace",
    "markov_trace_at",
    "categorical_trace",
    "GramReport",
    "gram_matrix",
    "gram_rank",
    "matrix_rank",
    "verify_derived_closures",
]


def closure_values(field=QIQ) -> dict:
    """The table of single-strand closure values: a free strand closes to
    the loop value, a positive crossing to the curl value i, its inverse to
    -i, a ladder leg to 0, and an adjacent crossing-ladder pair to i.  The
    derived entries are re-checked by verify_derived_closures."""
    return {
        "loop": field.loop,
        "curl": field.i,
        "curl_inverse": -field.i,
        "ladder_closure": field.zero,
        "mixed_closure": field.i,
    }


def close_last_strand(x: AlgebraElement) -> AlgebraElement:
    """Partial closure of strand n-1 around the right: an (n-1)-strand element."""
    if x.variant != "even":
        raise DomainError("closure acts on the even variant")
    n, field = x.n, x.field
    if n == 0:
        raise DomainError("no strand to close")
    out: dict = {}
    for (w, emask), coeff in x.terms.items():
        for key, c in _close_monomial(n, w, emask, field).terms.items():
            _add_term(out, key, c * coeff)
    return AlgebraElement(n - 1, "even", out, field)


@lru_cache(maxsize=None)
def _close_monomial(n, w, emask, field) -> AlgebraElement:
    """Close the last strand of h_w e_s: one fold of the even right action
    from h_u (see the module docstring), then drop the freed strand."""
    values = closure_values(field)
    g = n - 2
    top = g >= 0 and emask >> g & 1
    if g < 0 or w[n - 1] == n - 1:  # the last strand is free
        terms = {} if top else {(w, emask): values["loop"]}  # a ladder leg closes to 0
        return _truncate(AlgebraElement(n, "even", terms, field))
    k = w.index(n - 1)
    u = w[:k] + w[k + 1 :] + (n - 1,)
    chain = tuple(range(k)) + (g,) + tuple(range(k, g)) + (n - 1,)
    word = []
    for i in reduced_word(chain):
        word.append(("t", i))
        if top and i == g - 1:  # psi(t_(g-1)) = t_(g-1) e_(g-1)
            word.append(("e", i))
    rest = emask ^ (1 << g) if top else emask
    word += [("e", j) for j in _bits(rest)]
    coeff = values["mixed_closure"] if top else values["curl"]
    if top and g and rest >> (g - 1) & 1:  # psi(e_(g-1)) = -e_(g-1)
        coeff = -coeff
    terms = _rmul_word({(u, 0): coeff}, word, field)
    return _truncate(AlgebraElement(n, "even", terms, field))


def _truncate(x: AlgebraElement) -> AlgebraElement:
    n = x.n
    out = {}
    for (w, emask), c in x.terms.items():
        if w[n - 1] != n - 1 or (n >= 2 and emask >> (n - 2) & 1):
            raise ConsistencyError("closure left terms touching the closed strand")
        out[(w[: n - 1], emask)] = c
    return AlgebraElement(n - 1, "even", out, x.field)


def markov_trace(x: AlgebraElement):
    """Categorical trace of an even element with all strands closed."""
    _startup_checks(x.field)
    if x.variant != "even":
        raise DomainError("markov_trace expects the even variant")
    while x.n > 0:
        x = close_last_strand(x)
    return x.terms.get(((), 0), x.field.zero)


def markov_trace_at(x: AlgebraElement, N: int):
    """Trace computed inside Q(zeta_4N): specialize coefficients first, then
    run the same closure recursion in cyclotomic arithmetic."""
    if not isinstance(x.field, type(QIQ)):
        raise DomainError("markov_trace_at expects rational-function coefficients")
    spec = x.map_coefficients(lambda c: specialize(c, N), _field_for(N))
    return markov_trace(spec)


def categorical_trace(hom):
    """Trace of an endomorphism-type HomElement via its bent coordinates."""
    if hom.source != hom.target:
        raise DomainError("categorical trace needs equal source and target")
    return markov_trace(hom.bend())


@lru_cache(maxsize=None)
def _trace_vector(n, field) -> tuple:
    """The traces of the basis monomials, in basis_keys_even(n) order."""
    return tuple(
        markov_trace(AlgebraElement(n, "even", {key: field.one}, field))
        for key in basis_keys_even(n)
    )


# ---------------------------------------------------------------------------
# Gram matrices and ranks.


class GramReport(Record):
    _fields = ("source", "target", "basis", "entries")

    def __init__(self, source: str, target: str, basis: list, entries: list):
        self.source = source
        self.target = target
        self.basis = basis
        # a square matrix of ScalarQ; fixed once `distinct` has read it
        self.entries = entries

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def distinct(self) -> tuple:
        """(the distinct entries in row-major order of first appearance, the
        matrix of their indices there); End(+^3) has 35 among 576."""
        index = {}
        rows = [[index.setdefault(c, len(index)) for c in row] for row in self.entries]
        return list(index), rows


# Work bounds: End(+^5) is 1,920-dim.  Mixed signatures compose per entry
# through End(s1), so at 3 strands their cost grows with the downward
# letters of a boundary.
MAX_GRAM_STRANDS_PLUS = 4
MAX_GRAM_STRANDS_MIXED = 3
MAX_GRAM_DOWN_MIXED = 1  # '-' letters on one boundary at 3 strands


def gram_matrix(s1: str, s2: str) -> GramReport:
    """Pairwise traces tr(rot(b_k) o b_j) over the hom-space basis.

    For +^n the basis is the algebra basis and entry (j, k) is
    tau(b_j theta(b_k)), from the trace vector and right-action tables;
    general signatures compose in the skein layer.  Beyond the MAX_GRAM_*
    bounds, or for an unsorted signature like '+-+', this raises DomainError.
    """
    dim = dim_hom_formula(s1, s2)  # 0 exactly when the charges differ
    if not dim:
        return GramReport(s1, s2, [], [])
    m = (len(s1) + len(s2)) // 2
    plus = s1 == s2 == "+" * m
    limit = MAX_GRAM_STRANDS_PLUS if plus else MAX_GRAM_STRANDS_MIXED
    if m > limit:
        kind = "all-plus" if plus else "mixed"
        raise DomainError(f"gram needs {m} strands, over the {kind} limit {limit}")
    if not plus:
        down = max(s1.count("-"), s2.count("-"))
        if m == MAX_GRAM_STRANDS_MIXED and down > MAX_GRAM_DOWN_MIXED:
            raise DomainError(
                f"gram needs {down} '-' letters on a boundary at {m} strands, "
                f"over the mixed limit {MAX_GRAM_DOWN_MIXED}"
            )
        for sig in (s1, s2):
            if "-+" in sig:
                raise DomainError(f"signature {sig!r} is not sorted: gram needs "
                                  "signatures sorted like '++--'")
    basis = basis_keys_even(m)
    if len(basis) != dim:
        raise ConsistencyError("basis enumeration disagrees with dimension formula")
    if plus:
        # column k is x -> tau(x theta(b_k)): the trace vector pulled back
        # through the right action of theta(b_k)'s letters, right to left
        columns = {(): dict(zip(basis, _trace_vector(m, QIQ)))}

        def column(word):
            if word not in columns:
                rest = column(word[1:])
                columns[word] = {
                    b: sum((c * rest[k] for k, c in _right_action(*b, word[0], QIQ)
                            if rest[k]), QIQ.zero)
                    for b in basis
                }
            return columns[word]

        cols = [column(_theta_word(w, emask)) for (w, emask) in basis]
        entries = [[col[b] for col in cols] for b in basis]
        return GramReport(s1, s2, basis, entries)
    from .skein import hom_basis_element  # deferred: skein imports this module

    homs = [hom_basis_element(s1, s2, key) for key in basis]
    rotated = [b.rotate_180() for b in homs]
    entries = [
        [markov_trace(bj.compose(rk).bend()) for rk in rotated] for bj in homs
    ]
    return GramReport(s1, s2, basis, entries)


# q's image in F_p for the generic rank.  Any residue is sound: one where
# the reduced matrix loses rank only costs the exact fallback.
GENERIC_Q_RESIDUE = 0x1545F4914F6CDD1D


def gram_rank(report: GramReport, N) -> int:
    """Certified rank of the Gram matrix at q = zeta_4N, or over Q(i)(q)
    ('generic').

    The matrix is first reduced mod the prime p of `_modular_point`: at
    zeta_4N by q -> zeta and i -> zeta^N (a ring map from Z[zeta_4N], as
    i = zeta^N there), generically by i -> an element of order 4 and q ->
    GENERIC_Q_RESIDUE.  A nonzero minor mod p is nonzero in characteristic
    0, so full rank mod p certifies the rank.  Below full rank, or where a
    denominator vanishes mod p, the matrix is eliminated exactly: over
    Q(zeta_4N) after `specialize` (a genuine pole raises PoleError), or over
    Q(i)(q).  N is checked first, also for a matrix of dimension 0."""
    if N == "generic":
        m = 4
    elif isinstance(N, int):
        m = point_order(N)
    else:
        raise DomainError(f"gram_rank takes an int N or 'generic', not {N!r}")
    if not report.basis:
        return 0
    p, zeta = _modular_point(m)
    q, i = (GENERIC_Q_RESIDUE, zeta) if N == "generic" else (zeta, pow(zeta, N, p))
    inverses = {}  # each distinct denominator is inverted once
    rows = _entrywise(report, lambda c: residue(c, p, q, i, inverses))
    if not any(None in row for row in rows) and _rank_mod_p(rows, p) == report.dimension:
        return report.dimension
    if N == "generic":
        return matrix_rank(report.entries)
    try:
        mat = _entrywise(report, lambda c: specialize(c, N))
    except PoleError as exc:
        raise PoleError(f"Gram entry has a pole at N={N}: {exc}") from exc
    return matrix_rank(mat)


def _entrywise(report: GramReport, fn) -> list:
    """The matrix of fn(entry), with fn called once per distinct entry, in
    row-major order of first appearance."""
    distinct, rows = report.distinct
    values = [fn(c) for c in distinct]
    return [[values[k] for k in row] for row in rows]


def _rank_mod_p(rows: list, p: int) -> int:
    """Rank of an int matrix mod the prime p; rows is consumed.  Each step
    drops the pivot column, so every row update is one pass over the
    columns still live."""
    rank = 0
    while rows and rows[0]:
        for k, prow in enumerate(rows):
            if prow[0]:
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        del rows[k]
        inv = p - pow(prow[0], -1, p)  # minus the pivot's inverse
        prow = prow[1:]
        for k, row in enumerate(rows):
            f = row[0] * inv % p
            rows[k] = [(a + f * b) % p for a, b in zip(row[1:], prow)] if f else row[1:]
        rank += 1
    return rank


def matrix_rank(mat: list) -> int:
    """Exact Gaussian elimination over any field with inv, *, - and is_zero.

    Each pivot is inverted once.  Only the columns right of the pivot are
    updated: the entries left of it are never read again.
    """
    if not mat:
        return 0
    rows = [list(r) for r in mat]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pinv = prow[col].inv()
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            if row[col].is_zero:
                continue
            factor = row[col] * pinv
            for k in range(col + 1, ncols):
                if prow[k]:
                    row[k] = row[k] - factor * prow[k]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Startup re-derivations of the base closure values.


@lru_cache(maxsize=None)
def _startup_checks(field):
    """Run verify_derived_closures once per field; a check that raised is
    not cached, so the next trace runs it again."""
    verify_derived_closures(field)


def verify_derived_closures(field=QIQ) -> None:
    """Re-derive the closure table from the relations; ConsistencyError on
    any mismatch.  Checks: the inverse-curl value -i = i - (q - q^(-1)) d,
    the vanishing ladder closure, and the mixed closures via cyclicity and
    the quadratic mixed relation."""
    one1 = identity_element(1, "even", field)
    t = t_element(2, 0, field)
    tinv = t_element(2, 0, field, inverse=True)
    e = e_element(2, 0, field)
    d = field.loop
    z = field.z
    i = field.i
    checks = [
        (close_last_strand(t), one1.scale(i), "curl"),
        (close_last_strand(tinv), one1.scale(-i), "inverse curl"),
        (close_last_strand(e), one1.scale(field.zero), "ladder closure"),
        (close_last_strand(multiply(e, t)), one1.scale(i), "mixed closure et"),
        (close_last_strand(multiply(t, e)), one1.scale(i), "mixed closure te"),
    ]
    for got, want, name in checks:
        if got != want:
            raise ConsistencyError(f"closure value for {name} is off: {got}")
    if i - z * d != -i:
        raise ConsistencyError("inverse curl derivation i - z*d = -i failed")
    lhs = close_last_strand(multiply(e, t)) + close_last_strand(
        multiply(tinv, e)
    )
    if lhs != one1.scale(z * d):
        raise ConsistencyError("mixed-closure sum does not match (q-q^(-1))*d")
