"""The triangular change of basis that ``hecke_clifford.even_convert``
replaced, kept as a test oracle.

The top-length part of h_w e_s in the full basis is the single monomial
c_(w(t)) h_w, with t the v-mask of e_s.  So a full-variant element of even
Clifford degree is converted by peeling off its top braid length: divide
each top term by the leading coefficient of the matching h_w e_s, subtract
that expansion, and repeat.  The expansion h_w c_t is the left fold of the
t letters of w (``_lmul_word``), cached here as ``_expand``.

``test_hecke_clifford.py`` checks that the fold-based ``even_convert``
agrees with it on every even-degree monomial c_s h_w with at most four
strands and on random elements.
"""

from __future__ import annotations

from functools import lru_cache

from skeinhc.errors import ConsistencyError
from skeinhc.hecke_clifford import (
    AlgebraElement,
    _add_term,
    _bits,
    _lmul_word,
    _v_to_e,
    inversions,
    perm_identity,
    perm_inverse,
    reduced_word,
)


@lru_cache(maxsize=None)
def _expand(w, vmask: int, field) -> dict:
    """The product h_w c_vmask in the full basis c_s h_w (cached; callers
    must not mutate the result)."""
    word = [("t", i) for i in reduced_word(w)]
    return _lmul_word(word, {(vmask, perm_identity(len(w))): field.one}, field)


def even_convert(a: AlgebraElement) -> AlgebraElement:
    """Rewrite a full-variant element of even Clifford degree in the basis
    h_w e_s by the triangular solve in the braid length."""
    if a.variant == "even":
        return a
    residual = dict(a.terms)
    out: dict = {}
    while residual:
        top = max(inversions(w) for (_vm, w) in residual)
        batch = [(vm, w) for (vm, w) in residual if inversions(w) == top]
        for vm, w in batch:
            c = residual.get((vm, w))
            if c is None or c.is_zero:
                continue
            winv = perm_inverse(w)
            tmask = 0
            for l in _bits(vm):
                tmask |= 1 << winv[l]
            emask = _v_to_e(tmask)  # raises ParityError on odd degree
            expansion = _expand(w, tmask, a.field)
            gamma = expansion.get((vm, w))
            if gamma is None or gamma.is_zero:
                raise ConsistencyError("lost leading term in even conversion")
            ratio = c / gamma
            _add_term(out, (w, emask), ratio)
            for key, cc in expansion.items():
                _add_term(residual, key, -cc * ratio)
    return AlgebraElement(a.n, "even", out, a.field)
