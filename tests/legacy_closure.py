"""The two-sided (sandwich) closure that ``trace_gram._close_monomial``
replaced, kept as a test oracle.

A basis monomial is split as a * L * b with a, b not touching the last
strand and L one of the labels below, reassembled with ``multiply`` and
scaled by L's closure value.  The rewriting of t_g * z * e_g uses

    t_g t_{g-1} e_g           = (t_g e_g) (t_{g-1} e_{g-1})
    t_g e_{g-1} e_g           = -(t_g e_g) e_{g-1}
    t_g t_{g-1} e_{g-1} e_g   = (t_g e_g) t_{g-1}

``test_trace_gram.py`` checks that the one-fold closure agrees with it on
every even monomial with at most five strands.
"""

from __future__ import annotations

from skeinhc.errors import ConsistencyError
from skeinhc.hecke_clifford import (
    AlgebraElement,
    e_element,
    identity_element,
    multiply,
    t_element,
)
from skeinhc.trace_gram import _truncate, closure_values

_ONE = "1"
_T = "t"
_E = "e"
_TE = "te"


def _unit(n, field):
    return identity_element(n, "even", field)


def _monomial(n, w, emask, field) -> AlgebraElement:
    return AlgebraElement(n, "even", {(w, emask): field.one}, field)


def _two_sided(x: AlgebraElement, g: int):
    """Decompose an even element with generator indices <= g with respect to
    t_g / e_g: yields (a, label, b, coeff) with a * L * b the contribution,
    a and b having generator indices <= g-1.
    """
    n, field = x.n, x.field
    top_strand = g + 1
    for (w, emask), coeff in x.terms.items():
        has_e = bool(emask >> g & 1) if g >= 0 else False
        if g < 0 or w[top_strand] == top_strand:
            if not has_e:
                yield _monomial(n, w, emask, field), _ONE, _unit(n, field), coeff
            else:
                yield (
                    _monomial(n, w, emask ^ (1 << g), field),
                    _E,
                    _unit(n, field),
                    coeff,
                )
            continue
        k = w.index(top_strand)
        u = list(w)
        del u[k]
        u.insert(top_strand, top_strand)
        u = tuple(u)
        cp = list(range(n))  # the descending chain s_{g-1} ... s_k
        for j in range(k + 1, g + 1):
            cp[j] = j - 1
        cp[k] = g
        cp = tuple(cp)
        if not has_e:
            yield (
                _monomial(n, u, 0, field),
                _T,
                _monomial(n, cp, emask, field),
                coeff,
            )
        else:
            mid = _monomial(n, cp, emask ^ (1 << g), field)
            hu = _monomial(n, u, 0, field)
            for a, label, b, cf in _t_mid_e(mid, g):
                if label != _TE:
                    raise ConsistencyError("sandwich reduction must yield te")
                yield multiply(hu, a), _TE, b, coeff * cf


def _t_mid_e(z: AlgebraElement, g: int):
    """Rewrite t_g * z * e_g (z with generator indices <= g-1) as a sum of
    a * (t_g e_g) * b with a, b of generator indices <= g-1."""
    n, field = z.n, z.field
    tp = t_element(n, g - 1, field) if g >= 1 else None
    ep = e_element(n, g - 1, field) if g >= 1 else None
    for a, label, b, cf in _two_sided(z, g - 1):
        if label == _ONE:
            yield multiply(a, b), _TE, _unit(n, field), cf
        elif label == _T:
            yield a, _TE, multiply(multiply(tp, ep), b), cf
        elif label == _E:
            yield a, _TE, multiply(ep, b), -cf
        else:  # _TE
            yield a, _TE, multiply(tp, b), cf


def close_monomial(n, w, emask, field) -> AlgebraElement:
    values = closure_values(field)
    factors = {_ONE: values["loop"], _T: values["curl"], _TE: values["mixed_closure"]}
    acc = AlgebraElement(n, "even", {}, field)
    for a, label, b, cf in _two_sided(_monomial(n, w, emask, field), n - 2):
        if label == _E:
            continue
        acc = acc + multiply(a, b).scale(cf * factors[label])
    return _truncate(acc)
