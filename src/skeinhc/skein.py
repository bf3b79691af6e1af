"""Diagram words and hom-space elements for the two-color skein theory.

A diagram word is a bottom-to-top sequence of letters acting on a running
boundary signature over {+,-}: crossings and ladders on adjacent upward
strands, and caps/cups in either orientation.  A morphism s1 -> s2 is stored
by its bent element: its exact image in the n-strand even algebra,
n = (|s1| + |s2|)/2, under a fixed bending that rotates every '-' boundary
point around the right-hand side of the diagram (rightmost first, sweeping
over what it crosses).  Coordinates over the hom basis are derived by a
solve, run only where they are read: `coeffs`, and the boxes that `compose`
and `tensor` apply.

The letter actions on bent elements are exact braid multiplications plus
partial closures; the zig-zag, loop, and curl identities pin the convention
and are enforced by the test suite.  Interleaved signatures are supported as
sources and as stored boundaries; composition and tensor product require the
*target* signatures to be in sorted form (all '+' before all '-'), which is
no loss of generality since every hom space has a sorted representative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .hecke_clifford import (
    AlgebraElement,
    _add_term,
    _lmul_even,
    _rmul_terms,
    _rmul_word,
    basis_keys_even,
    identity_element,
    term_list,
    theta,
)
from .scalars import QIQ, ScalarQ, _scalar, parse_scalar
from .trace_gram import close_last_strand
from .combinatorics import dim_hom_formula

__all__ = [
    "Crossing",
    "Ladder",
    "Cap",
    "Cup",
    "parse_diagram_word",
    "format_diagram_word",
    "HomElement",
    "identity_hom",
    "hom_basis_element",
    "basis_indices",
    "evaluate",
    "straighten",
    "ladder_normalization",
    "g_projection",
    "random_diagram_word",
    "insert_random_identities",
    "hom_to_json",
    "hom_from_json",
]


@dataclass(frozen=True)
class Crossing:
    index: int  # 0-based position of the left strand
    positive: bool = True


@dataclass(frozen=True)
class Ladder:
    index: int


@dataclass(frozen=True)
class Cap:
    index: int


@dataclass(frozen=True)
class Cup:
    index: int
    pair: str  # '+-' or '-+'


def _check_signature(sig: str) -> str:
    if any(c not in "+-" for c in sig):
        raise DomainError(f"bad signature {sig!r}")
    return sig


def _charge(sig: str) -> int:
    return sig.count("+") - sig.count("-")


# ---------------------------------------------------------------------------
# The evaluation state: running signature plus bent element.


class _State:
    """sig: the running boundary; terms: the bent element as an
    even-variant term dict over m = (#inputs) strands; p1: number of '+'
    in the original source.

    The strand bookkeeping is positional: the k-th '+' of sig is the k-th
    output, and the minus at position j is chained to input
    p1 + #(minuses right of j).
    """

    __slots__ = ("sig", "m", "terms", "p1")

    def __init__(self, source: str):
        _check_signature(source)
        self.sig = list(source)
        self.p1 = source.count("+")
        self.m = len(source)
        self.terms = identity_element(self.m, "even").terms

    @property
    def x(self) -> AlgebraElement:
        return AlgebraElement(self.m, "even", self.terms)

    def set_even(self, x: AlgebraElement):
        self.m = x.n
        self.terms = x.terms

    def rank(self, pos: int) -> int:
        return sum(1 for c in self.sig[:pos] if c == "+")

    def minus_src(self, pos: int) -> int:
        return self.p1 + sum(1 for c in self.sig[pos + 1 :] if c == "-")

    # -- letters ------------------------------------------------------------
    def crossing(self, i: int, positive: bool):
        if not (0 <= i < len(self.sig) - 1):
            raise DomainError(f"crossing index {i + 1} out of range")
        if self.sig[i] != "+" or self.sig[i + 1] != "+":
            raise DomainError("crossings act on two upward strands")
        self.vcross(self.rank(i), positive)

    def ladder(self, i: int):
        if not (0 <= i < len(self.sig) - 1):
            raise DomainError(f"ladder index {i + 1} out of range")
        if self.sig[i] != "+" or self.sig[i + 1] != "+":
            raise DomainError("ladders act on two upward strands")
        self.vladder(self.rank(i))

    def cup(self, i: int, pair: str):
        if pair not in ("+-", "-+"):
            raise DomainError(f"bad cup orientation {pair!r}")
        if not (0 <= i <= len(self.sig)):
            raise DomainError(f"cup index {i + 1} out of range")
        m_old = self.m
        r = self.rank(i)
        u_new = self.p1 + sum(1 for c in self.sig[i:] if c == "-")
        terms = {(w + (m_old,), s): c for (w, s), c in self.terms.items()}
        for k in range(m_old - 1, u_new - 1, -1):  # chain re-laning, below
            terms = _lmul_even(k, terms, QIQ.z, inverse=True)
        sweep = [("t", k, -1) for k in range(m_old - 1, r - 1, -1)]  # above
        terms = _rmul_word(terms, sweep, QIQ)
        self.m = m_old + 1
        self.terms = terms
        if pair == "-+":
            self._scale(-QIQ.i)
        self.sig[i:i] = list(pair)

    def _scale(self, c):
        self.terms = {k: v * c for k, v in self.terms.items()}

    def cap(self, i: int):
        if not (0 <= i < len(self.sig) - 1):
            raise DomainError(f"cap index {i + 1} out of range")
        pair = self.sig[i] + self.sig[i + 1]
        if pair == "-+":
            self._contract(minus_pos=i, plus_pos=i + 1)
        elif pair == "+-":
            self._contract(minus_pos=i + 1, plus_pos=i)
        else:
            raise DomainError("caps need oppositely oriented adjacent strands")

    def _contract(self, minus_pos: int, plus_pos: int):
        """Join the plus output at plus_pos to the chained minus at minus_pos
        around the right-hand side, then close the freed strand."""
        u = self.minus_src(minus_pos)
        r = self.rank(plus_pos)
        walk = [("t", k) for k in range(r, self.m - 1)]  # the output to the last slot
        terms = _rmul_word(self.terms, walk, QIQ)
        for k in range(u, self.m - 1):  # walk the input below
            terms = _lmul_even(k, terms, QIQ.z)
        closed = close_last_strand(AlgebraElement(self.m, "even", terms))
        if minus_pos < plus_pos:
            closed = closed.scale(QIQ.i)
        self.set_even(closed)
        for pos in sorted((minus_pos, plus_pos), reverse=True):
            del self.sig[pos]

    # virtual letters for hom-space words (rank-addressed, signature-agnostic)
    def vcross(self, r: int, positive: bool = True):
        letter = ("t", r) if positive else ("t", r, -1)
        self.terms = _rmul_word(self.terms, [letter], QIQ)

    def vladder(self, r: int):
        self.terms = _rmul_word(self.terms, [("e", r)], QIQ)

    def apply(self, letter):
        if isinstance(letter, Crossing):
            self.crossing(letter.index, letter.positive)
        elif isinstance(letter, Ladder):
            self.ladder(letter.index)
        elif isinstance(letter, Cup):
            self.cup(letter.index, letter.pair)
        elif isinstance(letter, Cap):
            self.cap(letter.index)
        else:
            raise DomainError(f"unknown diagram letter {letter!r}")


def _apply_hom_word(
    state: _State, box: dict, s_from: str, s_to: str, part_start: int
):
    """Apply the diagram of the element of Hom(s_from -> s_to) with basis
    coordinates `box` (key -> scalar) to the segment of the running signature
    starting at part_start (which must currently read s_from).  Requires s_to
    sorted.  Every step is linear, so the cups and caps run once and the box
    acts as one right multiplication.
    """
    seg = state.sig[part_start : part_start + len(s_from)]
    if "".join(seg) != s_from:
        raise DomainError("segment does not match the morphism source")
    if "-+" in s_to:
        raise DomainError("composition targets must be sorted like '++--'")
    m_to = s_to.count("-")
    rank_offset = state.rank(part_start)
    # cups feeding the extra inputs of the algebra box
    for j in range(m_to):
        state.cup(part_start + len(s_from) + j, "+-")
    # the algebra box itself, addressed by plus ranks
    state.terms = _rmul_terms(state.terms, box, QIQ, rank_offset)
    # caps pairing the source minuses with the top-ranked box outputs,
    # leftmost minus against the highest rank
    n_minus = s_from.count("-")
    p_to = s_to.count("+")
    for step in range(n_minus):
        seg_len = len(s_from) + 2 * m_to - 2 * step
        minus_pos = next(
            pos
            for pos in range(part_start, part_start + seg_len)
            if state.sig[pos] == "-"
        )
        plus_rank = rank_offset + p_to + (n_minus - 1 - step)
        plus_pos = _pos_of_rank(state, plus_rank)
        state._contract(minus_pos=minus_pos, plus_pos=plus_pos)


def _pos_of_rank(state: _State, r: int) -> int:
    count = -1
    for pos, c in enumerate(state.sig):
        if c == "+":
            count += 1
            if count == r:
                return pos
    raise DomainError(f"no plus strand of rank {r}")


# ---------------------------------------------------------------------------
# The hom-space basis: each index (w, emask) names the diagram obtained by
# boxing h_w e_s between cups feeding its trailing inputs and caps returning
# its trailing outputs to the source minuses.  Its bent element (a column of
# C) is computed once per signature pair; on +^n <-> +^n C is the identity.


@lru_cache(maxsize=None)
def _change_of_basis(source: str, target: str):
    """The bent columns of the hom basis (hom key -> algebra terms) and their
    factor C = L*U, eliminated in basis_keys_even order without pivoting: one
    (key, 1/pivot, column of L below the pivot, row of U right of it) per key.
    """
    keys = basis_keys_even((len(source) + len(target)) // 2)
    columns = {}
    rows = {key: {} for key in keys}  # C by rows, eliminated in place
    for key in keys:
        state = _State(source)
        _apply_hom_word(state, {key: QIQ.one}, source, target, 0)
        if "".join(state.sig) != _sorted_sig(target):
            raise ConsistencyError("basis word left an unexpected boundary")
        columns[key] = state.terms
        for akey, c in state.terms.items():
            rows[akey][key] = c
    factor = []
    for key in keys:
        u_row = rows.pop(key)
        pivot = u_row.pop(key, None)
        if pivot is None:
            raise ConsistencyError(f"change of basis has a vanishing pivot at {key}")
        inv = QIQ.one / pivot
        l_col = {}
        for akey, row in rows.items():
            c = row.pop(key, None)
            if c is not None:
                l_col[akey] = lc = c * inv
                for j, u in u_row.items():
                    _add_term(row, j, -lc * u)
        factor.append((key, inv, l_col, u_row))
    return columns, factor


def _coords_to_algebra(coeffs: dict, source: str, target: str) -> dict:
    columns = _change_of_basis(source, target)[0]
    out: dict = {}
    for key, c in coeffs.items():
        for akey, v in columns[key].items():
            _add_term(out, akey, c * v)
    return out


def _algebra_to_coords(x: AlgebraElement, source: str, target: str) -> dict:
    """Solve C*coords = x: forward through L, then back through U."""
    y = dict(x.terms)
    if not y:
        return y
    factor = _change_of_basis(source, target)[1]
    for key, _, l_col, _ in factor:
        c = y.get(key)
        if c is not None:
            for akey, v in l_col.items():
                _add_term(y, akey, -v * c)
    out: dict = {}
    for key, inv, _, u_row in reversed(factor):
        c = y.get(key, QIQ.zero)
        for j, u in u_row.items():
            if j in out:
                c = c - u * out[j]
        if not c.is_zero:
            out[key] = c * inv
    return out


# ---------------------------------------------------------------------------
# HomElement: the bent element, with basis coordinates as a derived view.


class HomElement:
    """A morphism s1 -> s2, stored by its bent element: its image in the even
    algebra on (|s1|+|s2|)/2 strands.  Built from coordinates over the basis
    indexed by (permutation, ladder mask), which `coeffs` solves back for.
    """

    __slots__ = ("source", "target", "_bent")

    def __init__(self, source: str, target: str, coeffs=None):
        self.source = _check_signature(source)
        self.target = _check_signature(target)
        terms = {}
        if coeffs:
            if _charge(source) != _charge(target):
                raise DomainError("nonzero element of a zero hom space")
            for key in coeffs:
                _check_basis_key(key, source, target)
            try:
                coeffs = {key: _scalar(c) for key, c in coeffs.items()}
            except TypeError as exc:
                raise DomainError(f"hom coefficient: {exc}") from None
            terms = _coords_to_algebra(coeffs, source, target)
        self._bent = AlgebraElement(self.strand_count, "even", terms)

    @property
    def strand_count(self) -> int:
        return (len(self.source) + len(self.target)) // 2

    @property
    def coeffs(self) -> dict:
        """Coordinates over the hom basis: the solve C x = bend()."""
        return _algebra_to_coords(self._bent, self.source, self.target)

    def bend(self) -> AlgebraElement:
        """The element of the even algebra carrying this morphism under the
        fixed bending isomorphism of the hom space."""
        if _charge(self.source) != _charge(self.target):
            raise DomainError("zero hom space has no bent coordinates")
        return self._bent

    @classmethod
    def unbend(cls, x: AlgebraElement, source: str, target: str) -> "HomElement":
        if x.field is not QIQ:
            raise DomainError("hom elements take rational-function coefficients")
        hom = cls(source, target)
        if x.n != hom.strand_count:
            raise DomainError("strand count does not match the signatures")
        if not x.is_zero:
            if _charge(source) != _charge(target) or "-+" in target:
                raise DomainError("nonzero x on a zero hom space or an unsorted target")
            hom._bent = x
        return hom

    # -- linear structure -----------------------------------------------------
    def _compat(self, other: "HomElement"):
        if self.source != other.source or self.target != other.target:
            raise DomainError("mismatched signatures")

    def __add__(self, other):
        self._compat(other)
        return HomElement.unbend(self._bent + other._bent, self.source, self.target)

    def __sub__(self, other):
        return self + other.scale(-QIQ.one)

    def scale(self, c) -> "HomElement":
        return HomElement.unbend(self._bent.scale(c), self.source, self.target)

    def __eq__(self, other):
        if not isinstance(other, HomElement):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._bent == other._bent
        )

    def __hash__(self):
        return hash((self.source, self.target, self._bent))

    @property
    def is_zero(self) -> bool:
        return self._bent.is_zero

    def equals(self, other: "HomElement") -> bool:
        """Exact comparison (signatures must agree) of the bent elements."""
        self._compat(other)
        return self._bent == other._bent

    # -- categorical structure -------------------------------------------------
    def compose(self, other: "HomElement") -> "HomElement":
        """self then other (other is applied above self)."""
        if other.source != self.target:
            raise DomainError("signature mismatch in composition")
        if self.is_zero or other.is_zero:
            return HomElement(self.source, other.target)
        state = _State(self.target)
        state.p1 = self.source.count("+")
        state.set_even(self.bend())
        _apply_hom_word(state, other.coeffs, self.target, other.target, 0)
        if "".join(state.sig) != _sorted_sig(other.target):
            raise DomainError("composition left an unexpected boundary")
        return HomElement.unbend(state.x, self.source, other.target)

    def tensor(self, other: "HomElement") -> "HomElement":
        src = self.source + other.source
        tgt = self.target + other.target
        if self.is_zero or other.is_zero:  # as is every element of a zero hom space
            return HomElement(src, tgt)
        state = _State(src)
        _apply_hom_word(state, self.coeffs, self.source, self.target, 0)
        _apply_hom_word(
            state, other.coeffs, other.source, other.target, len(self.target)
        )
        if "".join(state.sig) != _sorted_sig(self.target) + _sorted_sig(other.target):
            raise DomainError("tensor left an unexpected boundary")
        return HomElement.unbend(state.x, src, tgt)

    def rotate_180(self) -> "HomElement":
        """The fixed contravariant duality Hom(s1->s2) -> Hom(s2->s1): the
        rotation anti-automorphism applied to the bent element."""
        return HomElement.unbend(theta(self._bent), self.target, self.source)

    def __repr__(self):
        return f"HomElement({self.source!r} -> {self.target!r}, {self._bent!r})"

    def __str__(self):
        return str(self._bent)


def _sorted_sig(sig: str) -> str:
    return "+" * sig.count("+") + "-" * sig.count("-")


def identity_hom(sig: str) -> HomElement:
    """The identity morphism; its bent element is the algebra unit."""
    return HomElement.unbend(identity_element(len(sig), "even"), sig, sig)


def hom_basis_element(source: str, target: str, key) -> HomElement:
    return HomElement(source, target, {key: QIQ.one})


def _check_basis_key(key, source: str, target: str):
    """Raise DomainError unless key is in basis_indices(source, target): a
    permutation of the m strands with a ladder mask on m - 1 of them."""
    m = (len(source) + len(target)) // 2
    try:
        w, s = key
        ok = sorted(w) == list(range(m)) and type(s) is int
        ok = ok and 0 <= s < 1 << max(0, m - 1)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"{key!r} is not a basis index of Hom({source} -> {target})")


def basis_indices(source: str, target: str) -> list:
    """The index set of the bent basis of Hom(source -> target)."""
    if _charge(source) != _charge(target):
        return []
    m = (len(source) + len(target)) // 2
    keys = basis_keys_even(m)
    if len(keys) != dim_hom_formula(source, target):
        raise ConsistencyError("basis enumeration disagrees with the formula")
    return keys


# ---------------------------------------------------------------------------
# Word evaluation.


def evaluate(letters, source: str) -> HomElement:
    """Evaluate a diagram word bottom-to-top starting from `source`."""
    state = _State(source)
    for letter in letters:
        state.apply(letter)
    target = "".join(state.sig)
    if "-+" in target:
        raise DomainError(
            f"word ends on the non-sorted boundary {target!r}; coordinates "
            "need a sorted boundary (cap the open pairs or reorder)"
        )
    return HomElement.unbend(state.x, source, target)


def straighten(letters, n: int) -> AlgebraElement:
    """Evaluate an endomorphism word on n upward strands into the even
    algebra (all caps and cups removed)."""
    hom = evaluate(letters, "+" * n)
    if hom.target != "+" * n:
        raise DomainError(
            f"word is not an endomorphism of +^{n}: target {hom.target!r}"
        )
    return hom.bend()


def ladder_normalization() -> ScalarQ:
    """The scalar -2/(q - q^(-1)) relating the ladder to the projection
    composite through the invertible object."""
    return QIQ.from_int(-2) / QIQ.z


def g_projection() -> HomElement:
    """The idempotent in End(+-) projecting onto the invertible object: the
    ladder turned on its side (its left leg swung onto the downward strand),
    normalized to categorical trace 1 = dim g."""
    from .trace_gram import categorical_trace

    state = _State("+-")
    state.cup(2, "+-")  # fresh pair feeding the turned leg
    state.vladder(0)  # ladder on the two upward strands
    state._contract(minus_pos=1, plus_pos=_pos_of_rank(state, 0))
    turned = HomElement.unbend(state.x, "+-", "+-")
    tr = categorical_trace(turned)
    if tr.is_zero:
        raise ConsistencyError("turned ladder has vanishing trace")
    proj = turned.scale(QIQ.one / tr)
    if not proj.compose(proj).equals(proj):
        raise ConsistencyError("normalized turned ladder is not idempotent")
    return proj


# ---------------------------------------------------------------------------
# Word grammar: x3, x3' (crossing), e2 (ladder), cap2, cup2< / cup2>.

# the suffixes each letter kind accepts
_SUFFIXES = {"cap": ("", "<", ">"), "cup": ("<", ">"), "x": ("", "'"), "e": ("",)}


def parse_diagram_word(text: str) -> list:
    """Parse the diagram-word grammar (1-based positions).

    x3' is the inverse crossing; the ladder e2 has no inverse letter.
    cup< creates a (+,-) pair (flow right-to-left under the arc); cup>
    creates (-,+).  Caps may carry one redundant < or > suffix.
    """
    letters = []
    for token in text.split():
        kind = next((p for p in _SUFFIXES if token.startswith(p)), None)
        if kind is None:
            raise DomainError(f"bad diagram letter {token!r}")
        body = token[len(kind) :]
        suffix = body[-1:] if body[-1:] in ("'", "<", ">") else ""
        body = body[: len(body) - len(suffix)]
        if not body.isdecimal() or len(body) > 9:  # as in parse_generator_word
            raise DomainError(f"bad diagram letter {token!r}")
        if suffix not in _SUFFIXES[kind]:
            if kind == "cup":
                raise DomainError(f"cup needs an orientation suffix: {token!r}")
            raise DomainError(f"bad suffix on diagram letter {token!r}")
        idx = int(body) - 1
        if kind == "x":
            letters.append(Crossing(idx, positive=not suffix))
        elif kind == "e":
            letters.append(Ladder(idx))
        elif kind == "cap":
            letters.append(Cap(idx))
        else:
            letters.append(Cup(idx, "+-" if suffix == "<" else "-+"))
    return letters


def format_diagram_word(letters) -> str:
    out = []
    for letter in letters:
        if isinstance(letter, Crossing):
            out.append(f"x{letter.index + 1}" + ("" if letter.positive else "'"))
        elif isinstance(letter, Ladder):
            out.append(f"e{letter.index + 1}")
        elif isinstance(letter, Cap):
            out.append(f"cap{letter.index + 1}")
        elif isinstance(letter, Cup):
            out.append(f"cup{letter.index + 1}" + ("<" if letter.pair == "+-" else ">"))
        else:
            raise DomainError(f"unknown letter {letter!r}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# Random words and identity-preserving rewrites (well-definedness checks).


def random_diagram_word(n: int, rng, length: int = 8, max_cups: int = 2) -> list:
    """A random valid endomorphism word on +^n, mixing crossings, ladders,
    and matched cup/cap pairs."""
    letters = []
    sig = ["+"] * n
    open_extra = 0
    for _ in range(length):
        options = []
        plus_adj = [
            i for i in range(len(sig) - 1) if sig[i] == "+" and sig[i + 1] == "+"
        ]
        if plus_adj:
            options += [("x", i) for i in plus_adj] + [("e", i) for i in plus_adj]
        if open_extra < max_cups:
            options += [("cup", i) for i in range(len(sig) + 1)]
        cappable = [
            i
            for i in range(len(sig) - 1)
            if sig[i] != sig[i + 1]
        ]
        if open_extra and cappable:
            options += [("cap", i) for i in cappable]
        if not options:
            break
        kind, i = rng.choice(options)
        if kind == "x":
            letters.append(Crossing(i, positive=rng.random() < 0.5))
        elif kind == "e":
            letters.append(Ladder(i))
        elif kind == "cup":
            pair = rng.choice(["+-", "-+"])
            letters.append(Cup(i, pair))
            sig[i:i] = list(pair)
            open_extra += 1
            continue
        else:
            letters.append(Cap(i))
            del sig[i : i + 2]
            open_extra -= 1
            continue
    # close any remaining minuses against an adjacent plus
    while "-" in sig:
        for i in range(len(sig) - 1):
            if sig[i] != sig[i + 1]:
                letters.append(Cap(i))
                del sig[i : i + 2]
                break
    return letters


def insert_random_identities(letters, source: str, rng, count: int = 3) -> list:
    """Insert `count` random identity-valued letter pairs (R2 pairs on
    adjacent pluses, or zig-zag cup/cap pairs) at random slices; the result
    evaluates to the same morphism."""
    letters = list(letters)
    for _ in range(count):
        k = rng.choice(range(len(letters) + 1))
        sig = _signature_at(letters, source, k)
        options = []
        for i in range(len(sig) - 1):
            if sig[i] == "+" and sig[i + 1] == "+":
                options.append([Crossing(i, True), Crossing(i, False)])
                options.append([Crossing(i, False), Crossing(i, True)])
        for i, c in enumerate(sig):
            if c == "+":
                # zig-zags threading the upward strand through a new pair
                options.append([Cup(i, "+-"), Cap(i + 1)])
                options.append([Cup(i + 1, "-+"), Cap(i)])
            else:
                options.append([Cup(i, "-+"), Cap(i + 1)])
                options.append([Cup(i + 1, "+-"), Cap(i)])
        if not options:
            continue
        pair = rng.choice(options)
        letters[k:k] = pair
    return letters


def _signature_at(letters, source: str, k: int) -> str:
    sig = list(source)
    for letter in letters[:k]:
        if isinstance(letter, Cup):
            sig[letter.index : letter.index] = list(letter.pair)
        elif isinstance(letter, Cap):
            del sig[letter.index : letter.index + 2]
    return "".join(sig)


# ---------------------------------------------------------------------------
# JSON round-trip.


def hom_to_json(hom: HomElement) -> str:
    return json.dumps(
        {
            "source": hom.source,
            "target": hom.target,
            "terms": [] if hom.is_zero else term_list(hom.bend()),
        },
        sort_keys=True,
    )


def hom_from_json(text: str) -> HomElement:
    """Read hom_to_json's output; any malformed input raises DomainError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise DomainError(f"hom element is not JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise DomainError("hom element JSON needs an object with a 'terms' list")
    source, target = data.get("source"), data.get("target")
    if not (isinstance(source, str) and isinstance(target, str)):
        raise DomainError("hom element JSON needs 'source' and 'target' strings")
    m = (len(source) + len(target)) // 2
    terms = {}
    for item in data["terms"]:
        if not isinstance(item, dict) or not isinstance(item.get("coeff"), str):
            raise DomainError(f"term {item!r} needs a 'coeff' string")
        w, s = item.get("w"), item.get("s")
        if not isinstance(w, list) or any(type(x) is not int for x in w) or (
            sorted(w) != list(range(1, m + 1))
        ):
            raise DomainError(f"term w={w!r} is not a permutation of 1..{m}")
        if not isinstance(s, str) or len(s) > max(0, m - 1) or s.strip("01"):
            raise DomainError(f"term s={s!r} is not a ladder mask on {m} strands")
        key = (tuple(x - 1 for x in w), int(s[::-1] or "0", 2))
        if key in terms:
            raise DomainError(f"duplicate term w={w!r} s={s!r}")
        terms[key] = parse_scalar(item["coeff"])
    bent = AlgebraElement(m, "even", terms)
    return HomElement.unbend(bent, source, target)
