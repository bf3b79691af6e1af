"""Normal forms in the Hecke-Clifford algebras and their even parts.

The n-strand algebra is generated by braid-type generators t_j (touching
strands j, j+1; quadratic relation t - t^(-1) = q - q^(-1), braid relations)
and Clifford generators v_j on strand j (v_j^2 = 1, distinct v's
anticommute), with mixed relations that move v's leftward past t's:

    t_j v_j     = v_{j+1} t_j
    t_j v_{j+1} = v_j t_j - (q - q^(-1)) (v_j - v_{j+1})
    t_j v_l     = v_l t_j                (l != j, j+1)

The full algebra has basis c_s h_w (Clifford monomial on the left, s over
{0,1}^n, w over S_n); the even part has basis h_w e_s with e_j = v_j v_{j+1}
and s over {0,1}^(n-1).  Everything here is exact; coefficients live in any
field object from :mod:`.scalars` (rational functions by default).

Indices are 0-based internally; the public word grammar ("t1 e1 v2", with
"t1'" for an inverse) is 1-based.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, ParityError
from .scalars import QIQ

__all__ = [
    "AlgebraElement",
    "identity_element",
    "t_element",
    "e_element",
    "v_element",
    "normalize",
    "normalize_full",
    "multiply",
    "even_convert",
    "even_expand",
    "alpha",
    "theta",
    "antisymmetrizer",
    "parse_generator_word",
    "reduced_word",
    "perm_identity",
    "perm_mul",
    "perm_inverse",
    "inversions",
    "all_perms",
    "basis_keys_even",
    "closure_dimension",
]

Perm = tuple  # tuple[int, ...], images of 0..n-1


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a o b)(k) = a(b(k))."""
    return tuple(a[x] for x in b)


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for k, v in enumerate(a):
        out[v] = k
    return tuple(out)


def inversions(a: Perm) -> int:
    n = len(a)
    return sum(1 for j in range(n) for k in range(j + 1, n) if a[j] > a[k])


@lru_cache(maxsize=None)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for w (letters are 0-based
    generator indices), found greedily by smallest left descent."""
    word = []
    w = list(w)
    while True:
        for i in range(len(w) - 1):
            if w.index(i) > w.index(i + 1):
                word.append(i)
                pi, pj = w.index(i), w.index(i + 1)
                w[pi], w[pj] = i + 1, i
                break
        else:
            return tuple(word)


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n sorted by (length, one-line), a deterministic basis order."""
    from itertools import permutations

    return tuple(sorted(permutations(range(n)), key=lambda w: (inversions(w), w)))


def _bits(mask: int) -> list[int]:
    out = []
    k = 0
    while mask >> k:
        if (mask >> k) & 1:
            out.append(k)
        k += 1
    return out


def _e_to_v(emask: int) -> int:
    """Expand a product of e_j = v_j v_{j+1} (lex order) into a v-monomial.

    Maximal runs [a..b] of e-indices telescope to the pair v_a v_{b+1}, so
    the v-mask is the xor of the pairs; the sorted monomial has sign +1.
    """
    return emask ^ (emask << 1)


def _v_to_e(vmask: int) -> int:
    """Inverse of _e_to_v on even-size sorted v-monomials."""
    bits = _bits(vmask)
    if len(bits) % 2:
        raise ParityError("odd Clifford degree has no e-monomial form")
    emask = 0
    for k in range(0, len(bits), 2):
        for j in range(bits[k], bits[k + 1]):
            emask |= 1 << j
    return emask


class AlgebraElement:
    """A finite linear combination of basis monomials.

    variant 'full': keys (vmask, w) meaning c_vmask * h_w;
    variant 'even': keys (w, emask) meaning h_w * e_emask.
    Zero coefficients are never stored.
    """

    __slots__ = ("n", "variant", "field", "terms")

    def __init__(self, n: int, variant: str, terms: dict | None = None, field=QIQ):
        if variant not in ("full", "even"):
            raise DomainError(f"unknown variant {variant!r}")
        self.n = n
        self.variant = variant
        self.field = field
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero:
                    self.terms[key] = c

    # -- ring structure -----------------------------------------------------
    def _compat(self, other: "AlgebraElement"):
        if (
            not isinstance(other, AlgebraElement)
            or other.n != self.n
            or other.variant != self.variant
        ):
            raise DomainError("mismatched strand counts or variants")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, c)
        return AlgebraElement(self.n, self.variant, out, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(
            self.n, self.variant, {k: -c for k, c in self.terms.items()}, self.field
        )

    def scale(self, c) -> "AlgebraElement":
        if c == self.field.zero or (hasattr(c, "is_zero") and c.is_zero):
            return AlgebraElement(self.n, self.variant, {}, self.field)
        return AlgebraElement(
            self.n, self.variant, {k: v * c for k, v in self.terms.items()}, self.field
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.variant == other.variant
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.variant, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def map_coefficients(self, fn, field) -> "AlgebraElement":
        """Apply fn to every coefficient (e.g. specialization at a root of unity)."""
        out = {}
        for key, c in self.terms.items():
            v = fn(c)
            if not v.is_zero:
                out[key] = v
        return AlgebraElement(self.n, self.variant, out, field)

    def __repr__(self):
        return f"AlgebraElement(n={self.n}, {self.variant}, {len(self.terms)} terms)"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_term_sort_key(self.variant)):
            c = self.terms[key]
            parts.append(f"({c}) * {_monomial_str(key, self.variant)}")
        return " + ".join(parts)


def _term_sort_key(variant):
    if variant == "full":
        return lambda key: (inversions(key[1]), key[1], key[0])
    return lambda key: (inversions(key[0]), key[0], key[1])


def _monomial_str(key, variant) -> str:
    if variant == "full":
        vmask, w = key
        vs = "*".join(f"v{l + 1}" for l in _bits(vmask))
        hs = "*".join(f"t{i + 1}" for i in reduced_word(w))
        parts = [vs, hs]  # Clifford tokens left of the braid part
    else:
        w, emask = key
        hs = "*".join(f"t{i + 1}" for i in reduced_word(w))
        es = "*".join(f"e{j + 1}" for j in _bits(emask))
        parts = [hs, es]  # braid part left of the ladder monomial
    body = "*".join(x for x in parts if x)
    return body or "1"


def identity_element(n: int, variant: str = "even", field=QIQ) -> AlgebraElement:
    key = (0, perm_identity(n)) if variant == "full" else (perm_identity(n), 0)
    return AlgebraElement(n, variant, {key: field.one}, field)


def t_element(n: int, j: int, field=QIQ, inverse: bool = False) -> AlgebraElement:
    """The generator t_{j+1} (0-based j) as an even-variant element."""
    _check_index(n, j, n - 1)
    w = _simple(n, j)
    elem = AlgebraElement(n, "even", {(w, 0): field.one}, field)
    if inverse:
        elem = elem - identity_element(n, "even", field).scale(field.z)
    return elem


def e_element(n: int, j: int, field=QIQ) -> AlgebraElement:
    _check_index(n, j, n - 1)
    return AlgebraElement(n, "even", {(perm_identity(n), 1 << j): field.one}, field)


def v_element(n: int, j: int, field=QIQ) -> AlgebraElement:
    _check_index(n, j, n)
    return AlgebraElement(n, "full", {(1 << j, perm_identity(n)): field.one}, field)


def _check_index(n: int, j: int, bound: int):
    if not 0 <= j < bound:
        raise DomainError(f"generator index {j + 1} out of range for {n} strands")


def _simple(n: int, j: int) -> Perm:
    w = list(range(n))
    w[j], w[j + 1] = w[j + 1], w[j]
    return tuple(w)


# ---------------------------------------------------------------------------
# Left multiplication by generators on full-variant term dictionaries.


def _add_term(out: dict, key, c):
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero:
        out.pop(key, None)
    else:
        out[key] = s


def _hecke_lmul(j: int, w: Perm, c, z, out: dict, key):
    """t_j * c h_w into out, each h_u stored under key(u)."""
    wp = tuple(j + 1 if x == j else j if x == j + 1 else x for x in w)
    _add_term(out, key(wp), c)
    if w.index(j) > w.index(j + 1):  # descent: extra (q - q^(-1)) h_w term
        _add_term(out, key(w), c * z)


def _t_past_clifford(j: int, s: int, field) -> tuple:
    """t_j c_s as terms (b, r, c) meaning c c_r t_j^b (z = q - q^(-1)).
    t_j commutes with v_l for l != j, j+1, and v_j, v_(j+1) sit side by side
    in the sorted c_s, so only bits j and j+1 of s move."""
    one, z = field.one, field.z
    pair = 3 << j
    bits = s & pair
    if bits == pair:  # t_j v_j v_(j+1) = -v_j v_(j+1) t_j + z v_j v_(j+1) + z
        return ((1, s, -one), (0, s, z), (0, s ^ pair, z))
    if bits == 2 << j:  # t_j v_(j+1) = v_j t_j - z v_j + z v_(j+1)
        return ((1, s ^ pair, one), (0, s ^ pair, -z), (0, s, z))
    if bits:  # t_j v_j = v_(j+1) t_j
        return ((1, s ^ pair, one),)
    return ((1, s, one),)


def _lmul_word(word, terms: dict, field) -> dict:
    """Left-multiply a full-variant term dict by the letters of word, last
    letter first.  t_j passes c_s by _t_past_clifford and then acts on h_w
    (t_j^(-1) = t_j - z); v_l and e_j = v_j v_(j+1) multiply c_s with a sign."""
    z = field.z
    for letter in reversed(word):
        kind, j = letter[0], letter[1]
        out: dict = {}
        if kind == "t":
            inverse = letter[2:] == (-1,)
            for (s, w), coeff in terms.items():
                for b, r, c in _t_past_clifford(j, s, field):
                    if b:
                        _hecke_lmul(j, w, coeff * c, z, out, lambda u: (r, u))
                    else:
                        _add_term(out, (r, w), coeff * c)
                if inverse:
                    _add_term(out, (s, w), -coeff * z)
        else:
            m = 1 << j if kind == "v" else 3 << j
            for (s, w), coeff in terms.items():
                sign = _clifford_sign(m, s)
                _add_term(out, (s ^ m, w), coeff if sign > 0 else -coeff)
        terms = out
    return terms


def _clifford_sign(s: int, t: int) -> int:
    """The sign in c_s c_t = +-c_(s xor t): one factor -1 for each pair of
    v_a in c_s and v_b in c_t with a > b."""
    swaps = sum(bin(s >> (b + 1)).count("1") for b in _bits(t))
    return -1 if swaps & 1 else 1


def normalize_full(letters, n: int, field=QIQ) -> AlgebraElement:
    """Expand a generator word into the full-variant basis c_s h_w."""
    if n < 0:
        raise DomainError(f"strand count must be nonnegative, got {n}")
    letters = list(letters)
    for letter in reversed(letters):
        _validate_letter(letter, n)
    terms = _lmul_word(letters, {(0, perm_identity(n)): field.one}, field)
    return AlgebraElement(n, "full", terms, field)


def normalize(letters, n: int, field=QIQ) -> AlgebraElement:
    """Expand a generator word; even words come back in the h_w e_s basis.

    A word of t and e letters is folded from the unit through the even
    action.  Words with v letters go through the full basis; those with an
    odd total number of v's stay in the full variant.
    """
    letters = list(letters)
    if all(letter[0] != "v" for letter in letters):
        if n < 0:
            raise DomainError(f"strand count must be nonnegative, got {n}")
        for letter in letters:
            _validate_letter(letter, n)
        word = [_action_letter(letter) for letter in letters]
        unit = {(perm_identity(n), 0): field.one}
        return AlgebraElement(n, "even", _rmul_word(unit, word, field), field)
    full = normalize_full(letters, n, field)
    degrees = {bin(vmask).count("1") & 1 for (vmask, _w) in full.terms} or {0}
    if degrees == {0}:
        return even_convert(full)
    return full


def _action_letter(letter) -> tuple:
    """A t or e letter as _right_action spells it: ("t", j) for t_j shares
    the rows of every other caller, ("t", j, -1) is t_j^(-1)."""
    if letter[0] == "e":
        return letter
    return ("t", letter[1], -1) if letter[2] < 0 else ("t", letter[1])


def _validate_letter(letter, n: int):
    kind = letter[0]
    if kind in ("t", "e"):
        _check_index(n, letter[1], n - 1)
    elif kind == "v":
        _check_index(n, letter[1], n)
    else:
        raise DomainError(f"unknown generator letter {letter!r}")


# ---------------------------------------------------------------------------
# Actions of the generators on even-variant term dictionaries (keys (w, s)).


def _ladder_past_t(k: int, j: int, field) -> tuple:
    """e_k t_j as terms (b, r, c) meaning c t_j^b e_r (z = q - q^(-1))."""
    one, z = field.one, field.z
    if k == j:  # e_j t_j = -t_j e_j + z e_j + z
        return ((1, 1 << j, -one), (0, 1 << j, z), (0, 0, z))
    if k == j + 1:  # e_(j+1) t_j = t_j e_j e_(j+1)
        return ((1, 3 << j, one),)
    if k == j - 1:  # e_(j-1) t_j = t_j e_(j-1) e_j + z e_(j-1) - z e_(j-1) e_j
        return ((1, 3 << k, one), (0, 1 << k, z), (0, 3 << k, -z))
    return ((1, 1 << k, one),)


@lru_cache(maxsize=None)
def _ladder_moves(s: int, letter, field) -> tuple:
    """e_s * g as terms (b, r, c, cz) meaning c t_j^b e_r, for g the letter
    ("t", j) or ("e", j), with cz = c z when b = 1 (the descent term of
    h_w t_j).  g moves left past the ladders of e_s, highest first
    (e_m e_r = +-e_(m xor r)); the moves do not depend on w."""
    j = letter[1]
    moved = {(0, 1 << j) if letter[0] == "e" else (1, 0): field.one}
    for k in reversed(_bits(s)):
        step: dict = {}
        for (b, r), c in moved.items():
            past = _ladder_past_t(k, j, field) if b else ((0, 1 << k, field.one),)
            for b2, m, f in past:
                sign = _clifford_sign(_e_to_v(m), _e_to_v(r))
                _add_term(step, (b2, m ^ r), c * f if sign > 0 else -(c * f))
        moved = step
    return tuple((b, r, c, c * field.z if b else None) for (b, r), c in moved.items())


@lru_cache(maxsize=None)
def _right_action(w: Perm, s: int, letter, field) -> tuple:
    """The (key, c) with h_w e_s * g = sum of c h_u e_r, for g the letter
    ("t", j), ("t", j, -1) or ("e", j).  e_s g is rewritten by _ladder_moves
    (t_j^(-1) shares the moves of t_j); a t_j left over then acts on h_w.
    """
    j = letter[1]
    ws = w[:j] + (w[j + 1], w[j]) + w[j + 2 :]
    descent = w[j] > w[j + 1]
    out: dict = {}
    for b, r, c, cz in _ladder_moves(s, letter[:2], field):
        _add_term(out, (ws if b else w, r), c)
        if b and descent:  # h_w t_j = h_(w s_j) + z h_w
            _add_term(out, (w, r), cz)
    if letter[2:] == (-1,):  # t_j^(-1) = t_j - z
        _add_term(out, (w, s), -field.z)
    return tuple(out.items())


def _rmul_word(terms: dict, word, field) -> dict:
    """Right-multiply an even-variant term dict by the letters of word.

    Each product goes into the output dict in place; a factor that is the
    object field.one is not multiplied by, and a sum that cancels leaves no
    term."""
    one = field.one
    for letter in word:
        out: dict = {}
        get = out.get
        for (w, s), coeff in terms.items():
            for key, c in _right_action(w, s, letter, field):
                if c is one:
                    c = coeff
                elif coeff is not one:
                    c = coeff * c
                old = get(key)
                if old is None:
                    out[key] = c
                else:
                    c = old + c
                    if c.is_zero:
                        del out[key]
                    else:
                        out[key] = c
        terms = out
    return terms


def _lmul_even(j: int, terms: dict, z, inverse: bool = False) -> dict:
    """Left-multiply an even-variant term dict by t_j (or t_j^(-1) = t_j - z):
    t_j h_w e_s = (t_j h_w) e_s."""
    out: dict = {}
    for (w, s), c in terms.items():
        _hecke_lmul(j, w, c, z, out, lambda u: (u, s))
        if inverse:
            _add_term(out, (w, s), -c * z)
    return out


def _rmul_terms(terms: dict, other: dict, field, shift: int = 0) -> dict:
    """Right-multiply an even-variant term dict by the even-variant term dict
    other, whose strand k acts on strand shift + k of terms."""
    out: dict = {}
    for (w, emask), cb in other.items():
        word = [("t", shift + i) for i in reduced_word(w)]
        word += [("e", shift + j) for j in _bits(emask)]
        for key, c in _rmul_word(terms, word, field).items():
            _add_term(out, key, c * cb)
    return out


# ---------------------------------------------------------------------------
# Products and basis conversions.


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.n != b.n or a.variant != b.variant:
        raise DomainError("mismatched strand counts or variants")
    if a.variant == "even":
        return AlgebraElement(
            a.n, "even", _rmul_terms(a.terms, b.terms, a.field), a.field
        )
    out: dict = {}
    for (vmask, w), ca in a.terms.items():
        word = [("v", l) for l in _bits(vmask)] + [("t", i) for i in reduced_word(w)]
        cur = _lmul_word(word, {key: c * ca for key, c in b.terms.items()}, a.field)
        for key, c in cur.items():
            _add_term(out, key, c)
    return AlgebraElement(a.n, "full", out, a.field)


def even_expand(a: AlgebraElement) -> AlgebraElement:
    """Rewrite an even-variant element in the full basis c_s h_w: h_w e_s is
    c_(_e_to_v(s)) left-multiplied by the t letters of w."""
    if a.variant == "full":
        return a
    out: dict = {}
    for (w, emask), c in a.terms.items():
        word = [("t", i) for i in reduced_word(w)]
        start = {(_e_to_v(emask), perm_identity(a.n)): c}
        for key, cc in _lmul_word(word, start, a.field).items():
            _add_term(out, key, cc)
    return AlgebraElement(a.n, "full", out, a.field)


def even_convert(a: AlgebraElement) -> AlgebraElement:
    """Rewrite a full-variant element of even Clifford degree in the basis
    h_w e_s: c_s h_w is e_(_v_to_e(s)) right-multiplied by the t letters of w.

    >>> print(even_convert(normalize_full([("v", 0), ("v", 1)], 2)))
    (1) * e1
    """
    if a.variant == "even":
        return a
    out: dict = {}
    for (vmask, w), c in a.terms.items():
        word = [("t", i) for i in reduced_word(w)]
        start = {(perm_identity(a.n), _v_to_e(vmask)): c}  # ParityError if odd
        for key, cc in _rmul_word(start, word, a.field).items():
            _add_term(out, key, cc)
    return AlgebraElement(a.n, "even", out, a.field)


def alpha(a: AlgebraElement) -> AlgebraElement:
    """The order-two automorphism v_j -> -v_j, t_j -> t_j (full variant)."""
    if a.variant != "full":
        raise DomainError("alpha acts on the full variant")
    out = {}
    for (vmask, w), c in a.terms.items():
        out[(vmask, w)] = -c if (bin(vmask).count("1") & 1) else c
    return AlgebraElement(a.n, "full", out, a.field)


def theta(a: AlgebraElement) -> AlgebraElement:
    """The 180-degree rotation anti-automorphism of the even part:
    t_i -> t_{n-1-i}, e_i -> e_{n-1-i}, with products reversed.
    """
    if a.variant != "even":
        raise DomainError("theta acts on the even variant")
    out: dict = {}
    for (w, emask), c in a.terms.items():
        unit = {(perm_identity(a.n), 0): c}
        for key, cc in _rmul_word(unit, _theta_word(w, emask), a.field).items():
            _add_term(out, key, cc)
    return AlgebraElement(a.n, "even", out, a.field)


def _theta_word(w: Perm, emask: int) -> tuple:
    """theta(h_w e_s) = e_ref h_wp as letters, e over the bits of ref, then t:
    wp is w conjugated by the longest permutation, and ladders go j -> n-2-j."""
    n = len(w)
    w0 = tuple(range(n - 1, -1, -1))
    wp = perm_mul(w0, perm_mul(perm_inverse(w), w0))
    ladders = tuple(("e", n - 2 - j) for j in reversed(_bits(emask)))
    return ladders + tuple(("t", i) for i in reduced_word(wp))


def antisymmetrizer(N: int, field=QIQ) -> AlgebraElement:
    """The minimal braid-subalgebra idempotent with t_j p = p t_j = -q^(-1) p,
    normalized so p^2 = p: sum over S_N of (-q)^(-l(w)) h_w divided by the
    Poincare-type sum of q^(-2 l(w)).
    """
    if N < 2:
        raise DomainError("antisymmetrizer requires N >= 2")
    qpow = field.q_power
    num: dict = {}
    den = field.zero
    for w in all_perms(N):
        l = inversions(w)
        sgn = -1 if l & 1 else 1
        num[(w, 0)] = qpow(-l) if sgn > 0 else -qpow(-l)
        den = den + qpow(-2 * l)
    elem = AlgebraElement(N, "even", num, field)
    return elem.scale(field.one / den)


# ---------------------------------------------------------------------------
# Enumeration helpers.


def basis_keys_even(n: int) -> list:
    """The deterministic basis order of the even part: S_n sorted by
    (length, one-line), masks ascending."""
    return [(w, emask) for w in all_perms(n) for emask in range(1 << max(0, n - 1))]


def closure_dimension(n: int, variant: str = "even", field=QIQ) -> int:
    """Number of basis keys reachable from the identity under repeated
    multiplication by generators: an exhaustive dimension check."""
    if variant == "even":
        gens = [t_element(n, j, field) for j in range(n - 1)] + [
            e_element(n, j, field) for j in range(n - 1)
        ]
        start = identity_element(n, "even", field)
    else:
        gens = [
            even_expand(t_element(n, j, field)) for j in range(n - 1)
        ] + [v_element(n, j, field) for j in range(n)]
        start = identity_element(n, "full", field)
    seen = set(start.terms)
    frontier = [start]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                prod = multiply(elem, g)
                fresh = [key for key in prod.terms if key not in seen]
                if fresh:
                    seen.update(fresh)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Word grammar: whitespace-separated letters t3, t3' (inverse), v2, e2.


def parse_generator_word(text: str, n: int) -> list:
    """Parse the generator word grammar into internal letters (0-based)."""
    letters = []
    for token in text.split():
        kind = token[0]
        body = token[1:]
        inverse = body.endswith("'")
        if inverse:
            body = body[:-1]
        # at most nine decimal digits: int() rejects some isdigit() strings
        # ("²") and very long ones, and no strand count comes near 10^9
        if kind not in ("t", "v", "e") or not body.isdecimal() or len(body) > 9:
            raise DomainError(f"bad generator letter {token!r}")
        j = int(body) - 1
        if kind == "t":
            letters.append(("t", j, -1 if inverse else 1))
        elif inverse:
            raise DomainError(f"only t letters can be inverted: {token!r}")
        else:
            letters.append((kind, j))
    for letter in letters:
        _validate_letter(letter, n)
    return letters


def term_list(a: AlgebraElement) -> list[dict]:
    """JSON-friendly term list: 1-based one-line permutations and bitstrings."""
    out = []
    for key in sorted(a.terms, key=_term_sort_key(a.variant)):
        c = a.terms[key]
        if a.variant == "full":
            vmask, w = key
            smask, slen = vmask, a.n
        else:
            w, emask = key
            smask, slen = emask, max(0, a.n - 1)
        out.append(
            {
                "w": [x + 1 for x in w],
                "s": "".join("1" if (smask >> k) & 1 else "0" for k in range(slen)),
                "coeff": str(c),
            }
        )
    return out

