"""Exact elements of free Lie rings and of their tensor, symmetric, and mixed powers.

Coefficients live in Z, Q, or a prime field; all arithmetic is exact.  Lie
elements are stored in the Lyndon-word basis.  Conversion from the tensor
ring back to Lyndon coordinates exploits the triangularity of the expansion
of a standard bracketing: it equals its word plus lexicographically larger
words of the same content.
"""

from __future__ import annotations

from functools import reduce

from .words import Generator, LyndonWord, _split_point, is_lyndon
from .zlinalg import add_into, combine


class DomainError(ValueError):
    pass


class NotLieElementError(ValueError):
    pass


class IntegralityError(ArithmeticError):
    """A division the theory promises to be exact was not."""


class Domain:
    """Coefficient domain tag: exact integers, exact rationals, or Z/p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if (kind == "Fp") != (p is not None):
            raise ValueError("a modulus is given exactly for Fp domains")
        if p is not None and not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Domain) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return {"Z": "ZZ", "Q": "QQ"}.get(self.kind, f"GF({self.p})")

    def coerce(self, c):
        # the exact-type test first: isinstance(c, Fraction) runs ABCMeta's slow check
        if type(c) is int and self.kind != "Q":
            return c % self.p if self.kind == "Fp" else c
        # only QQ work builds or meets a rational, so fractions (and the
        # decimal it loads) is imported here, not on the package's import path
        from fractions import Fraction
        if type(c) is not int:
            if isinstance(c, Fraction):
                if self.kind == "Q":
                    return c
                if c.denominator != 1:
                    raise DomainError(f"{c} is not an element of {self!r}")
                c = c.numerator
            elif isinstance(c, bool) or not isinstance(c, int):
                raise DomainError(f"bad coefficient {c!r} for {self!r}")
        if self.kind == "Fp":
            return c % self.p
        if self.kind == "Q":
            return Fraction(c)
        return c

    def add(self, a, b):
        s = a + b
        return s % self.p if self.kind == "Fp" else s

    def mul(self, a, b):
        s = a * b
        return s % self.p if self.kind == "Fp" else s

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a):
        return a == 0

    def divide_exact(self, a, n):
        """Divide by the positive integer n; exactness is mandatory over Z."""
        if n <= 0:
            raise ValueError("divisor must be positive")
        if self.kind == "Q":
            return a / n
        if self.kind == "Fp":
            if n % self.p == 0:
                raise IntegralityError(f"integrality violated: cannot divide by {n} in {self!r}")
            return (a * pow(n, -1, self.p)) % self.p
        q, r = divmod(a, n)
        if r:
            raise IntegralityError(f"integrality violated: {a} is not divisible by {n}")
        return q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ZZ = Domain("Z")
QQ = Domain("Q")


def GF(p) -> Domain:
    return Domain("Fp", p)


class _Element:
    """Shared behavior of finitely supported coefficient maps on a basis."""

    __slots__ = ("alphabet", "domain", "terms")
    _canonical = None       # key -> its normal form, where keys have one

    def __init__(self, alphabet, domain, terms=(), _clean=False):
        self.alphabet = alphabet
        self.domain = domain
        if _clean:
            self.terms = terms
        else:
            items = terms.items() if isinstance(terms, dict) else terms
            if self._canonical is not None:
                items = [(self._canonical(key), c) for key, c in items]
            self.terms = {}
            add_into(self.terms, ((key, domain.coerce(c)) for key, c in items), 1, domain.p)

    def _new(self, terms):
        return type(self)(self.alphabet, self.domain, terms, _clean=True)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(self) is type(other) and self.alphabet == other.alphabet
                and self.domain == other.domain and self.terms == other.terms)

    def __hash__(self):
        return hash((type(self).__name__, self.alphabet, self.domain,
                     frozenset(self.terms.items())))

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise DomainError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.alphabet != other.alphabet:
            raise DomainError("mixed alphabets")
        if self.domain != other.domain:
            raise DomainError(f"mixed domains {self.domain!r} and {other.domain!r}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        add_into(out, other.terms.items(), 1, self.domain.p)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.domain
        return self._new({key: dom.neg(c) for key, c in self.terms.items()})

    def __mul__(self, scalar):
        dom = self.domain
        scalar = dom.coerce(scalar)
        if dom.is_zero(scalar):
            return self._new({})
        return self._new({key: dom.mul(c, scalar) for key, c in self.terms.items()})

    __rmul__ = __mul__

    def divided_by(self, n):
        dom = self.domain
        return self._new({key: dom.divide_exact(c, n) for key, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = [f"{c}*{self._key_name(k)}" for k, c in sorted(self.terms.items())]
        return " + ".join(bits)

    def _key_name(self, key):
        return repr(key)


class LieElement(_Element):
    """Element of the free Lie ring in Lyndon coordinates.

    Keys are Lyndon words as letter-index tuples.
    """

    def degree(self):
        """Common word length, or None for the zero element."""
        lengths = {len(w) for w in self.terms}
        if not lengths:
            return None
        if len(lengths) > 1:
            raise ValueError("inhomogeneous element has no degree")
        return lengths.pop()

    def bracket(self, other):
        return bracket(self, other)

    def _key_name(self, key):
        return self.alphabet.word_name(key)


class TensorElement(_Element):
    """Element of the tensor ring; keys are arbitrary words (index tuples)."""

    degree = LieElement.degree

    def _key_name(self, key):
        return self.alphabet.word_name(key)


class SymElement(_Element):
    """Element of a symmetric power; keys are sorted index tuples (multisets)."""

    @staticmethod
    def _canonical(key):
        return tuple(sorted(key))

    def _key_name(self, key):
        return "o".join(self.alphabet.generators[i].name for i in key)


class MixedElement(_Element):
    """Element of A (x) A^(c-1); keys are (index, sorted index tuple) pairs."""

    @staticmethod
    def _canonical(key):
        a, rest = key
        return a, tuple(sorted(rest))

    def _key_name(self, key):
        a, rest = key
        inner = "o".join(self.alphabet.generators[i].name for i in rest)
        return f"{self.alphabet.generators[a].name}@({inner})"


def lie_zero(alphabet, domain=ZZ) -> LieElement:
    return LieElement(alphabet, domain, {}, _clean=True)


def generator_element(alphabet, g, domain=ZZ) -> LieElement:
    i = g if isinstance(g, int) else alphabet.index(g)
    return LieElement(alphabet, domain, {(i,): domain.coerce(1)}, _clean=True)


def lyndon_monomial(alphabet, w, domain=ZZ) -> LieElement:
    idx = w.idx if isinstance(w, LyndonWord) else tuple(w)
    if not is_lyndon(idx):
        raise ValueError(f"{alphabet.word_name(idx)!r} is not a Lyndon word")
    return LieElement(alphabet, domain, [(idx, 1)])


# ---------------------------------------------------------------------------
# bracket trees
#
# A tree is a Generator, a letter index, or a pair (left, right).

def bracketing(w: LyndonWord):
    """The basis bracket tree of a Lyndon word via standard factorization."""
    if len(w) == 1:
        return w.letters[0]
    u, v = w.standard_factorization()
    return (bracketing(u), bracketing(v))


def _tree_to_idx(alphabet, tree):
    if isinstance(tree, Generator):
        return alphabet.index(tree)
    if isinstance(tree, int):
        if not 0 <= tree < len(alphabet):
            raise DomainError(f"letter index {tree} out of range")
        return tree
    if isinstance(tree, tuple) and len(tree) == 2:
        return (_tree_to_idx(alphabet, tree[0]), _tree_to_idx(alphabet, tree[1]))
    raise ValueError(f"malformed bracket tree node {tree!r}")


def tree_degree(tree) -> int:
    if isinstance(tree, tuple):
        return tree_degree(tree[0]) + tree_degree(tree[1])
    return 1


def _expand_tree(tree):
    """Multilinear commutator expansion of an index bracket tree, over Z."""
    if isinstance(tree, int):
        return {(tree,): 1}
    return _expand_bracket(_expand_tree(tree[0]), _expand_tree(tree[1]))


class _Words:
    """The index that lists each word under itself alone (``_bracket_into``)."""

    @staticmethod
    def get(word):
        return (word,)


def _bracket_into(acc, left, right, index=_Words, scale=1) -> None:
    """Add scale times the tensor expansion of [a, b], from the expansions of
    a and b, into acc through ``index``: each pair of terms (wa, ca), (wb,
    cb) adds ca cb to every key ``index.get`` lists under wa wb and -ca cb
    to every key under wb wa (none for a word it lists nothing under).  The
    one pair loop: zeros stay in acc for the caller to drop, and plain + and
    * keep integer or rational coefficients exact."""
    get = index.get
    for wa, ca in left.items():
        ca *= scale
        for wb, cb in right.items():
            keys = get(wa + wb)
            if keys:
                c = ca * cb
                for key in keys:
                    acc[key] = acc.get(key, 0) + c
            keys = get(wb + wa)
            if keys:
                c = ca * cb
                for key in keys:
                    acc[key] = acc.get(key, 0) - c


def _expand_bracket(left, right) -> dict:
    """Tensor expansion of [a, b] from the expansions of a and b, without
    zeros."""
    out = {}
    _bracket_into(out, left, right)
    return {w: c for w, c in out.items() if c} if 0 in out.values() else out


def _lyndon_into(acc, alphabet, idx, index=_Words, scale=1) -> None:
    """Add scale times the expansion of a Lyndon word's standard bracketing,
    of length 2 or more, into acc through ``index``, as ``_bracket_into``
    of its standard factorisation's two memoised expansions, read from the
    alphabet's ``"lyndon"`` table in place: the word's own expansion is
    neither built nor stored."""
    table = alphabet.table("lyndon", _lyndon_expansion)
    split = _split_point(idx)
    _bracket_into(acc, table[idx[:split]], table[idx[split:]], index, scale)


def _expand_lyndon(alphabet, idx, keep=True) -> dict:
    """Tensor expansion of the standard bracketing of a Lyndon word, over Z.

    Read from the alphabet's ``"lyndon"`` table: the dict returned is the
    table's, read-only.  With ``keep`` false an expansion the table lacks is
    computed, with those of its factors, and not stored, so only one
    bracketing's expansions are held at a time.  An expansion is never
    empty: it holds the word once.
    """
    table = alphabet.table("lyndon", _lyndon_expansion)
    return table[idx] if keep else table.get(idx) or _lyndon_expansion(alphabet, idx, False)


def _lyndon_expansion(alphabet, idx, keep=True) -> dict:
    """The ``"lyndon"`` table's compute: [P_u, P_v] for the standard
    factorisation (u, v) of idx, from the factors' expansions, read from the
    table, or through ``_expand_lyndon`` with ``keep`` false."""
    if len(idx) == 1:
        return {idx: 1}
    split = _split_point(idx)
    if keep:
        table = alphabet.table("lyndon", _lyndon_expansion)
        return _expand_bracket(table[idx[:split]], table[idx[split:]])
    return _expand_bracket(_expand_lyndon(alphabet, idx[:split], False),
                           _expand_lyndon(alphabet, idx[split:], False))


def leftnormed_tensor(letters) -> dict:
    """Tensor expansion of the left-normed product of a letter-index tuple."""
    return reduce(lambda out, b: _expand_bracket(out, {(b,): 1}), letters[1:],
                  {letters[:1]: 1})


def to_tensor(e: LieElement) -> TensorElement:
    """The canonical embedding into the tensor ring."""
    table = e.alphabet.table("lyndon", _lyndon_expansion)
    return TensorElement(e.alphabet, e.domain, combine(e.terms, table.__getitem__, e.domain.p),
                         _clean=True)


def lie_from_tensor(t: TensorElement, keep=True) -> LieElement:
    """Lyndon coordinates of a tensor element that lies in the Lie subring.

    Peels the lexicographically smallest word of the remainder; if the input
    is a Lie element that word is Lyndon and carries the coordinate of its
    standard bracketing, whose expansion holds the word itself once.  With
    ``keep`` false the peeled words' expansions are not memoised
    (``_expand_lyndon``).
    """
    dom = t.domain
    alphabet = t.alphabet
    rem = dict(t.terms)
    coords = {}
    while rem:
        w = min(rem)
        c = rem[w]
        if dom.is_zero(c):
            del rem[w]
            continue
        if not is_lyndon(w):
            raise NotLieElementError(
                f"not a Lie element: stray word {alphabet.word_name(w)!r}")
        coords[w] = c
        add_into(rem, _expand_lyndon(alphabet, w, keep).items(), dom.neg(c), dom.p)
    return LieElement(alphabet, dom, coords, _clean=True)


def normal_form(alphabet, expr, domain=ZZ) -> LieElement:
    """Lyndon coordinates of a bracket tree or a list of (coeff, tree) pairs."""
    pairs = expr if isinstance(expr, list) else [(1, expr)]
    acc = {}
    for coeff, tree in pairs:
        add_into(acc, _expand_tree(_tree_to_idx(alphabet, tree)).items(),
                 domain.coerce(coeff), domain.p)
    return lie_from_tensor(TensorElement(alphabet, domain, acc, _clean=True))


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket: the commutator of the tensor expansions, peeled back."""
    a._check_compatible(b)
    terms = _expand_bracket(to_tensor(a).terms, to_tensor(b).terms)
    return lie_from_tensor(TensorElement(a.alphabet, a.domain, terms))


def left_normalize(x, alphabet=None, domain=None):
    """Rewrite as a combination of left-normed products [a_1,...,a_c].

    Accepts a LieElement, a bracket tree, or a list of (coeff, tree) pairs;
    returns a list of (coeff, letter-index tuple) pairs with collected terms.
    The value in the Lie ring is unchanged; the rule is
    [P,[Q1,Q2]] = [[P,Q1],Q2] - [[P,Q2],Q1].
    """
    if isinstance(x, LieElement):
        alphabet = x.alphabet
        domain = x.domain
        pairs = [(c, bracketing(LyndonWord(alphabet, w))) for w, c in sorted(x.terms.items())]
    elif isinstance(x, list):
        pairs = x
    else:
        pairs = [(1, x)]
    if alphabet is None:
        raise ValueError("an alphabet is required for tree input")
    dom = domain or ZZ
    degrees = {tree_degree(t) for _, t in pairs}
    if len(degrees) > 1:
        raise ValueError("inhomogeneous input")
    acc = {}
    for coeff, tree in pairs:
        signed = _leftnorm_tree(_tree_to_idx(alphabet, tree))
        add_into(acc, ((letters, sign) for sign, letters in signed), dom.coerce(coeff), dom.p)
    return [(c, letters) for letters, c in sorted(acc.items())]


def _leftnorm_tree(tree):
    if isinstance(tree, int):
        return ((1, (tree,)),)
    left, right = tree
    if left == right:
        return ()
    if isinstance(right, int):
        return tuple((c, t + (right,)) for c, t in _leftnorm_tree(left))
    r1, r2 = right
    out = list(_leftnorm_tree(((left, r1), r2)))
    out.extend((-c, t) for c, t in _leftnorm_tree(((left, r2), r1)))
    return tuple(out)
