"""Tensor, symmetric, and metabelian powers of a free abelian group, the maps
between them, and the derivation action of polynomial variables.

The metabelian power is represented through its injective image in the mixed
power A (x) A^(c-1): membership and coordinates in the normal-word basis come
from a triangular solve against the images of normal words, whose leading
mixed key (a, m) satisfies a > min(m) while every trailing key does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, prod

from .elements import (DomainError, LieElement, MixedElement, SymElement,
                       TensorElement, ZZ, left_normalize, leftnormed_tensor,
                       lie_from_tensor, lie_zero, to_tensor)
from .words import Alphabet, lyndon_words_of_length
from .zlinalg import IntLattice, integer_kernel, transpose


class ActionSpec:
    """Generator-level action of a set of variables, extended by Leibniz.

    ``images`` maps (generator index, variable) to a dict {generator index:
    integer coefficient} describing the degree-1 image.  Pairs may be left
    undefined when the target leaves a degree cut; using one raises KeyError.
    """

    def __init__(self, alphabet: Alphabet, variables, images):
        self.alphabet = alphabet
        self.variables = tuple(variables)
        table = {}
        for (i, var), img in images.items():
            if var not in self.variables:
                raise ValueError(f"unknown variable {var!r}")
            table[(i, var)] = {j: int(c) for j, c in img.items() if c}
        self.table = table

    def image(self, i, var):
        if var not in self.variables:
            raise KeyError(f"unknown variable {var!r}")
        try:
            return self.table[(i, var)]
        except KeyError:
            g = self.alphabet.generators[i]
            raise KeyError(f"action of {var!r} on {g.name!r} is not defined") from None

    def is_total(self):
        return all((i, v) in self.table
                   for i in range(len(self.alphabet)) for v in self.variables)


def nu(e: LieElement, c=None) -> TensorElement:
    """Embedding of a homogeneous Lie element into the tensor power."""
    d = e.degree()
    if d is not None and c is not None and d != c:
        raise ValueError(f"element has degree {d}, expected {c}")
    return to_tensor(e)


def rho(t: TensorElement) -> LieElement:
    """Left-normed bracketing of each tensor word."""
    t.degree()  # raises on inhomogeneous input
    dom = t.domain
    acc = {}
    for word, c in t.terms.items():
        for w, k in leftnormed_tensor(word).items():
            s = dom.add(acc.get(w, 0), dom.mul(c, dom.coerce(k)))
            if dom.is_zero(s):
                acc.pop(w, None)
            else:
                acc[w] = s
    return lie_from_tensor(TensorElement(t.alphabet, dom, acc, _clean=True))


class MetabelianElement:
    """Element of the metabelian Lie power, held by its mu-coordinates."""

    __slots__ = ("degree", "mixed")

    def __init__(self, degree: int, mixed: MixedElement):
        if degree < 2:
            raise ValueError("metabelian powers start at degree 2")
        self.degree = degree
        self.mixed = mixed

    @property
    def alphabet(self):
        return self.mixed.alphabet

    @property
    def domain(self):
        return self.mixed.domain

    def is_zero(self):
        return self.mixed.is_zero()

    def __bool__(self):
        return bool(self.mixed)

    def __eq__(self, other):
        return (isinstance(other, MetabelianElement) and self.degree == other.degree
                and self.mixed == other.mixed)

    def __hash__(self):
        return hash((self.degree, self.mixed))

    def __add__(self, other):
        if not isinstance(other, MetabelianElement) or other.degree != self.degree:
            raise DomainError("can only add metabelian elements of equal degree")
        return MetabelianElement(self.degree, self.mixed + other.mixed)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MetabelianElement(self.degree, -self.mixed)

    def __mul__(self, scalar):
        return MetabelianElement(self.degree, self.mixed * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"M{self.degree}<{self.mixed!r}>"

    def normal_coordinates(self):
        return metabelian_normal_coords(self)


def mu_of_leftnormed(alphabet, letters, domain=ZZ, coeff=1) -> MixedElement:
    """Mu-image of a left-normed monomial [a1,...,ac]."""
    if len(letters) < 2:
        raise ValueError("mu needs degree >= 2")
    coeff = domain.coerce(coeff)
    a1, a2, rest = letters[0], letters[1], letters[2:]
    terms = [((a1, tuple(sorted((a2,) + rest))), coeff),
             ((a2, tuple(sorted((a1,) + rest))), domain.neg(coeff))]
    return MixedElement(alphabet, domain, terms)


def mu(m, c=None, alphabet=None, domain=ZZ) -> MixedElement:
    """Mu-coordinates of a metabelian element or of a left-normed monomial."""
    if isinstance(m, MetabelianElement):
        return m.mixed
    letters = tuple(m)
    if c is not None and len(letters) != c:
        raise ValueError(f"monomial has degree {len(letters)}, expected {c}")
    if alphabet is None:
        raise ValueError("an alphabet is required for monomial input")
    return mu_of_leftnormed(alphabet, letters, domain)


def kappa(t: MixedElement) -> SymElement:
    """Symmetrization A (x) A^(c-1) -> A^c."""
    dom = t.domain
    out = {}
    for (a, rest), c in t.terms.items():
        key = tuple(sorted((a,) + rest))
        acc = dom.add(out.get(key, 0), c)
        if dom.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return SymElement(t.alphabet, dom, out, _clean=True)


def lam(t: MixedElement, c=None) -> MetabelianElement:
    """The splitting-direction map A (x) A^(c-1) -> M^c.

    a1 (x) (a2 o ... o ac) goes to the sum of the classes [a1,aj,rest] over
    the c-1 choices of the second entry.
    """
    degrees = {1 + len(rest) for (_, rest) in t.terms}
    if c is None:
        if len(degrees) != 1:
            raise ValueError("degree is ambiguous for this input")
        c = degrees.pop()
    elif degrees - {c}:
        raise ValueError("mixed element has keys of the wrong degree")
    if c < 2:
        raise ValueError("lambda needs degree >= 2")
    dom = t.domain
    acc = MixedElement(t.alphabet, dom, {}, _clean=True)
    for (a, rest), coeff in t.terms.items():
        seen = set()
        for k, b in enumerate(rest):
            if b in seen:
                continue
            seen.add(b)
            mult = rest.count(b)
            remaining = rest[:k] + rest[k + 1:]
            img = mu_of_leftnormed(t.alphabet, (a, b) + remaining, dom,
                                   dom.mul(coeff, dom.coerce(mult)))
            acc = acc + img
    return MetabelianElement(c, acc)


def eta(e: LieElement, c=None) -> MetabelianElement:
    """Projection of a homogeneous Lie element onto the metabelian power."""
    d = e.degree()
    if d is None:
        if c is None or c < 2:
            raise ValueError("eta needs degree >= 2")
        d = c
    if c is not None and d != c:
        raise ValueError(f"element has degree {d}, expected {c}")
    if d < 2:
        raise ValueError("eta needs degree >= 2")
    dom = e.domain
    acc = MixedElement(e.alphabet, dom, {}, _clean=True)
    for coeff, letters in left_normalize(e):
        acc = acc + mu_of_leftnormed(e.alphabet, letters, dom, coeff)
    return MetabelianElement(d, acc)


def metabelian_of_word(alphabet, letters, domain=ZZ) -> MetabelianElement:
    """The metabelian class of a left-normed monomial."""
    letters = tuple(letters)
    return MetabelianElement(len(letters), mu_of_leftnormed(alphabet, letters, domain))


def normal_words(alphabet, c, max_weight=None, weight=None) -> list[tuple]:
    """Normal words b1 > b2 <= ... <= bc as letter-index tuples.

    These index the basis of the degree-c metabelian power.
    """
    if c < 2:
        raise ValueError("normal words need degree >= 2")
    n = len(alphabet)
    wt = [g.weight for g in alphabet]
    out = []
    for tail in combinations_with_replacement(range(n), c - 1):
        tail_weight = sum(wt[i] for i in tail)
        for b1 in range(tail[0] + 1, n):
            w = tail_weight + wt[b1]
            if weight is not None and w != weight:
                continue
            if max_weight is not None and w > max_weight:
                continue
            out.append((b1,) + tail)
    out.sort()
    return out


def metabelian_normal_coords(m: MetabelianElement) -> dict:
    """Coordinates of a metabelian element in the normal-word basis.

    The mu-image of the normal word (b1, tail) is the only one whose strict
    key (b1, tail) appears, so peeling strict keys is a complete solve.
    Raises if the mixed element is not in the image of mu.
    """
    dom = m.domain
    alphabet = m.alphabet
    rem = dict(m.mixed.terms)
    coords = {}
    strict = [key for key in rem if key[0] > key[1][0]] if rem else []
    for key in sorted(strict):
        c = rem.get(key)
        if c is None or dom.is_zero(c):
            continue
        a, tail = key
        word = (a,) + tail
        coords[word] = c
        for k2, c2 in mu_of_leftnormed(alphabet, word, dom, c).terms.items():
            acc = dom.add(rem.get(k2, 0), dom.neg(c2))
            if dom.is_zero(acc):
                rem.pop(k2, None)
            else:
                rem[k2] = acc
    if any(not dom.is_zero(c) for c in rem.values()):
        raise DomainError("mixed element is not in the image of mu")
    return coords


def theta_presum(alphabet, letters, domain=ZZ) -> LieElement:
    """The bracketed double permutation sum before division by the degree.

    Each side sums the left-normed products [head, tail permuted] over all
    (c-1)! permutations of its tail; equal arrangements of a tail with
    repeated letters are summed once, times their number.
    """
    letters = tuple(letters)
    c = len(letters)
    if c < 2:
        raise ValueError("theta needs degree >= 2")
    dom = domain
    a1, a2, rest = letters[0], letters[1], letters[2:]
    acc = {}

    def accumulate(head, tail, sign):
        times = dom.coerce(sign * prod(factorial(tail.count(b)) for b in set(tail)))
        for arrangement in _distinct_permutations(tail):
            for w, k in leftnormed_tensor((head,) + arrangement).items():
                s = dom.add(acc.get(w, 0), dom.mul(times, dom.coerce(k)))
                if dom.is_zero(s):
                    acc.pop(w, None)
                else:
                    acc[w] = s

    accumulate(a1, (a2,) + rest, 1)
    accumulate(a2, (a1,) + rest, -1)
    return lie_from_tensor(TensorElement(alphabet, dom, acc, _clean=True))


def _distinct_permutations(items):
    """The distinct arrangements of a multiset, in lexicographic order
    (the next-permutation step, Knuth TAOCP 7.2.1.2, Algorithm L)."""
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = n - 1
        while a[m] <= a[j]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1:] = reversed(a[j + 1:])


def theta(m, c=None, alphabet=None, domain=ZZ) -> LieElement:
    """The section M^c -> L^c given by the symmetrized double sum over 1/c.

    A metabelian element is split into its normal-word coordinates, and the
    double sum of each normal word is divided by c on its own, before the
    coefficients combine.  Over Z each of these divisions must be exact, or
    IntegralityError is raised.  So integrality is checked per normal word
    of the input, not on the total: at c=4 over a rank-3 alphabet,
    theta(4*m_w) raises for a witness word w such as y.x.x.z, although the
    rational value 4*theta(m_w) is integral.
    """
    if isinstance(m, MetabelianElement):
        coords = metabelian_normal_coords(m)
        out = lie_zero(m.alphabet, m.domain)
        for word, coeff in sorted(coords.items()):
            out = out + coeff * theta_word(m.alphabet, word, m.domain)
        return out
    letters = tuple(m)
    if c is not None and len(letters) != c:
        raise ValueError(f"monomial has degree {len(letters)}, expected {c}")
    if alphabet is None:
        raise ValueError("an alphabet is required for monomial input")
    return theta_word(alphabet, letters, domain)


def theta_word(alphabet, letters, domain=ZZ) -> LieElement:
    pre = theta_presum(alphabet, letters, domain)
    return pre.divided_by(len(letters))


def derive(x, var, spec: ActionSpec):
    """Leibniz extension of the generator-level action; same type out as in."""
    if var not in spec.variables:
        raise KeyError(f"unknown variable {var!r}")
    if isinstance(x, LieElement):
        return _derive_lie(x, var, spec)
    if isinstance(x, TensorElement):
        return _derive_wordlike(x, var, spec)
    if isinstance(x, SymElement):
        return _derive_sym(x, var, spec)
    if isinstance(x, MixedElement):
        return _derive_mixed(x, var, spec)
    if isinstance(x, MetabelianElement):
        return MetabelianElement(x.degree, _derive_mixed(x.mixed, var, spec))
    raise TypeError(f"cannot derive {type(x).__name__}")


def _derive_lie(e, var, spec):
    t = _derive_wordlike(to_tensor(e), var, spec)
    return lie_from_tensor(t)


def _derive_wordlike(t, var, spec):
    dom = t.domain
    out = {}
    for word, c in t.terms.items():
        for pos, letter in enumerate(word):
            for j, k in spec.image(letter, var).items():
                w = word[:pos] + (j,) + word[pos + 1:]
                s = dom.add(out.get(w, 0), dom.mul(c, dom.coerce(k)))
                if dom.is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
    return TensorElement(t.alphabet, dom, out, _clean=True)


def _derive_sym(t, var, spec):
    dom = t.domain
    out = {}
    for mult, c in t.terms.items():
        seen = set()
        for pos, letter in enumerate(mult):
            if letter in seen:
                continue
            seen.add(letter)
            count = mult.count(letter)
            rest = mult[:pos] + mult[pos + 1:]
            for j, k in spec.image(letter, var).items():
                key = tuple(sorted(rest + (j,)))
                s = dom.add(out.get(key, 0), dom.mul(c, dom.coerce(k * count)))
                if dom.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
    return SymElement(t.alphabet, dom, out, _clean=True)


def _derive_mixed(t, var, spec):
    dom = t.domain
    out = {}

    def bump(key, val):
        s = dom.add(out.get(key, 0), val)
        if dom.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s

    for (a, mult), c in t.terms.items():
        for j, k in spec.image(a, var).items():
            bump((j, mult), dom.mul(c, dom.coerce(k)))
        seen = set()
        for pos, letter in enumerate(mult):
            if letter in seen:
                continue
            seen.add(letter)
            count = mult.count(letter)
            rest = mult[:pos] + mult[pos + 1:]
            for j, k in spec.image(letter, var).items():
                bump((a, tuple(sorted(rest + (j,)))), dom.mul(c, dom.coerce(k * count)))
    return MixedElement(t.alphabet, dom, out, _clean=True)


# ---------------------------------------------------------------------------
# exactness of the mu/kappa sequence

@dataclass(frozen=True)
class ExactnessReport:
    c: int
    degree_cut: int
    rank_metabelian: int
    rank_mixed: int
    rank_sym: int
    mu_injective: bool
    kappa_surjective: bool
    image_equals_kernel: bool

    @property
    def passed(self) -> bool:
        return self.mu_injective and self.kappa_surjective and self.image_equals_kernel


def mixed_basis(alphabet, c, max_weight=None) -> list[tuple]:
    n = len(alphabet)
    wt = [g.weight for g in alphabet]
    out = []
    for a in range(n):
        for mult in combinations_with_replacement(range(n), c - 1):
            if max_weight is not None:
                if wt[a] + sum(wt[i] for i in mult) > max_weight:
                    continue
            out.append((a, mult))
    out.sort()
    return out


def sym_basis(alphabet, c, max_weight=None) -> list[tuple]:
    n = len(alphabet)
    wt = [g.weight for g in alphabet]
    out = []
    for mult in combinations_with_replacement(range(n), c):
        if max_weight is not None and sum(wt[i] for i in mult) > max_weight:
            continue
        out.append(mult)
    return out


def check_exactness(c, alphabet, degree_cut) -> ExactnessReport:
    """Verify that mu is injective, kappa surjective, and Im mu = Ker kappa
    as lattices, on all basis elements up to the weight cut."""
    if c < 2:
        raise ValueError("the sequence starts at degree 2")
    nwords = normal_words(alphabet, c, max_weight=degree_cut)
    mixed = mixed_basis(alphabet, c, max_weight=degree_cut)
    syms = sym_basis(alphabet, c, max_weight=degree_cut)
    mixed_index = {key: i for i, key in enumerate(mixed)}
    sym_index = {key: i for i, key in enumerate(syms)}

    mu_rows = []
    for word in nwords:
        img = mu_of_leftnormed(alphabet, word)
        row = [0] * len(mixed)
        for key, coeff in img.terms.items():
            row[mixed_index[key]] = coeff
        mu_rows.append(row)

    image = IntLattice(len(mixed), mu_rows)
    mu_injective = image.rank == len(nwords)

    kappa_rows = []
    covered = set()
    for (a, mult) in mixed:
        key = tuple(sorted((a,) + mult))
        row = [0] * len(syms)
        row[sym_index[key]] = 1
        covered.add(key)
        kappa_rows.append(row)
    kappa_surjective = covered == set(syms)

    kernel_rows = integer_kernel(transpose(kappa_rows, ncols=len(syms)),
                                 ncols=len(mixed))
    kernel = IntLattice(len(mixed), kernel_rows)
    image_equals_kernel = (image.rank == kernel.rank
                           and kernel.contains_lattice(image)
                           and image.contains_lattice(kernel))
    return ExactnessReport(c, degree_cut, len(nwords), len(mixed), len(syms),
                           mu_injective, kappa_surjective, image_equals_kernel)


# ---------------------------------------------------------------------------
# seeded sampling helpers used by the verify command and the test suite

def random_homogeneous(alphabet, c, rng, domain=ZZ, max_weight=None,
                       max_terms=4, coeff_bound=4) -> LieElement:
    words = lyndon_words_of_length(alphabet, c, max_weight=max_weight)
    if not words:
        return lie_zero(alphabet, domain)
    picks = rng.sample(words, k=min(len(words), rng.randint(1, max_terms)))
    terms = []
    for w in picks:
        coeff = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        terms.append((w.idx, coeff))
    return LieElement(alphabet, domain, terms)


def random_metabelian(alphabet, c, rng, domain=ZZ, max_weight=None,
                      max_terms=4, coeff_bound=4) -> MetabelianElement:
    words = normal_words(alphabet, c, max_weight=max_weight)
    acc = MetabelianElement(c, MixedElement(alphabet, domain, {}, _clean=True))
    if not words:
        return acc
    picks = rng.sample(words, k=min(len(words), rng.randint(1, max_terms)))
    for w in picks:
        coeff = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        acc = acc + coeff * metabelian_of_word(alphabet, w, domain)
    return acc


def random_action(alphabet, variables, rng, coeff_bound=2) -> ActionSpec:
    images = {}
    n = len(alphabet)
    for i in range(n):
        for var in variables:
            img = {}
            for j in range(n):
                if rng.random() < 0.5:
                    coeff = rng.randint(-coeff_bound, coeff_bound)
                    if coeff:
                        img[j] = coeff
            images[(i, var)] = img
    return ActionSpec(alphabet, variables, images)
