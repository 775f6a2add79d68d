"""Tensor, symmetric, and metabelian powers of a free abelian group, the maps
between them, and the derivation action of polynomial variables.

The metabelian power is represented through its injective image in the mixed
power A (x) A^(c-1): membership and coordinates in the normal-word basis come
from a triangular solve against the images of normal words, whose leading
mixed key (a, m) satisfies a > min(m) while every trailing key does not.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .elements import (DomainError, LieElement, MixedElement, SymElement,
                       TensorElement, ZZ, _expand_lyndon, leftnormed_tensor,
                       lie_from_tensor, lie_zero, to_tensor)
from .words import (Alphabet, MemoTable, _grading, _split_point, lyndon_words_of_length,
                    multisets, weight_range)
from .zlinalg import IntLattice, _tagged, add_into, combine


class ActionSpec:
    """Generator-level action of a set of variables, extended by Leibniz.

    ``images`` maps (generator index, variable) to a dict {generator index:
    integer coefficient} describing the degree-1 image.  Pairs may be left
    undefined when the target leaves a degree cut; using one raises KeyError.

    ``_memo`` holds ``derive``'s integer image of each basis key, one
    self-filling table per (element type, variable), each image computed
    once and dropped with the spec; so ``table`` must not change after the
    first ``derive``.
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
        self._memo = MemoTable(self, _derive_table)

    def image(self, i, var):
        if var not in self.variables:
            raise KeyError(f"unknown variable {var!r}")
        try:
            return self.table[(i, var)]
        except KeyError:
            g = self.alphabet.generators[i]
            raise KeyError(f"action of {var!r} on {g.name!r} is not defined") from None


def nu(e: LieElement, c=None) -> TensorElement:
    """Embedding of a homogeneous Lie element into the tensor power."""
    d = e.degree()
    if d is not None and c is not None and d != c:
        raise ValueError(f"element has degree {d}, expected {c}")
    return to_tensor(e)


def rho(t: TensorElement) -> LieElement:
    """Left-normed bracketing of each tensor word.

    Each word's integer Lyndon image is read from the alphabet's ``"rho"``
    table (``_rho_word``) and the images are combined, as ``derive``
    combines its own: exact over ZZ and QQ, and over GF(p) because
    ``lie_from_tensor`` is a unitriangular integer solve.
    """
    t.degree()  # raises on inhomogeneous input
    table = t.alphabet.table("rho", _rho_word)
    return LieElement(t.alphabet, t.domain, combine(t.terms, table.__getitem__, t.domain.p),
                      _clean=True)


def _rho_word(alphabet, word) -> dict:
    """Lyndon coordinates over Z of the left-normed bracketing of a word:
    the ``"rho"`` table's compute."""
    return lie_from_tensor(TensorElement(alphabet, ZZ, leftnormed_tensor(word),
                                         _clean=True)).terms


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


def _mu_terms(letters) -> dict:
    """Mu-image of a left-normed monomial of degree >= 2 as integer mixed terms."""
    a1, a2, rest = letters[0], letters[1], letters[2:]
    k1 = (a1, tuple(sorted((a2,) + rest)))
    k2 = (a2, tuple(sorted((a1,) + rest)))
    return {} if k1 == k2 else {k1: 1, k2: -1}


def mu(m, c=None, alphabet=None, domain=ZZ) -> MixedElement:
    """Mu-coordinates of a metabelian element or of a left-normed monomial."""
    if isinstance(m, MetabelianElement):
        return m.mixed
    letters = tuple(m)
    if c is not None and len(letters) != c:
        raise ValueError(f"monomial has degree {len(letters)}, expected {c}")
    if alphabet is None:
        raise ValueError("an alphabet is required for monomial input")
    if len(letters) < 2:
        raise ValueError("mu needs degree >= 2")
    terms = {key: domain.coerce(k) for key, k in _mu_terms(letters).items()}
    return MixedElement(alphabet, domain, terms, _clean=True)


def kappa(t: MixedElement) -> SymElement:
    """Symmetrization A (x) A^(c-1) -> A^c."""
    out = {}
    add_into(out, ((tuple(sorted((a,) + rest)), c) for (a, rest), c in t.terms.items()),
             1, t.domain.p)
    return SymElement(t.alphabet, t.domain, out, _clean=True)


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
    table = t.alphabet.table("lam", _lam_key)
    mixed = MixedElement(t.alphabet, t.domain, combine(t.terms, table.__getitem__, t.domain.p),
                         _clean=True)
    return MetabelianElement(c, mixed)


def _lam_key(alphabet, key) -> dict:
    """lam of one mixed key (a, rest) as integer mixed terms, the ``"lam"``
    table's compute: the mu terms of (a, b, rest - b), once per distinct
    letter b of the sorted rest, times b's count there."""
    a, rest = key
    return combine({(a, b) + rest[:k] + rest[k + 1:]: rest.count(b)
                    for k, b in enumerate(rest)}, _mu_terms)


def eta(e: LieElement, c=None) -> MetabelianElement:
    """Projection of a homogeneous Lie element onto the metabelian power."""
    d = e.degree()
    if d is None:
        d = c
    elif c is not None and d != c:
        raise ValueError(f"element has degree {d}, expected {c}")
    if d is None or d < 2:
        raise ValueError("eta needs degree >= 2")
    table = e.alphabet.table("eta", _eta_word)
    mixed = MixedElement(e.alphabet, e.domain, combine(e.terms, table.__getitem__, e.domain.p),
                         _clean=True)
    return MetabelianElement(d, mixed)


def _eta_word(alphabet, w) -> dict:
    """eta of the Lyndon word w as integer mixed terms, at most two of them:
    the compute of the alphabet's ``"eta"`` table, through which it reads
    the factors' terms and every caller reads it.

    eta(P) has mu-image alpha(nu(P)), for alpha(a1...ac) = (a1, a2 o ... o ac)
    (the README's proof, by [P, b] on left-normed P).  With (u, v) the
    standard factorisation of w, nu(w) = nu(u)nu(v) - nu(v)nu(u).  For any
    tensor X and Lie Q of degree >= 2, alpha(X nu(Q)) = 0: the words of
    nu(Q) share one content, so a word of X fixes the key of each product
    it makes, and nu(Q)'s coefficients sum to 0.  A right factor that is a
    letter b adds b to each multiset.  Hence w = ab gives (a,(b)) - (b,(a));
    |u|, |v| >= 2 give 0; v = b a letter gives eta(u) with b added to each
    multiset; u = a a letter gives -(eta(v) with a added).  A letter a is
    (a, ()), alpha of itself."""
    if len(w) == 1:
        return {(w[0], ()): 1}
    table = alphabet.table("eta", _eta_word)
    split = _split_point(w)
    terms = {}
    if len(w) - split == 1:
        b = w[-1]
        for (a, m), c in table[w[:split]].items():
            terms[a, tuple(sorted(m + (b,)))] = c
    if split == 1:
        a = w[0]
        for (b, m), c in table[w[1:]].items():
            terms[b, tuple(sorted(m + (a,)))] = -c
    return terms


def metabelian_of_word(alphabet, letters, domain=ZZ) -> MetabelianElement:
    """The metabelian class of a left-normed monomial."""
    letters = tuple(letters)
    return MetabelianElement(len(letters), mu(letters, alphabet=alphabet, domain=domain))


def normal_words(alphabet, c, max_weight=None, weight=None, blocks=None) -> list[tuple]:
    """Normal words b1 > b2 <= ... <= bc as letter-index tuples, in
    lexicographic order, of total weight at most max_weight or exactly weight.

    These index the basis of the degree-c metabelian power.  With ``blocks``,
    a range, they come split by the first component of their multidegree, in
    one walk per first letter: {f: the normal words whose first component is
    f} for each f of the range that has any, each list in lexicographic
    order.  Without it the list is block 0 of the grading that gives every
    letter the component 0.
    """
    if c < 2:
        raise ValueError("normal words need degree >= 2")
    lo, hi = weight_range(weight, max_weight)
    wt, first, bounds = alphabet.table("grading", _grading)[None if blocks is None else 0]
    want = range(1) if blocks is None else blocks
    found = {}
    for b1, w1 in enumerate(wt):
        f1 = first[b1]
        if want and f1 <= want[-1]:
            tails = multisets(wt, c - 1, lo - w1, hi - w1, below=b1, bounds=bounds,
                              first=first, blocks=range(want.start - f1, want.stop - f1))
            for f, tails_f in tails.items():
                found.setdefault(f + f1, []).extend((b1,) + tail for tail in tails_f)
    return found.get(0, []) if blocks is None else found


def metabelian_normal_coords(m: MetabelianElement) -> dict:
    """Coordinates of a metabelian element in the normal-word basis."""
    return peel_strict_keys(dict(m.mixed.terms), m.domain)


def peel_strict_keys(rem: dict, dom=ZZ) -> dict:
    """Normal-word coordinates {word: coefficient}, in lexicographic order,
    of the mixed terms ``rem`` over dom, which it uses up.

    The mu-image of the normal word (b1, tail) is its strict key (b1, tail)
    minus the key (tail[0], b1 o tail[1:]), which is not strict.  So each
    strict key is met by one normal word alone and carries its coordinate,
    and peeling the strict keys is a complete solve.  Raises if the terms are
    not in the image of mu.
    """
    coords = {}
    for key in sorted(key for key in rem if key[0] > key[1][0]):
        c = rem.pop(key)
        if dom.is_zero(c):
            continue
        a, tail = key
        coords[(a,) + tail] = c
        low = (tail[0], tuple(sorted((a,) + tail[1:])))
        rem[low] = dom.add(rem.get(low, 0), c)
    if any(not dom.is_zero(c) for c in rem.values()):
        raise DomainError("mixed element is not in the image of mu")
    return coords


def theta_presum(alphabet, letters, domain=ZZ) -> LieElement:
    """The bracketed double permutation sum before division by the degree:
    the Lyndon coordinates of ``presum_tensor``, peeled once.

    The left-normed expansions are summed first and peeled once, not read
    through ``rho``'s per-word images: the expansions of the long theorem
    words cancel heavily in the sum, so one peel of the sum is far smaller
    than a peel of each word, and each word is met once, so an image table
    would only hold memory.  For the theorem element at p=53
    (``TorsionEngine(53, 108).theorem_element(0, 0)``) the per-word images
    took 13.0 s and 452 MiB, the one peel of the sum 1.6 s and 234 MiB
    (one fresh process each, 2-vCPU Xeon); ``theorem_element`` now runs that
    peel without memoising the peeled expansions, in 1.55 s and 21 MiB.
    """
    return lie_from_tensor(TensorElement(alphabet, domain, presum_tensor(alphabet, letters, domain),
                                         _clean=True))


def presum_tensor(alphabet, letters, domain=ZZ) -> dict:
    """theta's double permutation sum as a tensor, {word: coefficient}: the
    left-normed expansions of the words (head, tail permuted), over all
    (c-1)! permutations of each side's tail, summed; the first letter leads
    with sign +1 and the second with -1.  Each side is one ``_side_sum``,
    read from the alphabet's ``"presum"`` table under (head, sorted tail).
    It is the tensor expansion of ``theta_presum``."""
    letters = tuple(letters)
    if len(letters) < 2:
        raise ValueError("theta needs degree >= 2")
    sides = alphabet.table("presum", _side_sum)
    acc = {}
    for head, tail, sign in ((letters[0], letters[1:], 1),
                             (letters[1], letters[:1] + letters[2:], -1)):
        add_into(acc, sides[head, tuple(sorted(tail))].items(), domain.coerce(sign), domain.p)
    return acc


def _side_sum(alphabet, key) -> dict:
    """The sum over Z of the left-normed expansions of (head, o), over all
    permutations o of the sorted tail, for key = (head, tail), by one walk
    over the tail's sub-multisets: the ``"presum"`` table's compute.

    Level k maps each multiset R of letters still to place to one tensor.
    A step brackets each tensor on the right by each distinct letter b of
    R, w -> wb - bw, times b's count in R, into the entry of R - b.  After
    |tail| steps the one entry is the sum.  Proof: a path of the walk places
    the letters b1, ..., bn in turn, so it is one distinct arrangement of
    the tail, and it carries the left-normed expansion of (head, b1, ...,
    bn), since the step brackets on the right, times the product of the
    counts of each b_k in what remained.  A letter of multiplicity m meets
    the counts m, m-1, ..., 1, so that product is the product of the m!,
    the number of permutations that give the arrangement.  Bracketing on the
    right by a letter is linear (Reutenauer 1993, ch. 1), so the tensors of
    paths that reach the same R may be summed before the walk goes on: every
    continuation from R brackets them alike."""
    head, tail = key
    level = {tail: {(head,): 1}}
    for _ in tail:
        step = {}
        for rest, tensor in level.items():
            for k, b in enumerate(rest):
                if k and rest[k - 1] == b:
                    continue
                acc = step.setdefault(rest[:k] + rest[k + 1:], {})
                n = rest.count(b)
                add_into(acc, ((w + (b,), c) for w, c in tensor.items()), n)
                add_into(acc, (((b,) + w, c) for w, c in tensor.items()), -n)
        level = step
    return level[()]


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
        table, dom = m.alphabet.table("theta", _theta_terms), m.domain
        terms = combine(metabelian_normal_coords(m), lambda word: table[word, dom], dom.p)
        return LieElement(m.alphabet, dom, terms, _clean=True)
    letters = tuple(m)
    if c is not None and len(letters) != c:
        raise ValueError(f"monomial has degree {len(letters)}, expected {c}")
    if alphabet is None:
        raise ValueError("an alphabet is required for monomial input")
    terms = alphabet.table("theta", _theta_terms)[letters, domain]
    return LieElement(alphabet, domain, dict(terms), _clean=True)


def _theta_terms(alphabet, key) -> dict:
    """Terms of theta of one normal word over a domain, key = (word,
    domain): the ``"theta"`` table's compute.  A division that fails raises,
    and the table stores nothing, so it raises on every call."""
    letters, domain = key
    return theta_presum(alphabet, letters, domain).divided_by(len(letters)).terms


# ---------------------------------------------------------------------------
# the Leibniz step
#
# Each step yields the integer (key, k) pairs of the image of one basis key,
# where ``image(letter)`` is the letter's degree-1 image {letter: k}; the same
# key may come more than once.

def leibniz_word(word, image):
    """Tensor word: each position's letter replaced by each letter of its image."""
    for pos, letter in enumerate(word):
        for j, k in image(letter).items():
            yield word[:pos] + (j,) + word[pos + 1:], k


def leibniz_multiset(mult, image):
    """Sorted multiset: each distinct letter moved once, times its multiplicity."""
    for pos, letter in enumerate(mult):
        if pos and mult[pos - 1] == letter:
            continue
        n = mult.count(letter)
        rest = mult[:pos] + mult[pos + 1:]
        for j, k in image(letter).items():
            yield tuple(sorted(rest + (j,))), n * k


def leibniz_mixed(key, image):
    """Mixed key (a, m): the head a moved, then the multiset m by leibniz_multiset."""
    a, mult = key
    for j, k in image(a).items():
        yield (j, mult), k
    for m, k in leibniz_multiset(mult, image):
        yield (a, m), k


_LEIBNIZ = {TensorElement: leibniz_word, SymElement: leibniz_multiset,
            MixedElement: leibniz_mixed}


def derive(x, var, spec: ActionSpec):
    """Leibniz extension of the generator-level action; same type out as in.

    Each basis key's image is read from the spec's memo and the images are
    combined.  Metabelian elements are derived through their mu-coordinates.
    An element over another alphabet than the spec's raises DomainError.
    An image is stored only once it is complete, so an undefined action
    pair raises KeyError on every call.
    """
    if var not in spec.variables:
        raise KeyError(f"unknown variable {var!r}")
    if isinstance(x, MetabelianElement):
        return MetabelianElement(x.degree, derive(x.mixed, var, spec))
    kind = type(x)
    if kind is not LieElement and kind not in _LEIBNIZ:
        raise TypeError(f"cannot derive {kind.__name__}")
    if x.alphabet != spec.alphabet:
        raise DomainError("the element and the action are over different alphabets")
    return x._new(combine(x.terms, spec._memo[kind, var].__getitem__, x.domain.p))


def _derive_table(spec, kind_var) -> MemoTable:
    """derive's table of one (element type, variable) of the spec."""
    return MemoTable((spec, *kind_var), _derived_key)


def _derived_key(how, key) -> dict:
    """The integer image of one basis key, how = (spec, element type,
    variable).  Over Z it scales into every domain: a Lyndon word's image is
    a unitriangular integer solve (``lie_from_tensor``) of the Leibniz image
    of its tensor expansion, so its reduction mod p is the image over
    GF(p)."""
    spec, kind, var = how
    if kind is LieElement:
        t = TensorElement(spec.alphabet, ZZ, _expand_lyndon(spec.alphabet, key), _clean=True)
        return lie_from_tensor(derive(t, var, spec)).terms
    out = {}
    add_into(out, _LEIBNIZ[kind](key, partial(spec.image, var=var)))
    return out


# ---------------------------------------------------------------------------
# exactness of the mu/kappa sequence

class ExactnessReport(namedtuple("ExactnessReport", [
        "c", "degree_cut", "rank_metabelian", "rank_mixed", "rank_sym",
        "mu_injective", "kappa_surjective", "image_equals_kernel"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.mu_injective and self.kappa_surjective and self.image_equals_kernel


def mixed_basis(alphabet, c, max_weight=None, weight=None) -> list[tuple]:
    """Keys (a, multiset of c-1 letters) of A (x) A^(c-1), in lexicographic
    order, of total weight at most max_weight or exactly weight."""
    lo, hi = weight_range(weight, max_weight)
    wt, _, bounds = alphabet.table("grading", _grading)[None]
    return [(a, mult) for a, wa in enumerate(wt)
            for mult in multisets(wt, c - 1, lo - wa, hi - wa, bounds=bounds).get(0, ())]


def sym_basis(alphabet, c, max_weight=None) -> list[tuple]:
    """Keys (multisets of c letters) of A^c, in lexicographic order."""
    wt = [g.weight for g in alphabet]
    return multisets(wt, c, *weight_range(max_weight=max_weight)).get(0, [])


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

    mu_rows = [{mixed_index[key]: k for key, k in
                _mu_terms(word).items()} for word in nwords]
    image = IntLattice(len(mixed), mu_rows)
    mu_injective = image.rank == len(nwords)

    kappa_rows = [{sym_index[tuple(sorted((a,) + mult))]: 1} for a, mult in mixed]
    kappa_surjective = len(set().union(*kappa_rows)) == len(syms)
    # Ker kappa is spanned by the relations among kappa's rows
    kernel = IntLattice(len(mixed), _tagged(len(syms), kappa_rows)[1])
    image_equals_kernel = image == kernel
    return ExactnessReport(c, degree_cut, len(nwords), len(mixed), len(syms),
                           mu_injective, kappa_surjective, image_equals_kernel)


# ---------------------------------------------------------------------------
# seeded sampling helpers used by the verify command and the test suite

def random_homogeneous(alphabet, c, rng, domain=ZZ, max_weight=None) -> LieElement:
    """Up to four distinct Lyndon words of length c, each times a coefficient
    of 1 to 4 and a random sign; one that vanishes in the domain is dropped.
    The draws are sample(words, k=min(n, randrange(1, 5))), then
    randrange(1, 5) and choice((1, -1)) per pick."""
    words = alphabet.table("lyndon_of_length", _lyndon_of_length)[c, max_weight]
    if not words:
        return lie_zero(alphabet, domain)
    terms = {}
    for w in rng.sample(words, k=min(len(words), rng.randrange(1, 5))):
        coeff = domain.coerce(rng.randrange(1, 5) * rng.choice((1, -1)))
        if coeff:
            terms[w] = coeff
    return LieElement(alphabet, domain, terms, _clean=True)


def _lyndon_of_length(alphabet, key) -> tuple:
    """The Lyndon words of c letters and weight at most max_weight, key =
    (c, max_weight), as index tuples: the sample table of
    ``random_homogeneous``."""
    c, max_weight = key
    return tuple(w.idx for w in lyndon_words_of_length(alphabet, c, max_weight=max_weight))


def _mu_images(alphabet, key) -> tuple:
    """The integer mu terms of each normal word of degree c and weight at
    most max_weight, key = (c, max_weight), in basis order: the sample table
    of ``random_metabelian``."""
    c, max_weight = key
    return tuple(tuple(_mu_terms(w).items())
                 for w in normal_words(alphabet, c, max_weight=max_weight))


def random_metabelian(alphabet, c, rng, domain=ZZ, max_weight=None) -> MetabelianElement:
    """The metabelian classes of up to four distinct normal words of degree
    c, drawn as in ``random_homogeneous``; each pick adds its word's integer
    mu terms, memoised per (c, max_weight) in basis order, times its
    coefficient."""
    images = alphabet.table("mu_images", _mu_images)[c, max_weight]
    acc = {}
    if images:
        for terms in rng.sample(images, k=min(len(images), rng.randrange(1, 5))):
            coeff = domain.coerce(rng.randrange(1, 5) * rng.choice((1, -1)))
            add_into(acc, terms, coeff, domain.p)
    return MetabelianElement(c, MixedElement(alphabet, domain, acc, _clean=True))


def random_action(alphabet, variables, rng) -> ActionSpec:
    images = {}
    n = len(alphabet)
    for i in range(n):
        for var in variables:
            img = {}
            for j in range(n):
                if rng.random() < 0.5:
                    coeff = rng.randint(-2, 2)
                    if coeff:
                        img[j] = coeff
            images[(i, var)] = img
    return ActionSpec(alphabet, variables, images)
