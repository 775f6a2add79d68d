"""The degree-p tensor power of a small space in characteristic p.

Builds the Poincare-Birkhoff-Witt basis of the tensor power from a Lie basis
ordered degree-first, filters it by type, and verifies that the kernel of the
symmetrization onto V (x) S^(p-1)(V) is the span of the block symmetrizer
images together with the degree-p part of the second derived ideal, which is
therefore a direct summand.

Vectors are sparse dicts ``{index: coeff mod p}`` holding no zero.  All
linear algebra runs on ``zlinalg.IntLattice`` given the modulus p: ranks,
memberships, and the relations among the eta rows (``maps._eta_word``, at
most two terms each, read off the standard factorisation with no tensor
expansion) that span the second derived part, read off their tagged
echelon.  The list-based functions (``rref_mod``, ``alpha_vector`` and so
on) convert to and from sparse vectors.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product
from math import factorial, prod

from .elements import _expand_lyndon
from .maps import _distinct_permutations, _eta_word, mixed_basis
from .words import _lyndon_walk, unit_alphabet
from .zlinalg import (IntLattice, _dense, _sparse, _tagged, add_into,
                      hermite_normal_form, integer_kernel)


# -- linear algebra over Z/p, on zlinalg.IntLattice ---------------------------

def rref_mod(rows, n, p):
    """Reduced row echelon form mod p; returns (rows, pivot columns)."""
    h, _ = hermite_normal_form(rows, n, p=p)
    return h, [next(j for j, x in enumerate(r) if x) for r in h]


def rank_mod(rows, n, p):
    return IntLattice(n, rows, p).rank


def in_span_mod(echelon, pivots, vec, p):
    """Whether vec lies in the span of the rows of ``rref_mod``'s output
    (the pivots are implied by the rows)."""
    return vec in IntLattice(len(vec), echelon, p)


def right_kernel_mod(rows, n, p):
    """A basis of the right kernel mod p: one vector per free column j of the
    reduced form, ascending, with 1 at j and 0 at the other free columns."""
    return integer_kernel(rows, n, p)


# -- PBW scaffolding ----------------------------------------------------------

class PBWElement(namedtuple("PBWElement", "factors")):
    """A product of non-decreasing Lie basis factors of total degree p."""

    __slots__ = ()

    @property
    def type(self) -> tuple[int, ...]:
        p = sum(len(f) for f in self.factors)
        counts = [0] * p
        for f in self.factors:
            counts[len(f) - 1] += 1
        return tuple(counts)


def type_list(p: int) -> list[tuple[int, ...]]:
    """All p-tuples (k1,...,kp) with sum i*ki = p, lexicographically descending."""
    out = []

    def rec(i, remaining, acc):
        if i > p:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for k in range(remaining // i, -1, -1):
            acc.append(k)
            rec(i + 1, remaining - i * k, acc)
            acc.pop()

    rec(1, p, [])
    out.sort(reverse=True)
    return out


def _numeral(word, dim, head=0) -> int:
    """The index of the tensor word head + word: its letters read as a
    base-``dim`` numeral."""
    for a in word:
        head = head * dim + a
    return head


class PBWBasis:
    """The type-filtered PBW basis of the degree-p tensor power.

    Tensor words are indexed in lexicographic order, so a word's index is the
    word read as a base-``dim`` numeral.  ``mixed`` indexes the basis of
    V (x) S^(p-1)(V) and ``alpha_col[i]`` is the mixed column of word i, the
    one nonzero entry, a 1, of alpha's row i: ``check_summand`` counts the
    distinct columns for alpha's rank.  ``factor_terms`` memoises each
    product's tensor terms on the basis, so a product expands once however
    often the filtration, ``sigma`` and ``_bp_space`` read it.
    """

    def __init__(self, p: int, dim: int):
        if p < 2:
            raise ValueError("degree must be at least 2")
        self.p = p
        self.dim = dim
        self.alphabet = unit_alphabet(dim)
        # Lie basis grouped by degree, ordered degree-first then lexicographically
        units = [1] * dim
        self.lie_basis = {r: _lyndon_walk(units, r).get(0, []) for r in range(1, p + 1)}
        self.types = type_list(p)
        self.m = len(self.types)
        assert self.types[0] == (p,) + (0,) * (p - 1)
        assert self.types[-1] == (0,) * (p - 1) + (1,)
        self.classes = [self._class_of(t) for t in self.types]
        self.n_tensor = dim ** p
        self.mixed = {key: i for i, key in enumerate(mixed_basis(self.alphabet, p))}
        # product() runs through the words in index order
        self.alpha_col = [self.mixed[(w[0], tuple(sorted(w[1:])))]
                          for w in product(range(dim), repeat=p)]
        self._expansions = {}
        self._products = {}

    def _class_of(self, typ):
        per_degree = []
        for r, k in enumerate(typ, start=1):
            if k == 0:
                continue
            basis = self.lie_basis[r]
            if not basis:
                return []
            per_degree.append(list(combinations_with_replacement(basis, k)))
        return [PBWElement(sum(chunks, ())) for chunks in product(*per_degree)]

    def _expansion(self, f):
        """(index as a numeral, coefficient mod p) pairs of a Lie basis word's
        tensor expansion."""
        terms = self._expansions.get(f)
        if terms is None:
            p, dim = self.p, self.dim
            terms = [(_numeral(w, dim), c % p)
                     for w, c in _expand_lyndon(self.alphabet, f).items() if c % p]
            self._expansions[f] = terms
        return terms

    def factor_terms(self, factors) -> dict:
        """Sparse tensor coordinates mod p of a product of Lie basis factors.

        The dict is memoised on the basis and shared by every caller, who
        must not change it.
        """
        factors = tuple(factors)
        terms = self._products.get(factors)
        if terms is None:
            p, dim = self.p, self.dim
            terms = {0: 1}
            for f in factors:
                shift = dim ** len(f)
                expansion = self._expansion(f)
                # the words of a product are the concatenations, all distinct
                terms = {i * shift + j: c * k % p
                         for i, c in terms.items() for j, k in expansion}
            self._products[factors] = terms
        return terms

    def class_vectors(self, i) -> list[list[int]]:
        """Tensor vectors of the class with 1-based index i."""
        return [_dense(self.factor_terms(e.factors), self.n_tensor)
                for e in self.classes[i - 1]]

    def filtration_vectors(self, i) -> list[list[int]]:
        """Spanning vectors of X_i (classes i..m)."""
        out = []
        for k in range(i, self.m + 1):
            out.extend(self.class_vectors(k))
        return out

    def sigma(self, i: int, elem: PBWElement) -> dict:
        """Image of the class-i basis element under the block symmetrizer sigma_i."""
        if not 2 <= i <= self.m - 1:
            raise ValueError(f"sigma index {i} out of range 2..{self.m - 1}")
        typ = self.types[i - 1]
        if elem.type != typ:
            raise ValueError("element does not belong to the requested class")
        p = self.p
        blocks = []
        pos = 0
        for k in typ:
            if k:
                blocks.append(elem.factors[pos:pos + k])
                pos += k
        # the average over each block's k! permutations: a block with
        # repeated factors has fewer distinct arrangements, each taken once
        # with the weight of the permutations that give it
        inv = pow(prod(factorial(len(b)) for b in blocks), -1, p)
        scale = inv * prod(factorial(b.count(f)) for b in blocks for f in set(b)) % p
        acc = {}
        for arrangement in product(*(_distinct_permutations(b) for b in blocks)):
            add_into(acc, self.factor_terms(sum(arrangement, ())).items(), scale, p)
        return acc

    def alpha(self, vec) -> dict:
        """a1 (x) ... (x) ap  ->  a1 (x) (a2 o ... o ap) on a sparse tensor vector."""
        col = self.alpha_col
        out = {}
        add_into(out, ((col[i], c) for i, c in vec.items()), 1, self.p)
        return out

    def beta(self, key) -> dict:
        """Image of a mixed basis element under the averaged splitting beta."""
        p, dim = self.p, self.dim
        a, mult = key
        # each distinct arrangement of mult is prod(m!) of its (p-1)! permutations
        c = (prod(factorial(mult.count(b)) for b in set(mult))
             * pow(factorial(p - 1), -1, p) % p)
        return {_numeral(w, dim, a): c for w in _distinct_permutations(mult)}



def pbw_basis(p: int, dim: int) -> PBWBasis:
    return PBWBasis(p, dim)


def sigma_vector(data: PBWBasis, i: int, elem: PBWElement) -> list[int]:
    """Image of the class-i basis element under the block symmetrizer sigma_i."""
    return _dense(data.sigma(i, elem), data.n_tensor)


def alpha_vector(data: PBWBasis, vec) -> list[int]:
    """a1 (x) ... (x) ap  ->  a1 (x) (a2 o ... o ap), applied to a tensor vector."""
    return _dense(data.alpha(_sparse(vec, data.n_tensor, data.p)), len(data.mixed))


def beta_vector(data: PBWBasis, key) -> list[int]:
    """Image of a mixed basis element under the averaged splitting beta."""
    return _dense(data.beta(key), data.n_tensor)


def _bp_space(data: PBWBasis):
    """Sparse (Lyndon coordinate vectors, tensor vectors) of a basis of the
    degree-p part of the second derived ideal: the left kernel of eta."""
    p = data.p
    words = data.lie_basis[p]
    rows = [{data.mixed[key]: c for key, c in _eta_word(data.alphabet, w).items()}
            for w in words]
    kernel = _tagged(len(data.mixed), rows, p)[1]
    tensors = []
    for v in kernel:
        acc = {}
        for pos, c in v.items():
            add_into(acc, data.factor_terms((words[pos],)).items(), c, p)
        tensors.append(acc)
    return kernel, tensors


def bp_space(p: int, dim: int, data: PBWBasis | None = None):
    """Basis of the degree-p part of the second derived ideal over GF(p).

    Returns (lyndon coordinate vectors, tensor vectors, lyndon word list).
    """
    data = data or PBWBasis(p, dim)
    words = data.lie_basis[p]
    kernel, tensors = _bp_space(data)
    return ([_dense(v, len(words)) for v in kernel],
            [_dense(t, data.n_tensor) for t in tensors], words)


class SummandReport(namedtuple("SummandReport", [
        "p", "dim", "dim_tensor", "class_sizes", "dim_w", "dim_ker_alpha", "dim_im_beta",
        "dim_bp", "sigma_dims", "sigma_injective", "sigma_in_filtration", "w_in_kernel",
        "kernel_is_w", "splits_tensor", "summands_independent", "beta_alpha_identity",
        "kp_zero_inside"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.sigma_injective and self.sigma_in_filtration
                and self.w_in_kernel and self.kernel_is_w and self.splits_tensor
                and self.summands_independent and self.beta_alpha_identity
                and self.kp_zero_inside)


def check_summand(p: int, dim: int) -> SummandReport:
    """Verify Ker(alpha) = W and T^p = W (+) Im(beta) over GF(p).

    alpha sends each tensor word to one mixed key with coefficient 1, so its
    matrix has a single 1 in each row, and its rank is the number of distinct
    columns: dim Ker(alpha) is counted, not eliminated.  Every other rank is
    an echelon rank.  Each vector is built once (the products through the
    memo of ``factor_terms``) and each echelon reduces its own copy, with
    no ``_sparse`` check; a vector's last echelon takes it without a copy.
    """
    data = PBWBasis(p, dim)
    n = data.n_tensor
    class_sizes = tuple(len(c) for c in data.classes)
    assert sum(class_sizes) == n

    dim_ker_alpha = n - len(set(data.alpha_col))

    beta_vectors = [data.beta(key) for key in data.mixed]
    beta_alpha_identity = all(data.alpha(bv) == {pos: 1}
                              for bv, pos in zip(beta_vectors, data.mixed.values()))
    dim_im_beta = _copied_echelon(n, beta_vectors, p).rank

    # sigma_i for 2 <= i < m, each checked against X_i (classes i..m), which
    # grows from the last class up
    sigma_of = {}
    sigma_in_filtration = True
    filtration = IntLattice(n, (), p)
    for i in range(data.m, 1, -1):
        for e in data.classes[i - 1]:
            filtration._reduce(dict(data.factor_terms(e.factors)), grow=True)
        if i < data.m:
            sigma_of[i] = [data.sigma(i, e) for e in data.classes[i - 1]]
            sigma_in_filtration &= all(filtration._reduce(dict(v)) for v in sigma_of[i])
    inner = range(2, data.m)
    sigma_vectors = [v for i in inner for v in sigma_of[i]]
    sigma_dims = [_copied_echelon(n, sigma_of[i], p).rank for i in inner]
    sigma_injective = all(r == len(sigma_of[i]) for r, i in zip(sigma_dims, inner))
    kp_zero_inside = all(data.types[i - 1][-1] == 0 for i in inner)

    _, bp_vectors = _bp_space(data)
    dim_bp = len(bp_vectors)

    w_vectors = sigma_vectors + bp_vectors
    w_in_kernel = not any(data.alpha(v) for v in w_vectors)
    # W is the last echelon the sigma, second-derived and beta vectors enter
    w = IntLattice(n, (), p)
    for v in w_vectors:
        w._reduce(v, grow=True)
    dim_w = w.rank
    summands_independent = dim_w == sum(sigma_dims) + dim_bp
    kernel_is_w = w_in_kernel and dim_w == dim_ker_alpha
    for v in beta_vectors:
        w._reduce(v, grow=True)
    splits_tensor = dim_w + dim_im_beta == n and w.rank == n
    return SummandReport(p, dim, n, class_sizes, dim_w, dim_ker_alpha,
                         dim_im_beta, dim_bp, tuple(sigma_dims),
                         sigma_injective, sigma_in_filtration, w_in_kernel,
                         kernel_is_w, splits_tensor, summands_independent,
                         beta_alpha_identity, kp_zero_inside)


def _copied_echelon(n, vectors, p) -> IntLattice:
    """The echelon mod p of copies of sparse vectors reduced mod p."""
    lattice = IntLattice(n, (), p)
    for v in vectors:
        lattice._reduce(dict(v), grow=True)
    return lattice
