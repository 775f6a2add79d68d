"""Degree-by-degree torsion of the central quotient of prime Lie powers of the
derived ideal of the rank-2 free Lie ring.

The degree-c part of the derived ideal modulo the next lower central term is
the free Lie power of the graded abelian group A with basis u(s,t) of ambient
degree s+t+2, on which the ambient generators act by u(s,t)x = u(s+1,t) and
u(s,t)y = u(s,t+1).  Killing that action degree by degree presents the
quotient as an integer cokernel, so torsion is read off Smith normal form.
A generator u(s,t) has bidegree (s+1, t+1), x raises the first component and
y the second, so each degree splits into blocks, one per bidegree (a, d-a),
each presented once, by as many rows as its rank: ``TorsionEngine.block``
drops the x-images that the Koszul relation x y = y x makes redundant.
Swapping x and y sends u(s,t) to -u(t,s) modulo the second derived ideal;
that is a graded automorphism commuting with the action, so block (a, b)
and block (b, a) have isomorphic cokernels, and a degree's cokernel is
built from the blocks with a <= b alone.  Each block is one row echelon
(``zlinalg.Presentation``) read prime by prime, and a theorem vector of
bidegree (a, b) is read off its own block's echelon, for a <= b only: the
swap sends the theorem element of (s, t) to +-1 times that of (t, s), and
theta's image likewise, so an index past the mirror takes its mirror's
order and unit (``_mirrored``).  The theorem checks build no block past the
mirror, of degree d or of degree d-1.  Each block owns its columns
(``bigrading(d)`` gives each block's {word: column}), and every vector the
engine builds is written in the columns of its own block.  A degree's words
are generated block by block, on demand: one walk carries each prefix's
first bidegree component and emits only the blocks asked for, each in
lexicographic order.  A Lie block numbers its words from its first, a
metabelian block from its last, so on both sides a relation row's leading
word is its least column (``block``).  The engine keeps, per side and
degree, the blocks' words and cokernels, and on the Lie side of a prime
engine the theorem blocks' echelons.

Every Lie-side vector is read in tensor coordinates: its coordinate on a
degree-d Lyndon word w is the coefficient of w in its tensor expansion.  The
standard bracketing of a Lyndon word expands to the word once plus larger
words (Chen, Fox & Lyndon 1958), so these are the Lyndon coordinates times a
unitriangular matrix, and cokernels, orders and memberships are the same in
either.  A relation row, the x- or y-image of a degree d-1 basis word, is
Leibniz on the word's tensor expansion, kept on the Lyndon words of the
image's block: since x and y send each letter to one letter, the block's
row builder lists each block word under every word one lowering below it
(its lowered-word index), and the row is one lookup per expansion term.  The
expansion is never built whole: for the standard factorisation w = uv it
is P_u P_v - P_v P_u, so one kernel call per row reads it through the index
off the two factors' memoised expansions in place (``elements._lyndon_into``).
The freeness check's kernels go through the same kernel.  A
theorem vector, and theta's image of a theorem word, is read off theta's
presum tensor (``maps.presum_tensor``), which is the expansion of the Lie
element, with no peel to Lyndon coordinates.  Only the reference paths
``derived_coords``, ``action_matrix`` and ``metabelian_matrix`` read a whole
degree, in Lyndon or normal-word coordinates, through ``maps.derive``.

The metabelian side goes through the same blocks in normal words, by the
strict-key rule: mu of a normal word's class is its strict key minus a key
that is not strict, and strict keys match normal words one to one, so an
element's coordinate on a normal word is the coefficient of that word's
strict key in its mu image.  A relation row is Leibniz on a word's two
integer mu terms, read through the block's lowered-key index, one lookup
per term; the x<->y swap is a graded automorphism there too.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, prod

from .elements import (IntegralityError, LieElement, TensorElement, ZZ, _lyndon_into,
                       is_prime, lie_from_tensor, lyndon_monomial)
from .maps import (ActionSpec, _eta_word, _mu_terms, derive, metabelian_normal_coords,
                   metabelian_of_word, mixed_basis, normal_words, peel_strict_keys,
                   presum_tensor)
from .words import Alphabet, Generator, LyndonWord, _grading, _lyndon_walk, is_lyndon
from .zlinalg import (CokernelStructure, Presentation, _dense, _divisor_chain,
                      _owned_presentation, _tagged, combine)

VARIABLES = ("x", "y")


def a_generator(s: int, t: int) -> Generator:
    """Basis element u(s,t) = [y,x,x..x,y..y] of L'/L'', ambient degree s+t+2."""
    if s < 0 or t < 0:
        raise ValueError("indices must be non-negative")
    return Generator(f"u({s},{t})", (s + 1, t + 1))


def st_of(g: Generator) -> tuple[int, int]:
    a, b = g.multidegree
    return a - 1, b - 1


def a_generators(max_degree: int) -> list[Generator]:
    """All u(s,t) of ambient degree <= max_degree, ordered by (degree, s)."""
    if max_degree < 2:
        raise ValueError("the smallest generator has degree 2")
    out = []
    for degree in range(2, max_degree + 1):
        for s in range(degree - 1):
            out.append(a_generator(s, degree - 2 - s))
    return out


def a_alphabet(max_degree: int) -> Alphabet:
    return Alphabet(a_generators(max_degree))


def a_action(alphabet: Alphabet) -> ActionSpec:
    """The derivation action u(s,t)x = u(s+1,t), u(s,t)y = u(s,t+1).

    Pairs whose target exceeds the alphabet's degree cut stay undefined.
    Each target is looked up in one {(s, t): letter} map.
    """
    letter = {st_of(g): i for i, g in enumerate(alphabet)}
    images = {}
    for (s, t), i in letter.items():
        for var, target in (("x", (s + 1, t)), ("y", (s, t + 1))):
            j = letter.get(target)
            if j is not None:
                images[i, var] = {j: 1}
    return ActionSpec(alphabet, VARIABLES, images)


class TorsionReport(namedtuple("TorsionReport", [
        "prime", "degree", "lie_power_rank", "cokernel", "theorem_count", "all_order_p",
        "independent", "spanning", "torsion_all_p", "integrality_passed",
        "theorem_checked"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        if not self.theorem_checked:
            return True
        return (self.all_order_p and self.independent and self.spanning
                and self.torsion_all_p and self.integrality_passed)


class MetabelianTorsionReport(namedtuple("MetabelianTorsionReport", [
        "prime", "degree", "lie_torsion", "metabelian_torsion", "ranks_agree",
        "theta_matches", "units"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.ranks_agree and self.theta_matches


class FreenessReport(namedtuple("FreenessReport", [
        "prime", "max_degree",
        "dimensions",   # ((degree, rank of the kernel part), ...)
        "torsion_found", "all_torsion_free", "nonvacuous"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.all_torsion_free


class _Degree:
    """One side's degree-d basis, block by block, and what is built over it,
    all on demand."""

    __slots__ = ("blocks", "presentations", "cokernels")

    def __init__(self):
        self.blocks = {}              # {a: {word of bidegree (a, d-a): its column in the block}},
                                      # for each a walked so far, empty blocks included
        self.presentations = {}       # {a: block Presentation}, Lie theorem blocks of a prime
                                      # engine only
        self.cokernels = {}           # {a: block CokernelStructure}, as graded_cokernel read it


class TorsionEngine:
    """One modulus up to one ambient degree.  Everything cached is one record
    per side and degree (``_Degree``): the side "lie" is the Lie power on
    Lyndon words, "metabelian" the metabelian power in normal words.  The
    relation rows and their lowered indexes are rebuilt on each call; every
    block reads its own rows once.  Past ``max_degree`` the alphabet is cut,
    so a degree above it raises ValueError."""

    def __init__(self, p: int, max_degree: int):
        if p < 2:
            raise ValueError("the class length must be at least 2")
        if max_degree < 2 * p:
            max_degree = 2 * p
        self.p = p
        self.max_degree = max_degree
        self.alphabet = a_alphabet(max(2, max_degree - 2 * (p - 1)))
        self.action = a_action(self.alphabet)
        # per variable, the letter whose image each letter is, or None, in
        # one pass over the images: the lowered indexes need each image to
        # be one letter with coefficient 1, and no two letters to share one
        self._lower = {var: [None] * len(self.alphabet) for var in VARIABLES}
        for (i, var), img in self.action.table.items():
            if list(img.values()) != [1]:
                raise ValueError("each letter's image must be one letter with coefficient 1")
            lower, (j,) = self._lower[var], img
            if lower[j] is not None:
                raise ValueError(f"two letters share an image under {var!r}")
            lower[j] = i
        self._degrees = {}

    # -- bases ------------------------------------------------------------

    def _degree(self, d: int, side: str = "lie") -> _Degree:
        """The side's degree-d record, made once with no block built; an
        unknown side raises KeyError."""
        rec = self._degrees.get((side, d))
        if rec is None:
            if side not in ("lie", "metabelian"):
                raise KeyError(side)
            if d > self.max_degree:
                raise ValueError(f"degree {d} is above the engine's max_degree "
                                 f"{self.max_degree}, where the alphabet is cut")
            rec = self._degrees[side, d] = _Degree()
        return rec

    def _blocks(self, d: int, side: str, lo: int, hi: int) -> dict:
        """The side's degree-d blocks, {a: {word: column}}, with every block
        a in [lo, hi] built: those not built yet come from one walk that
        carries each prefix's first bidegree component and prunes to them
        (``words._lyndon_walk``, ``maps.normal_words``).  Each block's words
        are in lexicographic order.  A Lie block numbers them 0, 1, ... from
        its first word, a metabelian block from its last, so that on both
        sides a row's leading word is its least column (see ``block``).  The
        cache's, read-only."""
        blocks = self._degree(d, side).blocks
        todo = [a for a in range(lo, hi + 1) if a not in blocks]
        if todo:
            want = range(todo[0], todo[-1] + 1)
            if side == "lie":
                weight, first, bounds = self.alphabet.table("grading", _grading)[0]
                found = _lyndon_walk(weight, self.p, d, d, first=first, blocks=want,
                                     bounds=bounds)
            else:
                found = normal_words(self.alphabet, self.p, weight=d, blocks=want)
            for a in todo:
                words = found.get(a, ())
                cols = range(len(words)) if side == "lie" else range(len(words) - 1, -1, -1)
                blocks[a] = dict(zip(words, cols))
        return blocks

    def _cols(self, d: int, a: int, side: str = "lie") -> dict:
        """Block (a, d-a)'s {word: column}, built on first use."""
        return self._blocks(d, side, a, a)[a]

    def lie_basis(self, d: int) -> list[tuple]:
        """Lyndon words of length p and ambient degree d, as index tuples, in
        lexicographic order: every block of the degree, merged."""
        return sorted(w for cols in self.bigrading(d).values() for w in cols)

    def normal_basis(self, d: int) -> list[tuple]:
        return sorted(w for cols in self.bigrading(d, "metabelian").values() for w in cols)

    # -- relation rows ------------------------------------------------------

    def _row_builder(self, d: int, a: int, var: str, side: str):
        """The one row builder of both sides: a function from a degree d-1
        basis word whose var-image lies in block (a, d-a) to that image,
        {column of the block: coefficient}, without zeros, a new dict the
        caller may hand to the echelon (``block``).  The block's lowered
        index is built here, once per builder, and goes with it.

        A row adds each of the word's terms, times its coefficient, to the
        columns the lowered index lists under it (``_lowered_index`` proves
        that this is the image): on the Lie side the terms of the word's
        tensor expansion, on the metabelian side its two integer mu terms.
        The expansion is P_u P_v - P_v P_u for the word's standard
        factorisation (u, v), and one kernel call reads it through the
        index off the two factors' memoised expansions in place
        (``elements._lyndon_into``): each pair of terms (a, ca) of P_u and
        (b, cb) of P_v adds ca cb to the columns under ab and -ca cb to
        those under ba, and the row sums a word that comes more than once,
        so the word's own expansion is neither built nor stored."""
        index = self._lowered_index(self._cols(d, a, side), var, side)
        if side == "lie":
            alphabet = self.alphabet

            def fill(acc, word):
                _lyndon_into(acc, alphabet, word, index)
        else:
            def fill(acc, word):
                for w, c in _mu_terms(word).items():
                    for col in index.get(w, ()):
                        acc[col] = acc.get(col, 0) + c

        def row(word):
            acc = {}
            fill(acc, word)
            if 0 in acc.values():
                return {col: c for col, c in acc.items() if c}
            return acc
        return row

    def _lowered_index(self, cols: dict, var: str, side: str) -> dict:
        """The lowered index of a block's {word: column}, for one variable:
        {term one var-lowering below a block word: [its columns]}, such that
        the var-image of a degree d-1 basis word in the block's columns
        adds each of the word's terms, times its coefficient, to each
        column listed under it (``_row_builder``).

        Lie side.  The terms are the words of the basis word's tensor
        expansion, and the image's expansion is, by Leibniz, that expansion
        with one letter raised at a time.  Every letter's image is one
        letter with coefficient 1 (checked in ``__init__``), so a block
        word v gains the coefficient of each expansion word that lowers v
        at one position, and v is listed under v lowered at each position
        once: lowering it at two positions gives two different words.

        Metabelian side, by the strict-key rule.  mu of the class n_w of a
        normal word w = (b1, tail) is its strict key (b1, tail),
        b1 > min(tail), minus the key (b2, b1 o tail[1:]), which is not
        strict, since b2 is at most every letter of tail and below b1.  So
        strict keys match normal words one to one, and an element's
        coordinate on w is the coefficient of w's strict key in its mu
        image.  The image of n_w is Leibniz on w's two mu terms, and a block
        word v = (h, T) gains the coefficient of each term that Leibniz
        takes to the key (h, T):
        - a term (lower(h), T), whose head Leibniz raises once;
        - a term (h, M), where M is T with one letter t lowered.  Leibniz
          raises each distinct letter of a multiset once, times its
          multiplicity (``maps.leibniz_multiset``), and M reaches T only by
          raising a copy of lower(t), the one letter M has in place of t.  So
          the term counts as many times as lower(t) occurs in M.
        These are all: a head move keeps the multiset and a tail move the
        head, and lowering different letters of T leaves different
        multisets.  So v is listed under each such term that often (its
        lowered-key index), and the row is one lookup per mu term."""
        lower = self._lower[var]
        index = {}
        if side == "lie":
            for v, col in cols.items():
                key = list(v)
                for pos, letter in enumerate(v):
                    low = lower[letter]
                    if low is not None:
                        key[pos] = low
                        index.setdefault(tuple(key), []).append(col)
                        key[pos] = letter
            return index
        for v, col in cols.items():
            head, tail = v[0], v[1:]
            low = lower[head]
            if low is not None:
                index.setdefault((low, tail), []).append(col)
            for pos, letter in enumerate(tail):
                low = lower[letter]
                if low is None or (pos and tail[pos - 1] == letter):
                    continue
                m = list(tail)
                m[pos] = low
                m = tuple(sorted(m))
                index.setdefault((head, m), []).extend([col] * m.count(low))
        return index

    def derived_coords(self, word: tuple, var: str) -> dict:
        """The var-image of a basis word in Lyndon coordinates, {Lyndon word:
        coefficient}, by the reference path ``maps.derive``."""
        self._degree(self.alphabet.word_weight(word) + 1)    # refuses a cut degree
        return derive(lyndon_monomial(self.alphabet, word), var, self.action).terms

    # -- the block presentation, on either side -----------------------------

    def action_matrix(self, d: int) -> list[list[int]]:
        """The relations of degree d as a dense matrix in Lyndon coordinates
        on lie_basis(d), by the reference path ``maps.derive``."""
        index = {w: i for i, w in enumerate(self.lie_basis(d))}
        return [_dense({index[u]: c for u, c in self.derived_coords(w, v).items()}, len(index))
                for w in self.lie_basis(d - 1) for v in VARIABLES]

    def metabelian_matrix(self, d: int) -> list[list[int]]:
        """The metabelian relations of degree d as a dense matrix on
        normal_basis(d), by the reference path ``maps.derive`` and
        ``metabelian_normal_coords``."""
        index = {w: i for i, w in enumerate(self.normal_basis(d))}
        return [_dense({index[u]: c for u, c in metabelian_normal_coords(derive(
                    metabelian_of_word(self.alphabet, w), v, self.action)).items()}, len(index))
                for w in self.normal_basis(d - 1) for v in VARIABLES]

    def bigrading(self, d: int, side: str = "lie") -> dict:
        """The side's degree-d basis split by bidegree: {a: {word of
        bidegree (a, d-a): its column in the block}} over the blocks that
        hold words, in ascending a, each in basis order and numbered as
        ``_blocks`` says: from the first word on the Lie side, from the last
        on the metabelian side.  Builds every block of the degree; the inner
        dicts are the cache's, read-only."""
        blocks = self._blocks(d, side, 0, d)
        return {a: blocks[a] for a in sorted(blocks) if blocks[a]}

    def _leads_y_image(self, word: tuple, side: str) -> bool:
        """Whether a basis word is the leading word of the y-image of a basis
        word one degree down (see ``block``): on the Lie side lowering its
        last letter by y leaves a Lyndon word, on the metabelian side
        lowering its head b1 leaves it above b2."""
        if side == "lie":
            low = self._lower["y"][word[-1]]
            return low is not None and is_lyndon(word[:-1] + (low,))
        low = self._lower["y"][word[0]]
        return low is not None and low > word[1]

    def block(self, d: int, a: int, side: str = "lie") -> Presentation:
        """The side's bidegree (a, b) = (a, d-a) piece as a cokernel: the
        y-images of the block (a, b-1) words and the x-images of the block
        (a-1, b) words that do not lead a y-image, in tensor coordinates on
        the Lie side.  Only a Lie theorem block of a prime engine is cached,
        since the theorem checks read its echelon again (``order``, ``in``);
        any other block is eliminated on each call.

        The y-image of a basis word w of block (a-1, b-1) has a leading word
        w' with coefficient 1, and w -> w' is one to one.  On the Lie side w'
        is w with its last letter raised, the least word of the image's
        expansion and so its least column: a Lyndon word's bracketing expands
        to the word once plus larger words (Reutenauer 1993, Thm 5.1), raising
        a letter makes a word larger, and raising the last letter of w gives
        the least.  On the metabelian side w' is w with its head b1 raised:
        (b1 y, tail) is the largest strict key of the image, with coefficient
        1, and a normal word's coordinate is its strict key's coefficient
        (``_lowered_index``), so w' is the image's largest normal word, and
        its least column, since a metabelian block numbers its words from
        the last (``_blocks``).  So the columns D of block (a-1, b) that are
        leading words and the rest C satisfy, with x y = y x:

        1. each leading column w' is a Z-combination of C modulo the
           y-images of block (a-1, b-1), by induction from the last column:
           y w is w' plus columns beyond w', each in C or a leading column
           already written so;
        2. hence x of block (a-1, b) lies in x<C> + x y (a-1, b-1), and
           x y (a-1, b-1) = y x (a-1, b-1) lies in y (a, b-1);
        3. so the rows kept span the same lattice, and exactly as many rows
           as block (a-1, b-1) has words are dropped.

        The echelon pivots on a row's smallest column, the leading word on
        either side.  The rows of each variable come from one
        ``_row_builder``, and the echelon takes them over without a copy
        (``zlinalg._owned_presentation``).
        """
        rec = self._degree(d, side)
        pres = rec.presentations.get(a)
        if pres is None:
            below = self._blocks(d - 1, side, a - 1, a)
            xs = [w for w in below[a - 1] if not self._leads_y_image(w, side)]
            ys = below[a]
            rows = []
            for var, ws in (("x", xs), ("y", ys)):
                if ws:
                    rows += map(self._row_builder(d, a, var, side), ws)
            pres = _owned_presentation(rows, len(self._cols(d, a, side)))
            if side == "lie" and is_prime(self.p) and a in {
                    self.theorem_block(s, t) for s, t in self.theorem_indices(d)}:
                rec.presentations[a] = pres
        return pres

    def graded_cokernel(self, d: int, side: str = "lie") -> CokernelStructure:
        """The side's degree-d cokernel, the direct sum of its blocks: each
        block (a, b) with a < b is counted twice, once for its mirror (b, a).
        Only the blocks a <= d/2 are built, of degree d and of degree d-1
        (their rows' words), one walk each.  Each block's cokernel is
        cached; which echelons outlive it is ``block``'s rule."""
        free, torsion = 0, []
        half = d // 2
        blocks = self._blocks(d, side, 0, half)
        self._blocks(d - 1, side, 0, half)
        cokernels = self._degree(d, side).cokernels
        for a in range(half + 1):
            if blocks[a]:
                ck = cokernels.get(a)
                if ck is None:
                    ck = cokernels[a] = self.block(d, a, side).cokernel
                times = 1 if 2 * a == d else 2
                free += times * ck.free_rank
                torsion += ck.torsion * times
        return CokernelStructure(free, tuple(q for q in _divisor_chain(torsion) if q > 1))

    # -- theorem elements ---------------------------------------------------

    def theorem_word(self, s: int, t: int) -> tuple:
        """The letters (vy, vx, u^(p-2)) with u = u(s,t), vx = u x, vy = u y."""
        u = self.alphabet.index(f"u({s},{t})")
        vx = self.alphabet.index(f"u({s + 1},{t})")
        vy = self.alphabet.index(f"u({s},{t + 1})")
        return (vy, vx) + (u,) * (self.p - 2)

    def theorem_element(self, s: int, t: int) -> LieElement:
        """The degree p(s+t+2)+2 torsion representative built from u = u(s,t).

        It is theta's double sum of (vy, vx, u^(p-2)), in which each of the
        p-1 arrangements of (vx, u^(p-2)) occurs (p-2)! times, divided by
        (p-2)! p; the division is asserted exact.  It is ``maps.theta_presum``
        peeled without memoising the peeled words' expansions, so the
        alphabet's ``"lyndon"`` memo is left as it was: at p=53 the peel held
        755 expansions, 234 MiB.
        """
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        tensor = presum_tensor(self.alphabet, self.theorem_word(s, t))
        presum = lie_from_tensor(TensorElement(self.alphabet, ZZ, tensor, _clean=True), keep=False)
        return presum.divided_by(factorial(self.p - 2) * self.p)

    def theorem_vector(self, s: int, t: int, d: int) -> dict:
        """The theorem element in tensor coordinates, {column of its block
        ``theorem_block(s, t)``: coefficient}: the presum tensor's
        coefficients on the block's Lyndon words, each divided by (p-2)! p,
        with no peel to Lyndon coordinates.  A coefficient that does not
        divide raises IntegralityError, exactly where ``theorem_element``
        does.

        Proof.  Let P be a Lie element of the block, with Lyndon coordinates
        c and tensor expansion T; the presum is one, and T is its presum
        tensor.  Every word of T has length p and bidegree (a, d-a), so T's
        Lyndon words are words of the block.  On the block's words T's
        coefficients are t = cU, where U[w][v] is the coefficient of v in
        the expansion of w's bracketing.  That expansion is w once plus
        larger words (Chen, Fox & Lyndon 1958; Reutenauer 1993, Thm 5.1), so
        U is unitriangular over Z, and so is its inverse.  Hence n divides
        every entry of c exactly when it divides every entry of t: t = cU
        and c = tU^-1.  When it does, t/n = (c/n)U are the tensor
        coordinates of P/n, here the theorem element."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        return self._presum_vector(self.theorem_word(s, t), d, self.theorem_block(s, t),
                                   factorial(self.p - 2) * self.p)

    def theta_vector(self, s: int, t: int, d: int) -> dict:
        """theta's image of the theorem word's metabelian class in the
        tensor coordinates of its block, {column: coefficient}: the sum, over
        the class's normal words, of each word's presum divided by p on its
        own, as ``maps.theta`` divides (see ``theorem_vector`` for why the
        division can be read in tensor coordinates).  A division that fails
        raises IntegralityError, where ``maps.theta`` raises."""
        a = self.theorem_block(s, t)
        return combine(peel_strict_keys(dict(_mu_terms(self.theorem_word(s, t)))),
                       lambda word: self._presum_vector(word, d, a, self.p))

    def _presum_vector(self, letters: tuple, d: int, a: int, n: int) -> dict:
        """theta's presum of a letter tuple of bidegree (a, d-a), divided by
        n, in the block's tensor coordinates (``_tensor_vector`` of
        ``maps.presum_tensor``); letters of another bidegree raise
        ValueError."""
        if self.alphabet.word_multidegree(letters) != (a, d - a):
            raise ValueError(f"{letters} lies outside the block ({a},{d - a})")
        return self._tensor_vector(presum_tensor(self.alphabet, letters), d, a, n)

    def _tensor_vector(self, tensor: dict, d: int, a: int, n: int) -> dict:
        """A Lie element of bidegree (a, d-a), given by its tensor expansion
        {word: coefficient}, divided by n in the block's tensor coordinates:
        its coefficients on the block's Lyndon words, each divided by n.  A
        coefficient that n does not divide raises IntegralityError, exactly
        when the element's Lyndon coordinates do not divide (see
        ``theorem_vector``)."""
        cols = self._cols(d, a)
        return {cols[w]: ZZ.divide_exact(c, n) for w, c in tensor.items() if w in cols}

    def _lie_coords(self, d: int, a: int):
        """A function from Lyndon coordinates {word: c} of bidegree (a, d-a)
        to the block's tensor coordinates: the sum of c times each word's
        expansion on the block's Lyndon words, read off its standard
        factorisation through the block's {word: (column,)} by the row
        kernel (``elements._lyndon_into``), as a row is.  A word of another
        bidegree raises ValueError: every map here preserves bidegree."""
        cols = self._cols(d, a)
        index = {w: (col,) for w, col in cols.items()}

        def coords(terms):
            acc = {}
            for w, c in terms.items():
                if w not in cols:
                    raise ValueError(f"{w} of degree {d} lies outside the block ({a},{d - a})")
                _lyndon_into(acc, self.alphabet, w, index, c)
            return {col: c for col, c in acc.items() if c}
        return coords

    def theorem_indices(self, d: int) -> list[tuple[int, int]]:
        p = self.p
        if d < 2 * p + 2 or (d - 2) % p:
            return []
        k = (d - 2) // p - 2
        return [(s, k - s) for s in range(k + 1)]

    def theorem_block(self, s: int, t: int) -> int:
        """The first bidegree component of the theorem element built from
        u(s,t), whose bidegree is (p(s+1)+1, p(t+1)+1)."""
        return self.p * (s + 1) + 1

    def _mirrored(self, d: int, read) -> list:
        """read(s, t) at each theorem index of degree d, in ``theorem_indices``
        order, called only where s <= t: an index (s, t) with s > t takes the
        value of its mirror (t, s).  So no block past the mirror, a > d/2, is
        built.  ``read`` here is a theorem vector's order or unit, and an
        IntegralityError on one index is one on its mirror.

        Proof.  Let sigma send u(s,t) to -u(t,s).  It swaps the two bidegree
        components and turns the action of x into that of y: sigma(u x) =
        sigma(u) y, both being -u(t,s+1).  It extends letter by letter to an
        automorphism of the tensor ring, a signed permutation of the words,
        which restricts to a graded automorphism of the free Lie ring on A.
        That maps block (a, b) onto block (b, a), and the block's relations,
        the x- and y-images of degree d-1, onto those of its mirror.  So it
        gives an isomorphism of the two blocks' cokernels.
        - Theorem elements.  With u = u(s,t), vx = u x and vy = u y, sigma
          sends vy to -vx' and vx to -vy', where u' = u(t,s), vx' = u' x and
          vy' = u' y.  theta's presum (``maps.presum_tensor``) is a signed
          sum of left-normed words in its letters, so sigma sends the presum
          of (vy, vx, u^(p-2)) to (-1)^p times that of (vx', vy', u'^(p-2)),
          which is eps = (-1)^(p+1) times that of (vy', vx', u'^(p-2)):
          swapping the first two letters negates it.  A signed permutation
          of the words keeps every coefficient up to sign, so n divides the
          one presum exactly when it divides the other, and by
          ``theorem_vector``'s proof that is exactly when no IntegralityError
          is raised.  Otherwise sigma maps the one theorem element to eps
          times the other, and their orders are equal.
        - Units.  For p >= 3 the theorem word's class has the two normal
          words (vy, u^(p-2), vx) and (vx, u^(p-2), vy), with coefficients 1
          and -1 (its strict mu terms, ``maps.peel_strict_keys``; u is the least
          letter), and sigma sends each, letter by letter, to (-1)^p times
          the other normal word of (t, s).  At p = 2 the class is -(vx, vy),
          which sigma sends to -(vy', vx'), whose presum is that of
          (vx', vy').  So each division by p in ``theta_vector`` fails
          exactly when its mirror's does, and sigma maps theta's image of
          (s, t) to eps times the one of (t, s).  If image - u vector lies in
          the relations of block (a, b), then sigma puts eps (image' - u
          vector') in those of (b, a), and back, so the least matching unit
          u in 1..p-1 is the same on both indices.
        """
        pairs = self.theorem_indices(d)
        half = [read(s, t) for s, t in pairs[:(len(pairs) + 1) // 2]]
        return half + half[:len(pairs) // 2][::-1]

    def verify_theorem_degree(self, d: int) -> TorsionReport:
        """Each theorem vector is read in its own block, since the vector is
        written in that block's tensor coordinates, and only for the indices
        s <= t, whose blocks are at most d/2: an index past the mirror takes
        its mirror's order (``_mirrored``).  Every verdict is a count of the
        orders q_i.

        Their blocks a = p(s+1)+1 are distinct blocks of the degree, so the
        vectors generate the direct sum of the cyclic groups Z/q_i.  They are
        independent torsion elements exactly when each q_i is finite and
        above 1: a vector of order 1 is zero, whatever the product of the
        orders.  They span exactly when prod(q_i) = |T|, the order of the
        degree's torsion T, since each q_i divides the torsion order of its
        block: prod(q_i) <= prod(|T_b|) over the theorem blocks <= |T|.
        Equality says that each vector generates its block's torsion, that a
        block skipped on IntegralityError carries none, and that the theorem
        blocks hold all of T.
        """
        p = self.p
        coker = self.graded_cokernel(d)
        # the Lie power's rank from the blocks built: sigma preserves rank
        n = sum(len(cols) * (1 if 2 * a == d else 2)
                for a, cols in self._blocks(d, "lie", 0, d // 2).items() if 2 * a <= d)
        theorem_checked = is_prime(p)
        torsion_all_p = all(q == p for q in coker.torsion)
        if not theorem_checked:
            return TorsionReport(p, d, n, coker, 0, True, True, True,
                                 torsion_all_p, True, False)

        def order(s, t):
            try:
                vec = self.theorem_vector(s, t, d)
            except IntegralityError:
                return skipped
            return self.block(d, self.theorem_block(s, t)).order(vec)

        skipped = object()
        pairs = self.theorem_indices(d)
        orders = [q for q in self._mirrored(d, order) if q is not skipped]
        all_order_p = all(q == p for q in orders)
        independent = all(q is not None and q > 1 for q in orders)
        spanning = independent and prod(orders) == prod(coker.torsion)
        return TorsionReport(p, d, n, coker, len(pairs), all_order_p,
                             independent, spanning, torsion_all_p,
                             len(orders) == len(pairs), True)

    def _top(self, max_degree) -> int:
        """A sweep's top degree; past the engine's own the alphabet is cut."""
        top = self.max_degree if max_degree is None else max_degree
        if top > self.max_degree:
            raise ValueError(f"max_degree {top} is above the engine's {self.max_degree}")
        return top

    def torsion_report(self, max_degree=None) -> list[TorsionReport]:
        """``verify_theorem_degree`` at each degree from 2p to the top.  A
        degree reads the Lie records of d and d-1 alone, so once it is
        checked the record of d-1 is dropped: no later degree reads it.  No
        basis word is expanded whole (``_row_builder``) and only the theorem
        blocks' echelons are cached (``block``), so what the sweep keeps is the top degree's
        Lie record (its blocks' words, cokernels and theorem echelons) and
        the expansions of words shorter than p."""
        reports = []
        for d in range(2 * self.p, self._top(max_degree) + 1):
            reports.append(self.verify_theorem_degree(d))
            self._degrees.pop(("lie", d - 1), None)
        return reports

    # -- the metabelian side ------------------------------------------------

    def metabelian_torsion_check(self, d: int) -> MetabelianTorsionReport:
        """theta's image of each theorem word (``theta_vector``) is compared
        with the theorem vector in their common block, both in tensor
        coordinates: a unit u matches when image minus u times vector lies in
        the block's relations, one membership test in the block's echelon.
        Only the indices s <= t are read; one past the mirror takes its
        mirror's unit (``_mirrored``)."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        p = self.p
        l_coker = self.graded_cokernel(d)
        m_coker = self.graded_cokernel(d, "metabelian")
        ranks_agree = (len(l_coker.torsion) == len(m_coker.torsion)
                       and all(q == p for q in l_coker.torsion + m_coker.torsion))

        def unit(s, t):
            pres = self.block(d, self.theorem_block(s, t))
            vec = self.theta_vector(s, t, d)
            target = self.theorem_vector(s, t, d)
            return next((u for u in range(1, p) if {
                j: x for j in vec | target
                if (x := vec.get(j, 0) - u * target.get(j, 0))} in pres), None)

        units = self._mirrored(d, unit)
        return MetabelianTorsionReport(p, d, l_coker.torsion, m_coker.torsion, ranks_agree,
                                       None not in units,
                                       tuple(u for u in units if u is not None))

    # -- the second-derived kernel -------------------------------------------

    def eta_matrix(self, d: int):
        """The eta images of lie_basis(d), read off ``maps._eta_word``, as sparse
        {column of the degree-d mixed basis: coefficient} rows, and the mixed
        basis's size."""
        keys = mixed_basis(self.alphabet, self.p, weight=d)
        key_index = {k: i for i, k in enumerate(keys)}
        eta = self.alphabet.table("eta", _eta_word)
        rows = [{key_index[key]: c for key, c in eta[word].items()} for word in self.lie_basis(d)]
        return rows, len(keys)

    def bp_kernel_basis(self, d: int) -> list[list[int]]:
        """Basis of the degree-d kernel of the metabelian projection: the
        integer relations among the eta rows."""
        rows, width = self.eta_matrix(d)
        return [_dense(x, len(rows)) for x in _tagged(width, rows)[1]]

    def bp_freeness_check(self, max_degree=None) -> FreenessReport:
        """Block by block: eta preserves bidegree, so the kernel K_{d,a} of
        block (a, d-a) is the relations among its eta rows, read off
        ``maps._eta_word`` on the block's own mixed keys, and A_{d,a}, the
        images of K_{d-1,a-1} under x and of K_{d-1,a} under y, lies in the
        block.  Each image is checked to lie in K_{d,a}, in tensor
        coordinates: its relations generate all of eta's kernel there.  L/K
        embeds in the free mixed power, so L/A is K/A plus a free part, and
        K/A's torsion is read off L/A.  The x<->y swap fixes eta's kernel and
        swaps xK and yK, so only the blocks with a <= d-a are presented, each
        with a < d-a counted twice; every image is still checked."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        top = self._top(max_degree)
        if top < 2 * self.p:
            raise ValueError(f"max_degree {top} is below the first degree {2 * self.p}")
        dims, torsion_found = [], []
        below = {}          # {a: K_{d-1,a}, as {Lyndon word: coefficient} vectors}
        eta = self.alphabet.table("eta", _eta_word)
        for d in range(2 * self.p, top + 1):
            kernels, torsion = {}, []
            for a, cols in self.bigrading(d).items():
                # eta on the block's own mixed keys, numbered as they first appear
                keys, words = {}, list(cols)
                etas = [{keys.setdefault(key, len(keys)): c for key, c in eta[w].items()}
                        for w in words]
                kernels[a] = [{words[i]: c for i, c in r.items()}
                              for r in _tagged(len(keys), etas)[1]]
                kernel = _owned_presentation(list(map(self._lie_coords(d, a), kernels[a])),
                                             len(cols))
                images = []
                for b, var in ((a - 1, "x"), (a, "y")):
                    if not below.get(b):
                        continue
                    row = self._row_builder(d, a, var, "lie")
                    for v in below[b]:
                        images.append(combine(v, row))
                        if images[-1] not in kernel:
                            raise AssertionError("kernel is not action stable")
                if 2 * a <= d:
                    ck = _owned_presentation(images, len(cols)).cokernel
                    torsion += ck.torsion * (1 if 2 * a == d else 2)
            torsion_found.append(tuple(q for q in _divisor_chain(torsion) if q > 1))
            below = kernels
            dims.append((d, sum(map(len, kernels.values()))))
        return FreenessReport(self.p, top, tuple(dims), tuple(torsion_found),
                              not any(torsion_found), any(r for _, r in dims))


# -- module-level wrappers matching the operation names ----------------------

def lie_power_basis(p: int, d: int) -> list[LyndonWord]:
    engine = TorsionEngine(p, d)
    return [LyndonWord(engine.alphabet, w) for w in engine.lie_basis(d)]


def action_matrix(p: int, d: int) -> list[list[int]]:
    return TorsionEngine(p, d).action_matrix(d)


def graded_cokernel(p: int, d: int) -> CokernelStructure:
    return TorsionEngine(p, d).graded_cokernel(d)


def theorem_element(p: int, s: int, t: int) -> LieElement:
    return TorsionEngine(p, p * (s + t + 2) + 2).theorem_element(s, t)


def verify_theorem_degree(p: int, d: int) -> TorsionReport:
    return TorsionEngine(p, d).verify_theorem_degree(d)


def torsion_report(p: int, max_degree: int) -> list[TorsionReport]:
    return TorsionEngine(p, max_degree).torsion_report(max_degree)


def metabelian_torsion_check(p: int, d: int) -> MetabelianTorsionReport:
    return TorsionEngine(p, d).metabelian_torsion_check(d)


def bp_kernel_basis(p: int, d: int) -> list[list[int]]:
    return TorsionEngine(p, d).bp_kernel_basis(d)


def bp_freeness_check(p: int, max_degree: int) -> FreenessReport:
    return TorsionEngine(p, max_degree).bp_freeness_check(max_degree)
