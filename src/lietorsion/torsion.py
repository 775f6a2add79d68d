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
built from the blocks with a <= b alone.  A theorem vector of bidegree
(a, b) is read off its own block by reducing it through the block's
recorded pivots.

A relation row is the x- or y-image of a degree d-1 basis word in the
degree-d Lyndon coordinates.  It is built from the word's cached tensor
expansion: Leibniz moves one letter at a time, and only the words that are
degree-d Lyndon words are kept.  The standard bracketing of a Lyndon word
expands to the word itself once plus lexicographically larger words (Chen,
Fox & Lyndon 1958), so its coefficients on the Lyndon words form a
unitriangular matrix, and the coordinates follow by subtracting, smallest
word first, the Lyndon part of each basis word's expansion.

The metabelian side goes through the same blocks in normal words, whose
relation rows are taken by Leibniz on each word's integer mu terms and read
back by the strict-key peel; the x<->y swap is a graded automorphism there
too.  The section theta's images and the theorem vectors meet the Lie-side
blocks as sparse {column: coefficient} vectors.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import factorial, prod

from .elements import IntegralityError, LieElement, _expand_lyndon, is_prime
from .maps import (ActionSpec, _eta_word, _mu_terms, leibniz_mixed,
                   metabelian_of_word, mixed_basis, normal_words, peel_strict_keys,
                   theta, theta_presum)
from .words import Alphabet, Generator, LyndonWord, _lyndon_walk, is_lyndon
from .zlinalg import (CokernelStructure, IntLattice, Presentation, _dense, _divisor_chain,
                      add_into, cokernel_structure)

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
    """
    images = {}
    for i, g in enumerate(alphabet):
        s, t = st_of(g)
        for var, (s2, t2) in (("x", (s + 1, t)), ("y", (s, t + 1))):
            name = f"u({s2},{t2})"
            try:
                j = alphabet.index(name)
            except KeyError:
                continue
            images[(i, var)] = {j: 1}
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
    """One side's degree-d basis, split by bidegree in the same pass, and
    what is built over it on demand."""

    __slots__ = ("words", "index", "blocks", "where", "parts", "presentations")

    def __init__(self, words, index, blocks, where):
        self.words = words            # the basis words, as index tuples
        self.index = index            # {word: column}
        self.blocks = blocks          # {a: the columns of bidegree (a, d-a), ascending}
        self.where = where            # each column's (a, position in its block)
        self.parts = {}               # {column: Lyndon part}
        self.presentations = {}       # {a: block Presentation}


def _in_block(where: list, d: int, a: int, vec: dict) -> dict:
    """A sparse vector on a degree-d basis in the columns of block (a, d-a),
    given the degree's ``where`` (each column's block and position there).

    A block's columns keep the order of the basis.  A column of another
    block raises ValueError: every map here preserves bidegree.
    """
    out = {}
    for col, c in vec.items():
        b, i = where[col]
        if b != a:
            raise ValueError(f"column {col} of degree {d} lies outside "
                             f"the block ({a},{d - a})")
        out[i] = c
    return out


class TorsionEngine:
    """One modulus up to one ambient degree.  Everything cached is one record
    per side and degree (``_Degree``): the side "lie" is the Lie power in
    Lyndon words, "metabelian" the metabelian power in normal words.  The
    relation rows are rebuilt on each call; every block reads its own rows
    once.  Past ``max_degree`` the alphabet is cut, so a degree above it
    raises ValueError."""

    def __init__(self, p: int, max_degree: int):
        if p < 2:
            raise ValueError("the class length must be at least 2")
        if max_degree < 2 * p:
            max_degree = 2 * p
        self.p = p
        self.max_degree = max_degree
        self.alphabet = a_alphabet(max(2, max_degree - 2 * (p - 1)))
        self.action = a_action(self.alphabet)
        # the letter whose y-image each letter is, or None where t = 0
        lower = {j: i for (i, var), img in self.action.table.items() if var == "y"
                 for j in img}
        self._y_lower = [lower.get(j) for j in range(len(self.alphabet))]
        self._degrees = {}

    # -- bases ------------------------------------------------------------

    def _degree(self, d: int, side: str = "lie") -> _Degree:
        """The side's degree-d record, built once; an unknown side raises
        KeyError."""
        rec = self._degrees.get((side, d))
        if rec is None:
            if side not in ("lie", "metabelian"):
                raise KeyError(side)
            if d > self.max_degree:
                raise ValueError(f"degree {d} is above the engine's max_degree "
                                 f"{self.max_degree}, where the alphabet is cut")
            if d < 2 * self.p:
                words = []
            elif side == "lie":
                wt = [g.weight for g in self.alphabet]
                words = _lyndon_walk(wt, length=self.p, lo=d, hi=d)
            else:
                words = normal_words(self.alphabet, self.p, weight=d)
            index, blocks, where = {}, {}, []
            for col, w in enumerate(words):
                index[w] = col
                a = self.alphabet.word_multidegree(w)[0]
                cols = blocks.setdefault(a, [])
                where.append((a, len(cols)))
                cols.append(col)
            rec = self._degrees[side, d] = _Degree(words, index, blocks, where)
        return rec

    def lie_basis(self, d: int) -> list[tuple]:
        """Lyndon words of length p and ambient degree d, as index tuples."""
        return self._degree(d).words

    def normal_basis(self, d: int) -> list[tuple]:
        return self._degree(d, "metabelian").words

    # -- relation rows ------------------------------------------------------

    def derived_row(self, word: tuple, var: str) -> dict:
        """The var-image of a degree d-1 basis word as {column of lie_basis(d):
        coefficient}, in column order."""
        rec = self._degree(self.alphabet.word_weight(word) + 1)
        index = rec.index
        # every expansion word rearranges the letters of ``word``
        image = {a: self.action.image(a, var).items() for a in set(word)}
        # A Lyndon word starts with its least letter, and the action raises
        # the letter it moves.  So when w does not start with the least
        # letter of ``word``, only moving that letter, if it occurs once, can
        # give a Lyndon word.
        least = min(word)
        lone = word.count(least) == 1
        acc = {}
        for w, c in _expand_lyndon(self.alphabet, word).items():
            if w[0] == least:
                places = range(len(w))
            elif lone:
                places = (w.index(least),)
            else:
                continue
            for pos in places:
                for j, k in image[w[pos]]:
                    col = index.get(w[:pos] + (j,) + w[pos + 1:])
                    if col is not None:
                        acc[col] = acc.get(col, 0) + c * k
        return self._lyndon_solve(rec, acc)

    def _lyndon_solve(self, rec: _Degree, acc: dict) -> dict:
        """Lyndon coordinates of an element of the Lie degree ``rec`` from its
        coefficients {column: c} on the degree's Lyndon words; ``acc`` is
        used up.

        The smallest column left carries its coordinate: only the expansions
        of smaller basis words meet it, and those are already subtracted.  A
        column is on the heap exactly while it is a key of ``acc``.  Each
        column's Lyndon part, the other Lyndon words in the expansion of its
        standard bracketing, is built once into ``rec.parts``.
        """
        words, index, parts = rec.words, rec.index, rec.parts
        heap = list(acc)
        heapify(heap)
        row = {}
        while heap:
            col = heappop(heap)
            c = acc.pop(col)
            if not c:
                continue
            row[col] = c
            part = parts.get(col)
            if part is None:
                word = words[col]
                part = parts[col] = {index[w]: k for w, k in
                                     _expand_lyndon(self.alphabet, word).items()
                                     if w != word and w in index}
            for col2, k in part.items():
                if col2 in acc:
                    acc[col2] -= c * k
                else:
                    acc[col2] = -c * k
                    heappush(heap, col2)
        return row

    def derived_coords(self, word: tuple, var: str) -> dict:
        """The var-image of a basis word as {Lyndon word: coefficient}."""
        basis = self.lie_basis(self.alphabet.word_weight(word) + 1)
        return {basis[col]: c for col, c in self.derived_row(word, var).items()}

    def metabelian_row(self, word: tuple, var: str) -> dict:
        """The var-image of a degree d-1 normal word as {column of
        normal_basis(d): coefficient}, in column order, by Leibniz on its mu
        terms (``maps.leibniz_mixed``) and the strict-key peel.  Not cached:
        each row is read by one block alone."""
        index = self._degree(self.alphabet.word_weight(word) + 1, "metabelian").index
        image = {a: self.action.image(a, var) for a in set(word)}.__getitem__
        acc = {}
        for key, c in _mu_terms(word).items():
            add_into(acc, leibniz_mixed(key, image), c)
        return {index[w]: c for w, c in peel_strict_keys(acc).items()}

    # -- the block presentation, on either side -----------------------------

    def action_matrix(self, d: int) -> list[list[int]]:
        """The relations of degree d as a dense matrix."""
        n = len(self.lie_basis(d))
        return [_dense(self.derived_row(w, v), n) for w in self.lie_basis(d - 1)
                for v in VARIABLES]

    def metabelian_matrix(self, d: int) -> list[list[int]]:
        """The metabelian relations of degree d as a dense matrix."""
        n = len(self.normal_basis(d))
        return [_dense(self.metabelian_row(w, v), n) for w in self.normal_basis(d - 1)
                for v in VARIABLES]

    def bigrading(self, d: int, side: str = "lie"):
        """The side's degree-d basis split by bidegree: {a: the columns of
        bidegree (a, d-a), ascending}, and for each column its pair (a,
        position in that block).  Both are the cache's, read-only."""
        rec = self._degree(d, side)
        return rec.blocks, rec.where

    def _leads_y_image(self, word: tuple, side: str) -> bool:
        """Whether a basis word is the leading word of the y-image of a basis
        word one degree down (see ``block``): on the Lie side lowering its
        last letter by y leaves a Lyndon word, on the metabelian side
        lowering its head b1 leaves it above b2."""
        if side == "lie":
            low = self._y_lower[word[-1]]
            return low is not None and is_lyndon(word[:-1] + (low,))
        low = self._y_lower[word[0]]
        return low is not None and low > word[1]

    def block(self, d: int, a: int, side: str = "lie") -> Presentation:
        """The side's bidegree (a, b) = (a, d-a) piece as a cokernel,
        eliminated once and cached: the y-images of the block (a, b-1) words
        and the x-images of the block (a-1, b) words that do not lead a
        y-image.

        The y-image of a basis word w of block (a-1, b-1) has a leading word
        w' with coefficient 1, and w -> w' is one to one.  On the Lie side w'
        is w with its last letter raised and is the least Lyndon word of the
        image: the bracketing of a Lyndon word expands to the word once plus
        larger words (Reutenauer 1993, Thm 5.1), raising a letter makes a
        word larger, and raising the last letter of w gives the least of
        them.  On the metabelian side w' is w with its head b1 raised:
        (b1 y, tail) is the largest strict key of the image, and the peel
        only feeds keys that are not strict.  So the columns D of block
        (a-1, b) that are leading words and the rest C satisfy, with
        x y = y x:

        1. each leading column w' is a Z-combination of C modulo the
           y-images of block (a-1, b-1), by induction from the far end of
           the column order (the last column on the Lie side, the first on
           the metabelian side): y w is w' plus columns beyond w', each in
           C or a leading column already written so;
        2. hence x of block (a-1, b) lies in x<C> + x y (a-1, b-1), and
           x y (a-1, b-1) = y x (a-1, b-1) lies in y (a, b-1);
        3. so the rows kept span the same lattice, and exactly as many rows
           as block (a-1, b-1) has words are dropped.
        """
        rec = self._degree(d, side)
        pres = rec.presentations.get(a)
        if pres is None:
            below = self._degree(d - 1, side)
            row = self.derived_row if side == "lie" else self.metabelian_row
            words = below.words
            xs = [words[col] for col in below.blocks.get(a - 1, ())
                  if not self._leads_y_image(words[col], side)]
            ys = [words[col] for col in below.blocks.get(a, ())]
            rows = [_in_block(rec.where, d, a, row(w, var))
                    for var, ws in (("x", xs), ("y", ys)) for w in ws]
            pres = rec.presentations[a] = Presentation(rows, len(rec.blocks.get(a, ())))
        return pres

    def graded_cokernel(self, d: int, side: str = "lie") -> CokernelStructure:
        """The side's degree-d cokernel, the direct sum of its blocks: each
        block (a, b) with a < b is counted twice, once for its mirror (b, a)."""
        free, torsion = 0, []
        for a in self._degree(d, side).blocks:
            if 2 * a <= d:
                ck = self.block(d, a, side).cokernel
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
        (p-2)! p; the division is asserted exact.
        """
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        presum = theta_presum(self.alphabet, self.theorem_word(s, t))
        return presum.divided_by(factorial(self.p - 2) * self.p)

    def theorem_vector(self, s: int, t: int, d: int) -> dict:
        """The theorem element as {column of lie_basis(d): coefficient}."""
        return self._lie_coords(self.theorem_element(s, t), d)

    def _lie_coords(self, e: LieElement, d: int) -> dict:
        index = self._degree(d).index
        return {index[w]: c for w, c in e.terms.items()}

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

    def verify_theorem_degree(self, d: int) -> TorsionReport:
        """Each theorem vector is read in its own block, which is built
        directly even past the mirror, since the vector is written in that
        block's Lyndon basis; every verdict is a count of the orders q_i.

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
        n = len(self.lie_basis(d))
        coker = self.graded_cokernel(d)
        theorem_checked = is_prime(p)
        torsion_all_p = all(q == p for q in coker.torsion)
        if not theorem_checked:
            return TorsionReport(p, d, n, coker, 0, True, True, True,
                                 torsion_all_p, True, False)
        pairs = self.theorem_indices(d)
        where = self._degree(d).where
        orders = []
        for s, t in pairs:
            a = self.theorem_block(s, t)
            try:
                vec = _in_block(where, d, a, self.theorem_vector(s, t, d))
            except IntegralityError:
                continue
            orders.append(self.block(d, a).order(vec))
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
        top = self._top(max_degree)
        return [self.verify_theorem_degree(d) for d in range(2 * self.p, top + 1)]

    # -- the metabelian side ------------------------------------------------

    def metabelian_torsion_check(self, d: int) -> MetabelianTorsionReport:
        """theta's image of each theorem word is compared with the theorem
        vector inside their common block: both are reduced through its
        pivots once, and each candidate unit u is tested by whether image
        minus u times vector lies in the block's relations.  A combination
        of reduced vectors is reduced, so each test costs one scan of the
        pivots and one membership test in the core's echelon."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        p = self.p
        l_coker = self.graded_cokernel(d)
        m_coker = self.graded_cokernel(d, "metabelian")
        ranks_agree = (len(l_coker.torsion) == len(m_coker.torsion)
                       and all(q == p for q in l_coker.torsion + m_coker.torsion))
        where = self._degree(d).where
        matches = True
        units = []
        for s, t in self.theorem_indices(d):
            a = self.theorem_block(s, t)
            pres = self.block(d, a)
            m_elt = metabelian_of_word(self.alphabet, self.theorem_word(s, t))
            vec = pres.reduce(_in_block(where, d, a, self._lie_coords(theta(m_elt), d)))
            target = pres.reduce(_in_block(where, d, a, self.theorem_vector(s, t, d)))
            unit = next((u for u in range(1, p) if {
                j: x for j in vec | target
                if (x := vec.get(j, 0) - u * target.get(j, 0))} in pres), None)
            if unit is None:
                matches = False
            else:
                units.append(unit)
        return MetabelianTorsionReport(p, d, l_coker.torsion, m_coker.torsion,
                                       ranks_agree, matches, tuple(units))

    # -- the second-derived kernel -------------------------------------------

    def eta_matrix(self, d: int):
        """The eta images of lie_basis(d), read off ``maps._eta_word``, as sparse
        {column of the degree-d mixed basis: coefficient} rows, and the mixed
        basis's size."""
        keys = mixed_basis(self.alphabet, self.p, weight=d)
        key_index = {k: i for i, k in enumerate(keys)}
        rows = [{key_index[key]: c for key, c in _eta_word(self.alphabet, word).items()}
                for word in self.lie_basis(d)]
        return rows, len(keys)

    def bp_kernel_basis(self, d: int) -> list[list[int]]:
        """Basis of the degree-d kernel of the metabelian projection: the
        integer relations among the eta rows."""
        rows, width = self.eta_matrix(d)
        return [_dense(x, len(rows)) for x in IntLattice(width, rows).relations]

    def bp_freeness_check(self, max_degree=None) -> FreenessReport:
        """The degree-d kernel K_d is the relations among the eta rows of
        eta_matrix(d), built once and then the source of degree d+1.  The x-
        and y-images of K_{d-1} span A, and eta is checked to kill each of
        them, so A lies in K_d, which is exactly eta's kernel.  L_d/K_d embeds
        in the free mixed power, so L_d/A is K_d/A plus a free part, and
        K_d/A's torsion is read off L_d/A on the Lie columns."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        top = self._top(max_degree)
        if top < 2 * self.p:
            raise ValueError(f"max_degree {top} is below the first degree {2 * self.p}")
        dims = []
        torsion_found = []
        below = []          # K_{d-1}, as sparse rows on lie_basis(d-1)
        for d in range(2 * self.p, top + 1):
            etas, width = self.eta_matrix(d)
            words = self.lie_basis(d - 1)
            images = []
            for v in below:
                for var in VARIABLES:
                    vec = {}
                    for col, a in v.items():
                        add_into(vec, self.derived_row(words[col], var).items(), a)
                    killed = {}
                    for col, c in vec.items():
                        add_into(killed, etas[col].items(), c)
                    if killed:
                        raise AssertionError("kernel is not action stable")
                    images.append(vec)
            torsion_found.append(cokernel_structure(images, len(etas)).torsion)
            below = IntLattice(width, etas).relations
            dims.append((d, len(below)))
        nonvacuous = any(r for _, r in dims)
        return FreenessReport(self.p, top, tuple(dims), tuple(torsion_found),
                              not any(torsion_found), nonvacuous)


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
