"""Exact integer linear algebra: Smith and Hermite forms, kernels, cokernels.

Matrices are plain lists of rows, or sparse dicts, of Python ints, so there
is no coefficient growth ceiling.  One elimination kernel serves them all:
``IntLattice``, a sparse row echelon form over Z or, given a prime p, over
GF(p), grown one input at a time by invertible steps.  Where a caller needs
the inputs' combinations, each input carries a unit tag column, and the
echelon rows that pivot on a tag are a basis of the relations among them:
Hermite transforms, kernels and left solves read them there.

Smith forms, cokernels and element orders all go through one
``Presentation``: the Z echelon B of the relations.  Only primes l dividing
a pivot of B divide an elementary divisor, and the ranks over GF(l) along
the l-saturation chain count the divisors by their power of l.  A pivot
that trial division cannot factor sends B to alternating echelons of its
rows and of its columns instead.  Orders follow the pivot-product rule.

``add_into`` is the package's sparse accumulator, over Z, Q or GF(p), and
``combine`` applies a linear map given on a basis through it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, prod


class SNFResult(namedtuple("SNFResult", "divisors")):
    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.divisors)


class CokernelStructure(namedtuple("CokernelStructure", "free_rank torsion")):
    __slots__ = ()


def add_into(acc: dict, pairs, scale=1, p=None) -> None:
    """acc[key] += scale * k in place for each (key, k) in pairs; drops zeros.

    The one sparse accumulator.  Sums are reduced mod p when p is given; over
    Z and Q, p is None.  ``pairs`` is a dict's ``.items()`` or a generator, and
    the same key may come more than once.
    """
    if p is None:
        for key, k in pairs:
            s = acc.get(key, 0) + scale * k
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    else:
        for key, k in pairs:
            s = (acc.get(key, 0) + scale * k) % p
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)


def combine(terms: dict, image, p=None) -> dict:
    """The sum of c * image(key) over ``terms.items()``, as a new dict
    without zeros, reduced mod p when p is given: a linear map given on a
    basis, applied to a combination of basis keys.  ``image(key)`` is a dict,
    often a memo table's (``words.MemoTable``), which is read and never
    returned or changed.
    """
    acc = {}
    for key, c in terms.items():
        add_into(acc, image(key).items(), c, p)
    return acc


def _sparse(vec, ncols, p=None):
    """A dense list or a {column: value} dict as a dict without zeros, its
    values reduced mod p when p is given."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= ncols):
            raise ValueError(f"column index out of range in ambient rank {ncols}")
        items = vec.items()
    elif len(vec) != ncols:
        raise ValueError(f"vector of length {len(vec)} in ambient rank {ncols}")
    else:
        items = enumerate(vec)
    if p is None:
        return {j: v for j, v in items if v}
    return {j: r for j, v in items if (r := v % p)}


class Presentation:
    """Z^ncols modulo the lattice L of ``rows`` (dense lists or dicts), read
    off one ``IntLattice`` echelon B of the rows: ``snf``, ``cokernel``, the
    additive ``order`` of a vector, and ``in``, membership in B."""

    def __init__(self, rows, ncols=None):
        rows = list(rows)
        if ncols is None:
            if any(isinstance(r, dict) for r in rows):
                raise ValueError("sparse rows need ncols")
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        self._lattice = IntLattice(ncols, sorted(rows, key=len))   # short rows fill least

    @cached_property
    def snf(self) -> SNFResult:
        """The elementary divisors.  Their product divides the product of B's
        pivots, a maximal minor, so only primes l dividing a pivot occur;
        ``_prime_powers`` gives each one's powers.  A pivot with a prime
        factor at or above ``_TRIAL_BOUND`` sends B to the fallback."""
        lattice = self._lattice
        primes = set()
        for pivot in {row[j] for j, row in lattice.rows.items()}:
            found = _small_primes(pivot)
            if found is None:
                diag = _alternating_divisors(lattice)
                break
            primes |= found
        else:
            diag = [q for ell in primes for q in _prime_powers(lattice, ell)]
        chain = [q for q in _divisor_chain(diag) if q > 1]
        return SNFResult((1,) * (lattice.rank - len(chain)) + tuple(chain))

    @cached_property
    def cokernel(self) -> CokernelStructure:
        divisors = self.snf.divisors
        return CokernelStructure(self.ncols - len(divisors),
                                 tuple(d for d in divisors if d > 1))

    def order(self, vec):
        """Additive order of vec in the cokernel; None when infinite.

        If v raises the rank of L the order is infinite.  Otherwise L and
        L + Zv share pivot columns, on which the projection is injective:
        the order [L + Zv : L] is the product of L's pivots over L + Zv's.
        """
        base = self._lattice
        grown = _grown(base, [vec])
        if grown.rank > base.rank:
            return None
        return _pivot_product(base) // _pivot_product(grown)

    def __contains__(self, vec) -> bool:
        return vec in self._lattice


# pivots are factored by trial division below this bound
_TRIAL_BOUND = 1 << 16


def _small_primes(n):
    """The prime factors of n > 0, or None if one is at least _TRIAL_BOUND."""
    out, d = set(), 2
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return None if n >= _TRIAL_BOUND else out | {n} - {1}


def _pivot_product(lattice) -> int:
    return prod(row[j] for j, row in lattice.rows.items())


def _grown(lattice, vecs) -> IntLattice:
    """A copy of the lattice with vecs added.  The copy shares the stored
    rows, since ``_reduce`` replaces a stored row and never changes one."""
    out = IntLattice(lattice.ncols, (), lattice.p)
    out.rows = dict(lattice.rows)
    for v in vecs:
        out.add(v)
    return out


def _prime_powers(lattice, ell) -> list:
    """The powers of the prime ell among the elementary divisors of Z^n / L.

    The divisors that ell divides are counted by the relations x among the
    echelon rows B over GF(ell), and {v : ell v in L} is L plus the rows
    (x B) / ell.  So the j-th count along that saturation chain is the number
    of divisors with v_ell >= j.  It stops at a count k = 0, or at k = v_ell
    of the pivot product, which bounds v_ell of the divisors' product: then
    each of the k divisors takes one factor of ell.
    """
    counts = []
    while True:
        basis = list(lattice.rows.values())
        relations = _tagged(lattice.ncols, basis, ell)[1]
        if not relations:
            break
        counts.append(len(relations))
        if _pivot_product(lattice) % ell ** (len(relations) + 1):
            break
        lifts = [{j: v // ell for j, v in combine(x, basis.__getitem__).items()}
                 for x in relations]
        lattice = _grown(lattice, lifts)
    return [ell ** sum(k > i for k in counts) for i in range(max(counts, default=0))]


def _alternating_divisors(lattice) -> list:
    """The diagonal left by alternating echelons of the rows and of the
    columns until each row holds one entry (Kannan & Bachem 1979).  Each
    echelon's first pivot divides the one before and is split off once it
    divides its row, so the loop ends."""
    rows = [lattice.rows[j] for j in sorted(lattice.rows)]
    while any(len(r) > 1 for r in rows):
        cols = {}
        for i, r in enumerate(rows):
            for j, v in r.items():
                cols.setdefault(j, {})[i] = v
        lattice = IntLattice(len(rows), [cols[j] for j in sorted(cols)])
        rows = [lattice.rows[j] for j in sorted(lattice.rows)]
    return [v for r in rows for v in r.values() if v > 1]


def smith_normal_form(rows, ncols=None) -> SNFResult:
    """Elementary divisor chain of an integer matrix."""
    return Presentation(rows, ncols).snf


def _divisor_chain(diag):
    ds = [d for d in diag if d]
    k = len(ds)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] // g * ds[j]
                    changed = True
    ds.sort()
    return ds


def cokernel_structure(rows, ambient_rank) -> CokernelStructure:
    """Structure of Z^ambient modulo the row lattice of the relation matrix."""
    return Presentation(rows, ambient_rank).cokernel


def _dense(vec, n) -> list[int]:
    out = [0] * n
    for j, x in vec.items():
        out[j] = x
    return out


def _width(rows, ncols):
    """The common length of the dense rows, which must equal ncols if given."""
    n = ncols if ncols is not None else len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError(f"rows of a length other than {n}")
    return n


def _gcd_step(x, y, s, t, a, b):
    """s*x + t*y as a new vector; y becomes a*y - b*x in place."""
    out = {}
    add_into(out, x.items(), s)
    add_into(out, y.items(), t)
    for j in y:
        y[j] *= a
    add_into(y, x.items(), -b)
    return out


def _xgcd(a, b):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntLattice:
    """A row lattice over Z, or a row space over GF(p) when p is given, in
    echelon form, with exact membership.

    Rows are sparse {column: value} dicts keyed by their pivot, the smallest
    column, whose entry is positive, and 1 over GF(p), where every value lies
    in [0, p).  Every step is invertible: subtracting a multiple of a row,
    scaling a new row by a unit, or the 2x2 xgcd step, which over GF(p) never
    runs.  ``_tagged`` reads the relations among the inputs off the echelon.
    """

    def __init__(self, ncols, rows=(), p=None):
        self.ncols = ncols
        self.p = p
        self.rows = {}          # pivot column -> row
        for r in rows:
            self.add(r)

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v, grow=False) -> bool:
        """Reduce the sparse v along the rows, in place; returns whether v
        ended empty.

        Without grow the loop stops at the first leading entry no row
        divides, so v ends empty exactly when it lay in the lattice.  With
        grow that entry joins the lattice: v becomes a new row, or the xgcd
        step gives the row the gcd and v the rest.  ``add`` and ``in`` hand
        it a checked copy; package code may hand it a vector of its own,
        which must hold no zero and no column out of range, with its values
        in [0, p) given p, and which it consumes.
        """
        p = self.p
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is not None and v[j] % row[j] == 0:
                add_into(v, row.items(), -(v[j] // row[j]), p)
            elif not grow:
                return False
            elif row is None:
                s = (-1 if v[j] < 0 else 1) if p is None else pow(v[j], -1, p)
                if s != 1:
                    for k, x in v.items():
                        v[k] = x * s if p is None else x * s % p
                self.rows[j] = v
                return False
            else:
                g, s, t = _xgcd(row[j], v[j])
                self.rows[j] = _gcd_step(row, v, s, t, row[j] // g, v[j] // g)
        return True

    def add(self, vec):
        """Insert a vector (a dense list or a dict)."""
        self._reduce(_sparse(vec, self.ncols, self.p), grow=True)

    def __contains__(self, vec):
        return self._reduce(_sparse(vec, self.ncols, self.p))

    def contains_lattice(self, other: "IntLattice") -> bool:
        return all(r in self for r in other.rows.values())

    def __eq__(self, other):
        return (isinstance(other, IntLattice) and self.ncols == other.ncols
                and self.rank == other.rank and self.contains_lattice(other)
                and other.contains_lattice(self))

    __hash__ = None


def _tagged(ncols, rows, p=None):
    """The echelon of the list of rows, input i of m tagged by a 1 at column
    ncols + m-1-i, and the relations among the rows, {input: coefficient} in
    input order: the tags of the rows that pivot on a tag.  Input i's own tag
    is the least of its tags, and each step only multiplies its coefficient
    there by some a > 0, so each relation is the combination with which its
    input vanished, and no relation reduces another.
    """
    top = ncols + len(rows) - 1
    lattice = IntLattice(top + 1, (), p)
    for i, r in enumerate(rows):
        v = _sparse(r, ncols, p)
        v[top - i] = 1
        lattice._reduce(v, grow=True)
    relations = [{top - j: c for j, c in lattice.rows[t].items()}
                 for t in sorted(lattice.rows, reverse=True) if t >= ncols]
    return lattice, relations


def hermite_normal_form(rows, ncols=None, transform=False, p=None):
    """Row Hermite form; with p, the reduced row echelon form mod p.

    Returns (H, U, rank) when transform is requested, with U invertible,
    U @ rows == H padded by zero rows, and the rows of U beyond ``rank``
    spanning the left kernel.  Otherwise returns (H, rank).  U is read off
    the tags of ``_tagged``: the pivot rows' first, then the relations.
    """
    rows = list(rows)
    n = _width(rows, ncols)
    lattice, relations = _tagged(n, rows, p)
    pivots = sorted(j for j in lattice.rows if j < n)
    # reduce the entries above each pivot into [0, pivot), to 0 over GF(p)
    for r, c in enumerate(pivots):
        row = lattice.rows[c]
        for above in pivots[:r]:
            q = lattice.rows[above].get(c, 0) // row[c]
            if q:
                add_into(lattice.rows[above], row.items(), -q, p)
    h = [[lattice.rows[c].get(j, 0) for j in range(n)] for c in pivots]
    if not transform:
        return h, len(h)
    tags = range(lattice.ncols - 1, n - 1, -1)      # input i's tag is the i-th
    u = [[lattice.rows[c].get(j, 0) for j in tags] for c in pivots]
    return h, u + [_dense(x, len(rows)) for x in relations], len(h)


def transpose(rows, ncols=None):
    """The columns of the dense rows, which all have ncols entries if given."""
    n = _width(rows, ncols)
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(n)]


def integer_kernel(rows, ncols=None, p=None) -> list[list[int]]:
    """Basis of the right kernel {x : rows @ x = 0} over Z, or mod p.

    These are the relations among the columns, so over Z they generate the
    full kernel lattice, which is saturated by construction.
    """
    rows = list(rows)
    n = _width(rows, ncols)
    return [_dense(x, n) for x in _tagged(len(rows), transpose(rows, ncols=n), p)[1]]


def solve_left(rows, target):
    """Integer x with x @ rows == target, or None.

    The target is reduced along the tagged echelon of ``rows``: it is in
    their lattice when no column below the tags is left, and its tags then
    hold -x.
    """
    rows = list(rows)
    if not rows:
        return None if any(target.values() if isinstance(target, dict) else target) else []
    n = len(rows[0])
    lattice, _ = _tagged(n, rows)
    v = _sparse(target, n)
    lattice._reduce(v)
    if v and min(v) < n:
        return None
    return [-v.get(j, 0) for j in range(lattice.ncols - 1, n - 1, -1)]


def saturation(rows, ncols) -> list[list[int]]:
    """Basis of the saturation (rational span intersected with Z^n)."""
    kernel = integer_kernel(rows, ncols=ncols)
    return integer_kernel(kernel, ncols=ncols)


def order_in_cokernel(relations, ambient_rank, vec):
    """Additive order of vec in Z^ambient / row lattice; None when infinite."""
    return Presentation(relations, ambient_rank).order(vec)
