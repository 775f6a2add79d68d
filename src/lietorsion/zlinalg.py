"""Exact integer linear algebra: Smith and Hermite forms, kernels, cokernels.

Matrices are plain lists of rows, or sparse dicts, of Python ints, so there
is no coefficient growth ceiling.  One row echelon form over Z or GF(p)
serves lattices, spans, kernels and the cores of cokernels; in front of it,
cokernels first use up their +-1 pivots sparsely.

Smith forms, cokernels and element orders all go through one
``Presentation``: a sparse elimination of +-1 pivots (short rows first, and in
a row the unit entry whose column meets the fewest rows) that records each
pivot row and leaves untouched columns as free summands.  The small core
that remains is finished on ``IntLattice``: its elementary divisors by
alternating echelons of its rows and of its columns, and the order of a
vector by the pivot-product rule (see ``Presentation.order``).  Vectors are
reduced onto the core through the recorded pivots, so one presentation
answers many order and membership questions.

Hermite forms, kernels, left solves and membership all go through one
``IntLattice``: a sparse row echelon form grown one input at a time by
invertible steps, over Z or, given a prime p, over GF(p).  Each row carries
its combination of the inputs, so the inputs that reduce to zero leave a
basis of the relations among them.

``add_into`` is the package's sparse accumulator, over Z, Q or GF(p).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from heapq import heapify, heappop, heappush
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


def _sparse(vec, ncols, p=None):
    """A dense list or a {column: value} dict as a dict without zeros, its
    values reduced mod p when p is given."""
    if isinstance(vec, dict):
        if any(not 0 <= j < ncols for j in vec):
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
    """Z^ncols modulo the lattice spanned by ``rows`` (dense lists or dicts).

    Relations with a +-1 entry are used up one at a time: the row becomes a
    recorded pivot, its column leaves the presentation, and every other row
    touching that column is reduced by it.  A heap hands out the shortest row
    with a unit entry first, ties going to the row whose unit column meets the
    fewest rows; that column is the one eliminated.  What is left, the core,
    touches few columns; every other column is a free summand.  Its queries
    are ``snf``, ``cokernel``, ``reduce`` and the additive ``order`` of a
    vector, which ``in`` compares with 1.
    """

    def __init__(self, rows, ncols=None):
        rows = list(rows)
        if ncols is None:
            if any(isinstance(r, dict) for r in rows):
                raise ValueError("sparse rows need ncols")
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        live = [_sparse(r, ncols) for r in rows]
        cols = {}                       # column -> ids of the live rows touching it
        for i, row in enumerate(live):
            for j in row:
                cols.setdefault(j, set()).add(i)

        def entry(i):
            row = live[i]
            units = [len(cols[j]) for j, v in row.items() if v in (1, -1)]
            return (len(row), min(units), i) if units else None

        heap = [e for e in map(entry, range(len(live))) if e]
        heapify(heap)
        self.pivots = []                # (column, +-1, row) in elimination order
        while heap:
            length, _, i = heappop(heap)
            row = live[i]
            if row is None or len(row) != length:
                continue                # stale: pivoted, or changed and pushed again
            units = [j for j, v in row.items() if v in (1, -1)]
            if not units:
                continue                # a change since the push cost its units
            c = min(units, key=lambda j: (len(cols[j]), j))
            s = row[c]
            live[i] = None
            for j in row:
                cols[j].discard(i)
            for k in cols.pop(c):
                other = live[k]
                f = other.pop(c) * s
                for j, v in row.items():
                    if j == c:
                        continue
                    x = other.get(j, 0) - f * v
                    if x:
                        if j not in other:
                            cols[j].add(k)
                        other[j] = x
                    elif j in other:
                        del other[j]
                        cols[j].discard(k)
                e = entry(k) if other else None
                if e:
                    heappush(heap, e)
            self.pivots.append((c, s, row))
        self.core = [r for r in live if r]

    @cached_property
    def _core_lattice(self) -> IntLattice:
        return IntLattice(self.ncols, self.core)

    @cached_property
    def snf(self) -> SNFResult:
        """The pivots' unit divisors, then the core's by alternating echelons
        of the rows and of the columns until each row holds one entry
        (Kannan & Bachem 1979).  Each echelon's first pivot divides the one
        before and is split off once it divides its row, so the loop ends."""
        lattice = self._core_lattice
        rows = [lattice.rows[j] for j in sorted(lattice.rows)]
        while any(len(r) > 1 for r in rows):
            cols = {}
            for i, r in enumerate(rows):
                for j, v in r.items():
                    cols.setdefault(j, {})[i] = v
            lattice = IntLattice(len(rows), [cols[j] for j in sorted(cols)])
            rows = [lattice.rows[j] for j in sorted(lattice.rows)]
        diag = [v for r in rows for v in r.values()]
        return SNFResult((1,) * len(self.pivots) + tuple(_divisor_chain(diag)))

    @cached_property
    def cokernel(self) -> CokernelStructure:
        divisors = self.snf.divisors
        return CokernelStructure(self.ncols - len(divisors),
                                 tuple(d for d in divisors if d > 1))

    def reduce(self, vec) -> dict:
        """vec modulo the pivot rows: a dict on the non-pivot columns.

        A pivot's column is cleared from every later pivot row, so a vector
        already reduced comes back unchanged after one scan of the pivots.
        """
        v = _sparse(vec, self.ncols)
        for c, s, row in self.pivots:
            a = v.get(c)
            if a:
                add_into(v, row.items(), -a * s)
        return v

    def order(self, vec):
        """Additive order of vec in the cokernel; None when infinite.

        The reduced vector v joins the core lattice L.  If the rank grows the
        order is infinite.  Otherwise L and L + Zv span the same space, so
        their echelons share pivot columns, on which the projection is
        injective: the order [L + Zv : L] is the product of L's pivots over
        the product of L + Zv's.
        """
        v = self.reduce(vec)
        if not v:
            return 1
        base = self._core_lattice
        grown = IntLattice(self.ncols, [*base.rows.values(), v])
        if grown.rank > base.rank:
            return None
        base_det, grown_det = (prod(r[j] for j, r in lat.rows.items())
                               for lat in (base, grown))
        return base_det // grown_det

    def __contains__(self, vec) -> bool:
        return self.reduce(vec) in self._core_lattice


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
    echelon form; exact membership and relations.

    Rows are sparse {column: value} dicts keyed by their pivot, the smallest
    column, whose entry is positive, and 1 over GF(p), where every value lies
    in [0, p).  Each row carries its combination of the inputs, {input number:
    coefficient}; an input that reduces to zero leaves its combination in
    ``relations``.  Every step is invertible (subtracting a multiple of a row,
    scaling a new row by a unit, or the 2x2 xgcd step, which over GF(p) never
    runs), so the relations generate all relations among the inputs.
    """

    def __init__(self, ncols, rows=(), p=None):
        self.ncols = ncols
        self.p = p
        self.rows = {}          # pivot column -> row
        self.combos = {}        # pivot column -> the row as a combination of the inputs
        self.relations = []     # combinations of the inputs that vanish
        for r in rows:
            self.add(r)

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        return [_dense(self.rows[j], self.ncols) for j in sorted(self.rows)]

    def _reduce(self, v, combo=None, grow=False) -> bool:
        """Reduce the sparse v along the rows, in place; True if v is outside.

        ``combo`` follows v, so v minus combo's combination of the inputs
        stays fixed.  Without grow the loop stops at the first leading entry
        no row divides.  With grow that entry joins the lattice: v becomes a
        new row, or the xgcd step gives the row the gcd and v the rest.
        """
        p = self.p
        outside = False
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is not None and v[j] % row[j] == 0:
                q = v[j] // row[j]
                add_into(v, row.items(), -q, p)
                if combo is not None:
                    add_into(combo, self.combos[j].items(), -q, p)
            elif not grow:
                return True
            elif row is None:
                s = (-1 if v[j] < 0 else 1) if p is None else pow(v[j], -1, p)
                if s != 1:
                    for w in (v, combo):
                        for k, x in w.items():
                            w[k] = x * s if p is None else x * s % p
                self.rows[j], self.combos[j] = v, combo
                return True
            else:
                g, s, t = _xgcd(row[j], v[j])
                a, b = row[j] // g, v[j] // g
                self.rows[j] = _gcd_step(row, v, s, t, a, b)
                self.combos[j] = _gcd_step(self.combos[j], combo, s, t, a, b)
                outside = True
        return outside

    def add(self, vec):
        """Insert a vector (a dense list or a dict); True if the lattice grew."""
        # each input ends as a row or a relation, so their count numbers it
        v = _sparse(vec, self.ncols, self.p)
        combo = {len(self.rows) + len(self.relations): 1}
        grew = self._reduce(v, combo, grow=True)
        if not v:
            self.relations.append(combo)
        return grew

    def __contains__(self, vec):
        return not self._reduce(_sparse(vec, self.ncols, self.p))

    def contains_lattice(self, other: "IntLattice") -> bool:
        return all(r in self for r in other.rows.values())

    def __eq__(self, other):
        return (isinstance(other, IntLattice) and self.ncols == other.ncols
                and self.rank == other.rank and self.contains_lattice(other)
                and other.contains_lattice(self))

    __hash__ = None


def hermite_normal_form(rows, ncols=None, transform=False, p=None):
    """Row Hermite form; with p, the reduced row echelon form mod p.

    Returns (H, U, rank) when transform is requested, with U invertible,
    U @ rows == H padded by zero rows, and the rows of U beyond ``rank``
    spanning the left kernel.  Otherwise returns (H, rank).
    """
    rows = list(rows)
    lattice = IntLattice(_width(rows, ncols), rows, p)
    pivots = sorted(lattice.rows)
    # reduce the entries above each pivot into [0, pivot), to 0 over GF(p)
    for r, c in enumerate(pivots):
        row, combo = lattice.rows[c], lattice.combos[c]
        for above in pivots[:r]:
            q = lattice.rows[above].get(c, 0) // row[c]
            if q:
                add_into(lattice.rows[above], row.items(), -q, p)
                add_into(lattice.combos[above], combo.items(), -q, p)
    h = lattice.basis()
    if not transform:
        return h, len(h)
    u = [_dense(x, len(rows)) for x in [lattice.combos[c] for c in pivots]
         + lattice.relations]
    return h, u, len(h)


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
    lattice = IntLattice(len(rows), transpose(rows, ncols=n), p)
    return [_dense(x, n) for x in lattice.relations]


def solve_left(rows, target):
    """Integer x with x @ rows == target, or None.

    The target is reduced along the lattice of ``rows``, accumulating the
    coefficients.
    """
    rows = list(rows)
    if not rows:
        return None if any(target.values() if isinstance(target, dict) else target) else []
    lattice = IntLattice(len(rows[0]), rows)
    combo = {}
    if lattice._reduce(_sparse(target, lattice.ncols), combo):
        return None
    return [-x for x in _dense(combo, len(rows))]


def saturation(rows, ncols) -> list[list[int]]:
    """Basis of the saturation (rational span intersected with Z^n)."""
    kernel = integer_kernel(rows, ncols=ncols)
    return integer_kernel(kernel, ncols=ncols)


def order_in_cokernel(relations, ambient_rank, vec):
    """Additive order of vec in Z^ambient / row lattice; None when infinite."""
    return Presentation(relations, ambient_rank).order(vec)
