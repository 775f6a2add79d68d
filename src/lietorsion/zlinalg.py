"""Exact integer linear algebra: Smith and Hermite forms, kernels, cokernels.

Matrices are plain lists of rows of Python ints, so there is no coefficient
growth ceiling.  Smith forms, cokernels and element orders all go through one
``Presentation``: a sparse elimination of +-1 pivots (short rows first, and in
a row the unit entry whose column meets the fewest rows) that records each
pivot row, leaves untouched columns as free summands and hands only the small
remaining core to the dense kernel.  The dense kernel's pivot rule (smallest
nonzero absolute value, ties by position) keeps intermediate entries small.
Vectors are reduced onto the core through the recorded pivots, so one
presentation answers many order and quotient questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, prod


@dataclass(frozen=True)
class SNFResult:
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


@dataclass(frozen=True)
class CokernelStructure:
    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_rank(self) -> int:
        return len(self.torsion)


def _copy_matrix(rows):
    out = []
    width = None
    for r in rows:
        r = list(r)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        out.append(r)
    return out


def _sparse(vec, ncols):
    """A dense list or a {column: value} dict as a dict without zeros."""
    if isinstance(vec, dict):
        if any(not 0 <= j < ncols for j in vec):
            raise ValueError(f"column index out of range in ambient rank {ncols}")
        return {j: v for j, v in vec.items() if v}
    if len(vec) != ncols:
        raise ValueError(f"relation of length {len(vec)} in ambient rank {ncols}")
    return {j: v for j, v in enumerate(vec) if v}


class Presentation:
    """Z^ncols modulo the lattice spanned by ``rows`` (dense lists or dicts).

    Relations with a +-1 entry are used up one at a time: the row becomes a
    recorded pivot, its column leaves the presentation, and every other row
    touching that column is reduced by it.  A heap hands out the shortest row
    with a unit entry first, ties going to the row whose unit column meets the
    fewest rows; that column is the one eliminated.  What is left, the core,
    touches few columns; every other column is a free summand.
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
        self.core_cols = sorted({j for r in self.core for j in r})

    def _core_divisors(self, extra=()):
        cols = sorted(set(self.core_cols).union(*extra)) if extra else self.core_cols
        matrix = [[r.get(j, 0) for j in cols] for r in self.core + list(extra)]
        return _dense_snf(matrix, len(cols)).divisors

    @cached_property
    def snf(self) -> SNFResult:
        return SNFResult((1,) * len(self.pivots) + self._core_divisors())

    @cached_property
    def cokernel(self) -> CokernelStructure:
        return self._cokernel(self.snf.divisors)

    def _cokernel(self, divisors):
        return CokernelStructure(self.ncols - len(divisors),
                                 tuple(d for d in divisors if d > 1))

    def reduce(self, vec) -> dict:
        """vec modulo the pivot rows: a dict on the non-pivot columns."""
        v = _sparse(vec, self.ncols)
        for c, s, row in self.pivots:
            a = v.get(c)
            if a:
                f = a * s
                for j, x in row.items():
                    y = v.get(j, 0) - f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def quotient(self, vecs) -> CokernelStructure:
        """Cokernel after adding the vectors to the relations."""
        extra = [r for r in map(self.reduce, vecs) if r]
        if not extra:
            return self.cokernel
        return self._cokernel((1,) * len(self.pivots) + self._core_divisors(extra))

    def order(self, vec):
        """Additive order of vec in the cokernel; None when infinite."""
        base, aug = self.cokernel, self.quotient([vec])
        if aug.free_rank != base.free_rank:
            return None
        return prod(base.torsion) // prod(aug.torsion)

    def __contains__(self, vec) -> bool:
        return self.order(vec) == 1


def smith_normal_form(rows, ncols=None) -> SNFResult:
    """Elementary divisor chain of an integer matrix."""
    return Presentation(rows, ncols).snf


def _dense_snf(a, n) -> SNFResult:
    """Dense Smith form of the m x n list of lists a, which it overwrites."""
    m = len(a)
    diag = []
    t = 0
    while t < min(m, n):
        pivot = _find_pivot(a, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        _clear_position(a, t, m, n)
        diag.append(abs(a[t][t]))
        t += 1
    return SNFResult(tuple(_divisor_chain(diag)))


def _find_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return (i, j)
    return None if best is None else (best[1], best[2])


def _clear_position(a, t, m, n):
    # alternate row and column reduction until the cross through (t,t) is clear
    while True:
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        pivot = a[t][t]
        swapped = False
        for i in range(t + 1, m):
            v = a[i][t]
            if not v:
                continue
            q = v // pivot
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                # remainder is smaller than the pivot; promote it
                a[t], a[i] = a[i], a[t]
                swapped = True
                break
        if swapped:
            continue
        for j in range(t + 1, n):
            v = a[t][j]
            if not v:
                continue
            q = v // pivot
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                for row in a:
                    row[t], row[j] = row[j], row[t]
                swapped = True
                break
        if swapped:
            continue
        return


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


def hermite_normal_form(rows, ncols=None, transform=False):
    """Row Hermite form.

    Returns (H, U, rank) when transform is requested, with U unimodular,
    U @ rows == H padded by zero rows, and the rows of U beyond ``rank``
    spanning the left kernel.  Otherwise returns (H, rank).
    """
    a = _copy_matrix(rows)
    m = len(a)
    n = len(a[0]) if a else (ncols or 0)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    r = 0
    for j in range(n):
        # fold column j below row r into a single pivot via gcd steps
        while True:
            nz = [i for i in range(r, m) if a[i][j]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: (abs(a[i][j]), i))
            i0, i1 = nz[0], nz[1]
            q = a[i1][j] // a[i0][j]
            a[i1] = [x - q * y for x, y in zip(a[i1], a[i0])]
            if transform:
                u[i1] = [x - q * y for x, y in zip(u[i1], u[i0])]
        if not nz:
            continue
        i0 = nz[0]
        a[r], a[i0] = a[i0], a[r]
        if transform:
            u[r], u[i0] = u[i0], u[r]
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            if transform:
                u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if transform:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    h = a[:r]
    if transform:
        return h, u, r
    return h, r


def transpose(rows, ncols=None):
    if not rows:
        return [[] for _ in range(ncols)] if ncols else []
    return [list(col) for col in zip(*rows)]


def integer_kernel(rows, ncols=None) -> list[list[int]]:
    """Basis of the integer right kernel {x : rows @ x = 0}.

    The result generates the full kernel lattice, which is saturated by
    construction.
    """
    rows = _copy_matrix(rows)
    if rows:
        ncols = len(rows[0])
    elif not ncols:
        return []
    b = transpose(rows, ncols=ncols)
    if not b:
        b = [[] for _ in range(ncols)]
    _, u, rank = hermite_normal_form(b, ncols=len(rows), transform=True)
    return [list(u[i]) for i in range(rank, ncols)]


def left_solver(rows):
    """The solver target -> integer x with x @ rows == target, or None.

    The Hermite form with transform of ``rows`` is computed once, here, and
    each call reduces the target along its pivots.
    """
    rows = _copy_matrix(rows)
    if not rows:
        return lambda target: [] if not any(target) else None
    h, u, rank = hermite_normal_form(rows, transform=True)
    pivots = [next(j for j, x in enumerate(h[k]) if x) for k in range(rank)]
    ncols, m = len(rows[0]), len(rows)

    def solve(target):
        v = list(target)
        if len(v) != ncols:
            raise ValueError("length mismatch")
        coeffs = [0] * rank
        for k, j in enumerate(pivots):
            q, rem = divmod(v[j], h[k][j])
            if rem:
                return None
            if q:
                v = [x - q * y for x, y in zip(v, h[k])]
            coeffs[k] = q
        if any(v):
            return None
        x = [0] * m
        for k, c in enumerate(coeffs):
            if c:
                x = [xi + c * ui for xi, ui in zip(x, u[k])]
        return x

    return solve


def solve_left(rows, target, ncols=None):
    """Integer x with x @ rows == target, or None."""
    return left_solver(rows)(target)


class IntLattice:
    """An integer row lattice kept in echelon form; supports exact membership."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []          # echelon rows ordered by pivot column
        self.pivots = []        # pivot column of each row
        for r in rows:
            self.add(r)

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    def _row_at(self, j):
        try:
            return self.pivots.index(j)
        except ValueError:
            return None

    def add(self, vec):
        """Insert a vector, refining the lattice; True if the lattice grew."""
        v = list(vec)
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        grew = False
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                return grew
            pos = self._row_at(j)
            if pos is None:
                if v[j] < 0:
                    v = [-x for x in v]
                at = sum(1 for p in self.pivots if p < j)
                self.rows.insert(at, v)
                self.pivots.insert(at, j)
                return True
            row = self.rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, s, t = _xgcd(a, b)
                new_row = [s * x + t * y for x, y in zip(row, v)]
                v = [(a // g) * y - (b // g) * x for x, y in zip(row, v)]
                self.rows[pos] = new_row
                grew = True

    def __contains__(self, vec):
        v = list(vec)
        if len(v) != self.ncols:
            return False
        for row, j in zip(self.rows, self.pivots):
            if any(v[k] for k in range(j)):
                return False
            if v[j]:
                q, rem = divmod(v[j], row[j])
                if rem:
                    return False
                v = [x - q * y for x, y in zip(v, row)]
        return not any(v)

    def contains_lattice(self, other: "IntLattice") -> bool:
        return all(r in self for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, IntLattice) and self.ncols == other.ncols
                and self.rank == other.rank and self.contains_lattice(other)
                and other.contains_lattice(self))

    __hash__ = None


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


def saturation(rows, ncols) -> list[list[int]]:
    """Basis of the saturation (rational span intersected with Z^n)."""
    kernel = integer_kernel(rows, ncols=ncols)
    return integer_kernel(kernel, ncols=ncols)


def order_in_cokernel(relations, ambient_rank, vec):
    """Additive order of vec in Z^ambient / row lattice; None when infinite."""
    return Presentation(relations, ambient_rank).order(vec)
