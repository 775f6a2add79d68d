"""A sparse +-1 pivot elimination, the oracle the block echelons are checked
against.

It shares no elimination code with the package.  Relations with a +-1 entry
are used up one at a time: the row becomes a recorded pivot, its column
leaves the presentation, and every other row touching that column is reduced
by it.  A heap hands out the shortest row with a unit entry first, ties going
to the row whose unit column meets the fewest rows; that column is the one
eliminated.  The core that is left is finished by the dense Smith form of
``snf_oracle``.
"""

from heapq import heapify, heappop, heappush

from snf_oracle import dense_snf


class HeapPresentation:
    """Z^ncols modulo the lattice of the sparse or dense ``rows``."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        live = [{j: v for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
                for r in rows]
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

    def _core_divisors(self, extra=()):
        cols = sorted({j for r in [*self.core, *extra] for j in r})
        at = {j: i for i, j in enumerate(cols)}
        dense = []
        for r in [*self.core, *extra]:
            row = [0] * len(cols)
            for j, v in r.items():
                row[at[j]] = v
            dense.append(row)
        return dense_snf(dense, len(cols))

    @property
    def divisors(self) -> tuple:
        return (1,) * len(self.pivots) + self._core_divisors()

    @property
    def cokernel(self) -> tuple:
        """(free rank, torsion divisors), as ``CokernelStructure`` holds them."""
        ds = self.divisors
        return self.ncols - len(ds), tuple(d for d in ds if d > 1)

    def reduce(self, vec) -> dict:
        """vec modulo the pivot rows: a dict on the non-pivot columns."""
        v = {j: x for j, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if x}
        for c, s, row in self.pivots:
            a = v.get(c)
            if a:
                for j, x in row.items():
                    y = v.get(j, 0) - a * s * x
                    if y:
                        v[j] = y
                    else:
                        v.pop(j, None)
        return v

    def __contains__(self, vec) -> bool:
        """The reduced v lies in the core lattice L exactly when L + Zv has the
        divisors of L: a larger lattice has more divisors or, with the same
        rational span, a smaller product of them."""
        v = self.reduce(vec)
        return not v or self._core_divisors([v]) == self._core_divisors()
