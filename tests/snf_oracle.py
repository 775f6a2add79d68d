"""A dense Smith form, the oracle the sparse elimination is checked against,
and the saturation chain read off whole tagged GF(l) echelons.

``dense_snf`` shares no code with the package: each step clears the row and
column through a pivot of least absolute value (ties by position), so
intermediate entries stay small on the test matrices, and the diagonal is
put in divisor order by gcd/lcm pairs at the end.

``tagged_prime_powers`` is the Smith reading that ``zlinalg._prime_powers``
replaced: at each step of the l-saturation chain it copies every echelon
row into one tagged GF(l) echelon (``zlinalg._tagged``) and reads the
relations off it, the unit rows included.
"""

from math import gcd

from lietorsion import zlinalg
from lietorsion.zlinalg import IntLattice, _pivot_product, _tagged, combine


def dense_snf(a, n) -> tuple:
    """Elementary divisors of the m x n list of lists a, which it overwrites."""
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
    return _chain(diag)


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


def _chain(diag):
    # after pass i, ds[i] divides every later entry, and later passes only
    # replace entries by gcds and lcms of multiples of it
    ds = [d for d in diag if d]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] // g * ds[j]
    return tuple(ds)


def tagged_relations(lattice, ell) -> list:
    """The relations among the echelon rows mod ell, {pivot column of a
    row: coefficient}, read off one tagged echelon of all of them."""
    pivots = list(lattice.rows)
    basis = [lattice.rows[j] for j in pivots]
    return [{pivots[i]: c for i, c in x.items()}
            for x in _tagged(lattice.ncols, basis, ell)[1]]


def tagged_prime_powers(lattice, ell) -> list:
    """The powers of the prime ell among the elementary divisors of
    Z^n / L, by the saturation chain over ``tagged_relations``."""
    counts = []
    while True:
        relations = tagged_relations(lattice, ell)
        if not relations:
            break
        counts.append(len(relations))
        if _pivot_product(lattice) % ell ** (len(relations) + 1):
            break
        grown = IntLattice(lattice.ncols)
        grown.rows = dict(lattice.rows)
        for x in relations:
            grown.add({j: v // ell for j, v in combine(x, lattice.rows.__getitem__).items()})
        lattice = grown
    return [ell ** sum(k > i for k in counts) for i in range(max(counts, default=0))]


def check_reading(lattice, ell):
    """Assert that ``zlinalg._prime_powers`` gives the oracle's powers of
    ell, and that at each level of its chain it reads as many relations as
    the whole tagged echelon of that level's lattice, each a true relation
    mod ell.  Returns the number of levels read."""
    levels = []
    real = zlinalg._relations_mod

    def spy(lat, p):
        levels.append((lat, real(lat, p)))
        return levels[-1][1]

    zlinalg._relations_mod = spy
    try:
        powers = zlinalg._prime_powers(lattice, ell)
    finally:
        zlinalg._relations_mod = real
    assert powers == tagged_prime_powers(lattice, ell), (powers, ell)
    for lat, relations in levels:
        assert len(relations) == len(tagged_relations(lat, ell)), ell
        for x in relations:
            assert x and all(0 < c < ell for c in x.values()), x
            assert not combine(x, lat.rows.__getitem__, ell), x
    return len(levels)
