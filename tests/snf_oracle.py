"""A dense Smith form, the oracle the sparse elimination is checked against.

It shares no code with the package: each step clears the row and column
through a pivot of least absolute value (ties by position), so intermediate
entries stay small on the test matrices, and the diagonal is put in divisor
order by gcd/lcm pairs at the end.
"""

from math import gcd


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
