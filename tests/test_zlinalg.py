"""Smith/Hermite forms, kernels, and cokernels against determinantal oracles
and a dense gcd-stepping Hermite form; the sparse accumulator against a dense
one."""

import copy
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from lietorsion import zlinalg
from lietorsion.charp import right_kernel_mod
from lietorsion.zlinalg import (CokernelStructure, IntLattice, Presentation,
                                _dense, _tagged, add_into, cokernel_structure,
                                hermite_normal_form, integer_kernel,
                                order_in_cokernel, saturation, smith_normal_form,
                                solve_left, transpose)
from snf_oracle import check_reading, dense_snf


@st.composite
def accumulations(draw):
    p = draw(st.sampled_from([None, 2, 3, 7]))
    n = draw(st.integers(1, 6))
    if p is None:
        entry = st.integers(-3, 3)
        scale = st.one_of(st.integers(-3, 3),
                          st.fractions(Fraction(-3), Fraction(3), max_denominator=4))
    else:
        entry = st.integers(-2 * p, 2 * p)
        scale = st.integers(0, p - 1)
    start = draw(st.dictionaries(st.integers(0, n - 1), entry))
    if p is not None:
        start = {j: x % p for j, x in start.items()}
    start = {j: x for j, x in start.items() if x}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), entry), max_size=12))
    return p, n, start, pairs, draw(scale)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=accumulations())
def test_add_into_matches_a_dense_accumulator(case):
    p, n, start, pairs, scale = case
    dense = [start.get(j, 0) for j in range(n)]
    for j, k in pairs:
        dense[j] += scale * k
    if p is not None:
        dense = [x % p for x in dense]
    acc = dict(start)
    add_into(acc, iter(pairs), scale, p)
    assert acc == {j: x for j, x in enumerate(dense) if x}


@st.composite
def linear_combinations(draw):
    # images on a few columns, so keys repeat across images; a twin pair
    # (an image and a copy of it, with opposite coefficients) cancels
    p = draw(st.sampled_from([None, 2, 3, 7]))
    n = draw(st.integers(1, 5))
    image = st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3).filter(bool), max_size=n)
    images = draw(st.lists(image, min_size=1, max_size=5))
    coeff = st.integers(-4, 4)
    if p is None:
        coeff = st.one_of(coeff, st.fractions(Fraction(-3), Fraction(3), max_denominator=4))
    terms = draw(st.dictionaries(st.integers(0, len(images) - 1), coeff))
    if draw(st.booleans()):
        c = draw(coeff)
        images.append(dict(images[0]))
        terms = {0: c, len(images) - 1: -c}
    return p, n, images, terms


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=linear_combinations())
def test_combine_matches_a_naive_sum(case):
    p, n, images, terms = case
    dense = [0] * n
    for key, c in terms.items():
        for j, v in images[key].items():
            dense[j] += c * v
    if p is not None:
        dense = [x % p for x in dense]
    before = [dict(img) for img in images]
    out = zlinalg.combine(terms, images.__getitem__, p)
    assert out == {j: x for j, x in enumerate(dense) if x}
    assert images == before                      # the images are left as they were
    assert all(out is not img for img in images)
    out[n] = 1                                   # and the result aliases none of them
    assert images == before


def test_combine_cancels_to_the_empty_dict():
    image = {(0, 1): 2, (1, 0): -2}
    assert zlinalg.combine({"a": 1, "b": -1}, {"a": image, "b": dict(image)}.__getitem__) == {}
    assert zlinalg.combine({"a": 3}, {"a": image}.__getitem__, 3) == {}
    assert zlinalg.combine({}, {}.__getitem__) == {}


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
    return total


def gcd_of_k_minors(m, k):
    rows = range(len(m))
    cols = range(len(m[0]) if m else 0)
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, det(sub))
    return g


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_examples():
    assert smith_normal_form([[2]]).divisors == (2,)
    assert smith_normal_form([[1, 0], [0, 3]]).divisors == (1, 3)
    r = smith_normal_form([[2, 4], [4, 8]])
    assert r.divisors == (2,) and r.rank == 1
    # no unit entry, and a row echelon that is not diagonal, so its pivots
    # are not the divisors (each value as sympy's invariant_factors gives)
    assert smith_normal_form([[2, 3]]).divisors == (1,)
    assert smith_normal_form([[4, 6], [6, 4]]).divisors == (2, 10)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]).divisors == (2, 6, 12)


def test_snf_empty():
    assert smith_normal_form([], ncols=3).rank == 0
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0


def test_snf_divisibility_chain_random():
    rng = random.Random(21)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        ds = smith_normal_form(m).divisors
        for a, b in zip(ds, ds[1:]):
            assert b % a == 0


def test_snf_determinantal_divisors_random():
    rng = random.Random(22)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ds = smith_normal_form(m).divisors
        prod = 1
        for k, d in enumerate(ds, start=1):
            prod *= d
            assert prod == abs(gcd_of_k_minors(m, k))
        assert gcd_of_k_minors(m, len(ds) + 1) == 0 or len(ds) == min(len(m), len(m[0]))


def test_cokernel_examples():
    assert cokernel_structure([], 3) == CokernelStructure(3, ())
    assert cokernel_structure([[2, 0], [0, 1]], 2) == CokernelStructure(0, (2,))
    rows = [[1, 0, 0, 0], [0, 1, 0, -1], [0, 1, 0, 1], [0, 0, 1, 0]]
    assert cokernel_structure(rows, 4) == CokernelStructure(0, (2,))


def test_cokernel_column_mismatch():
    with pytest.raises(ValueError):
        cokernel_structure([[1, 2]], 3)


def test_cokernel_invariant_under_row_operations():
    rng = random.Random(23)
    for _ in range(25):
        rows = random_matrix(rng, 5, 4, bound=5)
        base = cokernel_structure(rows, 4)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert cokernel_structure(shuffled, 4) == base
        modified = [r[:] for r in rows]
        i, j = rng.sample(range(5), 2)
        q = rng.randint(-3, 3)
        modified[i] = [a + q * b for a, b in zip(modified[i], modified[j])]
        assert cokernel_structure(modified, 4) == base


def test_integer_kernel_examples():
    assert integer_kernel([[1, 1]]) == [[1, -1]] or integer_kernel([[1, 1]]) == [[-1, 1]]
    assert integer_kernel([[2]]) == []
    k = integer_kernel([[1, 2], [2, 4]])
    assert len(k) == 1 and k[0] in ([2, -1], [-2, 1])
    # each relation is the combination with which its input vanished
    assert integer_kernel([[1, 2, 3], [2, 4, 7]]) == [[-2, 1, 0]]
    assert right_kernel_mod([[1, 1, 1]], 3, 2) == [[1, 1, 0], [1, 0, 1]]
    assert _tagged(2, [[2, 4], [3, 6], [1, 2]])[1] == [{0: -3, 1: 2}, {0: 1, 1: -1, 2: 1}]


def test_integer_kernel_properties():
    rng = random.Random(24)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        kernel = integer_kernel(m)
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        rank = hermite_normal_form(m)[1]
        assert rank + len(kernel) == cols


def test_kernel_lattice_is_saturated():
    rng = random.Random(25)
    for _ in range(15):
        m = random_matrix(rng, 2, 4, bound=3)
        lattice = IntLattice(4, integer_kernel(m))
        # every small integer vector annihilated by m must be in the lattice
        from itertools import product
        for v in product(range(-2, 3), repeat=4):
            if all(sum(a * b for a, b in zip(row, v)) == 0 for row in m):
                assert list(v) in lattice


def test_hermite_transform_identity():
    rng = random.Random(26)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=6)
        h, u, rank = hermite_normal_form(m, transform=True)
        n = len(m[0])
        for k in range(len(m)):
            combo = [sum(u[k][i] * m[i][j] for i in range(len(m))) for j in range(n)]
            assert combo == (h[k] if k < rank else [0] * n)


def test_solve_left():
    rows = [[2, 0, 1], [0, 3, 1]]
    x = solve_left(rows, [2, 3, 2])
    assert x is not None
    assert [sum(a * b for a, b in zip(col, x)) for col in transpose(rows)] == [2, 3, 2]
    assert solve_left(rows, [1, 0, 0]) is None


def test_lattice_membership():
    lat = IntLattice(3, [[2, 0, 0], [0, 1, 1]])
    assert [2, 1, 1] in lat
    assert [1, 0, 0] not in lat
    assert [4, -3, -3] in lat
    lat.add([1, 0, 0])
    assert [1, 0, 0] in lat
    assert lat.rank == 2


def test_saturation():
    sat = IntLattice(2, saturation([[2, 4]], 2))
    assert [1, 2] in sat and [2, 4] in sat
    assert [1, 1] not in sat
    assert sat.rank == 1


def test_order_in_cokernel():
    # Z^2 / <(2,0),(0,1)> has torsion Z/2 generated by (1,0)
    relations = [[2, 0], [0, 1]]
    assert order_in_cokernel(relations, 2, [1, 0]) == 2
    assert order_in_cokernel(relations, 2, [0, 1]) == 1
    assert order_in_cokernel([[2, 0]], 2, [0, 1]) is None  # infinite order
    assert order_in_cokernel([[6, 0], [0, 1]], 2, [2, 0]) == 3
    # Z^2 / <(4,6),(6,4)> is Z/2 + Z/10 with no unit entry to pivot on
    assert order_in_cokernel([[4, 6], [6, 4]], 2, [1, 0]) == 10
    assert order_in_cokernel([[4, 6], [6, 4]], 2, [2, 0]) == 5


# -- the sparse front end against the dense kernel and an external oracle -----

PROPERTY = settings(derandomize=True, database=None, max_examples=120, deadline=None)

# mostly zeros and +-1, as in the action matrices; the non-unit alphabet leaves
# the elimination nothing to pivot on
UNIT_HEAVY = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 6])
NON_UNIT = st.sampled_from([0, 0, 0, 2, -2, 3, -4, 6])


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=8):
    """(rows, ncols) with some rows and columns forced to zero; rows may be 0."""
    entries = draw(st.sampled_from([UNIT_HEAVY, NON_UNIT]))
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)) if m else ():
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)) if n else ():
        for row in rows:
            row[j] = 0
    return rows, n


def dense_divisors(rows, n):
    return dense_snf([list(r) for r in rows], n)


def dense_cokernel(rows, n):
    ds = dense_divisors(rows, n)
    return CokernelStructure(n - len(ds), tuple(d for d in ds if d > 1))


def sympy_divisors(rows, n):
    factors = invariant_factors(Matrix(len(rows), n, [x for r in rows for x in r]),
                                domain=ZZ)
    return tuple(sorted(abs(int(d)) for d in factors if d))


@PROPERTY
@given(sparse_matrices())
def test_snf_matches_dense_kernel_and_sympy(case):
    rows, n = case
    got = smith_normal_form(rows, ncols=n).divisors
    assert got == dense_divisors(rows, n)
    assert got == sympy_divisors(rows, n)
    sparse_rows = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert Presentation(sparse_rows, n).snf.divisors == got


@PROPERTY
@given(sparse_matrices(), st.data())
def test_presentation_order_and_quotient_match_augmented_dense(case, data):
    rows, n = case
    pres = Presentation(rows, n)
    base = dense_cokernel(rows, n)
    assert pres.cokernel == base
    vecs = data.draw(st.lists(st.lists(UNIT_HEAVY, min_size=n, max_size=n), max_size=3))
    assert Presentation(rows + vecs, n).cokernel == dense_cokernel(rows + vecs, n)
    for v in vecs:
        aug = dense_cokernel(rows + [v], n)
        want = (None if aug.free_rank != base.free_rank
                else prod(base.torsion) // prod(aug.torsion))
        assert pres.order(v) == want
        assert (v in pres) == (want == 1)


def test_presentation_records_unit_pivots():
    # the unit row is the echelon's first pivot row; the untouched column is free
    pres = Presentation([{0: 1, 1: 2}, {1: 4}], 3)
    assert pres._lattice.rows == {0: {0: 1, 1: 2}, 1: {1: 4}}
    assert pres.cokernel == CokernelStructure(1, (4,))
    assert [3, 0, 5] not in pres and [3, 6, 0] in pres and [0, 4, 0] in pres
    assert pres.order([0, 1, 0]) == 4 and pres.order([0, 0, 1]) is None
    assert pres.order([3, 0, 5]) is None and pres.order([1, 0, 0]) == 2
    with pytest.raises(ValueError):
        Presentation([{3: 1}], 3)
    with pytest.raises(ValueError):
        Presentation([{0: 1}])


def _scrambled(divisors, n, seed):
    """An n x n matrix with the given elementary divisors (padded by 0),
    hidden by random unimodular row and column operations."""
    rng = random.Random(seed)
    a = [[(list(divisors) + [0] * n)[i] if i == j else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(3 * n):
        i, k = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        i, k = rng.sample(range(n), 2)
        for row in a:
            row[i] += c * row[k]
    return a


def _chain_steps(monkeypatch):
    """A list that records each step of a saturation chain past the first."""
    steps = []
    real = zlinalg._grown
    monkeypatch.setattr(zlinalg, "_grown", lambda lat, vecs: steps.append(1) or real(lat, vecs))
    return steps


@pytest.mark.parametrize("rows,want,steps", [
    ([[4]], (4,), 1),                                   # Z/4
    ([[2, 1], [0, 2]], (1, 4), 1),                      # pivots 2, 2 but Z/4
    ([[8, 0], [0, 2]], (2, 8), 2),                      # Z/8 + Z/2: a third step
    ([[9, 0], [0, 3]], (3, 9), 1),                      # Z/9 + Z/3
    ([[4, 0], [0, 6]], (2, 12), 1),                     # Z/4 + Z/6, two primes
    (_scrambled([1, 1, 2, 8], 5, 1), (1, 1, 2, 8), 2),  # behind unit pivots
    (_scrambled([1, 3, 9, 27], 5, 2), (1, 3, 9, 27), 2),
    (_scrambled([1, 1, 4, 12], 4, 3), (1, 1, 4, 12), 1),
])
def test_snf_saturation_chain_steps(monkeypatch, rows, want, steps):
    # the chain needs at least ``steps`` steps past the first, and never the
    # alternating echelons
    recorded = _chain_steps(monkeypatch)
    monkeypatch.setattr(zlinalg, "_alternating_divisors", None)
    n = len(rows[0])
    assert smith_normal_form(rows).divisors == want
    assert len(recorded) >= steps
    assert dense_divisors(rows, n) == want == sympy_divisors(rows, n)


@st.composite
def ell_echelons(draw):
    """A prime ell and a sparse Z echelon, its rows' pivots drawn from units
    mod ell, ell, ell^2 and 2 ell, and its other entries mostly units."""
    ell = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([1, -1, ell + 1, ell, -2 * ell, 2 * ell - 1])
    rows = []
    for j in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))):
        row = {j: draw(st.sampled_from([ell, 1, ell * ell, ell + 1, 2 * ell]))}
        if j < n - 1:
            row |= draw(st.dictionaries(st.integers(j + 1, n - 1), entry))
        rows.append(row)
    return ell, n, rows


@PROPERTY
@given(ell_echelons())
def test_relation_reading_matches_the_tagged_oracle(case):
    # the unit rows read in place and the others' residues give the same
    # relation count at each level of the chain as one tagged echelon of all
    # the rows, so the same powers of ell; and the Smith form is the dense one
    ell, n, rows = case
    lattice = IntLattice(n, rows)
    assert lattice.rows == {min(r): r for r in rows}
    assert check_reading(lattice, ell) >= 1
    assert Presentation(rows, n).snf.divisors == dense_divisors([_dense(r, n) for r in rows], n)


@pytest.mark.parametrize("rows", [
    [[2 * 65537]],
    [[2 ** 61 - 1, 0], [0, 4]],
    _scrambled([1, 2, 2 * 65537], 4, 4),
    _scrambled([1, 3, 3 * (2 ** 61 - 1)], 3, 5),
])
def test_snf_pivot_above_the_trial_bound_takes_the_alternating_echelons(monkeypatch, rows):
    calls = []
    real = zlinalg._alternating_divisors
    monkeypatch.setattr(zlinalg, "_alternating_divisors",
                        lambda lat: calls.append(1) or real(lat))
    n = len(rows[0])
    got = smith_normal_form(rows).divisors
    assert calls
    assert got == dense_divisors(rows, n) == sympy_divisors(rows, n)


# -- the lattice kernel against the dense Hermite form ------------------------

def dense_hermite_normal_form(rows, ncols=None, transform=False):
    """Row Hermite form by dense gcd steps down each column (the oracle)."""
    a = [list(r) for r in rows]
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


def dense_kernel(rows, n):
    """The oracle's right kernel: the left kernel rows of U for the columns."""
    if not n:
        return []
    cols = transpose(rows, ncols=n)
    _, u, rank = dense_hermite_normal_form(cols, ncols=len(rows), transform=True)
    return u[rank:]


@st.composite
def integer_matrices(draw, max_rows=7, max_cols=7):
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))
    entry = st.integers(-9, 9)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)], n


@PROPERTY
@given(st.one_of(sparse_matrices(), integer_matrices()))
def test_lattice_hermite_and_kernel_match_dense_oracle(case):
    rows, n = case
    h, u, rank = hermite_normal_form(rows, ncols=n, transform=True)
    assert (h, rank) == dense_hermite_normal_form(rows, ncols=n)
    m = len(rows)
    for k in range(m):
        combo = [sum(u[k][i] * rows[i][j] for i in range(m)) for j in range(n)]
        assert combo == (h[k] if k < rank else [0] * n)
    if m <= 5:
        assert abs(det(u)) == 1
    kernel, oracle = integer_kernel(rows, ncols=n), dense_kernel(rows, n)
    assert len(kernel) == n - rank
    # kernel vector k is positive at the k-th free column of H, 0 beyond it
    free = sorted(set(range(n)) - {next(j for j, x in enumerate(r) if x) for r in h})
    assert [max(j for j, x in enumerate(v) if x) for v in kernel] == free
    assert all(v[j] > 0 for v, j in zip(kernel, free))
    assert (dense_hermite_normal_form(kernel, ncols=n)
            == dense_hermite_normal_form(oracle, ncols=n))
    # saturated: no torsion in Z^n / kernel, and it holds the oracle's kernel
    pres = Presentation(kernel, n)
    assert pres.cokernel.torsion == ()
    assert all(v in pres for v in oracle)


@st.composite
def kernel_images(draw):
    """(n, K, A): K the relations among n small integer rows, A random
    combinations of K's vectors, some scaled by 2 or 3."""
    n, w = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)) for _ in range(n)]
    kernel = [_dense(x, n) for x in _tagged(w, rows)[1]]
    images = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(kernel),
                               max_size=len(kernel)))
        scale = draw(st.sampled_from([1, 1, 2, 3]))
        images.append([scale * sum(c * k[j] for c, k in zip(coeffs, kernel))
                       for j in range(n)])
    return n, kernel, images


@PROPERTY
@given(kernel_images())
def test_torsion_of_kernel_images_reads_on_the_ambient_columns(case):
    # Z^n / K embeds in Z^w, so Z^n / A is K / A plus a free part: the
    # torsion of A on all n columns is that of A solved in K's basis
    n, kernel, images = case
    coords = [solve_left(kernel, v) for v in images]
    assert None not in coords
    assert (cokernel_structure(images, n).torsion
            == cokernel_structure(coords, len(kernel)).torsion)


@pytest.mark.parametrize("call,error", [
    (lambda: integer_kernel([[1, 2]], ncols=3), ValueError),
    (lambda: integer_kernel([[1, 2], [3]]), ValueError),
    (lambda: hermite_normal_form([[1, 2]], ncols=3), ValueError),
    (lambda: hermite_normal_form([[1, 2], [3]]), ValueError),
    (lambda: [1, 2] in IntLattice(3, [[1, 0, 0]]), ValueError),
    (lambda: IntLattice(3).add([1, 2]), ValueError),
    (lambda: solve_left([[1, 2]], [1, 2, 0]), ValueError),
    (lambda: solve_left([[1, 2]], [1, 2], ncols=2), TypeError),
    (lambda: transpose([[1, 2], [3]]), ValueError),
    (lambda: transpose([[1, 2]], ncols=5), ValueError),
], ids=["kernel-ncols", "kernel-ragged", "hermite-ncols", "hermite-ragged",
        "contains-length", "add-length", "solve-length", "solve-no-ncols",
        "transpose-ragged", "transpose-ncols"])
def test_widths_that_disagree_raise(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("col", [-1, 3])
@pytest.mark.parametrize("call", [
    lambda v: IntLattice(3, [{0: 1}, v]),
    lambda v: IntLattice(3).add(v),
    lambda v: v in IntLattice(3, [[1, 0, 0]]),
    lambda v: Presentation([{0: 1}, v], 3),
    lambda v: v in Presentation([{0: 2}], 3),
], ids=["lattice", "lattice-add", "lattice-contains", "presentation",
        "presentation-contains"])
def test_dict_columns_out_of_range_raise(call, col):
    with pytest.raises(ValueError, match="column index out of range in ambient rank 3"):
        call({1: 1, col: 2})


# each entry for vectors from outside the package, handed a list of rows
OUTSIDE_ENTRIES = {
    "presentation": lambda rows: Presentation(rows, 4).cokernel,
    "smith": lambda rows: smith_normal_form(rows, 4),
    "cokernel": lambda rows: cokernel_structure(rows, 4),
    "lattice-add": lambda rows: [IntLattice(4).add(r) for r in rows],
    "lattice-contains": lambda rows: [r in IntLattice(4, [[2, 0, 0, 0]]) for r in rows],
    "presentation-contains": lambda rows: [r in Presentation([{0: 2}], 4) for r in rows],
    "order": lambda rows: [Presentation([{0: 2}], 4).order(r) for r in rows],
}


@pytest.mark.parametrize("name", OUTSIDE_ENTRIES)
def test_outside_vectors_are_checked_and_left_as_given(name):
    # the engine's own rows go into the echelon without a copy; a caller's
    # rows are checked, copied, and never changed
    call = OUTSIDE_ENTRIES[name]
    rows = [{0: 2, 1: 4, 3: -6}, {1: 6, 2: 3}, {0: 4, 2: 0, 3: 1}, [0, 2, 0, 4], {3: 5}]
    given = copy.deepcopy(rows)
    call(rows)
    assert rows == given
    for bad in ({1: 1, 4: 2}, {-1: 1}, [1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError):
            call([{0: 1}, bad])


def test_transpose_shapes():
    assert transpose([]) == []
    assert transpose([], ncols=3) == [[], [], []]
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([[1, 2, 3], [4, 5, 6]], ncols=3) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([[7]], ncols=1) == [[7]]
