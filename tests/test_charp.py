"""PBW types, the block symmetrizers, and the kernel-of-alpha decomposition
of the degree-p tensor power over GF(p)."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from lietorsion.charp import (SummandReport, _numeral, alpha_vector, beta_vector,
                              bp_space, check_summand, in_span_mod,
                              pbw_basis, rank_mod, right_kernel_mod, rref_mod,
                              sigma_vector, type_list)
from lietorsion.elements import GF, left_normalize, lyndon_monomial
from lietorsion.maps import ActionSpec, _mu_terms, mixed_basis, normal_words
from lietorsion.words import lyndon_words_of_length, unit_alphabet
from lietorsion.zlinalg import IntLattice, _dense, _tagged


def dense_rref_mod(rows, n, p):
    """Dense Gauss-Jordan elimination mod p, column by column: the oracle
    for the sparse kernel.  Returns (rows, pivot columns)."""
    a = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for j in range(n):
        k = next((i for i in range(r, len(a)) if a[i][j]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][j], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                c = a[i][j]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
    return a[:r], pivots


@st.composite
def matrices_mod_p(draw):
    """(rows, n, p, vec): a random matrix, sparse or dense, and a vector that
    is either random or a combination of the rows."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    entry = st.integers(-p, 2 * p)
    rows = [[draw(entry) if draw(st.floats(0, 1)) <= density else 0 for _ in range(n)]
            for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):
        coeffs = [draw(st.integers(0, p - 1)) for _ in rows]
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    else:
        vec = [draw(entry) for _ in range(n)]
    return rows, n, p, vec


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=matrices_mod_p())
def test_sparse_echelon_matches_dense_oracle(case):
    rows, n, p, vec = case
    want_rows, want_pivots = dense_rref_mod(rows, n, p)
    got_rows, got_pivots = rref_mod(rows, n, p)
    assert got_pivots == want_pivots
    assert got_rows == want_rows          # the reduced form is unique
    assert rank_mod(rows, n, p) == len(want_pivots)
    # membership: vec is in the span iff appending it keeps the rank
    in_span = len(dense_rref_mod(rows + [vec], n, p)[1]) == len(want_pivots)
    assert in_span_mod(got_rows, got_pivots, vec, p) == in_span
    kernel = right_kernel_mod(rows, n, p)
    assert len(kernel) == n - len(want_pivots)
    for k in kernel:
        assert all(sum(a * b for a, b in zip(r, k)) % p == 0 for r in rows)
    # one vector per free column, ascending: 1 there, 0 at the other free columns
    free = [j for j in range(n) if j not in want_pivots]
    assert [[k[f] for f in free] for k in kernel] == [[int(f == j) for f in free] for j in free]
    assert len(dense_rref_mod(kernel, n, p)[1]) == len(kernel)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=matrices_mod_p())
def test_int_lattice_mod_p_matches_dense_oracle(case):
    rows, n, p, vec = case
    lattice = IntLattice(n, rows, p)
    _, pivots = dense_rref_mod(rows, n, p)
    assert lattice.rank == len(pivots)
    # each row is monic at its pivot, the smallest column, with values in [0, p)
    for j, row in lattice.rows.items():
        assert min(row) == j and row[j] == 1 and all(0 < x < p for x in row.values())
    in_span = len(dense_rref_mod(rows + [vec], n, p)[1]) == len(pivots)
    assert (vec in lattice) == in_span
    # the relations are the left kernel mod p, at full dimension
    relations = [_dense(r, len(rows)) for r in _tagged(n, rows, p)[1]]
    assert len(relations) == len(rows) - len(pivots)
    for r in relations:
        assert all(0 <= c < p for c in r)
        assert all(sum(c * row[j] for c, row in zip(r, rows)) % p == 0 for j in range(n))
    # relation k is positive at the k-th row that reduces to zero, 0 at every later row
    ranks = [len(dense_rref_mod(rows[:i], n, p)[1]) for i in range(len(rows) + 1)]
    vanished = [i for i in range(len(rows)) if ranks[i + 1] == ranks[i]]
    assert [max(i for i, c in enumerate(r) if c) for r in relations] == vanished
    assert all(r[i] > 0 for r, i in zip(relations, vanished))
    assert len(dense_rref_mod(relations, len(rows), p)[1]) == len(relations)


def test_type_list():
    ts = type_list(3)
    assert ts == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    ts5 = type_list(5)
    assert ts5[0] == (5, 0, 0, 0, 0) and ts5[-1] == (0, 0, 0, 0, 1)
    assert all(sum((i + 1) * k for i, k in enumerate(t)) == 5 for t in ts5)
    assert ts5 == sorted(ts5, reverse=True)


def test_pbw_basis_examples():
    d = pbw_basis(2, 2)
    assert [len(c) for c in d.classes] == [3, 1]
    d32 = pbw_basis(3, 2)
    assert d32.types == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert [len(c) for c in d32.classes] == [4, 2, 2]
    d21 = pbw_basis(2, 1)
    assert [len(c) for c in d21.classes] == [1, 0]


def test_pbw_vectors_are_a_basis():
    for p, dim in ((2, 2), (3, 2), (2, 3), (5, 2)):
        d = pbw_basis(p, dim)
        vectors = d.filtration_vectors(1)
        assert len(vectors) == dim ** p
        assert rank_mod(vectors, d.n_tensor, p) == dim ** p


def test_sigma_identity_inclusion_case():
    # p=3, class (1,1,0): factorials are 1, so sigma is the plain product
    d = pbw_basis(3, 2)
    for e in d.classes[1]:
        assert sigma_vector(d, 2, e) == _dense(d.factor_terms(e.factors), d.n_tensor)


def test_sigma_lands_in_filtration_and_fixes_class():
    for p, dim in ((3, 2), (5, 2), (3, 3)):
        d = pbw_basis(p, dim)
        for i in range(2, d.m):
            if not d.classes[i - 1]:
                continue
            below, piv_b = rref_mod(d.filtration_vectors(i + 1), d.n_tensor, p)
            filt, piv = rref_mod(d.filtration_vectors(i), d.n_tensor, p)
            for e in d.classes[i - 1]:
                v = sigma_vector(d, i, e)
                assert in_span_mod(filt, piv, v, p)
                base = _dense(d.factor_terms(e.factors), d.n_tensor)
                diff = [(a - b) % p for a, b in zip(v, base)]
                assert in_span_mod(below, piv_b, diff, p)


def test_sigma_scaling_mod5():
    # type with k1=3, k2=1 at p=5: the 1/3! scale is the inverse of 6 = 1 mod 5
    d = pbw_basis(5, 2)
    i = d.types.index((3, 1, 0, 0, 0)) + 1
    e = d.classes[i - 1][0]
    v = sigma_vector(d, i, e)
    blocks = [list(e.factors[:3]), [e.factors[3]]]
    acc = [0] * d.n_tensor
    for p1 in permutations(blocks[0]):
        vec = _dense(d.factor_terms(tuple(p1) + tuple(blocks[1])), d.n_tensor)
        acc = [(a + b) % 5 for a, b in zip(acc, vec)]
    scaled = [(x * pow(6, -1, 5)) % 5 for x in acc]
    assert v == scaled


def test_alpha_beta_examples():
    d = pbw_basis(3, 3)
    idx = dict(d.mixed)
    # alpha: a(x)b(x)c -> a(x)(b o c)
    vec = [0] * d.n_tensor
    vec[_numeral((0, 1, 2), d.dim)] = 1
    img = alpha_vector(d, vec)
    expected = [0] * len(idx)
    expected[idx[(0, (1, 2))]] = 1
    assert img == expected
    # symmetrization kills a(x)b(x)c - a(x)c(x)b
    vec[_numeral((0, 2, 1), d.dim)] = 3 - 1
    assert alpha_vector(d, vec) == [0] * len(idx)
    # beta at p=3: a(x)(b o c) -> 2(a(x)b(x)c + a(x)c(x)b)
    bv = beta_vector(d, (0, (1, 2)))
    want = [0] * d.n_tensor
    want[_numeral((0, 1, 2), d.dim)] = 2
    want[_numeral((0, 2, 1), d.dim)] = 2
    assert bv == want


def test_beta_alpha_identity():
    for p, dim in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        d = pbw_basis(p, dim)
        idx = dict(d.mixed)
        for key, pos in idx.items():
            image = alpha_vector(d, beta_vector(d, key))
            expected = [0] * len(idx)
            expected[pos] = 1
            assert image == expected


def test_alpha_bijective_at_p2():
    d = pbw_basis(2, 2)
    rows = [alpha_vector(d, [1 if k == i else 0 for k in range(4)]) for i in range(4)]
    assert rank_mod(rows, len(d.mixed), 2) == 4


def test_bp_space_dimensions():
    assert bp_space(2, 2)[0] == []
    assert bp_space(3, 2)[0] == []
    kernel, tensors, words = bp_space(5, 2)
    # oracle: Lyndon count minus normal-word count
    ab = unit_alphabet(2)
    lyndon = len(lyndon_words_of_length(ab, 5))
    normal = len(normal_words(ab, 5))
    assert (lyndon, normal) == (6, 4)
    assert len(kernel) == lyndon - normal == 2
    assert len(tensors) == 2


@pytest.mark.parametrize("p,dim", [(5, 2), (7, 2), (5, 3)])
def test_bp_space_is_the_left_kernel_of_eta(p, dim):
    # dense eta rows of the degree-p Lyndon words over GF(p), built here by
    # the left-normalization route, which shares no code with bp_space's rows
    kernel, _, words = bp_space(p, dim)
    ab = unit_alphabet(dim)
    col = {key: j for j, key in enumerate(mixed_basis(ab, p))}
    eta_rows = []
    for w in words:
        row = [0] * len(col)
        for coeff, letters in left_normalize(lyndon_monomial(ab, w)):
            for key, k in _mu_terms(letters).items():
                row[col[key]] += coeff * k
        eta_rows.append([x % p for x in row])
    assert kernel
    for k in kernel:
        assert all(sum(a * r[j] for a, r in zip(k, eta_rows)) % p == 0
                   for j in range(len(col)))
    rank = len(dense_rref_mod(eta_rows, len(col), p)[1])
    assert len(kernel) == len(words) - rank
    assert len(dense_rref_mod(kernel, len(words), p)[1]) == len(kernel)


def test_check_summand_p2():
    r = check_summand(2, 2)
    assert r.dim_w == 0 and r.dim_ker_alpha == 0
    assert r.dim_im_beta == 4 and r.passed


def test_check_summand_p3():
    r = check_summand(3, 2)
    assert (r.dim_tensor, r.dim_im_beta, r.dim_w) == (8, 6, 2)
    assert r.sigma_dims == (2,)
    assert r.dim_bp == 0 and r.passed


def test_check_summand_p5():
    r = check_summand(5, 2)
    assert (r.dim_tensor, r.dim_im_beta, r.dim_w) == (32, 10, 22)
    assert r.dim_bp == 2
    assert r.summands_independent and r.kernel_is_w and r.splits_tensor
    assert r.kp_zero_inside and r.passed


@pytest.mark.parametrize("p,dim", [(2, 3), (2, 4), (3, 3)])
def test_check_summand_more_cases(p, dim):
    assert check_summand(p, dim).passed


@pytest.mark.parametrize("p,dim", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                   (5, 2), (5, 3), (7, 2)])
def test_check_summand_matches_dense_oracle(p, dim):
    # every field recomputed on dense vectors: alpha's rank by dense
    # elimination of its matrix, the sigma memberships in the filtration and
    # the ranks of beta, sigma and W one by one
    r = check_summand(p, dim)
    d = pbw_basis(p, dim)
    n, nmixed = d.n_tensor, len(d.mixed)
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    alpha_rank = len(dense_rref_mod([alpha_vector(d, u) for u in units], nmixed, p)[1])
    beta = [beta_vector(d, key) for key in d.mixed]
    inner = range(2, d.m)
    sigma = {i: [sigma_vector(d, i, e) for e in d.classes[i - 1]] for i in inner}
    in_filtration = True
    for i in inner:
        filtration, pivots = dense_rref_mod(d.filtration_vectors(i), n, p)
        in_filtration &= all(in_span_mod(filtration, pivots, v, p) for v in sigma[i])
    sigma_dims = tuple(rank_mod(sigma[i], n, p) for i in inner)
    bp = bp_space(p, dim, d)[1]
    w = [v for i in inner for v in sigma[i]] + bp
    dim_w = rank_mod(w, n, p)
    dim_im_beta = rank_mod(beta, n, p)
    w_in_kernel = all(not any(alpha_vector(d, v)) for v in w)
    dim_ker_alpha = n - alpha_rank
    assert r == SummandReport(
        p=p, dim=dim, dim_tensor=n, class_sizes=tuple(len(c) for c in d.classes),
        dim_w=dim_w, dim_ker_alpha=dim_ker_alpha, dim_im_beta=dim_im_beta,
        dim_bp=rank_mod(bp, n, p), sigma_dims=sigma_dims,
        sigma_injective=sigma_dims == tuple(len(sigma[i]) for i in inner),
        sigma_in_filtration=in_filtration, w_in_kernel=w_in_kernel,
        kernel_is_w=w_in_kernel and dim_w == dim_ker_alpha,
        splits_tensor=dim_w + dim_im_beta == n and rank_mod(w + beta, n, p) == n,
        summands_independent=dim_w == sum(sigma_dims) + len(bp),
        beta_alpha_identity=all(alpha_vector(d, v) == [int(j == pos) for j in range(nmixed)]
                                for v, pos in zip(beta, d.mixed.values())),
        kp_zero_inside=all(d.types[i - 1][-1] == 0 for i in inner))
    assert r.passed


def test_factor_permutation_stability_mod_filtration():
    # permuting the factors of a basis product moves it only deeper in the
    # filtration, checked by direct expansion at p=3, dim 2
    p, dim = 3, 2
    d = pbw_basis(p, dim)
    for i in range(1, d.m + 1):
        below, piv = rref_mod(d.filtration_vectors(i + 1) if i < d.m else [],
                              d.n_tensor, p)
        for e in d.classes[i - 1]:
            base = _dense(d.factor_terms(e.factors), d.n_tensor)
            for perm in permutations(e.factors):
                v = _dense(d.factor_terms(perm), d.n_tensor)
                diff = [(a - b) % p for a, b in zip(v, base)]
                assert in_span_mod(below, piv, diff, p)


def test_maps_commute_with_derivation():
    # alpha, beta, sigma are module maps for any generator-level action
    p, dim = 3, 2
    d = pbw_basis(p, dim)
    f = GF(p)
    rng = random.Random(41)
    images = {}
    for i in range(dim):
        for var in ("x",):
            images[(i, var)] = {j: rng.randint(0, p - 1) for j in range(dim)}
    spec = ActionSpec(d.alphabet, ("x",), images)

    def derive_vector(vec):
        out = [0] * d.n_tensor
        for i, w in enumerate(product(range(d.dim), repeat=p)):
            c = vec[i] % p
            if not c:
                continue
            for pos, letter in enumerate(w):
                for j, k in spec.image(letter, "x").items():
                    w2 = w[:pos] + (j,) + w[pos + 1:]
                    out[_numeral(w2, d.dim)] = (out[_numeral(w2, d.dim)] + c * k) % p
        return out

    def derive_mixed(vec):
        idx = dict(d.mixed)
        rev = {i: key for key, i in idx.items()}
        out = [0] * len(idx)

        def bump(key, val):
            out[idx[key]] = (out[idx[key]] + val) % p

        for i, c in enumerate(vec):
            c %= p
            if not c:
                continue
            a, mult = rev[i]
            for j, k in spec.image(a, "x").items():
                bump((j, mult), c * k)
            for pos in range(len(mult)):
                letter = mult[pos]
                if pos and mult[pos - 1] == letter:
                    continue
                count = mult.count(letter)
                rest = mult[:pos] + mult[pos + 1:]
                for j, k in spec.image(letter, "x").items():
                    bump((a, tuple(sorted(rest + (j,)))), c * k * count)
        return out

    # alpha and beta commute with the action
    for i in range(d.n_tensor):
        unit = [1 if k == i else 0 for k in range(d.n_tensor)]
        assert alpha_vector(d, derive_vector(unit)) == derive_mixed(alpha_vector(d, unit))
    idx = dict(d.mixed)
    for key in idx:
        unit = [0] * len(idx)
        unit[idx[key]] = 1
        left = derive_vector(beta_vector(d, key))
        right_mixed = derive_mixed(unit)
        right = [0] * d.n_tensor
        for k2, pos in idx.items():
            c = right_mixed[pos]
            if c:
                bv = beta_vector(d, k2)
                right = [(a + c * b) % p for a, b in zip(right, bv)]
        assert left == right
