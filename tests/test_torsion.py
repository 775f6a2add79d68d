"""The rank-2 torsion engine: bases, action matrices, cokernels, theorem
elements, and the kernel of the metabelian projection.

The degree-2 action matrix is cross-checked against a standalone pair-level
Leibniz oracle that never touches the package's normal-form machinery.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lietorsion import torsion, zlinalg
from lietorsion.elements import (ZZ, DomainError, IntegralityError, LieElement,
                                 TensorElement, leftnormed_tensor, lie_from_tensor,
                                 lyndon_monomial, normal_form, to_tensor)
from lietorsion.maps import (MetabelianElement, MixedElement, derive, eta,
                             metabelian_normal_coords, metabelian_of_word,
                             mixed_basis, mu, peel_strict_keys, theta)
from lietorsion.torsion import (TorsionEngine, a_generator, a_generators,
                                action_matrix, bp_freeness_check, bp_kernel_basis,
                                graded_cokernel, lie_power_basis,
                                metabelian_torsion_check, st_of, theorem_element,
                                torsion_report, verify_theorem_degree)
from lietorsion.zlinalg import (CokernelStructure, IntLattice, Presentation,
                                cokernel_structure, integer_kernel,
                                solve_left, transpose)
from snf_oracle import dense_snf


def test_a_generators_examples():
    assert [g.name for g in a_generators(2)] == ["u(0,0)"]
    assert [g.name for g in a_generators(3)] == ["u(0,0)", "u(0,1)", "u(1,0)"]
    for n in range(2, 9):
        exact = [g for g in a_generators(n) if g.weight == n]
        assert len(exact) == n - 1
    g = a_generator(2, 1)
    assert g.multidegree == (3, 2) and st_of(g) == (2, 1)
    with pytest.raises(ValueError):
        a_generator(-1, 0)


def test_lie_power_basis_examples():
    basis = lie_power_basis(2, 6)
    names = [repr(w) for w in basis]
    assert len(basis) == 4
    assert set(names) == {"u(0,0).u(0,2)", "u(0,0).u(1,1)", "u(0,0).u(2,0)",
                          "u(0,1).u(1,0)"}
    assert lie_power_basis(2, 4) == []
    assert lie_power_basis(5, 10) == []
    assert lie_power_basis(2, 3) == []


def pair_oracle_rows(d):
    """Degree-d relations for p=2 via elementary pair bookkeeping."""
    def gens_of_degree(n):
        return [(s, n - 2 - s) for s in range(n - 1)]

    def order_key(g):
        return (g[0] + g[1] + 2, g[0])

    def basis(n):
        out = []
        all_gens = [g for m in range(2, n - 1) for g in gens_of_degree(m)]
        for i, a in enumerate(all_gens):
            for b in all_gens[i + 1:]:
                if (a[0] + a[1]) + (b[0] + b[1]) + 4 == n:
                    out.append(tuple(sorted((a, b), key=order_key)))
        return sorted(out, key=lambda p: (order_key(p[0]), order_key(p[1])))

    def bump(coeffs, a, b, c):
        if a == b:
            return
        key, sign = ((a, b), c) if order_key(a) < order_key(b) else ((b, a), -c)
        coeffs[key] = coeffs.get(key, 0) + sign

    rows = []
    target = basis(d)
    index = {w: i for i, w in enumerate(target)}
    for (a, b) in basis(d - 1):
        for var in (0, 1):
            coeffs = {}
            for first, second in ((a, b), (b, a)):
                moved = (first[0] + (1 - var), first[1] + var)
                if first is a:
                    bump(coeffs, moved, b, 1)
                else:
                    bump(coeffs, a, moved, 1)
            row = [0] * len(target)
            for key, c in coeffs.items():
                row[index[key]] = c
            rows.append(row)
    return rows, len(target)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_action_matrix_against_pair_oracle(d):
    rows, n = pair_oracle_rows(d)
    got = action_matrix(2, d)
    assert cokernel_structure(got, n) == cokernel_structure(rows, n)
    # same row set up to sign and order
    canon = lambda m: sorted(tuple(r) if (r > [-x for x in r]) else tuple(-x for x in r)
                             for r in m if any(r))
    assert canon(got) == canon(rows)


def test_action_matrix_shapes():
    assert action_matrix(2, 5) == []
    assert len(lie_power_basis(2, 5)) == 2


@pytest.mark.parametrize("p,top", [(2, 16), (3, 15), (5, 15)])
def test_graded_cokernel_matches_dense_kernel(p, top):
    # the sparse presentation against the dense kernel on the whole matrix
    engine = TorsionEngine(p, top)
    for d in range(2 * p, top + 1):
        n = len(engine.lie_basis(d))
        ds = dense_snf(engine.action_matrix(d), n)
        want = CokernelStructure(n - len(ds), tuple(q for q in ds if q > 1))
        assert engine.graded_cokernel(d) == want, (p, d)


def whole_degree_cokernel(engine, d, side):
    # the former TorsionEngine.presentation and metabelian_presentation:
    # every relation row of the degree eliminated at once
    basis, row = {"lie": (engine.lie_basis, engine.derived_row),
                  "metabelian": (engine.normal_basis, engine.metabelian_row)}[side]
    rows = [row(word, var) for word in basis(d - 1) for var in ("x", "y")]
    return Presentation(rows, len(basis(d))).cokernel


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 15), (7, 16), (4, 12), (6, 14)])
def test_graded_cokernel_matches_whole_degree_presentation(p, top):
    engine = TorsionEngine(p, top)
    for side in ("lie", "metabelian"):
        for d in range(2 * p, top + 1):
            want = whole_degree_cokernel(engine, d, side)
            assert engine.graded_cokernel(d, side) == want, (side, p, d)
            blocks = engine.bigrading(d, side)[0]
            for a, cols in blocks.items():
                # both halves built directly: swapping x and y is an isomorphism
                assert len(blocks[d - a]) == len(cols), (side, p, d, a)
                assert (engine.block(d, a, side).cokernel
                        == engine.block(d, d - a, side).cokernel), (side, p, d, a)


def test_only_the_freeness_check_presents_a_whole_degree(monkeypatch):
    # both sides of the metabelian check go block by block, so no
    # Presentation is as wide as a degree; the freeness check presents each
    # degree's Lie columns whole, through cokernel_structure
    widths = []
    real = zlinalg.Presentation

    def spy(rows, ncols):
        widths.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(torsion, "Presentation", spy)
    monkeypatch.setattr(zlinalg, "Presentation", spy)
    engine = TorsionEngine(3, 14)
    assert engine.metabelian_torsion_check(14).passed
    whole = min(len(engine.lie_basis(14)), len(engine.normal_basis(14)))
    assert widths and max(widths) < whole, (widths, whole)
    widths.clear()
    assert engine.bp_freeness_check(14).passed
    assert widths == [len(engine.lie_basis(d)) for d in range(6, 15)]


def test_graded_cokernel_combines_blocks_into_invariant_factors(monkeypatch):
    # Z/2 in block (7,9), so in its mirror (9,7) too, and Z/3 in the middle
    # block (8,8): the degree is Z/2 + Z/6, whose invariant factors are (2, 6)
    engine = TorsionEngine(6, 16)
    assert sorted(engine.bigrading(16)[0]) == [6, 7, 8, 9, 10]
    fake = {6: CokernelStructure(1, ()), 7: CokernelStructure(2, (2,)),
            8: CokernelStructure(3, (3,))}
    monkeypatch.setattr(engine, "block",
                        lambda d, a, side: SimpleNamespace(cokernel=fake[a]))
    assert engine.graded_cokernel(16) == CokernelStructure(2 * 1 + 2 * 2 + 3, (2, 6))


def test_bigrading_partitions_the_basis_in_order():
    engine = TorsionEngine(3, 14)
    for side, bases in (("lie", engine.lie_basis), ("metabelian", engine.normal_basis)):
        for d in range(6, 15):
            basis = bases(d)
            blocks, where = engine.bigrading(d, side)
            assert sorted(j for cols in blocks.values() for j in cols) == list(range(len(basis)))
            for a, cols in blocks.items():
                assert cols == sorted(cols)
                for i, j in enumerate(cols):
                    assert engine.alphabet.word_multidegree(basis[j]) == (a, d - a)
                    assert where[j] == (a, i)
    with pytest.raises(KeyError):
        engine.graded_cokernel(14, "tensor")
    s, t = 1, 1
    vec = engine.theorem_vector(s, t, 14)
    a = engine.theorem_block(s, t)
    assert engine.alphabet.word_multidegree(engine.theorem_word(s, t)) == (a, 14 - a)
    with pytest.raises(ValueError, match="outside the block"):
        torsion._in_block(engine.bigrading(14)[1], 14, a + 1, vec)


def mobius(n):
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def witt_block_ranks(c, top):
    """{(a, b): Lie rank} and {(a, b): free rank} of the blocks of L^c(A) of
    degree a + b <= top, as integer power series in X and Y.

    ch L^c(A) = (1/c) sum over k | c of mu(k) psi^k(ch A)^(c/k), where
    ch A = XY/((1-X)(1-Y)) has one generator u(s,t) in each bidegree
    (s+1, t+1) and psi^k(X^i Y^j) = X^(ki) Y^(kj).  Over Q, L^c(A) is a
    direct summand of A^(x)c, which is free over Q[x, y], so the free rank
    of a block is the coefficient of (1-X)(1-Y) ch L^c(A).
    """
    def times(f, g):
        out = {}
        for (a, b), u in f.items():
            for (a2, b2), v in g.items():
                if a + a2 + b + b2 <= top:
                    out[a + a2, b + b2] = out.get((a + a2, b + b2), 0) + u * v
        return out

    series = {}
    for k in (k for k in range(1, c + 1) if c % k == 0):
        psi = {(k * i, k * j): 1 for i in range(1, top) for j in range(1, top)
               if k * (i + j) <= top}
        power = {(0, 0): 1}
        for _ in range(c // k):
            power = times(power, psi)
        for key, u in power.items():
            series[key] = series.get(key, 0) + mobius(k) * u
    assert all(u % c == 0 for u in series.values())
    lie = {key: u // c for key, u in series.items() if u}
    free = {(a, b): lie[a, b] - lie.get((a - 1, b), 0) - lie.get((a, b - 1), 0)
            + lie.get((a - 1, b - 1), 0) for a, b in lie}
    return lie, free


@pytest.mark.parametrize("c,top", [(2, 14), (3, 17), (5, 17), (4, 14)])
def test_block_ranks_match_witt_series(c, top):
    lie, free = witt_block_ranks(c, top)
    engine = TorsionEngine(c, top)
    for d in range(2 * c, top + 1):
        blocks = engine.bigrading(d)[0]
        assert ({(a, d - a): len(cols) for a, cols in blocks.items()}
                == {key: n for key, n in lie.items() if sum(key) == d}), (c, d)
        for a in blocks:
            assert engine.block(d, a).cokernel.free_rank == free[a, d - a], (c, d, a)
        assert engine.graded_cokernel(d).free_rank == sum(
            n for key, n in free.items() if sum(key) == d), (c, d)


def _key(row):
    return tuple(sorted(row.items()))


@pytest.mark.parametrize("p,d", [(2, 16), (3, 17), (5, 16), (7, 16), (4, 14), (6, 16),
                                 (11, 24)])
def test_pruned_blocks_match_the_unpruned_rows(monkeypatch, p, d):
    # each block of degree d against every x- and y-image of the degree
    # below, built here (test_graded_cokernel_matches_whole_degree_presentation
    # compares the lower degrees' cokernels)
    given = []
    real = torsion.Presentation
    monkeypatch.setattr(torsion, "Presentation",
                        lambda rows, ncols: given.append(rows) or real(rows, ncols))
    lie = witt_block_ranks(p, d)[0]
    engine = TorsionEngine(p, d)
    checked = 0
    for side, row, lead in (("lie", engine.derived_row, min),
                            ("metabelian", engine.metabelian_row, max)):
        basis = engine.lie_basis if side == "lie" else engine.normal_basis

        def images(e, var, a0, a):
            # the var-images of block (a0, e-a0) in the block (a, e+1-a)
            where = engine.bigrading(e + 1, side)[1]
            return [torsion._in_block(where, e + 1, a, row(basis(e)[col], var))
                    for col in engine.bigrading(e, side)[0].get(a0, ())]

        for a, cols in engine.bigrading(d, side)[0].items():
            b, n = d - a, len(cols)
            xs, ys = images(d - 1, "x", a - 1, a), images(d - 1, "y", a, a)
            pres = engine.block(d, a, side)
            rows = given.pop()
            assert pres.cokernel == real(xs + ys, n).cokernel, (side, p, d, a)
            kept = {_key(r) for r in rows}
            assert {_key(r) for r in ys} <= kept
            dropped = [i for i, r in enumerate(xs) if _key(r) not in kept]
            assert all(xs[i] in pres for i in dropped), (side, p, d, a)
            # the dropped x-rows are the leading columns, each with
            # coefficient 1, of the y-images of block (a-1, b-1)
            leads = [(lead(r), r[lead(r)]) for r in images(d - 2, "y", a - 1, a - 1)]
            assert sorted(leads) == [(i, 1) for i in dropped], (side, p, d, a)
            count = len(xs) - len(dropped) + len(ys)
            assert len(rows) == count
            if side == "lie":
                assert count == (lie.get((a - 1, b), 0) + lie.get((a, b - 1), 0)
                                 - lie.get((a - 1, b - 1), 0)), (p, d, a)
            # no row reduces to zero and the core rows are independent,
            # so the row count is the block's rank
            assert len(pres.pivots) + len(pres.core) == count, (side, p, d, a)
            assert len(pres.snf.divisors) == count == n - pres.cokernel.free_rank
            checked += 1
    assert checked and not given


def test_graded_cokernel_examples():
    assert graded_cokernel(2, 6).free_rank == 0
    assert graded_cokernel(2, 6).torsion == (2,)
    ck5 = graded_cokernel(2, 5)
    assert ck5.free_rank == 2 and ck5.torsion == ()
    assert graded_cokernel(3, 8).torsion == (3,)


@pytest.mark.parametrize("p,d", [(2, 6), (2, 7), (2, 8), (2, 10), (3, 8),
                                 (3, 11), (5, 12)])
def test_bigraded_blocks_match_global(p, d):
    engine = TorsionEngine(p, d)
    basis = engine.lie_basis(d)
    rows = engine.action_matrix(d)
    global_ck = cokernel_structure(rows, len(basis))
    # split columns by ambient bidegree; the action matrix respects the split
    bidegree = [engine.alphabet.word_multidegree(w) for w in basis]
    blocks = sorted(set(bidegree))
    free_total = 0
    torsion_total = []
    for blk in blocks:
        cols = [j for j, b in enumerate(bidegree) if b == blk]
        sub = []
        for row in rows:
            if any(row[j] for j in cols):
                assert all(row[j] == 0 for j in range(len(basis)) if j not in cols)
                sub.append([row[j] for j in cols])
        ck = cokernel_structure(sub, len(cols))
        free_total += ck.free_rank
        torsion_total.extend(ck.torsion)
    assert free_total == global_ck.free_rank
    assert sorted(torsion_total) == sorted(global_ck.torsion)


def test_theorem_element_examples():
    engine = TorsionEngine(2, 6)
    ab = engine.alphabet
    e = engine.theorem_element(0, 0)
    expected = normal_form(ab, (ab.generators[ab.index("u(0,1)")],
                                ab.generators[ab.index("u(1,0)")]))
    assert e == expected

    engine3 = TorsionEngine(3, 8)
    ab3 = engine3.alphabet
    e3 = engine3.theorem_element(0, 0)
    tree = ((ab3.generators[ab3.index("u(0,1)")], ab3.generators[ab3.index("u(1,0)")]),
            ab3.generators[ab3.index("u(0,0)")])
    assert e3 == normal_form(ab3, tree)

    engine8 = TorsionEngine(2, 8)
    ab8 = engine8.alphabet
    e8 = engine8.theorem_element(1, 0)
    expected8 = normal_form(ab8, (ab8.generators[ab8.index("u(1,1)")],
                                  ab8.generators[ab8.index("u(2,0)")]))
    assert e8 == expected8
    assert set(map(len, e8.terms)) == {2}
    assert engine8.alphabet.word_weight(next(iter(e8.terms))) == 8


def hand_theorem_element(engine, s, t):
    # the double sum over the p-1 placements of vx among the u's, written out
    # by hand and divided by p
    p, ab = engine.p, engine.alphabet
    u, vx, vy = (ab.index(f"u({a},{b})") for a, b in ((s, t), (s + 1, t), (s, t + 1)))
    acc = {}
    for i in range(p - 1):
        for word, sign in (((vy,) + (u,) * i + (vx,) + (u,) * (p - 2 - i), 1),
                           ((vx,) + (u,) * i + (vy,) + (u,) * (p - 2 - i), -1)):
            for w, k in leftnormed_tensor(word).items():
                acc[w] = acc.get(w, 0) + sign * k
    acc = {w: c for w, c in acc.items() if c}
    return lie_from_tensor(TensorElement(ab, ZZ, acc, _clean=True)).divided_by(p)


@pytest.mark.parametrize("p,s,t", [(2, 0, 0), (2, 1, 2), (3, 0, 0), (3, 1, 0),
                                   (5, 0, 1), (7, 0, 0)])
def test_theorem_element_matches_hand_double_sum(p, s, t):
    engine = TorsionEngine(p, p * (s + t + 2) + 2)
    e = engine.theorem_element(s, t)
    assert e == hand_theorem_element(engine, s, t)
    assert e.terms


def test_theorem_element_requires_prime():
    with pytest.raises(ValueError):
        theorem_element(4, 0, 0)


def test_verify_theorem_degree_examples():
    r = verify_theorem_degree(2, 6)
    assert (r.theorem_count, r.all_order_p, r.independent, r.spanning) == (1, True, True, True)
    assert r.cokernel.torsion == (2,)

    r7 = verify_theorem_degree(2, 7)
    assert r7.theorem_count == 0 and r7.cokernel.torsion == () and r7.spanning

    r38 = verify_theorem_degree(3, 8)
    assert r38.theorem_count == 1 and r38.passed


def _theorem_report_3_14(monkeypatch, **patches):
    # d=14 at p=3 has three theorem vectors, one per block, and torsion 3^3
    engine = TorsionEngine(3, 14)
    assert len(engine.theorem_indices(14)) == 3
    for name, patch in patches.items():
        monkeypatch.setattr(engine, name, patch(getattr(engine, name)))
    return engine.verify_theorem_degree(14)


def test_verify_theorem_degree_refuses_vectors_of_order_one(monkeypatch):
    # 3 times a vector of order 3 is zero in the cokernel
    r = _theorem_report_3_14(monkeypatch, theorem_vector=lambda real: lambda s, t, d: {
        j: 3 * c for j, c in real(s, t, d).items()})
    assert not (r.all_order_p or r.independent or r.spanning or r.passed)


def test_verify_theorem_degree_refuses_a_zero_vector_beside_one_of_order_p_squared(monkeypatch):
    # orders (9, 1, 3): the s=0 block made Z/9 with its vector of order 9, and
    # the s=1 vector scaled by 3; the product is 3^3, but one vector is zero
    engine = TorsionEngine(3, 14)
    a0 = engine.theorem_block(0, 2)
    where = engine.bigrading(14)[1]
    vec = torsion._in_block(where, 14, a0, engine.theorem_vector(0, 2, 14))
    j0 = next(j for j, c in vec.items() if c % 3)
    width = len(engine.bigrading(14)[0][a0])
    z9 = Presentation([{j: 9 if j == j0 else 1} for j in range(width)], width)
    assert z9.cokernel == CokernelStructure(0, (9,)) and z9.order(vec) == 9
    block, vector = engine.block, engine.theorem_vector
    monkeypatch.setattr(engine, "block", lambda d, a, side="lie": (
        z9 if a == a0 else block(d, a, side)))
    monkeypatch.setattr(engine, "theorem_vector", lambda s, t, d: (
        {j: 3 * c for j, c in vector(s, t, d).items()} if s == 1 else vector(s, t, d)))
    orders = [engine.block(14, engine.theorem_block(s, t)).order(
        torsion._in_block(where, 14, engine.theorem_block(s, t), engine.theorem_vector(s, t, 14)))
        for s, t in engine.theorem_indices(14)]
    assert orders == [9, 1, 3]
    r = engine.verify_theorem_degree(14)
    assert not (r.all_order_p or r.independent or r.spanning or r.passed)


def test_verify_theorem_degree_refuses_torsion_outside_the_span(monkeypatch):
    # one more Z/3 than the three vectors generate
    r = _theorem_report_3_14(monkeypatch, graded_cokernel=lambda real: lambda d: (
        CokernelStructure(real(d).free_rank, real(d).torsion + (3,))))
    assert r.all_order_p and r.independent
    assert not r.spanning and not r.passed


def test_verify_theorem_degree_refuses_a_vector_it_could_not_build(monkeypatch):
    def theorem_vector(real):
        def vector(s, t, d):
            if s == 0:
                raise IntegralityError("no integral theorem vector")
            return real(s, t, d)
        return vector

    r = _theorem_report_3_14(monkeypatch, theorem_vector=theorem_vector)
    assert r.all_order_p and r.independent
    assert not (r.integrality_passed or r.spanning or r.passed)


def test_theorem_count_index_arithmetic():
    engine = TorsionEngine(2, 12)
    for d in range(4, 13):
        count = len(engine.theorem_indices(d))
        if d % 2 == 0 and d >= 6:
            assert count == (d - 2) // 2 - 1
        else:
            assert count == 0


@pytest.mark.parametrize("p,top,expected", [
    (2, 10, {6: 1, 8: 2, 10: 3}),
    (3, 11, {8: 1, 11: 2}),
    (5, 12, {12: 1}),
])
def test_torsion_report_tables(p, top, expected):
    for r in torsion_report(p, top):
        want = expected.get(r.degree, 0)
        assert len(r.cokernel.torsion) == want, (p, r.degree)
        assert all(q == p for q in r.cokernel.torsion)
        assert r.theorem_count == want
        assert r.passed


def test_composite_modulus_reports():
    engine = TorsionEngine(4, 10)
    for r in engine.torsion_report(10):
        assert not r.theorem_checked
        assert r.passed  # no theorem flags asserted
    # the computation itself still runs and produces cokernels
    assert engine.graded_cokernel(10).free_rank >= 0


@pytest.mark.parametrize("p,d,rank", [(2, 6, 1), (2, 5, 0), (2, 8, 2), (3, 8, 1)])
def test_metabelian_torsion_check(p, d, rank):
    r = metabelian_torsion_check(p, d)
    assert r.ranks_agree and r.theta_matches
    assert len(r.lie_torsion) == rank and len(r.metabelian_torsion) == rank
    assert r.units == (1,) * rank


def test_bp_kernel_trivial_at_2_and_3():
    for p, top in ((2, 10), (3, 11)):
        engine = TorsionEngine(p, top)
        for d in range(2 * p, top + 1):
            assert engine.bp_kernel_basis(d) == []


def test_bp_kernel_p5():
    engine = TorsionEngine(5, 12)
    assert engine.bp_kernel_basis(11) == []
    assert len(engine.lie_basis(11)) == 2
    assert len(engine.normal_basis(11)) == 2
    # kernel rank equals lie rank minus normal-word rank at each degree
    k12 = engine.bp_kernel_basis(12)
    assert len(k12) == len(engine.lie_basis(12)) - len(engine.normal_basis(12))
    assert len(k12) == 4


def bp_kernel_by_dense_path(engine, d):
    # the former body of bp_kernel_basis: dense eta rows, transposed, and
    # the integer right kernel of the transpose
    keys = mixed_basis(engine.alphabet, engine.p, weight=d)
    col = {k: i for i, k in enumerate(keys)}
    rows = []
    for word in engine.lie_basis(d):
        row = [0] * len(keys)
        for key, c in eta(lyndon_monomial(engine.alphabet, word)).mixed.terms.items():
            row[col[key]] = c
        rows.append(row)
    return integer_kernel(transpose(rows, ncols=len(keys)), ncols=len(rows))


def test_bp_kernel_matches_dense_path():
    engine = TorsionEngine(5, 16)
    for d in range(12, 17):
        want = bp_kernel_by_dense_path(engine, d)
        assert want
        assert engine.bp_kernel_basis(d) == want


def test_bp_freeness_small():
    r = bp_freeness_check(5, 12)
    assert r.all_torsion_free and r.nonvacuous
    assert dict(r.dimensions) == {10: 0, 11: 0, 12: 4}


@pytest.mark.parametrize("p,top", [(2, 3), (3, 5), (5, 9)])
def test_bp_freeness_check_below_the_first_degree_raises(p, top):
    # no degree below 2p is checked, so such a report would pass vacuously
    with pytest.raises(ValueError, match="below the first degree"):
        bp_freeness_check(p, top)
    with pytest.raises(ValueError, match="below the first degree"):
        TorsionEngine(p, 2 * p).bp_freeness_check(top)


def test_sweeps_past_the_engine_degree_raise():
    # the alphabet is cut at the engine's max_degree, so a higher top would
    # read truncated bases: freeness would pass on zero ranks
    with pytest.raises(ValueError, match="max_degree 14 is above the engine's 10"):
        TorsionEngine(5, 10).bp_freeness_check(14)
    with pytest.raises(ValueError, match="max_degree 14 is above the engine's 10"):
        TorsionEngine(3, 10).torsion_report(14)
    assert dict(TorsionEngine(5, 14).bp_freeness_check(14).dimensions)[14] == 84


@pytest.mark.parametrize("check", [
    lambda e: e.graded_cokernel(14),
    lambda e: e.graded_cokernel(14, "metabelian"),
    lambda e: e.bp_kernel_basis(14),
    lambda e: e.verify_theorem_degree(14),
    lambda e: e.metabelian_torsion_check(14),
], ids=["lie-cokernel", "metabelian-cokernel", "kernel", "theorem", "metabelian-check"])
def test_degrees_past_the_engine_degree_raise(check):
    # at TorsionEngine(5, 14) degree 14 has free rank 66 on the Lie side, 22
    # on the metabelian side and an 84-vector kernel; the cut alphabet of
    # TorsionEngine(5, 10) would answer 0, 0 and [] and pass the theorem
    with pytest.raises(ValueError, match="degree 14 is above the engine's max_degree 10"):
        check(TorsionEngine(5, 10))


def test_bp_freeness_check_refuses_an_image_eta_does_not_kill(monkeypatch):
    # eta made injective at degree 13: the kernel there is 0, but the
    # degree-12 kernel's images under x and y are not
    engine = TorsionEngine(5, 13)
    real = engine.eta_matrix

    def injective_at_13(d):
        if d < 13:
            return real(d)
        n = len(engine.lie_basis(d))
        return [{i: 1} for i in range(n)], n

    monkeypatch.setattr(engine, "eta_matrix", injective_at_13)
    with pytest.raises(AssertionError, match="kernel is not action stable"):
        engine.bp_freeness_check(13)


def test_report_wrapper_functions():
    assert len(bp_kernel_basis(5, 11)) == 0
    r = verify_theorem_degree(5, 12)
    assert r.cokernel.torsion == (5,) and r.theorem_count == 1 and r.passed


def test_torsion_beyond_acceptance_schedule():
    # degree 12 at p=2 gains a fourth independent generator
    r = verify_theorem_degree(2, 12)
    assert r.theorem_count == 4
    assert r.cokernel.torsion == (2, 2, 2, 2)
    assert r.passed


def test_action_variables_commute():
    from lietorsion.elements import lyndon_monomial
    from lietorsion.maps import derive

    engine = TorsionEngine(3, 9)
    act = engine.action
    for w in engine.lie_basis(7):
        e = lyndon_monomial(engine.alphabet, w)
        xy = derive(derive(e, "x", act), "y", act)
        yx = derive(derive(e, "y", act), "x", act)
        assert xy == yx


def tensor_round_trip_coords(engine, word, var):
    # the former path of derived_coords: expand, Leibniz on every tensor
    # word, peel the result back to Lyndon coordinates
    e = lyndon_monomial(engine.alphabet, word)
    return lie_from_tensor(derive(to_tensor(e), var, engine.action)).terms


@pytest.mark.parametrize("p,top", [(2, 16), (3, 15), (5, 15), (7, 16)])
def test_derived_coords_match_tensor_round_trip(p, top):
    engine = TorsionEngine(p, top)
    oracle = TorsionEngine(p, top)      # its own alphabet, so its own memo
    checked = 0
    for d in range(2 * p + 1, top + 1):
        index = {w: i for i, w in enumerate(engine.lie_basis(d))}
        for word in engine.lie_basis(d - 1):
            for var in ("x", "y"):
                want = tensor_round_trip_coords(oracle, word, var)
                assert engine.derived_coords(word, var) == want
                assert engine.derived_row(word, var) == {index[w]: c for w, c in want.items()}
                checked += 1
    assert checked


def test_derived_coords_at_the_degree_cut_raise_value_error():
    engine = TorsionEngine(3, 9)
    top = max(range(len(engine.alphabet)), key=lambda i: engine.alphabet[i].weight)
    word = next(w for w in engine.lie_basis(9) if top in w)
    for var in ("x", "y"):
        with pytest.raises(KeyError, match="is not defined"):
            tensor_round_trip_coords(engine, word, var)
        for _ in range(2):      # nothing half-built is cached
            with pytest.raises(ValueError, match="above the engine's max_degree 9"):
                engine.derived_coords(word, var)


def freeness_by_tensor_round_trip(p, top):
    # the former body of bp_freeness_check: each kernel vector as a Lie
    # element, derived through the tensor ring, then solved in the kernel's
    # basis by solve_left
    engine = TorsionEngine(p, top)
    kernels = {d: engine.bp_kernel_basis(d) for d in range(2 * p, top + 1)}
    torsion_found = []
    for d in range(2 * p, top + 1):
        k_d = kernels[d]
        index = {w: i for i, w in enumerate(engine.lie_basis(d))}
        rows = []
        for v in kernels.get(d - 1, []):
            e = LieElement(engine.alphabet, ZZ,
                           [(w, c) for w, c in zip(engine.lie_basis(d - 1), v) if c])
            for var in ("x", "y"):
                vec = [0] * len(index)
                for w, c in derive(e, var, engine.action).terms.items():
                    vec[index[w]] = c
                if k_d:
                    rows.append(solve_left(k_d, vec))
                else:
                    assert not any(vec)
        torsion_found.append(cokernel_structure(rows, len(k_d)).torsion)
    return [(d, len(kernels[d])) for d in range(2 * p, top + 1)], torsion_found


@pytest.mark.parametrize("p,top", [(2, 8), (3, 9), (5, 14), (5, 15)])
def test_bp_freeness_check_matches_tensor_round_trip(p, top):
    dims, torsion_found = freeness_by_tensor_round_trip(p, top)
    r = bp_freeness_check(p, top)
    assert r.dimensions == tuple(dims)
    assert r.torsion_found == tuple(torsion_found)
    assert r.all_torsion_free == (not any(torsion_found))
    assert r.nonvacuous == any(n for _, n in dims)


@st.composite
def solver_cases(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    targets = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        shift = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        targets.append([sum(a * r[j] for a, r in zip(coeffs, rows)) + shift[j]
                        for j in range(n)])
    return rows, n, targets


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=solver_cases())
def test_solve_left_matches_lattice_and_presentation_membership(case):
    rows, n, targets = case
    lattice = IntLattice(n, rows)
    pres = Presentation(rows, n)      # membership by an independent elimination
    for target in targets:
        x = solve_left(rows, target)
        assert (x is not None) == (target in lattice)
        assert (x is not None) == (target in pres)
        if x is not None:
            assert [sum(a * r[j] for a, r in zip(x, rows)) for j in range(n)] == target


def test_solve_with_no_rows_reads_the_target_values():
    # a dict target's keys are columns, not entries: {0: 5} is not zero
    for target in ({0: 5}, [0, 5]):
        assert solve_left([], target) is None
    for target in ({}, {0: 0}, [], [0, 0]):
        assert solve_left([], target) == []


def metabelian_matrix_oracle(engine, d):
    # the former body of metabelian_matrix: each normal word as a
    # MetabelianElement, derived as a MixedElement, read back by
    # metabelian_normal_coords into a dense row; every row is also checked
    # against mu of its coordinates, so the oracle does not rest on the peel
    basis = engine.normal_basis(d)
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for word in engine.normal_basis(d - 1):
        m = metabelian_of_word(engine.alphabet, word)
        for var in ("x", "y"):
            dm = derive(m, var, engine.action)
            row = [0] * len(basis)
            back = {}
            for w, c in metabelian_normal_coords(dm).items():
                row[index[w]] = c
                for key, k in mu(w, alphabet=engine.alphabet).terms.items():
                    back[key] = back.get(key, 0) + c * k
            assert {k: c for k, c in back.items() if c} == dm.mixed.terms
            rows.append(row)
    return rows


@pytest.mark.parametrize("p,top", [(2, 16), (3, 14), (5, 15), (7, 16), (4, 12)])
def test_metabelian_rows_match_dense_oracle(p, top):
    engine = TorsionEngine(p, top)
    checked = 0
    for d in range(2 * p, top + 1):
        n = len(engine.normal_basis(d))
        want = metabelian_matrix_oracle(engine, d)
        rows = [engine.metabelian_row(word, var)
                for word in engine.normal_basis(d - 1) for var in ("x", "y")]
        assert [[row.get(j, 0) for j in range(n)] for row in rows] == want, (p, d)
        assert all(list(row) == sorted(row) and all(row.values()) for row in rows)
        assert engine.metabelian_matrix(d) == want
        ds = dense_snf(want, n)
        coker = CokernelStructure(n - len(ds), tuple(q for q in ds if q > 1))
        for a in engine.bigrading(d, "metabelian")[0]:
            pres = engine.block(d, a, "metabelian")
            assert pres is engine.block(d, a, "metabelian")
        assert engine.graded_cokernel(d, "metabelian") == coker, (p, d)
        checked += len(rows)
    assert checked


def metabelian_check_by_dense_path(p, d):
    # the former body of metabelian_torsion_check: dense matrices and dense
    # vectors throughout, on an engine of its own
    engine = TorsionEngine(p, max(d, 2 * p))
    lie = engine.action_matrix(d)
    n = len(engine.lie_basis(d))
    l_coker = cokernel_structure(lie, n)
    m_coker = cokernel_structure(metabelian_matrix_oracle(engine, d),
                                 len(engine.normal_basis(d)))
    index = {w: i for i, w in enumerate(engine.lie_basis(d))}
    units = []
    for s, t in engine.theorem_indices(d):
        vec, target = [0] * n, [0] * n
        for w, c in theta(metabelian_of_word(engine.alphabet,
                                             engine.theorem_word(s, t))).terms.items():
            vec[index[w]] = c
        for w, c in engine.theorem_element(s, t).terms.items():
            target[index[w]] = c
        units.append(next((a for a in range(1, p) if cokernel_structure(
            lie + [[x - a * y for x, y in zip(vec, target)]], n) == l_coker), None))
    return l_coker.torsion, m_coker.torsion, units


@pytest.mark.parametrize("p,d", [(2, 8), (2, 12), (3, 11), (3, 14), (5, 12), (7, 16)])
def test_metabelian_torsion_check_matches_dense_path(p, d):
    lie_torsion, m_torsion, units = metabelian_check_by_dense_path(p, d)
    r = metabelian_torsion_check(p, d)
    assert (r.lie_torsion, r.metabelian_torsion) == (lie_torsion, m_torsion)
    assert r.units == tuple(units)
    assert r.passed and None not in units


@pytest.mark.parametrize("p,d,units", [(7, 16, (2,)), (5, 17, (2, 2))])
def test_metabelian_torsion_check_finds_a_unit_other_than_one(monkeypatch, p, d, units):
    # theta's image doubled is twice the theorem vector, so the unit is 2; a
    # difference of merely finite order must not be taken for zero
    monkeypatch.setattr(torsion, "theta", lambda m: 2 * theta(m))
    r = metabelian_torsion_check(p, d)
    assert r.theta_matches and r.units == units


@pytest.mark.parametrize("p,d", [(7, 16), (5, 17)])
def test_metabelian_torsion_check_refuses_a_zero_image(monkeypatch, p, d):
    # p times theta's image is zero in the cokernel: no unit times the
    # theorem vector, which has order p, matches it
    monkeypatch.setattr(torsion, "theta", lambda m: p * theta(m))
    r = metabelian_torsion_check(p, d)
    assert r.ranks_agree and not r.theta_matches and not r.passed


def test_strict_key_peel_refuses_terms_outside_the_image_of_mu():
    engine = TorsionEngine(3, 12)
    ab = engine.alphabet
    word = engine.normal_basis(11)[0]
    terms = mu(word, alphabet=ab).terms
    assert peel_strict_keys(dict(terms)) == {word: 1}
    strict = next(k for k in terms if k[0] > k[1][0])
    for bad in ({strict: 1}, {k: 1 for k in terms if k != strict},
                {**terms, strict: 2}):
        with pytest.raises(DomainError, match="not in the image of mu"):
            peel_strict_keys(dict(bad))
        with pytest.raises(DomainError, match="not in the image of mu"):
            metabelian_normal_coords(
                MetabelianElement(3, MixedElement(ab, ZZ, bad)))
