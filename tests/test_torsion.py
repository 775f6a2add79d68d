"""The rank-2 torsion engine: bases, action matrices, cokernels, theorem
elements, and the kernel of the metabelian projection.

The degree-2 action matrix is cross-checked against a standalone pair-level
Leibniz oracle that never touches the package's normal-form machinery.
"""

import functools
import os
import subprocess
import sys
from math import factorial, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lietorsion import torsion, zlinalg
from lietorsion.elements import (ZZ, DomainError, IntegralityError, LieElement,
                                 TensorElement, _expand_lyndon, _lyndon_pairs,
                                 leftnormed_tensor, lie_from_tensor, lyndon_monomial,
                                 normal_form, to_tensor)
from lietorsion.maps import (ActionSpec, MetabelianElement, MixedElement, derive, eta,
                             metabelian_normal_coords, metabelian_of_word,
                             mixed_basis, mu, normal_words, peel_strict_keys, theta,
                             theta_presum)
from lietorsion.torsion import (TorsionEngine, a_generator, a_generators,
                                action_matrix, bp_freeness_check, bp_kernel_basis,
                                graded_cokernel, lie_power_basis,
                                metabelian_torsion_check, st_of, theorem_element,
                                torsion_report, verify_theorem_degree)
from lietorsion.zlinalg import (CokernelStructure, IntLattice, Presentation, add_into,
                                cokernel_structure, integer_kernel,
                                solve_left, transpose)
from lietorsion.words import _lyndon_walk
from heap_oracle import HeapPresentation
from snf_oracle import dense_snf

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # every relation row of the degree eliminated at once, on the reference
    # path (maps.derive) in whole-degree Lyndon or normal-word columns, so no
    # block's columns or row builder enter
    basis, matrix = {"lie": (engine.lie_basis, engine.action_matrix),
                     "metabelian": (engine.normal_basis, engine.metabelian_matrix)}[side]
    n = len(basis(d))
    rows = matrix(d)
    assert all(len(r) == n for r in rows)
    return CokernelStructure(*HeapPresentation(rows, n).cokernel)


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 15), (7, 16), (4, 12), (6, 14)])
def test_graded_cokernel_matches_whole_degree_presentation(p, top):
    engine = TorsionEngine(p, top)
    for side in ("lie", "metabelian"):
        for d in range(2 * p, top + 1):
            want = whole_degree_cokernel(engine, d, side)
            assert engine.graded_cokernel(d, side) == want, (side, p, d)
            blocks = engine.bigrading(d, side)
            for a, cols in blocks.items():
                # both halves built directly: swapping x and y is an isomorphism
                assert len(blocks[d - a]) == len(cols), (side, p, d, a)
                assert (engine.block(d, a, side).cokernel
                        == engine.block(d, d - a, side).cokernel), (side, p, d, a)


def test_no_presentation_spans_a_whole_degree(monkeypatch):
    # both sides of the metabelian check and the freeness check's kernels
    # and images go block by block, so every Presentation is one block wide,
    # and the freeness check builds no whole degree's mixed basis or eta rows
    widths = []
    real = zlinalg.Presentation

    def spy(rows, ncols):
        widths.append(ncols)
        return real(rows, ncols)

    def refuse(*args, **kwargs):
        raise AssertionError("a whole degree's mixed basis was built")

    monkeypatch.setattr(torsion, "Presentation", spy)
    monkeypatch.setattr(zlinalg, "Presentation", spy)
    monkeypatch.setattr(torsion, "mixed_basis", refuse)
    engine = TorsionEngine(3, 14)
    monkeypatch.setattr(engine, "eta_matrix", refuse)
    assert engine.metabelian_torsion_check(14).passed
    assert engine.bp_freeness_check(14).passed
    blocks = {len(cols) for side in ("lie", "metabelian") for d in range(6, 15)
              for cols in engine.bigrading(d, side).values()}
    whole = min(len(engine.lie_basis(14)), len(engine.normal_basis(14)))
    assert widths and set(widths) <= blocks and max(widths) < whole, (widths, whole)


def test_graded_cokernel_combines_blocks_into_invariant_factors(monkeypatch):
    # Z/2 in block (7,9), so in its mirror (9,7) too, and Z/3 in the middle
    # block (8,8): the degree is Z/2 + Z/6, whose invariant factors are (2, 6)
    engine = TorsionEngine(6, 16)
    assert sorted(engine.bigrading(16)) == [6, 7, 8, 9, 10]
    fake = {6: CokernelStructure(1, ()), 7: CokernelStructure(2, (2,)),
            8: CokernelStructure(3, (3,))}
    monkeypatch.setattr(engine, "block",
                        lambda d, a, side: SimpleNamespace(cokernel=fake[a]))
    assert engine.graded_cokernel(16) == CokernelStructure(2 * 1 + 2 * 2 + 3, (2, 6))


def bucketed_basis(engine, d, side):
    # the whole degree's basis by one walk, block 0 of the zero grading, in
    # lexicographic order, and its words bucketed by bidegree in that order:
    # {a: {word: column}}
    if side == "lie":
        words = _lyndon_walk(engine._weight, engine.p, d, d).get(0, [])
    else:
        words = normal_words(engine.alphabet, engine.p, weight=d)
    blocks = {}
    for w in words:
        cols = blocks.setdefault(engine.alphabet.word_multidegree(w)[0], {})
        cols[w] = len(cols)
    return words, blocks


def assert_bases_match_the_full_walk(engine, d):
    for side, basis in (("lie", engine.lie_basis), ("metabelian", engine.normal_basis)):
        words, blocks = bucketed_basis(engine, d, side)
        got = engine.bigrading(d, side)
        assert list(got) == sorted(blocks), (side, d)
        assert {a: list(cols.items()) for a, cols in got.items()} == {
            a: list(cols.items()) for a, cols in blocks.items()}, (side, d)
        assert basis(d) == words, (side, d)


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 17), (7, 16)])
def test_per_bidegree_bases_match_the_full_walk(p, top):
    # each block's words, columns and order, and each whole basis, as the
    # unsplit walk and bucketing give them; the theorem checks build the
    # halves first, so a basis is also compared after its halves were built
    engine = TorsionEngine(p, top)
    for d in range(2 * p, top + 1):
        assert_bases_match_the_full_walk(engine, d)
    engine = TorsionEngine(p, top)
    for d in range(2 * p, top + 1):
        engine.graded_cokernel(d)
        engine.graded_cokernel(d, "metabelian")
        assert_bases_match_the_full_walk(engine, d)


@pytest.mark.slow
@pytest.mark.parametrize("p,d", [(5, 24), (3, 38)])
def test_per_bidegree_bases_match_the_full_walk_at_reach(p, d):
    assert_bases_match_the_full_walk(TorsionEngine(p, d), d)


def direct_theorem_reads(engine, d):
    # {(s, t): (order or "integrality", unit)}, every index read in its own
    # block, built directly even past the mirror, as the checks read them
    # before the mirror read
    reads = {}
    for s, t in engine.theorem_indices(d):
        pres = engine.block(d, engine.theorem_block(s, t))
        try:
            vec = engine.theorem_vector(s, t, d)
        except IntegralityError:
            reads[s, t] = ("integrality", None)
            continue
        image = engine.theta_vector(s, t, d)
        unit = next((u for u in range(1, engine.p) if {
            j: x for j in image | vec if (x := image.get(j, 0) - u * vec.get(j, 0))} in pres),
            None)
        reads[s, t] = (pres.order(vec), unit)
    return reads


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 17), (7, 16)])
def test_mirror_read_matches_the_past_mirror_blocks(p, top):
    for d in range(2 * p, top + 1):
        engine = TorsionEngine(p, top)
        pairs = engine.theorem_indices(d)
        if not pairs:
            continue
        report = engine.verify_theorem_degree(d)
        check = engine.metabelian_torsion_check(d)
        direct = direct_theorem_reads(TorsionEngine(p, top), d)
        # the swap u(s,t) -> -u(t,s): each index reads as its mirror
        assert all(direct[s, t] == direct[t, s] for s, t in pairs), (p, d, direct)
        orders = [q for q, _ in direct.values() if q != "integrality"]
        units = [u for q, u in direct.values() if q != "integrality"]
        independent = all(q is not None and q > 1 for q in orders)
        assert report == torsion.TorsionReport(
            p, d, report.lie_power_rank, report.cokernel, len(pairs),
            all(q == p for q in orders), independent,
            independent and prod(orders) == prod(report.cokernel.torsion),
            all(q == p for q in report.cokernel.torsion), len(orders) == len(pairs), True)
        assert report.lie_power_rank == len(engine.lie_basis(d))
        assert check.units == tuple(u for u in units if u is not None)
        assert check.theta_matches == (None not in units)
        # the mirror read's own map, against the direct reads
        assert engine._mirrored(d, lambda s, t: direct[s, t]) == [direct[k] for k in pairs]


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 17), (7, 16)])
def test_theorem_checks_build_no_block_past_the_mirror(p, top):
    for d in range(2 * p, top + 1):
        engine = TorsionEngine(p, top)
        if not engine.theorem_indices(d):
            continue
        assert engine.verify_theorem_degree(d).passed
        assert engine.metabelian_torsion_check(d).passed
        for side in ("lie", "metabelian"):
            # graded_cokernel keeps a block's cokernel and drops its echelon
            # unless it is a theorem block: the blocks built are both records'
            rec = engine._degree(d, side)
            assert max(set(rec.presentations) | set(rec.cokernels)) <= d // 2, (p, d, side)
            for e in (d, d - 1):
                assert max(engine._degree(e, side).blocks) == d // 2, (p, d, e, side)


def test_bigrading_partitions_the_basis_in_order():
    engine = TorsionEngine(3, 14)
    for side, bases in (("lie", engine.lie_basis), ("metabelian", engine.normal_basis)):
        for d in range(6, 15):
            basis = bases(d)
            blocks = engine.bigrading(d, side)
            assert sorted(w for cols in blocks.values() for w in cols) == sorted(basis)
            assert sum(map(len, blocks.values())) == len(basis)
            for a, cols in blocks.items():
                # each block numbers its words 0, 1, ... in basis order
                assert list(cols) == [w for w in basis if w in cols]
                assert list(cols.values()) == list(range(len(cols)))
                for w in cols:
                    assert engine.alphabet.word_multidegree(w) == (a, d - a)
    with pytest.raises(KeyError):
        engine.graded_cokernel(14, "tensor")
    s, t = 1, 1
    a = engine.theorem_block(s, t)
    assert engine.alphabet.word_multidegree(engine.theorem_word(s, t)) == (a, 14 - a)
    terms = engine.theorem_element(s, t).terms
    assert engine._lie_coords(terms, 14, a) == engine.theorem_vector(s, t, 14)
    with pytest.raises(ValueError, match="outside the block"):
        engine._lie_coords(terms, 14, a + 1)


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
        blocks = engine.bigrading(d)
        assert ({(a, d - a): len(cols) for a, cols in blocks.items()}
                == {key: n for key, n in lie.items() if sum(key) == d}), (c, d)
        for a in blocks:
            assert engine.block(d, a).cokernel.free_rank == free[a, d - a], (c, d, a)
        assert engine.graded_cokernel(d).free_rank == sum(
            n for key, n in free.items() if sum(key) == d), (c, d)


@pytest.mark.slow
@pytest.mark.parametrize("c,top", [(5, 24), (7, 23)])
def test_block_sizes_match_witt_series_at_reach(c, top):
    # the word walk at the reach degrees: block sizes only, no cokernels
    lie = witt_block_ranks(c, top)[0]
    engine = TorsionEngine(c, top)
    for d in (top - 1, top):
        assert ({(a, d - a): len(cols) for a, cols in engine.bigrading(d).items()}
                == {key: n for key, n in lie.items() if sum(key) == d}), (c, d)


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
        def images(e, var, a0):
            # the var-images of block (a0, e-a0), in their block's columns
            return [row(w, var) for w in engine.bigrading(e, side).get(a0, ())]

        for a, cols in engine.bigrading(d, side).items():
            b, n = d - a, len(cols)
            xs, ys = images(d - 1, "x", a - 1), images(d - 1, "y", a)
            if side == "metabelian":
                # the block presents column j as n-1-j, its leading words first
                xs, ys = ([{n - 1 - j: c for j, c in r.items()} for r in m] for m in (xs, ys))
            pres = engine.block(d, a, side)
            rows = given.pop()
            assert pres.cokernel == HeapPresentation(xs + ys, n).cokernel, (side, p, d, a)
            kept = {_key(r) for r in rows}
            assert {_key(r) for r in ys} <= kept
            dropped = [i for i, r in enumerate(xs) if _key(r) not in kept]
            assert all(xs[i] in pres for i in dropped), (side, p, d, a)
            # the dropped x-rows are the leading columns, each with
            # coefficient 1, of the y-images of block (a-1, b-1)
            leads = [(lead(r), r[lead(r)]) for r in images(d - 2, "y", a - 1)]
            assert sorted(leads) == [(i, 1) for i in dropped], (side, p, d, a)
            count = len(xs) - len(dropped) + len(ys)
            assert len(rows) == count
            if side == "lie":
                assert count == (lie.get((a - 1, b), 0) + lie.get((a, b - 1), 0)
                                 - lie.get((a - 1, b - 1), 0)), (p, d, a)
            # no row reduces to zero, so the row count is the block's rank
            assert pres._lattice.rank == len(rows) == count, (side, p, d, a)
            assert len(pres.snf.divisors) == count == n - pres.cokernel.free_rank
            checked += 1
    assert checked and not given


@pytest.mark.parametrize("p,top", [(3, 17), (5, 16)])
def test_no_engine_block_takes_the_alternating_echelons(monkeypatch, p, top):
    # every pivot of every block, on both sides, factors below the trial bound
    def refuse(lattice):
        raise AssertionError("a block reached the alternating echelons")

    monkeypatch.setattr(zlinalg, "_alternating_divisors", refuse)
    engine = TorsionEngine(p, top)
    for side in ("lie", "metabelian"):
        for d in range(2 * p, top + 1):
            for a in engine.bigrading(d, side):
                engine.block(d, a, side).snf      # refuse raises on the fallback


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


@pytest.mark.parametrize("p,s,t", [(3, 1, 0), (5, 0, 1), (7, 0, 0)])
def test_theorem_element_keeps_no_peeled_expansion(p, s, t):
    # the peel expands each peeled Lyndon word afresh and memoises none of
    # them, and the element is the one a memoised peel gives
    engine = TorsionEngine(p, p * (s + t + 2) + 2)
    e = engine.theorem_element(s, t)
    assert not engine.alphabet.memo.get("lyndon", {})
    kept = theta_presum(engine.alphabet, engine.theorem_word(s, t))
    assert engine.alphabet.memo.get("lyndon", {})
    assert e == kept.divided_by(factorial(p - 2) * p)


def test_a_action_targets_by_name():
    # the action read off the generators' names, as u(s,t)x = u(s+1,t) and
    # u(s,t)y = u(s,t+1), with the pairs past the degree cut undefined
    alphabet = torsion.a_alphabet(9)
    images = {}
    for i, g in enumerate(alphabet):
        s, t = st_of(g)
        for var, name in (("x", f"u({s + 1},{t})"), ("y", f"u({s},{t + 1})")):
            if any(h.name == name for h in alphabet):
                images[i, var] = {alphabet.index(name): 1}
    spec = torsion.a_action(alphabet)
    assert spec.table == images
    top = alphabet.index("u(3,4)")
    with pytest.raises(KeyError, match="not defined"):
        spec.image(top, "x")


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
    vec = engine.theorem_vector(0, 2, 14)
    j0 = next(j for j, c in vec.items() if c % 3)
    width = len(engine.bigrading(14)[a0])
    z9 = Presentation([{j: 9 if j == j0 else 1} for j in range(width)], width)
    assert z9.cokernel == CokernelStructure(0, (9,)) and z9.order(vec) == 9
    block, vector = engine.block, engine.theorem_vector
    monkeypatch.setattr(engine, "block", lambda d, a, side="lie": (
        z9 if a == a0 else block(d, a, side)))
    monkeypatch.setattr(engine, "theorem_vector", lambda s, t, d: (
        {j: 3 * c for j, c in vector(s, t, d).items()} if s == 1 else vector(s, t, d)))
    orders = [engine.block(14, engine.theorem_block(s, t)).order(engine.theorem_vector(s, t, 14))
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
    real = torsion._eta_word

    def injective_at_13(alphabet, word):
        if alphabet.word_weight(word) < 13:
            return real(alphabet, word)
        return {word: 1}

    monkeypatch.setattr(torsion, "_eta_word", injective_at_13)
    with pytest.raises(AssertionError, match="kernel is not action stable"):
        engine.bp_freeness_check(13)


def test_bp_freeness_check_refuses_a_wrong_kernel_below(monkeypatch):
    # eta zeroed at degree 12: the kernel there is all of L_12, whose x- and
    # y-images at 13 leave the true kernel
    engine = TorsionEngine(5, 13)
    real = torsion._eta_word

    def zero_at_12(alphabet, word):
        return {} if alphabet.word_weight(word) == 12 else real(alphabet, word)

    monkeypatch.setattr(torsion, "_eta_word", zero_at_12)
    with pytest.raises(AssertionError, match="kernel is not action stable"):
        engine.bp_freeness_check(13)


def test_bp_freeness_check_counts_each_presented_block_for_its_mirror(monkeypatch):
    # every presented block made to read Z/2: a block with a < d-a stands
    # for its mirror (d-a, a) too, so each degree reads one Z/2 per block
    class Z2(torsion.Presentation):
        cokernel = CokernelStructure(0, (2,))

    monkeypatch.setattr(torsion, "Presentation", Z2)
    engine = TorsionEngine(3, 11)
    r = engine.bp_freeness_check(11)
    assert r.torsion_found == tuple((2,) * len(engine.bigrading(d)) for d in range(6, 12))
    assert any(r.torsion_found) and not r.passed


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


@pytest.mark.parametrize("spoil", [
    # a letter image scaled by 2, and two letters sharing one x-image
    lambda table: {k: {j: 2 * c for j, c in img.items()} for k, img in table.items()},
    lambda table: {**table, (1, "x"): table[(0, "x")]},
])
def test_engine_refuses_an_action_its_lowered_word_index_cannot_read(monkeypatch, spoil):
    real = torsion.a_action

    def spoiled(alphabet):
        spec = real(alphabet)
        return ActionSpec(alphabet, spec.variables, spoil(spec.table))

    monkeypatch.setattr(torsion, "a_action", spoiled)
    with pytest.raises(ValueError):
        TorsionEngine(3, 12)


def test_blocks_drop_their_lowered_word_index():
    engine = TorsionEngine(5, 16)
    for side, basis, row in (("lie", engine.lie_basis, engine.derived_row),
                             ("metabelian", engine.normal_basis, engine.metabelian_row)):
        word = basis(15)[0]
        assert row(word, "x")
        assert engine._degree(16, side).lowered
    engine.graded_cokernel(16)
    for a in engine.bigrading(16, "metabelian"):
        engine.block(16, a, "metabelian")
    assert engine.bp_freeness_check(16).passed
    assert not any(rec.lowered for rec in engine._degrees.values())


def test_checks_keep_at_most_three_side_sums_per_theorem_index():
    # the theorem and theta vectors are read off presum tensors built from
    # memoised side sums: the theorem word (vy, vx, u^(p-2)) shares both its
    # sides with its normal words, which share their u-led side, so each
    # theorem index leaves at most 3; no left-normed word is memoised, and
    # no basis word, of length p in either degree, is expanded whole
    p, d = 5, 17
    engine = TorsionEngine(p, d)
    assert len(engine.theorem_indices(d)) == 2
    assert engine.verify_theorem_degree(d).passed
    assert engine.metabelian_torsion_check(d).passed
    memo = engine.alphabet.memo
    assert "leftnormed" not in memo
    assert 0 < len(memo["presum"]) <= 3 * len(engine.theorem_indices(d))
    weight = engine.alphabet.word_weight
    assert memo["lyndon"]
    assert not any(len(w) == p for w in memo["lyndon"])
    assert not any(weight(w) == d for w in memo["lyndon"])


def assert_no_whole_expansion_and_only_theorem_echelons(engine):
    # a relation row and a freeness kernel are read off the standard
    # factorisation's two factor expansions, so no basis word, of length p,
    # is expanded whole; graded_cokernel drops a block's echelon once its
    # cokernel is read unless it is a theorem block, and the metabelian
    # side keeps none
    p = engine.p
    assert not any(len(w) == p for w in engine.alphabet.memo.get("lyndon", {}))
    for (side, d), rec in engine._degrees.items():
        theorem = {engine.theorem_block(s, t) for s, t in engine.theorem_indices(d)}
        assert set(rec.presentations) <= (theorem if side == "lie" else set()), (side, d)


@pytest.mark.parametrize("p,top,freeness", [(2, 12, 10), (3, 14, 12), (5, 17, 15)])
def test_checks_expand_no_basis_word_and_keep_only_theorem_echelons(p, top, freeness):
    engine = TorsionEngine(p, top)
    reports = engine.torsion_report(top)
    assert reports == [TorsionEngine(p, d).verify_theorem_degree(d)
                       for d in range(2 * p, top + 1)]
    assert_no_whole_expansion_and_only_theorem_echelons(engine)
    assert any(engine._degree(d).presentations for d in range(2 * p, top + 1))
    for d in range(2 * p, top + 1):
        if engine.theorem_indices(d):
            # the cokernels cached by the sweep, read again
            assert engine.verify_theorem_degree(d) == reports[d - 2 * p]
            assert (engine.metabelian_torsion_check(d)
                    == TorsionEngine(p, d).metabelian_torsion_check(d)), (p, d)
            assert_no_whole_expansion_and_only_theorem_echelons(engine)
    assert engine.bp_freeness_check(freeness) == TorsionEngine(p, freeness).bp_freeness_check()
    assert_no_whole_expansion_and_only_theorem_echelons(engine)


@pytest.mark.parametrize("p,top", [(2, 12), (3, 14), (5, 17)])
def test_torsion_report_keeps_only_the_top_lie_degree(p, top):
    # degree d reads the Lie records of d and d-1 alone, so the sweep drops
    # d-1's once d is checked; a second sweep rebuilds what it reads
    engine = TorsionEngine(p, top)
    reports = engine.torsion_report(top)
    assert list(engine._degrees) == [("lie", top)]
    assert reports == [TorsionEngine(p, d).verify_theorem_degree(d)
                       for d in range(2 * p, top + 1)]
    assert engine.torsion_report(top) == reports
    assert list(engine._degrees) == [("lie", top)]


def block_rows(pres):
    # the rows of a block's echelon, as a set
    return {frozenset(row.items()) for row in pres._lattice.rows.values()}


@pytest.mark.parametrize("p,d", [(2, 16), (3, 17), (5, 17), (4, 14)])
def test_a_dropped_block_rebuilt_is_a_fresh_engines(p, d):
    engine = TorsionEngine(p, d)
    coker = engine.graded_cokernel(d)
    rec = engine._degree(d)
    theorem = {engine.theorem_block(s, t) for s, t in engine.theorem_indices(d)}
    dropped = [a for a in rec.cokernels if a not in theorem]
    assert dropped and not set(dropped) & set(rec.presentations)
    for a in rec.cokernels:
        kept = rec.presentations.get(a)
        pres = engine.block(d, a)
        assert kept is None or pres is kept
        fresh = TorsionEngine(p, d).block(d, a)
        assert block_rows(pres) == block_rows(fresh), (p, d, a)
        assert pres.cokernel == fresh.cokernel == rec.cokernels[a], (p, d, a)
    # the rebuilt echelons are cached again, and the cached cokernels read
    assert engine.graded_cokernel(d) == coker == TorsionEngine(p, d).graded_cokernel(d)


def whole_expansion(engine, word):
    # the former path: the word's own expansion, built whole and not stored
    return _expand_lyndon(engine.alphabet, word, keep=False)


def whole_expansion_row(engine, d, a, var, word):
    # a relation row read off the word's whole expansion, one lookup per
    # expansion word in the block's lowered index
    index = engine._lowered_index(engine._cols(d, a), var, "lie")
    acc = {}
    for w, c in whole_expansion(engine, word).items():
        for col in index.get(w, ()):
            acc[col] = acc.get(col, 0) + c
    return {col: c for col, c in acc.items() if c}


@pytest.mark.parametrize("p,d", [(2, 16), (3, 17), (5, 17), (7, 16), (4, 14), (6, 16)])
def test_rows_and_lie_coords_match_the_whole_expansions(p, d):
    engine = TorsionEngine(p, d)
    below = engine.bigrading(d - 1)
    checked = 0
    for a, cols in engine.bigrading(d).items():
        for b, var in ((a - 1, "x"), (a, "y")):
            for word in below.get(b, ()):
                assert engine.derived_row(word, var) == whole_expansion_row(
                    engine, d, a, var, word), (p, d, a, word, var)
                checked += 1
        combination = {}
        for i, word in enumerate(cols):
            oracle = {cols[w]: c for w, c in whole_expansion(engine, word).items() if w in cols}
            assert engine._lie_coords({word: 1}, d, a) == oracle, (p, d, a, word)
            add_into(combination, oracle.items(), i - 2)
        assert engine._lie_coords({w: i - 2 for i, w in enumerate(cols)}, d, a) == combination
    assert checked
    assert not any(len(w) == p for w in engine.alphabet.memo.get("lyndon", {}))


@pytest.mark.parametrize("p,d", [(5, 17), (7, 16)])
def test_factor_pairs_sum_to_the_whole_expansion_on_every_block_word(p, d):
    engine = TorsionEngine(p, d)
    for cols in engine.bigrading(d).values():
        for word in cols:
            acc = {}
            add_into(acc, _lyndon_pairs(engine.alphabet, word))
            assert acc == whole_expansion(engine, word), word


@pytest.mark.slow
def test_torsion_report_peak_memory_at_p5_d22():
    # a fresh interpreter runs the sweep, and a second one, its parent,
    # reads the peak RSS of its only child: rows off the factor expansions
    # and echelons dropped once read keep the sweep under 90 MiB
    worker = ("from lietorsion.torsion import torsion_report\n"
              "assert all(r.passed for r in torsion_report(5, 22))")
    code = ("import resource, subprocess, sys\n"
            f"subprocess.run([sys.executable, '-c', {worker!r}], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    peak_kib = int(done.stdout.split()[-1])
    assert peak_kib < 90 * 1024, peak_kib


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


def tensor_round_trip(engine, word, var):
    # expand, then Leibniz on every tensor word
    e = lyndon_monomial(engine.alphabet, word)
    return derive(to_tensor(e), var, engine.action)


def tensor_round_trip_coords(engine, word, var):
    # the round trip peeled back to Lyndon coordinates
    return lie_from_tensor(tensor_round_trip(engine, word, var)).terms


@pytest.mark.parametrize("p,top", [(2, 16), (3, 15), (5, 15), (7, 16)])
def test_derived_coords_match_tensor_round_trip(p, top):
    # derived_row is the round trip's tensor image on the Lyndon words of
    # its target block; derived_coords its Lyndon coordinates.  Every word of
    # the image lies in that block: x raises the first bidegree component,
    # y the second
    engine = TorsionEngine(p, top)
    oracle = TorsionEngine(p, top)      # its own alphabet, so its own memo
    bidegree = engine.alphabet.word_multidegree
    checked = 0
    for d in range(2 * p + 1, top + 1):
        for word in engine.lie_basis(d - 1):
            for var in ("x", "y"):
                a = bidegree(word)[0] + (var == "x")
                index = engine.bigrading(d).get(a, {})
                image = tensor_round_trip(oracle, word, var)
                assert all(bidegree(w) == (a, d - a) for w in image.terms)
                assert engine.derived_coords(word, var) == lie_from_tensor(image).terms
                assert engine.derived_row(word, var) == {
                    index[w]: c for w, c in image.terms.items() if w in index}
                checked += 1
    assert checked


def oracle_order(pres, vec, bound):
    # the least q <= bound with q*vec in the lattice; None if there is none
    return next((q for q in range(1, bound + 1)
                 if {j: q * c for j, c in vec.items()} in pres), None)


@pytest.mark.parametrize("p,degrees", [(2, range(6, 13)), (3, range(8, 15)), (5, [12])])
def test_tensor_coordinates_read_as_lyndon_coordinates(p, degrees):
    # each theorem block presented by its unpruned Lyndon-coordinate rows
    # (derived_coords) in the heap oracle, with the theorem element and
    # theta's image in Lyndon coordinates: the orders and the metabelian
    # units the engine reads in tensor coordinates are the oracle's
    engine = TorsionEngine(p, max(degrees))
    checked = 0
    for d in degrees:
        report = engine.metabelian_torsion_check(d)
        units = []
        for s, t in engine.theorem_indices(d):
            a = engine.theorem_block(s, t)
            index = engine.bigrading(d)[a]

            def lyndon(terms):
                # a word outside the block raises KeyError
                return {index[w]: c for w, c in terms.items()}

            blocks = engine.bigrading(d - 1)
            rows = [lyndon(engine.derived_coords(w, var))
                    for b, var in ((a - 1, "x"), (a, "y")) for w in blocks.get(b, ())]
            n = len(index)
            oracle = HeapPresentation(rows, n)
            assert engine.block(d, a).cokernel == CokernelStructure(*oracle.cokernel)
            bound = prod(oracle.cokernel[1])
            target = lyndon(engine.theorem_element(s, t).terms)
            image = lyndon(theta(metabelian_of_word(engine.alphabet,
                                                    engine.theorem_word(s, t))).terms)
            vec = engine.theorem_vector(s, t, d)
            assert engine.block(d, a).order(vec) == oracle_order(oracle, target, bound) == p
            units.append(next(u for u in range(1, p) if {
                j: x for j in image | target
                if (x := image.get(j, 0) - u * target.get(j, 0))} in oracle))
            checked += 1
        assert report.units == tuple(units), (p, d)
    assert checked


def lyndon_round_trip_vectors(engine, s, t, d):
    # the former path: theorem_element and maps.theta peeled to Lyndon
    # coordinates, then expanded again on their block by _lie_coords
    a = engine.theorem_block(s, t)
    m = metabelian_of_word(engine.alphabet, engine.theorem_word(s, t))
    return (engine._lie_coords(engine.theorem_element(s, t).terms, d, a),
            engine._lie_coords(theta(m).terms, d, a))


@pytest.mark.parametrize("p,top", [(2, 18), (3, 23), (5, 17), (7, 16), (11, 24), (13, 28),
                                   pytest.param(37, 76, marks=pytest.mark.slow),
                                   pytest.param(53, 108, marks=pytest.mark.slow)])
def test_theorem_and_theta_vectors_match_the_lyndon_round_trip(p, top):
    engine = TorsionEngine(p, top)
    oracle = TorsionEngine(p, top)      # its own alphabet, so its own memo
    checked = 0
    for d in range(2 * p + 2, top + 1):
        for s, t in engine.theorem_indices(d):
            vectors = (engine.theorem_vector(s, t, d), engine.theta_vector(s, t, d))
            assert vectors == lyndon_round_trip_vectors(oracle, s, t, d), (p, d, s)
            assert all(vectors)
            checked += 1
    assert checked


@functools.cache
def _engine(p, d):
    return TorsionEngine(p, d)


@st.composite
def block_elements(draw):
    # an integer combination of one block's Lyndon words and a divisor n;
    # with exact, every coefficient is a multiple of n
    p, d = draw(st.sampled_from([(2, 9), (3, 11), (4, 12), (5, 13)]))
    engine = _engine(p, d)
    blocks = engine.bigrading(d)
    a = draw(st.sampled_from(sorted(blocks)))
    n = draw(st.integers(1, 6))
    exact = draw(st.booleans())
    words = draw(st.lists(st.sampled_from(list(blocks[a])), min_size=1, max_size=4,
                          unique=True))
    terms = {w: n * draw(st.integers(-3, 3)) + (0 if exact else draw(st.integers(-2, 2)))
             for w in words}
    return engine, d, a, LieElement(engine.alphabet, ZZ, terms), n


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=block_elements())
def test_reading_a_divisor_off_the_tensor_matches_the_lyndon_division(case):
    engine, d, a, e, n = case
    tensor = to_tensor(e).terms
    try:
        quotient = e.divided_by(n)
    except IntegralityError:
        with pytest.raises(IntegralityError):
            engine._tensor_vector(tensor, d, a, n)
    else:
        assert engine._tensor_vector(tensor, d, a, n) == engine._lie_coords(quotient.terms, d, a)


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
    oracle = HeapPresentation(rows, n)      # membership by an independent elimination
    for target in targets:
        x = solve_left(rows, target)
        assert (x is not None) == (target in lattice)
        assert (x is not None) == (target in oracle)
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
    # metabelian_row against the oracle's whole-degree rows, each block
    # column mapped back through its block's words; every word of the
    # oracle's image lies in the row's target block
    engine = TorsionEngine(p, top)
    bidegree = engine.alphabet.word_multidegree
    checked = 0
    for d in range(2 * p, top + 1):
        basis = engine.normal_basis(d)
        n = len(basis)
        index = {w: i for i, w in enumerate(basis)}
        want = metabelian_matrix_oracle(engine, d)
        pairs = [(word, var) for word in engine.normal_basis(d - 1) for var in ("x", "y")]
        assert len(pairs) == len(want)
        for (word, var), ref in zip(pairs, want):
            a = bidegree(word)[0] + (var == "x")
            assert all(bidegree(basis[j]) == (a, d - a) for j, c in enumerate(ref) if c)
            row = engine.metabelian_row(word, var)
            assert list(row) == sorted(row) and all(row.values())
            words = list(engine.bigrading(d, "metabelian").get(a, ()))
            assert zlinalg._dense({index[words[j]]: c for j, c in row.items()}, n) == ref, (p, d)
        assert engine.metabelian_matrix(d) == want
        ds = dense_snf(want, n)
        coker = CokernelStructure(n - len(ds), tuple(q for q in ds if q > 1))
        for a in engine.bigrading(d, "metabelian"):
            pres = engine.block(d, a, "metabelian")
            assert pres is engine.block(d, a, "metabelian")
        assert engine.graded_cokernel(d, "metabelian") == coker, (p, d)
        checked += len(pairs)
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


def _scale_theta_vector(monkeypatch, k):
    # the seam metabelian_torsion_check reads theta's image through
    real = TorsionEngine.theta_vector
    monkeypatch.setattr(TorsionEngine, "theta_vector", lambda self, s, t, d: {
        j: k * c for j, c in real(self, s, t, d).items()})


@pytest.mark.parametrize("p,d,units", [(7, 16, (2,)), (5, 17, (2, 2))])
def test_metabelian_torsion_check_finds_a_unit_other_than_one(monkeypatch, p, d, units):
    # theta's image doubled is twice the theorem vector, so the unit is 2; a
    # difference of merely finite order must not be taken for zero
    _scale_theta_vector(monkeypatch, 2)
    r = metabelian_torsion_check(p, d)
    assert r.theta_matches and r.units == units


@pytest.mark.parametrize("p,d", [(7, 16), (5, 17)])
def test_metabelian_torsion_check_refuses_a_zero_image(monkeypatch, p, d):
    # p times theta's image is zero in the cokernel: no unit times the
    # theorem vector, which has order p, matches it
    _scale_theta_vector(monkeypatch, p)
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
