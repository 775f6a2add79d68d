"""Acceptance gate: every exit criterion at its stated tolerance (exact
equality throughout), one printed pass line per checked case.

The section theta out of the metabelian power divides a double permutation
sum by the degree c.  That division is exact at every prime c, but not at
c = 4 over the rank-3 alphabets.  The gate asserts this finding exactly
rather than assuming integrality there:

- criterion 1 checks eta(theta(m)) = (c-2)! m over QQ on every sample at
  c = 4, rank 3, and over Z it checks the same identity on the samples whose
  normal words all have integral theta, while every other sample must raise
  IntegralityError (theta never rounds);
- criterion 3 computes the non-integral normal words twice, from the Lyndon
  coordinates and from an independent tensor expansion, and asserts the
  exact witness set: none at prime c or on the rank-2 alphabets, and the
  listed words at c = 4 on each rank-3 alphabet.
"""

import random
from itertools import combinations, permutations
from math import comb, factorial, gcd

import pytest

from lietorsion.charp import bp_space, check_summand
from lietorsion.elements import QQ, IntegralityError, normal_form, to_tensor
from lietorsion.maps import (check_exactness, eta, lam, metabelian_normal_coords,
                             mu, normal_words, nu, random_homogeneous,
                             random_metabelian, rho, theta, theta_presum)
from lietorsion.torsion import (TorsionEngine, bp_freeness_check,
                                metabelian_torsion_check, torsion_report)
from lietorsion.words import (Alphabet, Generator, lyndon_words,
                              lyndon_words_of_length, unit_alphabet)
from lietorsion.zlinalg import smith_normal_form

SEED = 20260810
DEGREE_CUT = 8


def weighted_alphabet(rank):
    weights = [(1, 0, 0), (0, 2, 0), (0, 0, 3)][:rank]
    names = ["a", "b", "c"][:rank]
    return Alphabet([Generator(n, w) for n, w in zip(names, weights)])


ALPHABETS = {
    "rank2": unit_alphabet(2),
    "rank3": unit_alphabet(3),
    "weighted2": weighted_alphabet(2),
    "weighted3": weighted_alphabet(3),
}

# normal words whose theta double sum is not divisible by c, at weight <= DEGREE_CUT;
# c.a.b.c would join the weighted3 set but has weight 9
THETA_WITNESSES = {
    ("rank3", 4): ["y.x.x.z", "y.x.y.z", "z.x.x.y", "z.x.y.z"],
    ("weighted3", 4): ["b.a.a.c", "b.a.b.c", "c.a.a.b"],
}


def expand(tree):
    """Tensor expansion of a bracket tree whose leaves are letter indices."""
    if isinstance(tree, tuple):
        left, right = expand(tree[0]), expand(tree[1])
        out = {}
        for wa, ca in left.items():
            for wb, cb in right.items():
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
                out[wb + wa] = out.get(wb + wa, 0) - ca * cb
        return {w: c for w, c in out.items() if c}
    return {(tree,): 1}


# -- criterion 1: the three multiplication-by-constant composites -------------

@pytest.mark.parametrize("alphabet_name", list(ALPHABETS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_criterion1_wever(c, alphabet_name):
    ab = ALPHABETS[alphabet_name]
    rng = random.Random(f"{SEED}-wever-{c}-{alphabet_name}")
    for _ in range(100):
        e = random_homogeneous(ab, c, rng, max_weight=DEGREE_CUT)
        assert rho(nu(e)) == c * e
    print(f"[criterion 1] PASS wever composite = {c} (c={c}, {alphabet_name})")


@pytest.mark.parametrize("alphabet_name", list(ALPHABETS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_criterion1_mu_lambda(c, alphabet_name):
    ab = ALPHABETS[alphabet_name]
    rng = random.Random(f"{SEED}-mulam-{c}-{alphabet_name}")
    for _ in range(100):
        m = random_metabelian(ab, c, rng, max_weight=DEGREE_CUT)
        assert lam(mu(m), c) == c * m
    print(f"[criterion 1] PASS mu-lambda composite = {c} (c={c}, {alphabet_name})")


@pytest.mark.parametrize("alphabet_name", list(ALPHABETS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_criterion1_theta_eta(c, alphabet_name):
    ab = ALPHABETS[alphabet_name]
    seed = f"{SEED}-theta-{c}-{alphabet_name}"
    rng = random.Random(seed)
    fact = factorial(c - 2)
    if (alphabet_name, c) not in THETA_WITNESSES:
        for _ in range(100):
            m = random_metabelian(ab, c, rng, max_weight=DEGREE_CUT)
            # a non-integral 1/c division raises here, failing the criterion
            assert eta(theta(m), c) == fact * m, (
                f"theta/eta composite is not multiplication by {fact} at c={c}")
        print(f"[criterion 1] PASS theta-eta composite = ({c - 2})! (c={c}, {alphabet_name})")
        return
    # composite c over rank 3: the identity holds for the rational theta, and
    # theta over Z refuses every sample that has a non-integral normal word
    rng_q = random.Random(seed)
    refused = 0
    for _ in range(100):
        m = random_metabelian(ab, c, rng, max_weight=DEGREE_CUT)
        m_q = random_metabelian(ab, c, rng_q, domain=QQ, max_weight=DEGREE_CUT)
        words = metabelian_normal_coords(m_q)
        assert words == metabelian_normal_coords(m)
        assert eta(theta(m_q), c) == fact * m_q
        if all(q.denominator == 1 for w in words
               for q in theta(w, alphabet=ab, domain=QQ).terms.values()):
            assert eta(theta(m), c) == fact * m
        else:
            with pytest.raises(IntegralityError):
                theta(m)
            refused += 1
    assert refused, "no sample reached a non-integral normal word"
    print(f"[criterion 1] PASS theta-eta composite = ({c - 2})! over QQ; theta over Z "
          f"refuses {refused}/100 samples (c={c}, {alphabet_name})")


# -- criterion 2: exactness of the metabelian/mixed/symmetric sequence --------

@pytest.mark.parametrize("alphabet_name", list(ALPHABETS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_criterion2_exactness(c, alphabet_name):
    ab = ALPHABETS[alphabet_name]
    report = check_exactness(c, ab, DEGREE_CUT)
    assert report.mu_injective
    assert report.kappa_surjective
    assert report.image_equals_kernel
    assert report.rank_mixed == report.rank_metabelian + report.rank_sym
    print(f"[criterion 2] PASS exactness c={c} {alphabet_name} "
          f"ranks {report.rank_metabelian}+{report.rank_sym}={report.rank_mixed}")


# -- criterion 3: integrality of every 1/c and 1/p division -------------------

def theta_presum_tensor(letters):
    """The theta double sum expanded straight into tensor words."""
    def bracket(word):
        tree = word[0]
        for b in word[1:]:
            tree = (tree, b)
        return expand(tree)

    a1, a2, rest = letters[0], letters[1], letters[2:]
    out = {}
    for head, tail, sign in ((a1, (a2,) + rest, 1), (a2, (a1,) + rest, -1)):
        for perm in permutations(tail):
            for w, k in bracket((head,) + perm).items():
                out[w] = out.get(w, 0) + sign * k
    return out


def test_criterion3_theta_integrality_sweep():
    # the Lyndon coordinates are unitriangular in the tensor coefficients, so
    # both are divisible by c on exactly the same normal words
    for name, ab in ALPHABETS.items():
        for c in (2, 3, 4, 5):
            words = normal_words(ab, c, max_weight=DEGREE_CUT)
            assert words, (name, c)
            lyndon = [w for w in words
                      if any(k % c for k in theta_presum(ab, w).terms.values())]
            tensor = [w for w in words
                      if any(k % c for k in theta_presum_tensor(w).values())]
            assert lyndon == tensor, (name, c)
            found = [ab.word_name(w, sep=".") for w in lyndon]
            assert found == THETA_WITNESSES.get((name, c), []), (name, c, found)
    print(f"[criterion 3] PASS theta integral at c in {{2,3,5}} and on rank 2; "
          f"non-integral exactly at {THETA_WITNESSES}")


def test_criterion3_theorem_element_integrality():
    # every 1/p division made by the torsion schedules of criterion 4
    for p, top in ((2, 10), (3, 11), (5, 12)):
        engine = TorsionEngine(p, top)
        for d in range(2 * p, top + 1):
            for s, t in engine.theorem_indices(d):
                engine.theorem_element(s, t)   # raises on any violation
    print("[criterion 3] PASS theorem-element divisions all exact for p in {2,3,5}")


# -- criterion 4: the torsion tables ------------------------------------------

@pytest.mark.parametrize("p,top,expected", [
    (2, 10, {6: 1, 8: 2, 10: 3}),
    (3, 11, {8: 1, 11: 2}),
    (5, 12, {12: 1}),
    (3, 20, {8: 1, 11: 2, 14: 3, 17: 4, 20: 5}),
    (5, 17, {12: 1, 17: 2}),
    (7, 16, {16: 1}),
    (11, 24, {24: 1}),
    (13, 28, {28: 1}),
    # several seconds each: deselected by default (pyproject.toml); run with -m slow
    pytest.param(3, 26, {8: 1, 11: 2, 14: 3, 17: 4, 20: 5, 23: 6, 26: 7},
                 marks=pytest.mark.slow),
    pytest.param(5, 22, {12: 1, 17: 2, 22: 3}, marks=pytest.mark.slow),
    # the first theorem degree of p=53, as `lietorsion torsion --prime 53 --max-degree 108`
    pytest.param(53, 108, {108: 1}, marks=pytest.mark.slow),
    # and of p=101, as `lietorsion torsion --prime 101 --max-degree 204`
    pytest.param(101, 204, {204: 1}, marks=pytest.mark.slow),
])
def test_criterion4_torsion_tables(p, top, expected):
    for report in torsion_report(p, top):
        assert report.lie_power_rank == witt_rank(p, report.degree), (p, report.degree)
        want = expected.get(report.degree, 0)
        torsion = report.cokernel.torsion
        assert len(torsion) == want, (p, report.degree, torsion)
        assert all(q == p for q in torsion), "every torsion divisor must equal p"
        assert report.theorem_count == want
        assert report.all_order_p, f"an element fails to have order {p}"
        assert report.independent
        assert report.spanning
        assert report.integrality_passed
    print(f"[criterion 4] PASS p={p}: torsion ranks "
          f"{expected} at degrees <= {top}, all other degrees torsion-free")


def witt_rank(c, d):
    # the rank of L^c(A) in degree d >= 2c by Witt's formula, with one
    # generator u(s,t) of A in each degree s+t+2, so ch A = T^2/(1-T)^2 and
    # psi^k(ch A)^(c/k) = T^(2c) (1-T^k)^(-2c/k), whose coefficient of T^d is
    # C((d-2c)/k + 2c/k - 1, 2c/k - 1) when k divides d-2c, and 0 otherwise
    total = sum(mobius(k) * comb((d - 2 * c) // k + 2 * c // k - 1, 2 * c // k - 1)
                for k in range(1, c + 1) if c % k == 0 and (d - 2 * c) % k == 0)
    assert total % c == 0
    return total // c


# -- criterion 5: the two torsion subgroups coincide through the section ------

@pytest.mark.parametrize("p,d", [(2, 6), (2, 8), (3, 8), (7, 16), (11, 24),
                                 (2, 18), (3, 17), (5, 17), (3, 20), (3, 23),
                                 pytest.param(5, 22, marks=pytest.mark.slow),
                                 # the second theorem degree of p=7, torsion (7, 7)
                                 pytest.param(7, 23, marks=pytest.mark.slow),
                                 # the first theorem degree of p=53, torsion (53,)
                                 pytest.param(53, 108, marks=pytest.mark.slow)])
def test_criterion5_metabelian_comparison(p, d):
    r = metabelian_torsion_check(p, d)
    assert r.ranks_agree, (r.lie_torsion, r.metabelian_torsion)
    assert r.theta_matches
    assert len(r.units) == len(r.lie_torsion)
    assert all(1 <= a < p for a in r.units)
    print(f"[criterion 5] PASS p={p} d={d}: metabelian and Lie torsion agree "
          f"(rank {len(r.lie_torsion)}), section image matches with units {r.units}")


# -- computed check, not a claim of the paper: the bigraded torsion table -----

@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 17), (7, 16)])
def test_bigraded_torsion_table(p, top):
    # every block built directly, both halves of each mirror pair; the paper
    # counts torsion per degree, this places it by bidegree
    engine = TorsionEngine(p, top)
    table = {}
    for d in range(2 * p, top + 1):
        blocks = engine.bigrading(d)
        theorem = [engine.theorem_block(s, t) for s, t in engine.theorem_indices(d)]
        assert set(theorem) <= set(blocks), (p, d, theorem)
        for a in blocks:
            torsion = engine.block(d, a).cokernel.torsion
            assert torsion == ((p,) if a in theorem else ()), (p, d, a, torsion)
            if torsion:
                table[a, d - a] = torsion
    assert table, "no degree up to the top has torsion"
    print(f"[bigraded, computed] PASS p={p} d<={top}: torsion only in the blocks "
          f"(p(s+1)+1, p(t+1)+1), one Z/{p} each: {sorted(table)}")


@pytest.mark.parametrize("p,top", [(2, 16), (3, 17), (5, 17), (7, 16)])
def test_bigraded_lie_and_metabelian_torsion_agree(p, top):
    # the blocks with a <= b on both sides; criterion 5 compares whole degrees
    engine = TorsionEngine(p, top)
    checked = 0
    for d in range(2 * p, top + 1):
        lie = engine.bigrading(d)
        metabelian = engine.bigrading(d, "metabelian")
        for a in sorted(set(lie) | set(metabelian)):
            if 2 * a <= d:
                want = engine.block(d, a).cokernel.torsion
                assert engine.block(d, a, "metabelian").cokernel.torsion == want, (p, d, a)
                checked += 1
    print(f"[bigraded, computed] PASS p={p} d<={top}: Lie and metabelian torsion "
          f"agree in each of {checked} blocks (a, b), a <= b")


# -- criterion 6: the second-derived kernel has torsion-free presentation -----

def test_criterion6_freeness_p5():
    r = bp_freeness_check(5, 14)
    assert r.all_torsion_free
    assert r.nonvacuous, "at least one degree must have a nonzero component"
    dims = dict(r.dimensions)
    assert dims[12] == 4 and dims[12] > 0
    print(f"[criterion 6] PASS p=5: torsion-free at all degrees <= 14, "
          f"component ranks {dims}")


@pytest.mark.parametrize("p,top", [(2, 8), (3, 9)])
def test_criterion6_vacuous_small_primes(p, top):
    r = bp_freeness_check(p, top)
    assert r.all_torsion_free
    assert not r.nonvacuous
    print(f"[criterion 6] PASS p={p}: vacuously torsion-free "
          f"(every component is zero up to degree {top})")


def test_criterion6_exponent_cross_check():
    engine = TorsionEngine(5, 14)
    for d in range(10, 15):
        torsion = engine.graded_cokernel(d).torsion
        assert all(q == 5 for q in torsion), (d, torsion)
    print("[criterion 6] PASS p=5 exponent check: divisors are exactly 5, never 25")


# -- criterion 7: the characteristic-p decomposition ---------------------------

@pytest.mark.parametrize("p,dim", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
                                   (3, 10), (3, 12), (5, 4), (7, 3)])
def test_criterion7_summand(p, dim):
    r = check_summand(p, dim)
    assert r.kernel_is_w, "Ker(alpha) must equal W"
    assert r.splits_tensor, "T^p must split as W + Im(beta)"
    assert r.beta_alpha_identity
    assert r.summands_independent
    # count oracles: Im(beta) is V (x) S^(p-1)(V), W is its complement in
    # T^p(V), and the second-derived part has the Lyndon words of length p
    # minus the normal words as its dimension
    ab = unit_alphabet(dim)
    im_beta = dim * comb(dim + p - 2, p - 1)
    assert (r.dim_tensor, r.dim_im_beta, r.dim_w) == (dim ** p, im_beta, dim ** p - im_beta)
    assert r.dim_bp == len(lyndon_words_of_length(ab, p)) - len(normal_words(ab, p))
    print(f"[criterion 7] PASS p={p} dim={dim}: Ker(alpha)=W ({r.dim_w}) and "
          f"T^p = W + Im(beta) ({r.dim_w}+{r.dim_im_beta}={r.dim_tensor})")


def test_criterion7_second_derived_summand_p5():
    # dimension oracle: Lyndon words of length 5 minus normal words, rank 2
    ab = unit_alphabet(2)
    expected_dim = len(lyndon_words_of_length(ab, 5)) - len(normal_words(ab, 5))
    assert expected_dim == 6 - 4 == 2
    kernel, tensors, _ = bp_space(5, 2)
    assert len(kernel) == expected_dim
    r = check_summand(5, 2)
    assert r.dim_bp == expected_dim
    assert r.summands_independent and r.kernel_is_w
    print(f"[criterion 7] PASS p=5 dim=2: second-derived part has dimension "
          f"{expected_dim} (count oracle 6-4) and splits off as a summand")


# -- criterion 8: the oracles themselves ---------------------------------------

def mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def test_criterion8_necklace_counts():
    ab = unit_alphabet(2)
    words = lyndon_words(ab, 10)
    for n in range(1, 11):
        oracle = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert sum(1 for w in words if w.weight == n) == oracle
    print("[criterion 8] PASS Lyndon counts match the necklace formula for n <= 10")


def test_criterion8_normal_form_vs_tensor_expansion():
    def random_tree(rng, nletters, degree):
        if degree == 1:
            return rng.randrange(nletters)
        k = rng.randint(1, degree - 1)
        return (random_tree(rng, nletters, k), random_tree(rng, nletters, degree - k))

    rng = random.Random(SEED)
    for rank in (2, 3):
        ab = unit_alphabet(rank)
        gens = ab.generators
        for _ in range(60):
            tree = random_tree(rng, rank, rng.randint(1, 6))

            def named(t):
                return (named(t[0]), named(t[1])) if isinstance(t, tuple) else gens[t]

            e = normal_form(ab, named(tree))
            assert to_tensor(e).terms == expand(tree)
    print("[criterion 8] PASS normal form agrees with the tensor expansion, degree <= 6")


def test_criterion8_snf_determinantal_divisors():
    def det(m):
        if not m:
            return 1
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)) if m[0][j])

    rng = random.Random(SEED + 8)
    for _ in range(12):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        divisors = smith_normal_form(m).divisors
        running = 1
        for k, dk in enumerate(divisors, start=1):
            running *= dk
            g = 0
            for ri in combinations(range(6), k):
                for ci in combinations(range(6), k):
                    g = gcd(g, det([[m[i][j] for j in ci] for i in ri]))
            assert running == abs(g)
    print("[criterion 8] PASS SNF divisor products equal gcds of k x k minors (6x6)")
