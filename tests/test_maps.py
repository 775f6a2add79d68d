"""The power maps: examples, the multiplication-by-c composites, exactness of
the mixed-power sequence, equivariance under derivation actions, and the
per-alphabet memo of basis-word images against the pre-memo bodies, and
derive against the hand-written Leibniz loops it replaced."""

import gc
import itertools
import random
import weakref
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from lietorsion.charp import PBWBasis
from lietorsion.elements import (GF, QQ, DomainError, IntegralityError, LieElement, MixedElement,
                                 SymElement, TensorElement, ZZ, _expand_lyndon,
                                 generator_element, left_normalize, leftnormed_tensor,
                                 lie_from_tensor, lie_zero, lyndon_monomial, normal_form,
                                 to_tensor)
from lietorsion.maps import (ActionSpec, MetabelianElement, _eta_word, _mu_terms, peel_strict_keys,
                             check_exactness, derive, eta, kappa, lam,
                             metabelian_normal_coords, metabelian_of_word, mixed_basis,
                             mu, normal_words, nu, presum_tensor, random_action,
                             random_homogeneous, random_metabelian, rho, sym_basis,
                             theta, theta_presum)
from lietorsion.torsion import TorsionEngine, a_action, a_alphabet
from lietorsion.words import Alphabet, Generator, lyndon_words_of_length, unit_alphabet

AB2 = unit_alphabet(2)
AB3 = unit_alphabet(3)
X, Y = 0, 1


def lie(tree, ab=AB2):
    gens = ab.generators

    def conv(t):
        return (conv(t[0]), conv(t[1])) if isinstance(t, tuple) else gens[t]

    return normal_form(ab, conv(tree))


def test_nu_examples():
    assert nu(lie((X, Y)), 2).terms == {(0, 1): 1, (1, 0): -1}
    assert nu(generator_element(AB2, 0), 1).terms == {(0,): 1}
    e = lie(((X, Y), Y))
    assert nu(e, 3).terms == {(0, 1, 1): 1, (1, 0, 1): -2, (1, 1, 0): 1}


def test_nu_rejects_inhomogeneous():
    e = lie((X, Y)) + generator_element(AB2, 0)
    with pytest.raises(ValueError):
        nu(e)


def test_rho_examples():
    from lietorsion.elements import TensorElement
    t = TensorElement(AB2, ZZ, {(0, 1): 1})
    assert rho(t).terms == {(0, 1): 1}
    assert rho(TensorElement(AB2, ZZ, {(0, 0): 1})).is_zero()
    t3 = TensorElement(AB2, ZZ, {(0, 1, 1): 1})
    assert rho(t3).terms == {(0, 1, 1): 1}


def test_mu_examples():
    m = mu((0, 1), alphabet=AB2)
    assert m.terms == {(0, (1,)): 1, (1, (0,)): -1}
    m = mu((1, 0, 0), alphabet=AB2)
    assert m.terms == {(1, (0, 0)): 1, (0, (0, 1)): -1}
    m2 = mu(2 * metabelian_of_word(AB2, (1, 0)))
    assert m2.terms == {(1, (0,)): 2, (0, (1,)): -2}
    with pytest.raises(ValueError):
        mu((0,), alphabet=AB2)


def test_kappa_examples():
    t = MixedElement(AB2, ZZ, {(0, (1,)): 1})
    assert kappa(t).terms == {(0, 1): 1}
    assert kappa(mu(metabelian_of_word(AB2, (1, 0)))).is_zero()
    t2 = MixedElement(AB2, ZZ, {(0, (0, 0)): 1})
    assert kappa(t2).terms == {(0, 0, 0): 1}


def test_lambda_examples():
    ab = unit_alphabet(3)
    t = MixedElement(ab, ZZ, {(0, (1,)): 1})
    assert lam(t, 2) == metabelian_of_word(ab, (0, 1))
    t3 = MixedElement(ab, ZZ, {(0, (1, 2)): 1})
    expected = metabelian_of_word(ab, (0, 1, 2)) + metabelian_of_word(ab, (0, 2, 1))
    assert lam(t3, 3) == expected


def test_mu_lambda_is_multiplication_by_c():
    rng = random.Random(31)
    for c in (2, 3, 4, 5):
        for ab in (AB2, AB3):
            for _ in range(30):
                m = random_metabelian(ab, c, rng)
                assert lam(mu(m), c) == c * m


def test_eta_examples():
    assert eta(lie((X, Y))).mixed.terms == {(0, (1,)): 1, (1, (0,)): -1}
    ab4 = unit_alphabet(4)
    e = lie(((0, 1), (2, 3)), ab4)
    assert eta(e, 4).is_zero()
    e3 = lie(((Y, X), Y))
    assert eta(e3).mixed.terms == {(1, (0, 1)): 1, (0, (1, 1)): -1}


def test_theta_examples():
    out = theta((0, 1), alphabet=AB2)
    assert out.terms == {(0, 1): 1}
    ab3 = unit_alphabet(3)
    out3 = theta((0, 1, 2), alphabet=ab3)
    assert out3 == lie((((0, 1), 2)), ab3)


def test_theta_eta_composite():
    rng = random.Random(32)
    for c in (2, 3, 5):
        fact = factorial(c - 2)
        for ab in (AB2, AB3):
            for w in normal_words(ab, c):
                m = metabelian_of_word(ab, w)
                assert eta(theta(m)) == fact * m
            for _ in range(20):
                m = random_metabelian(ab, c, rng)
                assert eta(theta(m), c) == fact * m
    # composite degree over rank 2 also lands integrally
    for c in (4, 6):
        fact = factorial(c - 2)
        for w in normal_words(AB2, c):
            m = metabelian_of_word(AB2, w)
            assert eta(theta(m)) == fact * m


def test_theta_integrality_falsified_at_composite_degree_rank3():
    # the compact double-sum form is not 1/c-integral for composite c once the
    # alphabet has rank 3; the smallest witness is [y,x,x,z] at c = 4
    witnesses = [w for w in normal_words(AB3, 4)
                 if any(c % 4 for c in theta_presum(AB3, w).terms.values())]
    assert witnesses == [(1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 0, 1, 2)]
    with pytest.raises(IntegralityError):
        theta(witnesses[0], alphabet=AB3)
    # integrality is checked per normal word: 4*theta(m_w) is integral over QQ,
    # yet theta(4*m_w) refuses over Z
    with pytest.raises(IntegralityError):
        theta(4 * metabelian_of_word(AB3, witnesses[0]))
    # the composite identity itself still holds for the rational value
    from lietorsion.elements import QQ
    from fractions import Fraction
    for w in witnesses:
        pre = theta_presum(AB3, w, domain=QQ)
        rational_theta = Fraction(1, 4) * pre
        assert eta(rational_theta) == 2 * metabelian_of_word(AB3, w, QQ)


def theta_presum_oracle(ab, letters):
    # the double sum over every permutation of each tail, repeats included
    a1, a2, rest = letters[0], letters[1], letters[2:]
    acc = {}
    for head, tail, sign in ((a1, (a2,) + rest, 1), (a2, (a1,) + rest, -1)):
        for perm in itertools.permutations(tail):
            for w, k in leftnormed_tensor((head,) + perm).items():
                acc[w] = acc.get(w, 0) + sign * k
    terms = {w: k for w, k in acc.items() if k}
    return lie_from_tensor(TensorElement(ab, ZZ, terms, _clean=True))


def theorem_words(ab, p):
    # the theorem word (vy, vx, u^(p-2)) at u = u(0,0), then the normal words
    # of its metabelian class: (vy, u^(p-2), vx) and (vx, u^(p-2), vy) for p > 2
    u, vx, vy = ab.index("u(0,0)"), ab.index("u(1,0)"), ab.index("u(0,1)")
    word = (vy, vx) + (u,) * (p - 2)
    return [word, *peel_strict_keys(dict(_mu_terms(word)))]


def test_theta_presum_matches_permutation_sum():
    rng = random.Random(34)
    ab4 = a_alphabet(4)
    cases = [(ab4, w) for p in (2, 3, 5, 7) for w in theorem_words(ab4, p)]
    for c in range(2, 8):
        for ab in (AB2, AB3):
            for _ in range(3):
                word = tuple(rng.randrange(len(ab)) for _ in range(c))
                cases.append((ab, word))
                cases.append((ab, word[:2] + (word[-1],) * (c - 2)))
    for ab, word in cases:
        assert theta_presum(ab, word) == theta_presum_oracle(ab, word), word


def distinct_arrangements(tail):
    # each distinct ordering of a multiset once, by choosing its first letter
    if not tail:
        yield ()
    for b in sorted(set(tail)):
        k = tail.index(b)
        for rest in distinct_arrangements(tail[:k] + tail[k + 1:]):
            yield (b,) + rest


def presum_tensor_oracle(letters, domain):
    # the distinct arrangements of each side's tail, each expanded left-normed
    # once and counted as often as the permutations that give it, then read
    # in the domain
    acc = {}
    for head, tail, sign in ((letters[0], letters[1:], 1),
                             (letters[1], letters[:1] + letters[2:], -1)):
        times = sign * prod(factorial(tail.count(b)) for b in set(tail))
        for arr in distinct_arrangements(tail):
            for w, k in leftnormed_tensor((head,) + arr).items():
                acc[w] = acc.get(w, 0) + times * k
    return {w: x for w, k in acc.items() if not domain.is_zero(x := domain.coerce(k))}


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(3)], ids=repr)
def test_presum_tensor_matches_the_distinct_arrangement_sum(domain):
    ab4 = a_alphabet(4)
    assert [len(theorem_words(ab4, p)) for p in (2, 3)] == [2, 3]
    cases = [(ab4, w) for p in (2, 3, 5, 7, 11, 13) for w in theorem_words(ab4, p)]
    rng = random.Random(36)
    for c in range(2, 8):
        for ab in (AB2, AB3):
            for _ in range(4):
                pool = [rng.randrange(len(ab)) for _ in range(rng.randint(1, 3))]
                cases.append((ab, tuple(rng.choice(pool) for _ in range(c))))
    for ab, word in cases:
        expected = presum_tensor_oracle(word, domain)
        for _ in ("cold", "warm"):
            assert presum_tensor(ab, word, domain) == expected, word


def test_theta_integrality_prime_degrees():
    for ab in (AB2, AB3):
        for c in (2, 3, 5):
            for w in normal_words(ab, c):
                pre = theta_presum(ab, w)
                assert all(coeff % c == 0 for coeff in pre.terms.values())


def test_metabelian_normal_coords_roundtrip():
    rng = random.Random(33)
    for c in (2, 3, 4):
        for _ in range(20):
            m = random_metabelian(AB3, c, rng)
            coords = metabelian_normal_coords(m)
            rebuilt = sum((coeff * metabelian_of_word(AB3, w) for w, coeff in coords.items()),
                          start=0 * metabelian_of_word(AB3, (1,) + (0,) * (c - 1)))
            assert rebuilt == m
    stray = MixedElement(AB2, ZZ, {(0, (1,)): 1})
    with pytest.raises(DomainError):
        metabelian_normal_coords(
            __import__("lietorsion.maps", fromlist=["MetabelianElement"]).MetabelianElement(2, stray))


def test_derive_examples_on_derived_alphabet():
    ab = a_alphabet(4)
    act = a_action(ab)
    u00 = ab.index("u(0,0)")
    e = generator_element(ab, u00)
    assert derive(e, "x", act).terms == {(ab.index("u(1,0)"),): 1}
    # [u00, u10] x = [u00, u20]  (the [u10,u10] term vanishes)
    u10 = ab.index("u(1,0)")
    m = normal_form(ab, (ab.generators[u00], ab.generators[u10]))
    image = derive(m, "x", act)
    expected = normal_form(ab, (ab.generators[u00], ab.generators[ab.index("u(2,0)")]))
    assert image == expected
    # Leibniz on a mixed element
    mixed = MixedElement(ab, ZZ, {(u00, (u00, u00)): 1})
    out = derive(mixed, "y", act)
    u01 = ab.index("u(0,1)")
    assert out.terms == {(u01, (u00, u00)): 1,
                         (u00, tuple(sorted((u01, u00)))): 2}


def test_multiset_keys_are_sorted_on_construction():
    # a multiset key given in any order is the same basis element, and
    # Leibniz moves each of its letters once: (a o b o a) x = 2 (a o b o b)
    ab = unit_alphabet(2)
    act = ActionSpec(ab, ("x",), {(0, "x"): {1: 1}, (1, "x"): {}})
    assert SymElement(ab, ZZ, {(1, 0): 1}) == SymElement(ab, ZZ, {(0, 1): 1})
    assert SymElement(ab, ZZ, [((1, 0), 1), ((0, 1), 2)]).terms == {(0, 1): 3}
    assert derive(SymElement(ab, ZZ, {(0, 1, 0): 1}), "x", act).terms == {(0, 1, 1): 2}
    assert MixedElement(ab, ZZ, {(1, (1, 0)): 1}) == MixedElement(ab, ZZ, {(1, (0, 1)): 1})
    assert derive(MixedElement(ab, ZZ, {(1, (0, 1, 0)): 1}), "x", act).terms == {
        (1, (0, 1, 1)): 2}


def test_derive_unknown_variable():
    ab = a_alphabet(3)
    act = a_action(ab)
    with pytest.raises(KeyError):
        derive(generator_element(ab, 0), "z", act)


def test_equivariance_of_all_maps():
    rng = random.Random(34)
    for ab in (AB2, AB3):
        spec = random_action(ab, ("x", "y"), rng)
        for c in (2, 3, 4):
            for _ in range(10):
                e = random_homogeneous(ab, c, rng)
                m = random_metabelian(ab, c, rng)
                for var in ("x", "y"):
                    assert derive(nu(e), var, spec) == nu(derive(e, var, spec))
                    assert rho(derive(nu(e), var, spec)) == derive(rho(nu(e)), var, spec)
                    assert derive(mu(m), var, spec) == mu(derive(m, var, spec))
                    assert derive(kappa(mu(m)), var, spec) == kappa(derive(mu(m), var, spec))
                    assert derive(lam(mu(m), c), var, spec) == lam(derive(mu(m), var, spec), c)
                    assert derive(eta(e, c), var, spec) == eta(derive(e, var, spec), c)
                    if c != 4:
                        assert derive(theta(m), var, spec) == theta(derive(m, var, spec))


def test_exactness_examples():
    r = check_exactness(2, AB2, 2)
    assert r.passed and (r.rank_metabelian, r.rank_mixed, r.rank_sym) == (1, 4, 3)
    r1 = check_exactness(2, unit_alphabet(["x"]), 2)
    assert r1.passed and r1.rank_metabelian == 0
    r3 = check_exactness(3, AB2, 3)
    assert r3.passed and (r3.rank_metabelian, r3.rank_mixed, r3.rank_sym) == (2, 6, 4)
    assert r3.rank_mixed == r3.rank_metabelian + r3.rank_sym


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("rank", [2, 3])
def test_exactness_unit_alphabets(c, rank):
    assert check_exactness(c, unit_alphabet(rank), c).passed


def test_exactness_weighted_alphabet():
    gens = [Generator("a", (1, 0)), Generator("b", (0, 2))]
    ab = Alphabet(gens)
    for c in (2, 3, 4, 5):
        r = check_exactness(c, ab, 8)
        assert r.passed


def test_normal_words_shape():
    words = normal_words(AB2, 5)
    assert words == [(1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 1), (1, 0, 1, 1, 1)]
    for w in normal_words(AB3, 4):
        assert w[0] > w[1] and list(w[1:]) == sorted(w[1:])


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec(AB2, ("x",), {(0, "q"): {0: 1}})
    spec = ActionSpec(AB2, ("x",), {(0, "x"): {1: 1}})
    with pytest.raises(KeyError):
        spec.image(1, "x")


# -- the per-alphabet memo: the pre-memo bodies are the oracles ----------------

def eta_oracle(e, c):
    # one mu image per left-normed term, added element by element
    dom = e.domain
    acc = MixedElement(e.alphabet, dom, {}, _clean=True)
    for coeff, letters in left_normalize(e):
        acc = acc + mu(letters, alphabet=e.alphabet, domain=dom) * coeff
    return MetabelianElement(c, acc)


def rho_oracle(t):
    # rho before its per-word images: sum the left-normed expansions, then peel
    dom = t.domain
    acc = {}
    for word, c in t.terms.items():
        for w, k in leftnormed_tensor(word).items():
            s = dom.add(acc.get(w, 0), dom.mul(c, dom.coerce(k)))
            if dom.is_zero(s):
                acc.pop(w, None)
            else:
                acc[w] = s
    return lie_from_tensor(TensorElement(t.alphabet, dom, acc, _clean=True))


def lam_oracle(t, c):
    # lam before its per-key images: each key's mu terms rebuilt and scaled
    dom = t.domain
    acc = {}
    for (a, rest), coeff in t.terms.items():
        seen = set()
        for k, b in enumerate(rest):
            if b in seen:
                continue
            seen.add(b)
            for key, m in _mu_terms((a, b) + rest[:k] + rest[k + 1:]).items():
                s = dom.add(acc.get(key, 0), dom.mul(coeff, dom.coerce(m * rest.count(b))))
                if dom.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
    return MetabelianElement(c, MixedElement(t.alphabet, dom, acc, _clean=True))


def theta_word_oracle(ab, letters, domain):
    # the integer permutation sum, read in the domain, divided by the degree
    pre = theta_presum_oracle(ab, letters)
    return LieElement(ab, domain, pre.terms).divided_by(len(letters))


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(3)], ids=repr)
def test_memoised_maps_match_pre_memo_bodies(domain):
    rng = random.Random(35)
    for c in (2, 3, 4, 5):
        for rank in (2, 3):
            ab = unit_alphabet(rank)          # a new alphabet: every table is cold
            assert not ab.memo
            lies = [random_homogeneous(ab, c, rng, domain=domain) for _ in range(6)]
            tensors = [TensorElement(ab, domain, [
                (tuple(rng.randrange(rank) for _ in range(c)), rng.randint(-3, 3))
                for _ in range(4)]) for _ in range(6)]
            for _ in ("cold", "warm"):
                for e in lies:
                    assert eta(e, c) == eta_oracle(e, c)
                for t in tensors:
                    assert rho(t) == rho_oracle(t)
                for w in normal_words(ab, c):
                    try:
                        expected = theta_word_oracle(ab, w, domain)
                    except IntegralityError:
                        with pytest.raises(IntegralityError):
                            theta(w, alphabet=ab, domain=domain)
                    else:
                        assert theta(w, alphabet=ab, domain=domain) == expected
                assert ab.memo


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32), domain=st.sampled_from([ZZ, QQ, GF(3)]),
       rank=st.integers(2, 3), c=st.integers(2, 5))
def test_rho_and_lam_images_match_the_per_call_bodies(seed, domain, rank, c):
    rng = random.Random(seed)
    ab = unit_alphabet(rank)              # a new alphabet: the rho and lam tables are cold
    words = [tuple(rng.randrange(rank) for _ in range(c)) for _ in range(rng.randint(1, 5))]
    if domain == QQ:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in words]
    else:
        coeffs = [rng.randint(-3, 3) for _ in words]
    t = TensorElement(ab, domain, list(zip(words, coeffs)))
    mixed = MixedElement(ab, domain, [((w[0], w[1:]), k) for w, k in zip(words, coeffs)])
    assert "rho" not in ab.memo and "lam" not in ab.memo
    for _ in ("cold", "warm"):
        assert rho(t) == rho_oracle(t)
        assert lam(mixed, c) == lam_oracle(mixed, c)
    assert set(ab.memo.get("rho", {})) == set(t.terms)
    assert set(ab.memo.get("lam", {})) == set(mixed.terms)


# -- eta as alpha of the tensor expansion: the left-normalization route is the oracle

def eta_word_oracle(ab, w):
    # one mu image per left-normed term of the standard bracketing
    acc = {}
    for coeff, letters in left_normalize(lyndon_monomial(ab, w)):
        for key, k in _mu_terms(letters).items():
            acc[key] = acc.get(key, 0) + coeff * k
    return {key: c for key, c in acc.items() if c}


def test_eta_word_matches_left_normalization_on_unit_alphabets():
    checked = 0
    for rank in (2, 3, 4):
        ab = unit_alphabet(rank)
        for c in range(2, 8):
            for w in lyndon_words_of_length(ab, c):
                assert _eta_word(ab, w.idx) == eta_word_oracle(ab, w.idx)
                checked += 1
    assert checked == 39 + 505 + 3300


@pytest.mark.parametrize("p, d", [(3, 14), (5, 16), (7, 16)])
def test_eta_word_matches_left_normalization_on_the_engine_basis(p, d):
    engine = TorsionEngine(p, d)
    words = engine.lie_basis(d)
    assert words
    for w in words:
        assert _eta_word(engine.alphabet, w) == eta_word_oracle(engine.alphabet, w)


def eta_word_by_expansion(ab, w):
    # alpha of the whole tensor expansion: a1...ac -> (a1, a2 o ... o ac)
    acc = {}
    for u, c in _expand_lyndon(ab, w, keep=False).items():
        key = (u[0], tuple(sorted(u[1:])))
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def test_eta_word_matches_alpha_of_the_expansion_on_unit_alphabets():
    checked = 0
    for rank, top in ((2, 8), (3, 8), (4, 6)):
        ab = unit_alphabet(rank)
        for c in range(2, top + 1):
            for w in lyndon_words_of_length(ab, c):
                terms = _eta_word(ab, w.idx)
                assert terms == eta_word_by_expansion(ab, w.idx)
                assert len(terms) <= 2 and all(terms.values())
                checked += 1
    assert checked == 69 + 1315 + 960


@pytest.mark.parametrize("p, d, count", [(3, 14, 429), (5, 16, 1001), (7, 18, 340)])
def test_eta_word_matches_alpha_of_the_expansion_on_the_engine_basis(p, d, count):
    engine = TorsionEngine(p, d)
    words = engine.lie_basis(d)
    assert len(words) == count
    for w in words:
        assert _eta_word(engine.alphabet, w) == eta_word_by_expansion(engine.alphabet, w)


def test_eta_of_a_letter():
    # a letter's memo entry is alpha of itself, and eta refuses degree 1
    ab = unit_alphabet(3)
    assert _eta_word(ab, (2,)) == {(2, ()): 1} == eta_word_by_expansion(ab, (2,))
    with pytest.raises(ValueError, match="eta needs degree >= 2"):
        eta(generator_element(ab, 2))
    with pytest.raises(ValueError, match="eta needs degree >= 2"):
        eta(lie_zero(ab), 1)


@pytest.mark.parametrize("p, rank", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_eta_over_gf_p_matches_left_normalization(p, rank):
    ab = unit_alphabet(rank)
    for w in lyndon_words_of_length(ab, p):
        expected = {key: c % p for key, c in eta_word_oracle(ab, w.idx).items() if c % p}
        assert eta(lyndon_monomial(ab, w, GF(p))).mixed.terms == expected


# -- the samplers: the same Random calls, and the elements the pre-memo bodies built

def random_homogeneous_oracle(ab, c, rng, domain):
    words = tuple(w.idx for w in lyndon_words_of_length(ab, c))
    picks = rng.sample(words, k=min(len(words), rng.randint(1, 4)))
    return LieElement(ab, domain, [(w, rng.randint(1, 4) * rng.choice((1, -1))) for w in picks])


def random_metabelian_oracle(ab, c, rng, domain):
    words = tuple(normal_words(ab, c))
    acc = {}
    for w in rng.sample(words, k=min(len(words), rng.randint(1, 4))):
        coeff = rng.randint(1, 4) * rng.choice((1, -1))
        for key, k in _mu_terms(w).items():
            acc[key] = domain.add(acc.get(key, 0), domain.mul(domain.coerce(coeff), k))
    return MetabelianElement(c, MixedElement(ab, domain, {k: v for k, v in acc.items() if v},
                                             _clean=True))


def explicit_draws(rng, n):
    k = min(n, rng.randrange(1, 5))
    rng.sample(range(n), k=k)
    for _ in range(k):
        rng.randrange(1, 5)
        rng.choice((1, -1))


@pytest.mark.parametrize("sampler, count", [
    (random_homogeneous, lambda ab, c: len(lyndon_words_of_length(ab, c))),
    (random_metabelian, lambda ab, c: len(normal_words(ab, c)))])
def test_samplers_make_the_documented_random_calls(sampler, count):
    for rank, c in ((2, 2), (2, 5), (3, 3), (3, 4)):
        ab = unit_alphabet(rank)
        for seed in range(25):
            rng, ref = random.Random(seed), random.Random(seed)
            sampler(ab, c, rng)
            explicit_draws(ref, count(ab, c))
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("domain", [ZZ, GF(2), GF(3)])
def test_samplers_match_the_pre_memo_bodies(domain):
    vanished = 0
    for rank, c in ((2, 3), (2, 5), (3, 2), (3, 4)):
        ab = unit_alphabet(rank)
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                over_z = random.Random()
                over_z.setstate(ref.getstate())
                e = random_homogeneous(ab, c, rng, domain)
                assert e == random_homogeneous_oracle(ab, c, ref, domain)
                assert all(e.terms.values())
                vanished += len(e.terms) < len(random_homogeneous_oracle(ab, c, over_z, ZZ).terms)
                m = random_metabelian(ab, c, rng, domain)
                assert m == random_metabelian_oracle(ab, c, ref, domain)
                assert all(m.mixed.terms.values())
            assert rng.getstate() == ref.getstate()
    # a drawn +-2 or +-4 vanishes mod 2, and +-3 mod 3
    assert (vanished > 0) == (domain != ZZ)


def test_returned_elements_do_not_share_memo_tables():
    ab = unit_alphabet(3)
    e = normal_form(ab, ((ab[0], ab[1]), ab[2]))
    t = TensorElement(ab, ZZ, {(1, 0, 2): 2, (2, 2, 0): -1})
    m = metabelian_of_word(ab, (1, 0, 2)) + 2 * metabelian_of_word(ab, (2, 0, 1))
    spec = random_action(ab, ("x",), random.Random(2))
    calls = [lambda: nu(e), lambda: eta(e).mixed, lambda: rho(t),
             lambda: theta((2, 0, 1), alphabet=ab), lambda: theta(m),
             lambda: derive(e, "x", spec), lambda: derive(t, "x", spec),
             lambda: lam(mu(m)).mixed,
             lambda: random_homogeneous(ab, 3, random.Random(1)),
             lambda: random_metabelian(ab, 3, random.Random(1)).mixed]
    for call in calls:
        first = call()
        expected = dict(first.terms)
        assert expected
        first.terms.clear()
        assert call().terms == expected


def test_failed_theta_division_raises_on_every_call():
    ab = unit_alphabet(3)
    w = (1, 0, 0, 2)                      # y.x.x.z, a composite-degree witness
    for _ in range(2):
        with pytest.raises(IntegralityError):
            theta(4 * metabelian_of_word(ab, w))
        with pytest.raises(IntegralityError):
            theta(w, alphabet=ab)
    assert theta(w, alphabet=ab, domain=QQ) == theta_word_oracle(ab, w, QQ)


def test_memo_dies_with_its_alphabet():
    engine = TorsionEngine(3, 9)
    assert engine.bp_freeness_check(9).passed
    assert engine.metabelian_torsion_check(8).passed
    ref = weakref.ref(engine.alphabet)
    assert ref().memo
    del engine
    gc.collect()
    assert ref() is None

    basis = PBWBasis(3, 2)
    assert basis.factor_terms([(0, 1), (1,)])
    ref = weakref.ref(basis.alphabet)
    assert ref().memo
    del basis
    gc.collect()
    assert ref() is None


def normal_words_oracle(ab, c):
    n = len(ab)
    return sorted((b1,) + tail
                  for tail in itertools.combinations_with_replacement(range(n), c - 1)
                  for b1 in range(tail[0] + 1, n))


def mixed_basis_oracle(ab, c):
    n = len(ab)
    return sorted((a, mult) for a in range(n)
                  for mult in itertools.combinations_with_replacement(range(n), c - 1))


def test_bases_match_full_enumeration():
    # the old full enumerations, then the weight filters applied to them
    weighted = Alphabet([Generator("a", (1, 0, 0)), Generator("b", (0, 2, 0)),
                         Generator("c", (0, 0, 3))])
    cases = [(ab, c, c + 3) for ab in (unit_alphabet(["x"]), AB2, AB3, unit_alphabet(4))
             for c in (2, 3, 4, 5)]
    cases += [(weighted, c, 9) for c in (2, 3, 4, 5)]
    # the torsion engine's alphabets at the moduli the tests and the report use
    cases += [(a_alphabet(k), p, k + 2 * (p - 1)) for p in (2, 3, 5) for k in (2, 4, 6)]
    cases += [(a_alphabet(4), 7, 16)]
    for ab, c, top in cases:
        wt = [g.weight for g in ab]
        words = [(w, sum(wt[i] for i in w)) for w in normal_words_oracle(ab, c)]
        mixed = [((a, m), wt[a] + sum(wt[i] for i in m)) for a, m in mixed_basis_oracle(ab, c)]
        syms = [(m, sum(wt[i] for i in m))
                for m in itertools.combinations_with_replacement(range(len(ab)), c)]
        assert normal_words(ab, c) == [w for w, _ in words]
        assert mixed_basis(ab, c) == [k for k, _ in mixed]
        assert sym_basis(ab, c) == [m for m, _ in syms]
        for d in range(c, top + 1):
            assert normal_words(ab, c, weight=d) == [w for w, x in words if x == d]
            assert normal_words(ab, c, max_weight=d) == [w for w, x in words if x <= d]
            assert mixed_basis(ab, c, weight=d) == [k for k, x in mixed if x == d]
            assert mixed_basis(ab, c, max_weight=d) == [k for k, x in mixed if x <= d]
            assert sym_basis(ab, c, max_weight=d) == [m for m, x in syms if x <= d]


def test_bases_match_full_enumeration_on_91_letters():
    # a_alphabet(14) is the p=2, d=16 engine's alphabet: letters of weight
    # 2..14, heaviest last; every exact and every maximal weight cut
    ab = a_alphabet(14)
    assert len(ab) == 91
    wt = [g.weight for g in ab]
    words = [(w, sum(wt[i] for i in w)) for w in normal_words_oracle(ab, 2)]
    mixed = [(k, wt[k[0]] + wt[k[1][0]]) for k in mixed_basis_oracle(ab, 2)]
    for d in range(3, 30):
        assert normal_words(ab, 2, weight=d) == [w for w, x in words if x == d]
        assert normal_words(ab, 2, max_weight=d) == [w for w, x in words if x <= d]
        assert mixed_basis(ab, 2, weight=d) == [k for k, x in mixed if x == d]
        assert mixed_basis(ab, 2, max_weight=d) == [k for k, x in mixed if x <= d]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(degrees=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
                        min_size=1, max_size=6),
       c=st.sampled_from([2, 3]), data=st.data())
def test_normal_words_split_by_blocks_match_filtered_products(degrees, c, data):
    # letters of two-variable multidegrees whose weights come in any order,
    # against every word b1 > b2 <= ... <= bc of itertools.product, filtered
    # by an exact or a maximal weight and bucketed by first component
    ab = Alphabet([Generator(f"g{i}", deg) for i, deg in enumerate(degrees)])
    exact = data.draw(st.booleans(), label="exact")
    cut = data.draw(st.integers(c, 6 * c), label="cut")
    start = data.draw(st.integers(-1, 3 * c + 1), label="start")
    blocks = range(start, start + data.draw(st.integers(0, 5), label="blocks"))
    split = {}
    for w in itertools.product(range(len(ab)), repeat=c):
        if w[0] <= w[1] or list(w[1:]) != sorted(w[1:]):
            continue
        weight = ab.word_weight(w)
        f = ab.word_multidegree(w)[0]
        if (weight == cut if exact else weight <= cut) and f in blocks:
            split.setdefault(f, []).append(w)
    cap = {"weight": cut} if exact else {"max_weight": cut}
    assert normal_words(ab, c, blocks=blocks, **cap) == split


# -- derive: the per-type Leibniz loops it replaced are the oracles -----------

def derive_wordlike_oracle(t, var, spec):
    dom = t.domain
    out = {}
    for word, c in t.terms.items():
        for pos, letter in enumerate(word):
            for j, k in spec.image(letter, var).items():
                w = word[:pos] + (j,) + word[pos + 1:]
                s = dom.add(out.get(w, 0), dom.mul(c, dom.coerce(k)))
                if dom.is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
    return TensorElement(t.alphabet, dom, out, _clean=True)


def derive_sym_oracle(t, var, spec):
    dom = t.domain
    out = {}
    for mult, c in t.terms.items():
        seen = set()
        for pos, letter in enumerate(mult):
            if letter in seen:
                continue
            seen.add(letter)
            count = mult.count(letter)
            rest = mult[:pos] + mult[pos + 1:]
            for j, k in spec.image(letter, var).items():
                key = tuple(sorted(rest + (j,)))
                s = dom.add(out.get(key, 0), dom.mul(c, dom.coerce(k * count)))
                if dom.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
    return SymElement(t.alphabet, dom, out, _clean=True)


def derive_mixed_oracle(t, var, spec):
    dom = t.domain
    out = {}

    def bump(key, val):
        s = dom.add(out.get(key, 0), val)
        if dom.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s

    for (a, mult), c in t.terms.items():
        for j, k in spec.image(a, var).items():
            bump((j, mult), dom.mul(c, dom.coerce(k)))
        seen = set()
        for pos, letter in enumerate(mult):
            if letter in seen:
                continue
            seen.add(letter)
            count = mult.count(letter)
            rest = mult[:pos] + mult[pos + 1:]
            for j, k in spec.image(letter, var).items():
                bump((a, tuple(sorted(rest + (j,)))), dom.mul(c, dom.coerce(k * count)))
    return MixedElement(t.alphabet, dom, out, _clean=True)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32), domain=st.sampled_from([ZZ, QQ, GF(3)]),
       rank=st.integers(2, 3), c=st.integers(2, 4))
def test_derive_matches_the_per_type_leibniz_loops(seed, domain, rank, c):
    # random_action may map a letter to itself, so a mixed key's head step
    # and one of its multiset steps can land on the same key
    rng = random.Random(seed)
    ab = unit_alphabet(rank)
    spec = random_action(ab, ("x", "y"), rng)
    e = random_homogeneous(ab, c, rng, domain=domain)
    m = random_metabelian(ab, c, rng, domain=domain)
    words = [tuple(rng.randrange(rank) for _ in range(c)) for _ in range(4)]
    coeffs = [rng.randint(-3, 3) for _ in words]
    t = TensorElement(ab, domain, list(zip(words, coeffs)))
    sym = SymElement(ab, domain, [(tuple(sorted(w)), k) for w, k in zip(words, coeffs)])
    mixed = MixedElement(ab, domain, [((w[0], tuple(sorted(w[1:]))), k)
                                      for w, k in zip(words, coeffs)])
    # the second pass reads every key's image from the spec's memo
    for _ in ("cold", "warm"):
        for var in ("x", "y"):
            assert derive(t, var, spec) == derive_wordlike_oracle(t, var, spec)
            assert derive(sym, var, spec) == derive_sym_oracle(sym, var, spec)
            assert derive(mixed, var, spec) == derive_mixed_oracle(mixed, var, spec)
            assert derive(m, var, spec) == MetabelianElement(
                c, derive_mixed_oracle(m.mixed, var, spec))
            assert derive(e, var, spec) == lie_from_tensor(
                derive_wordlike_oracle(to_tensor(e), var, spec))
    assert spec._memo


def test_undefined_action_pair_raises_on_every_derive():
    # y's image is undefined, as the engine's top letter is at its degree cut
    ab = unit_alphabet(2)
    spec = ActionSpec(ab, ("x",), {(0, "x"): {1: 1}})
    for x in (lie(((X, Y), Y), ab), TensorElement(ab, ZZ, {(0, 1): 1})):
        key, = x.terms
        for _ in range(2):
            with pytest.raises(KeyError):
                derive(x, "x", spec)
        assert key not in spec._memo.get((type(x), "x"), {})
    assert derive(TensorElement(ab, ZZ, {(0, 0): 1}), "x", spec).terms == {(1, 0): 1, (0, 1): 1}


def test_derive_refuses_an_element_over_another_alphabet():
    # same letter names, but y has weight 2: a spec on unit_alphabet(2) must
    # not act on it
    spec = ActionSpec(AB2, ("x",), {(0, "x"): {1: 1}, (1, "x"): {0: 1}})
    other = Alphabet([Generator("x", (1, 0)), Generator("y", (0, 2))])
    assert other != AB2
    elements = [TensorElement(other, ZZ, {(0, 1): 1}),
                LieElement(other, ZZ, {(0, 1): 1}),
                MixedElement(other, ZZ, {(0, (1,)): 1}),
                metabelian_of_word(other, (1, 0))]
    for x in elements:
        with pytest.raises(DomainError):
            derive(x, "x", spec)
    assert not spec._memo
    # the same elements over the spec's own alphabet derive
    assert derive(TensorElement(AB2, ZZ, {(0, 1): 1}), "x", spec).terms == {(1, 1): 1, (0, 0): 1}


def test_two_specs_on_one_alphabet_keep_separate_images():
    ab = unit_alphabet(2)
    raise_x = ActionSpec(ab, ("x",), {(0, "x"): {1: 1}, (1, "x"): {}})
    double = ActionSpec(ab, ("x",), {(0, "x"): {0: 2}, (1, "x"): {1: 2}})
    e = lie((X, Y), ab)
    t = nu(e)
    for _ in range(2):
        assert derive(e, "x", raise_x).is_zero()              # [y, y] = 0
        assert derive(e, "x", double) == 4 * e
        assert derive(t, "x", raise_x).is_zero()
        assert derive(t, "x", double) == 4 * t
