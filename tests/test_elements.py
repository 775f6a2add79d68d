"""Normal form, bracketing, and left-normalization of free Lie ring elements.

The tensor oracle here expands bracket trees by direct commutator recursion,
independent of the package's Lyndon-basis plumbing.
"""

import random
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from lietorsion.elements import (GF, QQ, ZZ, DomainError, LieElement,
                                 NotLieElementError, _expand_lyndon, _lyndon_into,
                                 bracket, bracketing,
                                 generator_element, left_normalize, leftnormed_tensor,
                                 lyndon_monomial, normal_form, to_tensor,
                                 TensorElement, lie_from_tensor)
from lietorsion.maps import random_homogeneous
from lietorsion.words import LyndonWord, is_lyndon, lyndon_words, unit_alphabet


def oracle_expand(tree):
    """Multilinear commutator expansion over Z, keyed by letter-index words."""
    if isinstance(tree, tuple):
        left = oracle_expand(tree[0])
        right = oracle_expand(tree[1])
        out = {}
        for wa, ca in left.items():
            for wb, cb in right.items():
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
                out[wb + wa] = out.get(wb + wa, 0) - ca * cb
        return {w: c for w, c in out.items() if c}
    return {(tree,): 1}


def random_tree(rng, nletters, degree):
    if degree == 1:
        return rng.randrange(nletters)
    k = rng.randint(1, degree - 1)
    return (random_tree(rng, nletters, k), random_tree(rng, nletters, degree - k))


AB2 = unit_alphabet(2)
AB3 = unit_alphabet(3)
X, Y = AB2.generators


def test_bracketing_structure():
    assert bracketing(LyndonWord(AB2, (0, 1))) == (X, Y)
    assert bracketing(LyndonWord(AB2, (0, 0, 1))) == (X, (X, Y))
    w = LyndonWord(AB2, (0, 0, 1, 0, 1))
    assert bracketing(w) == ((X, (X, Y)), (X, Y))


def test_normal_form_examples():
    assert normal_form(AB2, (Y, X)).terms == {(0, 1): -1}
    assert normal_form(AB2, (X, X)).terms == {}
    assert normal_form(AB2, ((Y, X), Y)).terms == {(0, 1, 1): -1}


def test_normal_form_rejects_foreign_generators():
    z = AB3.generators[2]
    with pytest.raises((DomainError, KeyError)):
        normal_form(AB2, (X, z))


def test_bracket_examples():
    x = generator_element(AB2, X)
    y = generator_element(AB2, Y)
    assert bracket(x, y).terms == {(0, 1): 1}
    xy = bracket(x, y)
    assert bracket(x, xy).terms == {(0, 0, 1): 1}
    rng = random.Random(5)
    for _ in range(20):
        m = random_homogeneous(AB2, rng.randint(1, 4), rng)
        assert bracket(m, m).is_zero()


def test_bracket_over_qq_and_gf3_maps_the_zz_bracket():
    rng = random.Random(13)
    for _ in range(40):
        ab = rng.choice((AB2, AB3))
        a = random_homogeneous(ab, rng.randint(1, 3), rng)
        b = random_homogeneous(ab, rng.randint(1, 3), rng)
        over_z = bracket(a, b)
        for dom in (QQ, GF(3)):
            got = bracket(LieElement(ab, dom, a.terms), LieElement(ab, dom, b.terms))
            assert got == LieElement(ab, dom, over_z.terms)


def test_antisymmetry_on_random_pairs():
    rng = random.Random(11)
    checked = 0
    while checked < 120:
        da = rng.randint(1, 5)
        db = rng.randint(1, 6 - da)
        ab = rng.choice((AB2, AB3))
        a = random_homogeneous(ab, da, rng)
        b = random_homogeneous(ab, db, rng)
        assert (bracket(a, b) + bracket(b, a)).is_zero()
        checked += 1


def test_jacobi_on_random_triples():
    rng = random.Random(12)
    for _ in range(40):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        ab = rng.choice((AB2, AB3))
        a, b, c = (random_homogeneous(ab, d, rng) for d in degrees)
        total = (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
                 + bracket(bracket(c, a), b))
        assert total.is_zero()


def test_embedding_consistency_weight_up_to_6():
    # nu of the basis monomial equals the direct expansion of its bracket tree
    for ab in (AB2, AB3):
        for w in lyndon_words(ab, 6):
            tree_idx = _tree_to_indices(ab, bracketing(w))
            expected = oracle_expand(tree_idx)
            got = to_tensor(lyndon_monomial(ab, w))
            assert got.terms == expected


def _tree_to_indices(ab, tree):
    if isinstance(tree, tuple):
        return (_tree_to_indices(ab, tree[0]), _tree_to_indices(ab, tree[1]))
    return ab.index(tree)


def test_normal_form_inverts_expansion_on_random_trees():
    rng = random.Random(13)
    for _ in range(60):
        deg = rng.randint(1, 6)
        tree = random_tree(rng, 2, deg)
        e = normal_form(AB2, tree)
        assert to_tensor(e).terms == oracle_expand(tree)


def test_peeling_rejects_non_lie_tensor():
    t = TensorElement(AB2, ZZ, {(0, 1): 1})
    with pytest.raises(NotLieElementError):
        lie_from_tensor(t)


def test_left_normalize_examples():
    # [x,[x,y]] = -[[x,y],x]
    out = left_normalize((X, (X, Y)), alphabet=AB2, domain=ZZ)
    assert out == [(-1, (0, 1, 0))]
    # equal factors vanish at the tree level
    assert left_normalize(((X, Y), (X, Y)), alphabet=AB2, domain=ZZ) == []
    # [[a,b],[c,d]] = [a,b,c,d] - [a,b,d,c]
    ab4 = unit_alphabet(4)
    a, b, c, d = range(4)
    out = left_normalize(((a, b), (c, d)), alphabet=ab4, domain=ZZ)
    assert sorted(out) == [(-1, (0, 1, 3, 2)), (1, (0, 1, 2, 3))]


def test_left_normalize_is_identity_on_left_normed_trees():
    tree = (((X, Y), Y), X)
    out = left_normalize(tree, alphabet=AB2, domain=ZZ)
    assert out == [(1, (0, 1, 1, 0))]


def test_left_normalize_preserves_value():
    rng = random.Random(14)
    for _ in range(40):
        deg = rng.randint(2, 6)
        tree = random_tree(rng, 3, deg)
        e = normal_form(AB3, tree)
        pairs = [(c, _letters_tree(w)) for c, w in left_normalize(tree, alphabet=AB3, domain=ZZ)]
        rebuilt = normal_form(AB3, pairs)
        assert rebuilt == e


def test_left_normalize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        left_normalize([(1, X), (1, (X, Y))], alphabet=AB2, domain=ZZ)


def _letters_tree(letters):
    tree = letters[0]
    for i in letters[1:]:
        tree = (tree, i)
    return tree


def test_domains():
    f5 = GF(5)
    e = normal_form(AB2, (X, Y), domain=f5)
    assert (3 * e + 2 * e).is_zero()
    with pytest.raises(ValueError):
        GF(6)
    q = normal_form(AB2, (X, Y), domain=QQ)
    from fractions import Fraction
    assert (Fraction(1, 2) * q + Fraction(1, 2) * q) == q
    with pytest.raises(DomainError):
        Fraction(1, 2) * e  # no halves mod 5 by coercion of a fraction


def test_coerce_accepts_exact_integers_and_rejects_bool():
    from fractions import Fraction
    for dom, three in ((ZZ, 3), (QQ, Fraction(3)), (GF(5), 3)):
        assert dom.coerce(3) == three and type(dom.coerce(3)) is type(three)
        assert dom.coerce(Fraction(6, 2)) == three
        for bad in (True, False, 1.0, "1"):
            with pytest.raises(DomainError):
                dom.coerce(bad)
    assert GF(5).coerce(-2) == 3
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        ZZ.coerce(Fraction(1, 2))


def test_memoised_expansions_match_the_tree_oracle():
    # to_tensor and lie_from_tensor read the alphabet's memoised expansions;
    # on a fresh alphabet they are cold, then warm, and never mutated
    for domain in (ZZ, QQ, GF(3)):
        ab = unit_alphabet(3)
        assert not ab.memo
        words = lyndon_words(ab, 5)
        for _ in range(2):
            for w in words:
                e = lyndon_monomial(ab, w, domain)
                t = to_tensor(e)
                expected = TensorElement(ab, domain, oracle_expand(
                    _tree_to_indices(ab, bracketing(w))))
                assert t == expected
                t.terms.clear()
                assert lie_from_tensor(to_tensor(e)) == e
            assert ab.memo
    # the left-normed expansion folds the same bracket step over the letters
    for w in product(range(3), repeat=4):
        left_normed = reduce(lambda tree, b: (tree, b), w[1:], w[0])
        assert leftnormed_tensor(w) == oracle_expand(left_normed)


def test_degree_and_zero():
    z = normal_form(AB2, (X, X))
    assert z.is_zero() and z.degree() is None
    e = normal_form(AB2, (X, Y))
    assert e.degree() == 2
    mixed = e + generator_element(AB2, X)
    with pytest.raises(ValueError):
        mixed.degree()


@st.composite
def lyndon_cases(draw):
    # a rank 2-4 and a Lyndon word of length 2-9 over it: the least rotation
    # of a drawn word, which is Lyndon unless the word is a power
    rank = draw(st.integers(2, 4))
    word = tuple(draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=9)))
    least = min(word[i:] + word[:i] for i in range(len(word)))
    assume(is_lyndon(least))
    return rank, least


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=lyndon_cases())
def test_factor_pairs_sum_to_the_lyndon_expansion(case):
    # the pairs of the standard factorisation's two expansions, summed, are
    # the word's own expansion, and the commutator oracle's; reading them
    # stores no expansion of the word itself
    rank, idx = case
    alphabet = unit_alphabet(rank)
    acc = {}
    _lyndon_into(acc, alphabet, idx)
    acc = {w: c for w, c in acc.items() if c}
    assert idx not in alphabet.memo.get("lyndon", {})
    tree = _tree_to_indices(alphabet, bracketing(LyndonWord(alphabet, idx)))
    assert acc == oracle_expand(tree) == _expand_lyndon(unit_alphabet(rank), idx)
