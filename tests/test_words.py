"""Lyndon word generation against brute-force and counting oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lietorsion.maps import normal_words
from lietorsion.words import (MAX_UNIT_RANK, Alphabet, Generator, LyndonWord, _lyndon_walk,
                              is_lyndon, lyndon_words, lyndon_words_of_length,
                              lyndon_words_with_content, multisets, unit_alphabet)


def brute_is_lyndon(word):
    # rotation-minimality, written independently of the package
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if not word < word[k:] + word[:k]:
            return False
    return True


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def necklace_count(k, n):
    """Number of Lyndon words of length n over k letters."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
    return total // n


def test_examples_rank2():
    ab = unit_alphabet(2)
    words = lyndon_words(ab, 2)
    assert [w.idx for w in words] == [(0,), (1,), (0, 1)]


def test_single_letter_alphabet():
    ab = unit_alphabet(["x"])
    words = lyndon_words(ab, 5)
    assert [w.idx for w in words] == [(0,)]


def test_zero_weight_cut_is_empty():
    ab = unit_alphabet(2)
    assert lyndon_words(ab, 0) == []


def test_empty_alphabet():
    assert lyndon_words(Alphabet([]), 4) == []


@pytest.mark.parametrize("rank,cut", [(2, 6), (3, 5)])
def test_generation_matches_rotation_oracle(rank, cut):
    ab = unit_alphabet(rank)
    got = {w.idx for w in lyndon_words(ab, cut)}
    expected = set()
    for n in range(1, cut + 1):
        for word in itertools.product(range(rank), repeat=n):
            if brute_is_lyndon(word):
                expected.add(word)
    assert got == expected


def test_generation_weighted_alphabet():
    gens = [Generator("a", (1,)), Generator("b", (2,)), Generator("c", (3,))]
    ab = Alphabet(gens)
    got = {w.idx for w in lyndon_words(ab, 7)}
    weights = [1, 2, 3]
    expected = set()
    for n in range(1, 8):
        for word in itertools.product(range(3), repeat=n):
            if sum(weights[i] for i in word) <= 7 and brute_is_lyndon(word):
                expected.add(word)
    assert got == expected


def test_sorted_by_weight_then_lex():
    ab = unit_alphabet(3)
    words = lyndon_words(ab, 4)
    keys = [(w.weight, w.idx) for w in words]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(1, 11))
def test_counts_match_necklace_formula(n):
    ab = unit_alphabet(2)
    words = [w for w in lyndon_words(ab, n) if w.weight == n]
    assert len(words) == necklace_count(2, n)


def test_count_weight5_is_six():
    ab = unit_alphabet(2)
    assert sum(1 for w in lyndon_words(ab, 5) if w.weight == 5) == 6


def test_factorization_examples():
    ab = unit_alphabet(2)
    u, v = LyndonWord(ab, (0, 1)).standard_factorization()
    assert (u.idx, v.idx) == ((0,), (1,))
    u, v = LyndonWord(ab, (0, 0, 1)).standard_factorization()
    assert (u.idx, v.idx) == ((0,), (0, 1))
    u, v = LyndonWord(ab, (0, 0, 1, 0, 1)).standard_factorization()
    assert (u.idx, v.idx) == ((0, 0, 1), (0, 1))


def test_factorization_of_letter_fails():
    ab = unit_alphabet(2)
    with pytest.raises(ValueError):
        LyndonWord(ab, (0,)).standard_factorization()


def test_factorization_against_suffix_oracle():
    ab = unit_alphabet(2)
    for w in lyndon_words(ab, 6):
        if len(w) < 2:
            continue
        # longest proper Lyndon suffix by direct scan
        split = min(j for j in range(1, len(w.idx)) if brute_is_lyndon(w.idx[j:]))
        u, v = w.standard_factorization()
        assert w.split == split
        assert u.idx + v.idx == w.idx
        assert brute_is_lyndon(u.idx) and brute_is_lyndon(v.idx)
        assert u.idx < v.idx


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(word=st.lists(st.integers(0, 3), max_size=12).map(tuple))
def test_duval_checks_match_oracles(word):
    # is_lyndon and the split point come from Duval's factorization; check
    # them against rotation-minimality and the direct longest-suffix scan, on
    # the word and on its least rotation (Lyndon whenever the word is primitive)
    least = min((word[k:] + word[:k] for k in range(len(word))), default=word)
    for w in (word, least):
        assert is_lyndon(w) == brute_is_lyndon(w)
        if not brute_is_lyndon(w):
            if w:
                with pytest.raises(ValueError):
                    LyndonWord(unit_alphabet(4), w)
            continue
        lw = LyndonWord(unit_alphabet(4), w)
        if len(w) == 1:
            assert lw.split is None
        else:
            assert lw.split == min(j for j in range(1, len(w)) if brute_is_lyndon(w[j:]))


def test_unit_alphabet_negative_rank():
    with pytest.raises(ValueError):
        unit_alphabet(-1)
    assert len(unit_alphabet(0)) == 0


def test_unit_alphabet_has_at_most_26_letters():
    assert MAX_UNIT_RANK == 26
    ab = unit_alphabet(26)
    assert len(ab) == 26 and ab[25].name == "z"
    with pytest.raises(ValueError):
        unit_alphabet(27)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(weights=st.lists(st.integers(1, 4), min_size=0, max_size=5),
       size=st.one_of(st.just(1), st.integers(0, 5)), lo=st.integers(0, 12),
       span=st.integers(0, 8), below=st.one_of(st.none(), st.integers(0, 6)), data=st.data())
def test_multisets_match_filtered_combinations(weights, size, lo, span, below, data):
    # weights in any order, so the pruning cannot lean on sorted letters;
    # one letter (read off the weight index alone), ``below`` and a second
    # grading drawn together
    hi = lo + span
    expected = [m for m in itertools.combinations_with_replacement(range(len(weights)), size)
                if lo <= sum(weights[i] for i in m) <= hi
                and (below is None or not m or m[0] < below)]
    # without a second grading every multiset is in block 0
    assert multisets(weights, size, lo, hi, below=below) == ({0: expected} if expected else {})
    first = [data.draw(st.integers(0, w), label=f"first{a}") for a, w in enumerate(weights)]
    start = data.draw(st.integers(-1, 2 * size + 1), label="start")
    blocks = range(start, start + data.draw(st.integers(0, 4), label="blocks"))
    split = {}
    for m in expected:
        f = sum(first[i] for i in m)
        if f in blocks:
            split.setdefault(f, []).append(m)
    assert multisets(weights, size, lo, hi, below=below, first=first, blocks=blocks) == split
    assert (multisets(weights, size).get(0, [])
            == list(itertools.combinations_with_replacement(range(len(weights)), size)))


def test_enumerators_reach_past_the_recursion_limit():
    # one frame per letter, not one call: words and multisets of 1500 letters
    n = 1500
    ab = Alphabet([Generator("a", (1,)), Generator("b", (2,))])
    assert lyndon_words_with_content(ab, (0,) * n) == []
    assert lyndon_words_of_length(ab, n, weight=n) == []
    assert multisets([1, 2], n, lo=n + 1, hi=n + 1) == {0: [(0,) * (n - 1) + (1,)]}


def test_non_lyndon_rejected():
    ab = unit_alphabet(2)
    with pytest.raises(ValueError):
        LyndonWord(ab, (1, 0))
    with pytest.raises(ValueError):
        LyndonWord(ab, (0, 1, 0, 1))


def test_words_with_content():
    ab = unit_alphabet(2)
    words = lyndon_words_with_content(ab, (0, 0, 1, 1, 1))
    assert {w.idx for w in words} == {(0, 0, 1, 1, 1), (0, 1, 0, 1, 1)}


def test_words_of_length_with_weight():
    gens = [Generator("a", (2, 1)), Generator("b", (1, 2)), Generator("c", (2, 2))]
    ab = Alphabet(gens)
    words = lyndon_words_of_length(ab, 2, weight=7)
    assert all(len(w) == 2 and w.weight == 7 for w in words)
    assert {w.idx for w in words} == {(0, 2), (1, 2)}


def test_alphabet_uniqueness_and_order():
    with pytest.raises(ValueError):
        Alphabet([Generator("x", (1,)), Generator("x", (1,))])
    ab = unit_alphabet(3)
    assert ab.index("z") == 2
    assert ab.word_weight((0, 1, 2)) == 3
    assert ab.word_multidegree((0, 1, 1)) == (1, 2, 0)


def test_generator_stores_a_list_multidegree_as_a_tuple():
    g = Generator("x", [1, 0])
    assert g.multidegree == (1, 0) and g == Generator("x", (1, 0))
    ab = Alphabet([g, Generator("y", [0, 1])])
    assert ab.index(Generator("x", (1, 0))) == 0
    assert ab.word_multidegree((0, 1, 1)) == (1, 2)


@pytest.mark.parametrize("degree", [5, None, 2.0, ("1",), (1.0,), (), (0, 0), (1, -1)])
def test_generator_rejects_a_bad_multidegree(degree):
    with pytest.raises(ValueError, match="'x'"):
        Generator("x", degree)


# letter weights in any order; half the draws hold each weight twice,
# shuffled, so a window of weights spans letters out of index order
WEIGHTS = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).flatmap(
        lambda ws: st.permutations(ws * 2)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(weights=WEIGHTS, length=st.integers(1, 7), data=st.data())
def test_walk_matches_product_oracle(weights, length, data):
    # every entry point against all words of the length, filtered; product
    # yields them in lexicographic order, which each list must keep
    ab = Alphabet([Generator(f"g{i}", (w,)) for i, w in enumerate(weights)])
    k = len(weights)

    def weight(word):
        return sum(weights[i] for i in word)

    def oracle(n):
        return [w for w in itertools.product(range(k), repeat=n) if brute_is_lyndon(w)]

    words = oracle(length)
    target = data.draw(st.integers(length, 3 * length), label="target")
    span = data.draw(st.integers(0, 3), label="span")
    # letters left out of the content have a budget cap of 0
    left_out = data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1), label="left_out")
    content = data.draw(st.lists(st.sampled_from([a for a in range(k) if a not in left_out]),
                                 min_size=length, max_size=length), label="content")
    cut = data.draw(st.integers(0, 7), label="cut")

    assert [w.idx for w in lyndon_words_of_length(ab, length)] == words
    assert ([w.idx for w in lyndon_words_of_length(ab, length, weight=target)]
            == [w for w in words if weight(w) == target])
    assert ([w.idx for w in lyndon_words_of_length(ab, length, max_weight=target)]
            == [w for w in words if weight(w) <= target])
    # a window of weights above 0, as no public entry point passes it
    assert (_lyndon_walk(weights, length, target, target + span).get(0, [])
            == [w for w in words if target <= weight(w) <= target + span])
    assert ([w.idx for w in lyndon_words_with_content(ab, content)]
            == [w for w in words if sorted(w) == sorted(content)])
    graded = [w for n in range(1, cut + 1) for w in oracle(n) if weight(w) <= cut]
    assert ([w.idx for w in lyndon_words(ab, cut)]
            == sorted(graded, key=lambda w: (weight(w), w)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(weights=WEIGHTS, length=st.one_of(st.just(2), st.integers(1, 6)), data=st.data())
def test_walks_split_by_a_second_grading(weights, length, data):
    # the split walks against every word of the length (every multiset of
    # the size), filtered and bucketed: each letter gets a first component
    # from 0 to its weight, or 0 in the zero grading (``first`` left out),
    # and the range of first sums asked for may miss some words, or all
    k = len(weights)
    zero = data.draw(st.booleans(), label="zero")
    first = [0 if zero else data.draw(st.integers(0, w), label=f"first{a}")
             for a, w in enumerate(weights)]
    lo = data.draw(st.integers(length, 3 * length), label="lo")
    hi = lo + data.draw(st.integers(0, 3), label="span")
    start = data.draw(st.integers(-1, 3 * length), label="start")
    blocks = range(start, start + data.draw(st.integers(0, 4), label="blocks"))
    budget = data.draw(st.one_of(st.none(), st.lists(st.integers(0, length), min_size=k,
                                                     max_size=k)), label="budget")
    below = data.draw(st.one_of(st.none(), st.integers(0, k)), label="below")

    def weight(w):
        return sum(weights[a] for a in w)

    def bucket(found, blocks):
        out = {}
        for w in found:
            f = sum(first[a] for a in w)
            if f in blocks:
                out.setdefault(f, []).append(w)
        return out

    words = [w for w in itertools.product(range(k), repeat=length)
             if brute_is_lyndon(w) and lo <= weight(w) <= hi
             and (budget is None or all(w.count(a) <= n for a, n in enumerate(budget)))]
    cap = None if budget is None else list(budget)
    assert (_lyndon_walk(weights, length, lo, hi, cap, None if zero else first, blocks)
            == bucket(words, blocks))
    assert cap == budget                      # the walk gives back every use it took
    size = length - 1
    sets = [m for m in itertools.combinations_with_replacement(range(k), size)
            if lo - 3 <= weight(m) <= hi - 3 and (below is None or not m or m[0] < below)]
    assert (multisets(weights, size, lo - 3, hi - 3, below=below,
                      first=None if zero else first, blocks=blocks)
            == bucket(sets, blocks))
    if zero:
        # the default range is block 0 alone, which holds every word
        assert _lyndon_walk(weights, length, lo, hi, cap) == bucket(words, range(1))
        assert multisets(weights, size, lo - 3, hi - 3, below=below) == bucket(sets, range(1))


def test_normal_words_split_by_bidegree():
    # a two-variable alphabet, as the torsion engine's, against the words
    # b1 > b2 <= ... <= bc among all words: each list in order
    gens = [Generator(f"g{i}", deg) for i, deg in
            enumerate([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)])]
    ab = Alphabet(gens)
    for c in (2, 3, 4):
        normal = [w for w in itertools.product(range(len(gens)), repeat=c)
                  if w[0] > w[1] and list(w[1:]) == sorted(w[1:])]
        for weight in range(2 * c, 4 * c + 1):
            words = [w for w in normal if ab.word_weight(w) == weight]
            assert normal_words(ab, c, weight=weight) == words
            split = {a: [w for w in words if ab.word_multidegree(w)[0] == a]
                     for a in range(weight + 1)}
            assert normal_words(ab, c, weight=weight, blocks=range(weight + 1)) == {
                a: ws for a, ws in split.items() if ws}
            assert normal_words(ab, c, weight=weight, blocks=range(2, 2)) == {}


def test_words_with_content_out_of_range():
    ab = unit_alphabet(2)
    assert lyndon_words_with_content(ab, ()) == []
    with pytest.raises(ValueError):
        lyndon_words_with_content(ab, (0, 2))


def test_words_with_long_repeated_content():
    # eleven letters, as at p = 11: the answer must not cost 11! arrangements
    ab = unit_alphabet(2)
    assert lyndon_words_with_content(ab, (0,) * 11) == []
    assert [w.idx for w in lyndon_words_with_content(ab, (0,) * 10 + (1,))] == [(0,) * 10 + (1,)]


def test_alphabet_table_fills_itself_once_and_stores_no_failure():
    # a key is computed on its first read alone, from the alphabet and the
    # key; a compute that raises leaves no entry, so it raises again
    alphabet = unit_alphabet(2)
    calls = []

    def factorial(ab, n):
        assert ab is alphabet
        calls.append(n)
        if n < 0:
            raise ArithmeticError(n)
        return 1 if n == 0 else n * ab.table("factorial", factorial)[n - 1]

    table = alphabet.table("factorial", factorial)
    assert alphabet.table("factorial", factorial) is table is alphabet.memo["factorial"]
    assert table[4] == 24 and calls == [4, 3, 2, 1, 0]
    assert table[4] == 24 and table[2] == 2 and calls == [4, 3, 2, 1, 0]
    assert dict(table) == {0: 1, 1: 1, 2: 2, 3: 6, 4: 24}
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            table[-1]
    assert calls == [4, 3, 2, 1, 0, -1, -1] and -1 not in table
    assert table.get(7) is None and 7 not in table and len(calls) == 7
    assert unit_alphabet(2).memo == {}
