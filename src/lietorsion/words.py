"""Ordered graded alphabets and Lyndon words.

Words are stored as tuples of letter indices into a fixed Alphabet, so plain
tuple comparison is the lexicographic word order everywhere in the package.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate


class Generator:
    """A free generator carrying a multidegree over the ambient variables.

    Immutable: generators compare and hash by name and multidegree, which is
    stored as a tuple of nonnegative ints, not all zero.
    """

    __slots__ = ("name", "multidegree")

    def __init__(self, name: str, multidegree=(1,)):
        try:
            multidegree = tuple(multidegree)
        except TypeError:
            raise ValueError(f"generator {name!r} needs a sequence of degrees, "
                             f"got {multidegree!r}") from None
        if not all(type(d) is int and d >= 0 for d in multidegree):
            raise ValueError(f"generator {name!r} needs nonnegative integer degrees")
        if not any(multidegree):
            raise ValueError(f"generator {name!r} needs a nonzero multidegree")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "multidegree", multidegree)

    def __setattr__(self, attr, *value):
        raise AttributeError(f"cannot assign to {attr!r}: Generator is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Generator, (self.name, self.multidegree)

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return self.name == other.name and self.multidegree == other.multidegree

    def __hash__(self):
        return hash((self.name, self.multidegree))

    @property
    def weight(self) -> int:
        return sum(self.multidegree)

    def __repr__(self):
        return self.name


class MemoTable(dict):
    """A dict that fills itself: reading a missing key stores and returns
    compute(owner, key).  A compute that raises stores nothing, so it raises
    again on the next read.  Only ``table[key]`` computes; ``get`` and
    ``in`` read what is stored.  A hit is a plain dict lookup, and a miss
    one call of ``__missing__`` from the dict's own lookup."""

    __slots__ = ("owner", "compute")

    def __init__(self, owner, compute):
        self.owner = owner
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(self.owner, key)
        return value


class Alphabet:
    """An ordered finite sequence of generators.

    The construction order is the total order on letters and is fixed for the
    lifetime of every word built over the alphabet.  Alphabets compare by
    value (their generator sequences), so structurally identical alphabets
    are interchangeable.

    ``memo`` holds the tables of ``table``: images of basis words under the
    package's linear maps, each computed once, on its first read, and
    dropped with the alphabet.
    """

    __slots__ = ("generators", "_by_name", "_hash", "memo", "__weakref__")

    def __init__(self, generators):
        gens = tuple(generators)
        arities = {len(g.multidegree) for g in gens}
        if len(arities) > 1:
            raise ValueError("all generators in an alphabet need the same multidegree arity")
        by_name = {}
        for i, g in enumerate(gens):
            if g.name in by_name:
                raise ValueError(f"duplicate generator id {g.name!r}")
            by_name[g.name] = i
        self.generators = gens
        self._by_name = by_name
        self._hash = hash(gens)
        self.memo = {}

    def table(self, name, compute) -> "MemoTable":
        """The memo table ``name`` of this alphabet, which fills itself:
        ``table[key]`` is compute(alphabet, key), computed on the first read
        and stored.  A stored value is a function of its key and this
        alphabet alone and is never mutated.  The table is made on the first
        call with the name, whose ``compute`` it keeps."""
        t = self.memo.get(name)
        if t is None:
            t = self.memo[name] = MemoTable(self, compute)
        return t

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, i) -> Generator:
        return self.generators[i]

    def __contains__(self, g):
        i = self._by_name.get(getattr(g, "name", None))
        return i is not None and self.generators[i] == g

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Alphabet({','.join(g.name for g in self.generators)})"

    def index(self, g) -> int:
        """Position of a generator (or generator name) in the order."""
        name = g if isinstance(g, str) else g.name
        i = self._by_name.get(name)
        if i is None:
            raise KeyError(f"generator {name!r} is not in this alphabet")
        if not isinstance(g, str) and self.generators[i] != g:
            raise KeyError(f"generator {name!r} belongs to a different alphabet")
        return i

    def word_weight(self, word) -> int:
        return sum(self.generators[i].weight for i in word)

    def word_multidegree(self, word) -> tuple[int, ...]:
        gens = self.generators
        if not word:
            return ()
        acc = [0] * len(gens[0].multidegree)
        for i in word:
            for k, d in enumerate(gens[i].multidegree):
                acc[k] += d
        return tuple(acc)

    def word_name(self, word, sep=None) -> str:
        names = [self.generators[i].name for i in word]
        if sep is None:
            sep = "" if all(len(n) == 1 for n in names) else "."
        return sep.join(names)


# the names of the letters of a unit alphabet above rank 3
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
MAX_UNIT_RANK = len(_LETTERS)


def unit_alphabet(names) -> Alphabet:
    """Alphabet of unit-weight generators, one ambient variable per letter.

    An integer rank names its letters x, y, z up to rank 3 and a, b, c, ...
    beyond, so it is at most MAX_UNIT_RANK.
    """
    if isinstance(names, int):
        if not 0 <= names <= MAX_UNIT_RANK:
            raise ValueError(f"alphabet rank must be between 0 and {MAX_UNIT_RANK}, "
                             f"got {names}")
        if names <= 3:
            names = ["x", "y", "z"][:names]
        else:
            names = list(_LETTERS[:names])
    names = list(names)
    n = len(names)
    gens = []
    for i, name in enumerate(names):
        deg = [0] * n
        deg[i] = 1
        gens.append(Generator(name, tuple(deg)))
    return Alphabet(gens)


def _lyndon_factor_starts(word) -> list[int]:
    """Start positions of the Lyndon factors of a word, whose factors read
    left to right are non-increasing Lyndon words (Chen, Fox & Lyndon).

    Duval's algorithm (1983), in linear time: a scan from i keeps j - k, the
    period of the longest prefix of word[i:] that is a power of a Lyndon
    word plus a prefix of it, and emits one factor per whole period.
    """
    n = len(word)
    starts = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            starts.append(i)
            i += j - k
    return starts


def is_lyndon(word) -> bool:
    """Whether the index tuple is strictly smaller than all proper rotations,
    that is, whether it is its own single Lyndon factor."""
    return _lyndon_factor_starts(word) == [0]


class LyndonWord:
    """A Lyndon word over an alphabet, with its standard factorization point.

    ``idx`` is the tuple of letter indices; ``split`` is the start of the
    longest proper Lyndon suffix (None for single letters).
    """

    __slots__ = ("alphabet", "idx", "split", "_hash")

    def __init__(self, alphabet: Alphabet, idx):
        idx = tuple(idx)
        if not idx:
            raise ValueError("empty word")
        if any(not 0 <= i < len(alphabet) for i in idx):
            raise ValueError(f"letter index out of range in {idx}")
        if not is_lyndon(idx):
            raise ValueError(f"{alphabet.word_name(idx)!r} is not a Lyndon word")
        self.alphabet = alphabet
        self.idx = idx
        self.split = _split_point(idx)
        self._hash = hash((alphabet, idx))

    @property
    def letters(self) -> tuple[Generator, ...]:
        return tuple(self.alphabet.generators[i] for i in self.idx)

    @property
    def weight(self) -> int:
        return self.alphabet.word_weight(self.idx)

    def __len__(self):
        return len(self.idx)

    def __eq__(self, other):
        return (isinstance(other, LyndonWord) and self.idx == other.idx
                and self.alphabet == other.alphabet)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.idx < other.idx

    def __repr__(self):
        return self.alphabet.word_name(self.idx)

    def standard_factorization(self) -> tuple["LyndonWord", "LyndonWord"]:
        """The pair (u, v) with w = uv and v the longest proper Lyndon suffix."""
        if self.split is None:
            raise ValueError("single letters have no factorization")
        u = LyndonWord(self.alphabet, self.idx[:self.split])
        v = LyndonWord(self.alphabet, self.idx[self.split:])
        return u, v


def _split_point(idx):
    # the longest proper Lyndon suffix is the last Lyndon factor of idx[1:]
    if len(idx) == 1:
        return None
    return 1 + _lyndon_factor_starts(idx[1:])[-1]


def lyndon_words(alphabet: Alphabet, max_weight: int) -> list[LyndonWord]:
    """All Lyndon words of total weight <= max_weight, sorted by (weight, lex):
    the walk's words of each length up to max_weight over the least weight."""
    wt = [g.weight for g in alphabet]
    found = [idx for n in range(1, int(max_weight // min(wt, default=math.inf)) + 1)
             for idx in _lyndon_walk(wt, n, hi=max_weight).get(0, ())]
    found.sort(key=lambda idx: (sum(wt[i] for i in idx), idx))
    return [LyndonWord(alphabet, idx) for idx in found]


def lyndon_words_with_content(alphabet: Alphabet, content) -> list[LyndonWord]:
    """Lyndon words whose letter multiset is exactly ``content`` (letter indices),
    in lexicographic order."""
    content = tuple(content)
    k = len(alphabet)
    if any(not 0 <= i < k for i in content):
        raise ValueError(f"letter index out of range in {content}")
    budget = [content.count(a) for a in range(k)]
    found = _lyndon_walk([g.weight for g in alphabet], len(content), budget=budget)
    return [LyndonWord(alphabet, idx) for idx in found.get(0, ())]


def lyndon_words_of_length(alphabet: Alphabet, length: int,
                           weight: int | None = None,
                           max_weight: int | None = None) -> list[LyndonWord]:
    """Lyndon words of a fixed length, optionally of a given total weight or
    at most a given total weight, in lexicographic order."""
    lo, hi = weight_range(weight, max_weight)
    found = _lyndon_walk([g.weight for g in alphabet], length, lo, hi)
    return [LyndonWord(alphabet, idx) for idx in found.get(0, ())]


def weight_range(weight=None, max_weight=None) -> tuple:
    """The (least, greatest) total weight allowed by an exact weight and a
    weight cap, either of them optional."""
    return weight or 0, min(b for b in (weight, max_weight, math.inf) if b is not None)


def _lyndon_walk(wt, length, lo=0, hi=math.inf, budget=None, first=None,
                 blocks=range(1)) -> dict:
    """The Lyndon words over letters of positive weights ``wt`` of ``length``
    letters and weight in [lo, hi], as index tuples split by a second
    grading: ``first[c]``, from 0 to wt[c], is one component of letter c's
    multidegree (0 for every letter when ``first`` is None), and the walk
    returns {f: the words whose letters' first components sum to f} for each
    f of the range ``blocks`` that has any, each list in lexicographic
    order.  ``budget[a]`` caps the uses of letter a.  Without ``first`` every
    word lies in block 0, the one block of the default ``blocks``.

    This is the FKM prenecklace walk (Ruskey, Savage & Wang 1992): a
    prenecklace of period q extends by any letter no smaller than the one q
    places back, and it is Lyndon exactly when q is its length.  Every letter
    of a prenecklace is at least its first, and the last letter of a Lyndon
    word of two letters or more is above its first, so a branch is cut as
    soon as the letters still to come cannot land the weight in range.  It
    is also cut as soon as they cannot land the first sum in ``blocks``: the
    sum never falls, and it grows by at most the weight still allowed.
    Nothing enumerates the arrangements of a content: eleven copies of one
    letter are a single chain of eleven prefixes.

    A prefix's next letters are read off ``weight_index``: the letters from
    the one q places back on whose weight keeps the prefix in range.  The
    last letter is never walked.  A prefix one letter short closes into a
    Lyndon word exactly by a letter strictly above the one q places back: an
    equal letter keeps the period q, below the length, and a larger one
    makes the period the length.  The prefix's weight w puts that letter's
    weight in [lo - w, hi - w].  So the words of the prefix are those
    letters, taken from the index in ascending order, each appended to it;
    in lexicographic order they are exactly the words between the prefix and
    its next sibling, so emitting them in place keeps each block's order.
    A word of one letter is the empty prefix closed by that letter.
    """
    found = {}
    if not blocks or length < 1:
        return found
    bottom, top = blocks[0], blocks[-1]
    k = len(wt)
    first = first or [0] * k
    lightest, heaviest = suffix_bounds(wt)
    index = weight_index(wt)
    left = math.inf if budget is None else sum(budget)    # the uses of the letters from a on
    # lightest[] never falls, and a word starting at a weighs at least
    # length * lightest[a], so the first letters are a prefix of the alphabet
    for a in range(bisect_right(lightest, hi / length)):
        fits = (budget is None or budget[a]) and left >= length
        if budget is not None:
            left -= budget[a]
        # the weights a prefix of t < length letters may have and still
        # complete in range: the letters after it are no smaller than a, and
        # the last of them is above a (so no word of two letters or more
        # starts with the last letter of the alphabet)
        light, heavy = (lightest[a + 1], heaviest[a + 1]) if a + 1 < k else (math.inf,) * 2
        lows = [lo - (length - t - 1) * heaviest[a] - heavy for t in range(length)] + [lo]
        highs = [hi - (length - t - 1) * lightest[a] - light for t in range(length)] + [hi]
        if not (fits and lows[1] <= wt[a] <= highs[1]):
            continue
        # a frame for each prefix of ``word`` that two letters or more still
        # follow, so a long word costs no recursion: (the letters still to
        # try after the prefix, its period, its weight, its first-component
        # sum, the letter one period back); the empty prefix's frame holds
        # the first letter alone.  A prefix one letter short gets no frame:
        # its words are emitted in its parent's loop.
        word, frames = [], [(iter((a,)), 0, 0, 0, -1)]
        while frames:
            letters, period, w, f, base = frames[-1]
            t = len(word) + 1                   # the length of the prefix ending in b
            for b in letters:
                wb, fb = w + wt[b], f + first[b]
                if fb > top or fb + hi - wb < bottom:
                    continue
                q = period if b == base else t
                word.append(b)
                if budget is not None:
                    budget[b] -= 1
                if t + 1 < length:
                    nexts = _letters_in(index, lows[t + 1] - wb, highs[t + 1] - wb, word[t - q])
                    if budget is not None:
                        nexts = [c for c in nexts if budget[c]]
                    frames.append((iter(nexts), q, wb, fb, word[t - q]))
                    break
                if t == length:                 # length 1: the empty prefix closed by b
                    prefix, ends, fb = (), (b,), f
                else:
                    prefix = tuple(word)
                    ends = _letters_in(index, lo - wb, hi - wb, word[t - q] + 1)
                    if budget is not None:
                        ends = [c for c in ends if budget[c]]
                for c in ends:
                    g = fb + first[c]
                    if bottom <= g <= top:
                        found.setdefault(g, []).append(prefix + (c,))
                word.pop()
                if budget is not None:
                    budget[b] += 1
            else:
                frames.pop()
                if word:
                    b = word.pop()
                    if budget is not None:
                        budget[b] += 1
    return found


def suffix_bounds(wt) -> tuple[list, list]:
    """The lists lightest[a] = min(wt[a:]) and heaviest[a] = max(wt[a:]),
    each one running minimum or maximum from the last letter down."""
    return (list(accumulate(reversed(wt), min))[::-1],
            list(accumulate(reversed(wt), max))[::-1])


def weight_index(wt) -> tuple[list, list]:
    """The letters by weight: the distinct weights of ``wt`` in ascending
    order, and for each of them its letters in ascending order."""
    by_weight = {}
    for a, x in enumerate(wt):
        by_weight.setdefault(x, []).append(a)
    weights = sorted(by_weight)
    return weights, [by_weight[x] for x in weights]


def _letters_in(index, low, high, first) -> list:
    """The letters from ``first`` on whose weight lies in [low, high], in
    ascending order, read off ``weight_index``: one bisection in each
    weight's list, and the lists merged when the window spans several."""
    weights, letters = index
    i, j = bisect_left(weights, low), bisect_right(weights, high)
    if j - i == 1:
        run = letters[i]
        return run[bisect_left(run, first):]
    out = []
    for run in letters[i:j]:
        out += run[bisect_left(run, first):]
    out.sort()
    return out


def multisets(wt, size, lo=0, hi=math.inf, below=None, bounds=None, first=None,
              blocks=range(1)) -> dict:
    """The multisets of ``size`` letters over positive weights ``wt``, as
    sorted index tuples, whose weight lies in [lo, hi]; when ``below`` is
    given the smallest letter is less than it.  They come split by a second
    grading, as ``_lyndon_walk`` splits its words: {f: the multisets whose
    letters' first components ``first`` sum to f} for each f of the range
    ``blocks`` that has any, each list in lexicographic order, and without
    ``first`` every multiset in block 0.

    A branch is cut as soon as the letters still to come, none smaller than
    the last one taken, cannot land the weight in range, or its first sum is
    above ``blocks``, or below it by more than the weight still allowed.
    The last letter gets no frame: it is any letter from the one before it
    on whose weight lands the total in [lo, hi], read off ``weight_index``
    in ascending order.  In lexicographic order the multisets that share all
    letters but the last come one after another, in the order of their last
    letter, so emitting them in place keeps each block's order; a multiset
    of one letter is the empty one closed by it.  ``bounds`` is
    ``(*suffix_bounds(wt), weight_index(wt))``, passed in by callers that
    enumerate many times over one alphabet.
    """
    if not size:
        return {0: [()]} if lo <= 0 <= hi and 0 in blocks else {}
    found = {}
    if not blocks:
        return found
    bottom, top = blocks[0], blocks[-1]
    k = len(wt)
    first = first or [0] * k
    lightest, heaviest, index = bounds or (*suffix_bounds(wt), weight_index(wt))
    # one frame per position of ``word`` but the last, so a large size
    # costs no recursion: (the letters still to try there, the weight so
    # far, the first-component sum so far)
    word, frames = [], [(iter(range(k if below is None else min(below, k))), 0, 0)]
    while frames:
        letters, w, f = frames[-1]
        rest = size - len(word) - 1        # the letters to come after this one
        for a in letters:
            w2, f2 = w + wt[a], f + first[a]
            if (w2 + rest * lightest[a] > hi or w2 + rest * heaviest[a] < lo
                    or f2 > top or f2 + hi - w2 < bottom):
                continue
            if rest > 1:
                word.append(a)
                frames.append((iter(range(a, k)), w2, f2))
                break
            if rest:
                prefix, ends = (*word, a), _letters_in(index, lo - w2, hi - w2, a)
            else:                           # size 1: the empty multiset closed by a
                prefix, ends, f2 = (), (a,), f
            for b in ends:
                g = f2 + first[b]
                if bottom <= g <= top:
                    found.setdefault(g, []).append(prefix + (b,))
        else:
            frames.pop()
            if frames:
                word.pop()
    return found
