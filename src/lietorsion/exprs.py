"""Text grammar for Lie expressions.

Identifiers name generators, ``u(s,t)`` names a basis element of the derived
alphabet, ``[e1,...,ek]`` is the left-normed product, and terms may carry
integer (or rational) scalar prefixes written ``n*expr``.  Sums and
differences of terms are accepted so printed elements parse back.
"""

from __future__ import annotations

from collections import namedtuple

from .elements import LieElement, ZZ, bracket, generator_element, lie_zero


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


GenNode = namedtuple("GenNode", "name pos")
BracketNode = namedtuple("BracketNode", "args pos")
ScaleNode = namedtuple("ScaleNode", "scalar arg pos")
SumNode = namedtuple("SumNode", "parts pos")   # parts: (sign, node) pairs


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "[](),*+-/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _found(tok):
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text, alphabet=None):
        self.tokens = _tokenize(text)
        self.k = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_found(tok)}", tok[2])
        self.k += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        pos = self.peek()[2]
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        parts = [(sign, self.term())]
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            parts.append((sign, self.term()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return SumNode(tuple(parts), pos)

    def term(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            scalar = tok[1]
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                from fractions import Fraction
                scalar = Fraction(scalar, den[1])
            self.take("*")
            return ScaleNode(scalar, self.factor(), tok[2])
        return self.factor()

    def factor(self):
        tok = self.peek()
        if tok[0] == "[":
            self.take()
            args = [self.expr()]
            while self.peek()[0] == ",":
                self.take()
                args.append(self.expr())
            close = self.peek()
            if close[0] != "]":
                raise ParseError("unbalanced brackets", close[2])
            self.take()
            return BracketNode(tuple(args), tok[2])
        if tok[0] == "ident":
            self.take()
            name = tok[1]
            if name == "u" and self.peek()[0] == "(":
                self.take()
                s = self.take("int")
                self.take(",")
                t = self.take("int")
                close = self.peek()
                if close[0] != ")":
                    raise ParseError("malformed u(s,t)", close[2])
                self.take()
                name = f"u({s[1]},{t[1]})"
            if self.alphabet is not None:
                try:
                    self.alphabet.index(name)
                except KeyError:
                    raise ParseError(f"unknown generator {name!r}", tok[2]) from None
            return GenNode(name, tok[2])
        raise ParseError(f"expected an expression, found {_found(tok)}", tok[2])


def parse_expression(text, alphabet=None):
    """Parse to an expression tree; errors carry the offending offset."""
    return _Parser(text, alphabet).parse()


def evaluate(node, alphabet, domain=ZZ) -> LieElement:
    """Evaluate an expression tree to a Lie element over the alphabet."""
    if isinstance(node, GenNode):
        try:
            i = alphabet.index(node.name)
        except KeyError:
            raise ParseError(f"unknown generator {node.name!r}", node.pos) from None
        return generator_element(alphabet, i, domain)
    if isinstance(node, BracketNode):
        acc = evaluate(node.args[0], alphabet, domain)
        for arg in node.args[1:]:
            acc = bracket(acc, evaluate(arg, alphabet, domain))
        return acc
    if isinstance(node, ScaleNode):
        return node.scalar * evaluate(node.arg, alphabet, domain)
    if isinstance(node, SumNode):
        acc = lie_zero(alphabet, domain)
        for sign, part in node.parts:
            term = evaluate(part, alphabet, domain)
            acc = acc + (term if sign > 0 else -term)
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def parse_lie(text, alphabet, domain=ZZ) -> LieElement:
    return evaluate(parse_expression(text, alphabet), alphabet, domain)


def format_word(alphabet, idx) -> str:
    """Bracketed rendering of a Lyndon word, flattened along the left spine."""
    from .elements import bracketing
    from .words import LyndonWord

    if len(idx) == 1:
        return alphabet.generators[idx[0]].name
    tree = bracketing(LyndonWord(alphabet, idx))
    return _format_tree(tree)


def _format_tree(tree):
    if not isinstance(tree, tuple):
        return tree.name
    spine = []
    node = tree
    while isinstance(node, tuple):
        spine.append(node[1])
        node = node[0]
    spine.append(node)
    spine.reverse()
    return "[" + ",".join(_format_tree(x) for x in spine) + "]"


def format_leftnormed(alphabet, letters) -> str:
    return "[" + ",".join(alphabet.generators[i].name for i in letters) + "]"


def format_lie(e: LieElement) -> str:
    """Human and parser readable rendering of a Lie element."""
    if e.is_zero():
        return "0"
    bits = []
    for idx, c in sorted(e.terms.items()):
        mono = format_word(e.alphabet, idx)
        if c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        if bits and not piece.startswith("-"):
            bits.append("+")
            bits.append(piece)
        elif bits:
            bits.append("-")
            bits.append(piece[1:])
        else:
            bits.append(piece)
    return " ".join(bits)
