"""Parser for the polynomial grammar shared by the CLI and the spec files.

Grammar: rationals p/q, imaginary unit i, declared identifiers, operators
+ - * ^ and parentheses; no implicit multiplication.  Errors carry the
offending position.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import SuperPolynomial
from .rationals import GaussianRational


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


_OPS = set("+-*^()")
_DIGITS = "0123456789"        # str.isdigit also takes digits that int() reads or refuses


def _tokenize(text):
    tokens = []  # (kind, value, pos); kinds: num, ident, op
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or text[k] not in _DIGITS:
                    raise ParseError("expected denominator digits after '/'", j)
                m = k
                while m < n and text[m] in _DIGITS:
                    m += 1
                den = int(text[k:m])
                if den == 0:
                    raise ParseError("zero denominator", k)
                tokens.append(("num", Fraction(num, den), i))
                i = m
            else:
                tokens.append(("num", Fraction(num), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            tokens.append(("ident", name, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, chart, text_len):
        self.tokens = tokens
        self.chart = chart
        self.k = 0
        self.end = text_len

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.k += 1
        return tok

    def expect_op(self, ch):
        tok = self.take()
        if tok[0] != "op" or tok[1] != ch:
            raise ParseError(f"expected {ch!r}", tok[2])

    def parse_expression(self) -> SuperPolynomial:
        tok = self.peek()
        negate = False
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            negate = tok[1] == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return acc
            self.take()
            term = self.parse_term()
            acc = acc - term if tok[1] == "-" else acc + term

    def parse_term(self) -> SuperPolynomial:
        acc = self.parse_power()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return acc
            self.take()
            acc = acc * self.parse_power()

    def parse_power(self) -> SuperPolynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            exp = self.take()
            if exp[0] != "num" or exp[1].denominator != 1 or exp[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", exp[2])
            return base ** int(exp[1])
        return base

    def parse_atom(self) -> SuperPolynomial:
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            return SuperPolynomial.constant(self.chart, GaussianRational(value))
        if kind == "ident":
            if value == "i":
                return SuperPolynomial.constant(self.chart, GaussianRational(0, 1))
            if value not in self.chart:
                raise ParseError(f"unknown variable {value!r}", pos)
            return SuperPolynomial.variable(self.chart, value)
        if kind == "op" and value == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_power()
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, chart) -> SuperPolynomial:
    tokens = _tokenize(text)
    parser = _Parser(tokens, chart, len(text))
    poly = parser.parse_expression()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return poly
