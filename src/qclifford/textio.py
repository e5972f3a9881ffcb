"""Multivector text syntax.

Terms look like "3/2*e1^e3"; "Id" names the unit blade; Gaussian-rational
coefficients print as "3/4i" (pure imaginary) or "(1/2-3/4i)". Parsing and
printing round-trip exactly; printed terms come in ascending blade bit order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .exterior import Multivector, blade_indices, wedge_sign
from .scalars import (RING_GAUSSIAN, GaussianRational, format_scalar, gaussian)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<blade>e\d+)|(?P<ident>Id|i)|(?P<number>\d+)|(?P<punct>[+\-*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", position=pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def _show(value):
    return "end of input" if value is None else repr(value)


class _Parser:
    def __init__(self, ctx, tokens, length):
        self.ctx = ctx
        self.tokens = tokens
        self.length = length
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.length)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        k, v, at = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {_show(v)}", position=at)
        return v

    def fail(self, message):
        raise ParseError(message, position=self.peek()[2])

    def integer(self, digits, at):
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's int-to-str digit limit
            raise ParseError(f"integer of {len(digits)} digits is too long",
                             position=at) from None

    # -- grammar ----------------------------------------------------------

    def multivector(self):
        terms = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "punct" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        while True:
            coeff, bits = self.term()
            coeff = coeff if sign > 0 else -coeff
            if coeff != 0:
                new = terms.get(bits, Fraction(0)) + coeff
                if new == 0:
                    terms.pop(bits, None)
                else:
                    terms[bits] = new
            kind, value, at = self.peek()
            if kind is None:
                break
            if kind == "punct" and value in "+-":
                self.next()
                sign = -1 if value == "-" else 1
                continue
            raise ParseError(f"expected '+' or '-', found {_show(value)}", position=at)
        return Multivector.from_terms(self.ctx, terms)

    def term(self):
        kind, value, _ = self.peek()
        if kind == "number" or (kind == "punct" and value == "(") or (
            kind == "ident" and value == "i"
        ):
            coeff = self.coefficient()
            kind, value, _ = self.peek()
            if kind == "punct" and value == "*":
                self.next()
                sign, bits = self.blade()
                return coeff * sign, bits
            return coeff, 0
        sign, bits = self.blade()
        return Fraction(sign), bits

    def coefficient(self):
        kind, value, at = self.peek()
        if kind == "punct" and value == "(":
            return self.parenthesized()
        if kind == "ident" and value == "i":
            self.next()
            return self.imaginary(Fraction(1), at)
        r = self.rational()
        kind, value, at = self.peek()
        if kind == "ident" and value == "i":
            self.next()
            return self.imaginary(r, at)
        return r

    def imaginary(self, magnitude, at):
        if self.ctx.ring != RING_GAUSSIAN:
            raise ParseError("imaginary coefficient requires ring Q(i)", position=at)
        return gaussian(0, magnitude)

    def parenthesized(self):
        self.expect("punct", "(")
        re_sign = 1
        kind, value, _ = self.peek()
        if kind == "punct" and value == "-":
            self.next()
            re_sign = -1
        kind, value, at = self.peek()
        if kind == "ident" and value == "i":
            self.next()
            result = self.imaginary(Fraction(re_sign), at)
            self.expect("punct", ")")
            return result
        re_part = self.rational() * re_sign
        kind, value, _ = self.peek()
        if kind == "punct" and value == ")":
            self.next()
            return re_part
        if not (kind == "punct" and value in "+-"):
            self.fail("expected sign or ')' in complex coefficient")
        self.next()
        im_sign = -1 if value == "-" else 1
        kind, value, at = self.peek()
        if kind == "ident" and value == "i":
            self.next()
            mag = Fraction(1)
        else:
            mag = self.rational()
            k, v, at = self.next()
            if k != "ident" or v != "i":
                raise ParseError("expected 'i' after imaginary magnitude", position=at)
        self.expect("punct", ")")
        if self.ctx.ring != RING_GAUSSIAN:
            raise ParseError("imaginary coefficient requires ring Q(i)", position=at)
        return gaussian(re_part, mag * im_sign)

    def rational(self):
        kind, value, at = self.next()
        if kind != "number":
            raise ParseError(f"expected a number, found {_show(value)}", position=at)
        numerator = self.integer(value, at)
        kind, value, _ = self.peek()
        if kind == "punct" and value == "/":
            self.next()
            k, v, at = self.next()
            if k != "number":
                raise ParseError(f"expected a denominator, found {_show(v)}", position=at)
            denominator = self.integer(v, at)
            if denominator == 0:
                raise ParseError("zero denominator", position=at)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def blade(self):
        kind, value, at = self.next()
        if kind == "ident" and value == "Id":
            return 1, 0
        if kind != "blade":
            raise ParseError(f"expected a blade, found {_show(value)}", position=at)
        sign = 1
        bits = 0
        while True:
            index = self.integer(value[1:], at)
            if not 1 <= index <= self.ctx.dim:
                raise ParseError(
                    f"index {index} out of range 1..{self.ctx.dim}", position=at
                )
            bit = 1 << (index - 1)
            step = wedge_sign(bits, bit)
            sign *= step
            bits |= bit
            kind, value, _ = self.peek()
            if not (kind == "punct" and value == "^"):
                break
            self.next()
            kind, value, at = self.next()
            if kind != "blade":
                raise ParseError(f"expected a blade factor, found {_show(value)}", position=at)
        return sign, bits


def parse_multivector(ctx, text: str) -> Multivector:
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty multivector expression")
    if text.strip() == "0":
        return ctx.zero()
    parser = _Parser(ctx, _tokenize(text), len(text))
    return parser.multivector()


def format_blade(bits: int) -> str:
    """Name of the basis blade with bit set `bits`: "Id" or "e1^e3"."""
    if bits == 0:
        return "Id"
    return "^".join(f"e{i}" for i in blade_indices(bits))


def _term_text(bits: int, coeff):
    """Returns (negative, body) with the sign pulled out where natural."""
    if isinstance(coeff, GaussianRational) and coeff.im != 0:
        if coeff.re == 0 and coeff.im < 0:
            coeff_text = format_scalar(gaussian(0, -coeff.im))
            negative = True
        else:
            coeff_text = format_scalar(coeff)
            negative = False
        if bits == 0:
            return negative, coeff_text
        return negative, f"{coeff_text}*{format_blade(bits)}"
    negative = coeff < 0
    mag = -coeff if negative else coeff
    if bits == 0:
        return negative, format_scalar(mag)
    if mag == 1:
        return negative, format_blade(bits)
    return negative, f"{format_scalar(mag)}*{format_blade(bits)}"


def format_multivector(u: Multivector) -> str:
    if not u.terms:
        return "0"
    pieces = []
    for bits in sorted(u.terms):
        negative, body = _term_text(bits, u.terms[bits])
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
