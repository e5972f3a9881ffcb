"""Exact coefficient arithmetic: rationals and Gaussian rationals."""

from __future__ import annotations

import re as _re
import sys as _sys
from fractions import Fraction
from typing import Union

from .errors import ComputationError


class GaussianRational:
    """A number ``re + im*i`` with exact rational components.

    Mixes freely with ``int`` and ``Fraction`` in arithmetic. Results whose
    imaginary part cancels to zero collapse back to a plain ``Fraction``, so
    purely real computations never carry the complex wrapper.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _parts(other):
        if isinstance(other, GaussianRational):
            return other.re, other.im
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return gaussian(self.re + p[0], self.im + p[1])

    __radd__ = __add__

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return gaussian(self.re - p[0], self.im - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return gaussian(p[0] - self.re, p[1] - self.im)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, p[0], p[1]
        return gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero")
        a, b = self.re, self.im
        return gaussian((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(p[0], p[1]).__truediv__(self)

    def __neg__(self):
        return gaussian(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self.re == p[0] and self.im == p[1]

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, GaussianRational]

RING_RATIONAL = "Q"
RING_GAUSSIAN = "Q(i)"


def gaussian(re, im=0) -> Scalar:
    """Build a Gaussian rational, demoting to Fraction when im == 0."""
    im = Fraction(im)
    if im == 0:
        return Fraction(re)
    return GaussianRational(re, im)


def as_scalar(value) -> Scalar:
    """Coerce an int/Fraction/GaussianRational to canonical scalar form."""
    if isinstance(value, GaussianRational):
        return value.re if value.im == 0 else value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def conj(value: Scalar) -> Scalar:
    if isinstance(value, GaussianRational):
        return value.conjugate()
    return value


def real_part(value: Scalar) -> Fraction:
    return value.re if isinstance(value, GaussianRational) else value


def imag_part(value: Scalar) -> Fraction:
    return value.im if isinstance(value, GaussianRational) else Fraction(0)


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q". Rejects anything else (floats, spaces, ...)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    return Fraction(text)


def scalar_from_json(obj, ring: str) -> Scalar:
    """Decode a JSON scalar: "p/q" string, int, or {"re","im"} in Q(i) mode."""
    if isinstance(obj, bool):
        raise ValueError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, dict):
        if ring != RING_GAUSSIAN:
            raise ValueError("complex entries require ring Q(i)")
        extra = set(obj) - {"re", "im"}
        if extra:
            raise ValueError(f"unknown scalar fields {sorted(extra)}")
        return gaussian(parse_rational(obj.get("re", "0")),
                        parse_rational(obj.get("im", "0")))
    raise ValueError(f"not a scalar: {obj!r}")


def scalar_to_json(value: Scalar):
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    return str(value)


def format_scalar(value: Scalar) -> str:
    """Render a scalar in the multivector text syntax.

    Pure rationals print as p/q; pure imaginaries as "p/qi"; mixed values in
    parentheses, e.g. "(1/2-3/4i)". A part with more digits than the
    interpreter converts to text raises ComputationError.
    """
    try:
        return _scalar_text(value)
    except ValueError:
        raise ComputationError("coefficient too long to print (over "
                               f"{_sys.get_int_max_str_digits()} digits)") from None


def _scalar_text(value: Scalar) -> str:
    if isinstance(value, GaussianRational) and value.im != 0:
        if value.re == 0:
            if value.im == 1:
                return "i"
            if value.im == -1:
                return "-i"
            return f"{value.im}i"
        sign = "+" if value.im > 0 else "-"
        mag = abs(value.im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"({value.re}{sign}{imtxt})"
    return str(real_part(value))

