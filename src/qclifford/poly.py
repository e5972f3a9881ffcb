"""Exact univariate polynomials over Q and Q(i): synthetic division, pure
powers of a linear factor, and complete rational roots.

A polynomial is a list of coefficients, low degree first. Rational roots are
isolated by Sturm sequences over the integers and checked exactly, so the
root set is complete and nothing in it is a guess.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import imag_part, real_part


def divide_linear(poly, lam):
    """Quotient and remainder poly(λ) of poly by x − λ, by synthetic
    division."""
    acc, quotient = 0, []
    for a in reversed(poly):
        acc = acc * lam + a
        quotient.append(acc)
    remainder = quotient.pop()
    return quotient[::-1], remainder


def power_of_linear(m):
    """λ when the monic m = (x − λ)^d exactly, else None."""
    lam = -m[-2] / (len(m) - 1)
    q = [Fraction(1)]
    while len(q) < len(m):
        q = [a - lam * b for a, b in zip([0] + q, q + [0])]
    return lam if q == m else None


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _derivative(p):
    return [k * a for k, a in enumerate(p)][1:]


def _chain(a, b):
    """Integer polynomials a, b, then the negated remainders of the last
    two, each a positive multiple of that one over Q: the dividend is
    multiplied by |lc| of the divisor at each step (pseudo-division) and the
    result divided by its content. The last member is gcd(a, b) up to a
    constant factor, and the chain of a, a′ is a Sturm chain of a."""
    chain = [a, b]
    while True:
        a, b = chain[-2:]
        a, lead = list(a), abs(b[-1])
        while len(a) >= len(b):
            k, c = len(a) - len(b), a.pop() * (lead // b[-1])
            a = [lead * x for x in a]
            for j, x in enumerate(b[:-1]):
                a[k + j] -= c * x
        r = [-x for x in _trim(a)]
        if not r:
            return chain
        content = gcd(*r)
        chain.append([x // content for x in r])


def _integral(p):
    """p times the common denominator of its coefficients."""
    D = lcm(*(a.denominator for a in p))
    return [int(a * D) for a in p]


def _quotient(a, b):
    """a/b for integer polynomials, b primitive and dividing a; the quotient
    has integer coefficients by Gauss's lemma."""
    a, q = list(a), []
    while len(a) >= len(b):
        c = a[-1] // b[-1]
        q.append(c)
        for j, x in enumerate(b):
            a[len(a) - len(b) + j] -= c * x
        a.pop()
    return q[::-1]


def _value(p, y):
    value = 0
    for a in reversed(p):
        value = value * y + a
    return value


def _sign_changes(chain, y):
    signs = [v > 0 for v in (_value(p, y) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _split(a, b):
    """An integer strictly inside (a, b), b − a ≥ 2: 0 when the interval
    holds it, a power of two halfway between the bit lengths when the
    interval spans more than two binary orders of magnitude, else the
    midpoint."""
    if b <= 0:
        return -_split(-b, -a)
    if a < 0:
        return 0
    if b > 4 * a + 4:
        return 1 << ((a.bit_length() + b.bit_length()) // 2)
    return (a + b) // 2


def _integer_root(P, a, b):
    """The integer root of the squarefree P in (a, b], or None, when (a, b]
    holds one root of P or has width 1. P changes sign only at that root, so
    its sign at a point inside tells on which side the root lies. Each step
    tries the Newton point x of the previous one (or, when it falls outside,
    _split) and its two neighbours, then _split."""
    if _value(P, b) == 0:
        return b
    dP, side, x = _derivative(P), _value(P, b) > 0, b
    while b - a > 1:
        slope = _value(dP, x)
        x = x - _value(P, x) // slope if slope else a
        if not a < x < b:
            x = _split(a, b)
        for z in (x, x + 1, x - 1, None):
            if z is None and b - a > 1:
                z = _split(a, b)
            if z is not None and a < z < b:
                value = _value(P, z)
                if value == 0:
                    return z
                a, b = (a, z) if (value > 0) == side else (z, b)
    return None


def rational_roots(m):
    """Distinct rational roots of a nonzero m over Q or Q(i), ascending.

    A real λ is a root of m exactly when it is a root of p = gcd(Re m, Im m).
    With p squarefree and monic and D the common denominator of its
    coefficients, P(y) = D^d·p(y/D) is a monic integer polynomial, so its
    rational roots are integers, all inside (−2^k, 2^k) with 2^k above
    Fujiwara's bound 2·max|a_(d−j)|^(1/j). The Sturm chain of P counts its
    distinct real roots in any (a, b]; bisection splits the intervals that
    hold more than one, and each interval with one is narrowed to width 1
    by _integer_root. λ = y/D is kept only when m(λ) = 0 exactly."""
    p = _integral(_trim([real_part(a) for a in m]))
    im = _trim([imag_part(a) for a in m])
    if im:
        p = _chain(p, _integral(im))[-1]
    if len(p) < 2:
        return []
    chain = _chain(p, _derivative(p))
    if len(chain[-1]) > 1:  # keep each root once: p/gcd(p, p′)
        content = gcd(*chain[-1])
        p = _quotient(p, [x // content for x in chain[-1]])
        chain = _chain(p, _derivative(p))
    d = len(p) - 1
    D = lcm(*(Fraction(a, p[-1]).denominator for a in p))
    P = [a * D ** (d - k) // p[-1] for k, a in enumerate(p)]
    # sign changes of the chain of P at y are those of the chain of p at y/D
    chain = [[c * D ** (len(q) - 1 - k) for k, c in enumerate(q)] for q in chain]
    bound = 2 << max(((abs(a).bit_length() + d - k - 1) // (d - k)
                      for k, a in enumerate(P[:-1])), default=0)
    roots = []
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb > 1 and b - a > 1:
            mid = _split(a, b)
            vm = _sign_changes(chain, mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
        elif va > vb:
            y = _integer_root(P, a, b)
            if y is not None and divide_linear(m, Fraction(y, D))[1] == 0:
                roots.append(Fraction(y, D))
    return sorted(roots)
