"""Independent Clifford product: the Rota–Stein cliffordization closed form

    e_I · e_J = Σ_{K⊆I, L⊆J, |K|=|L|} ε · det B[rev(K), L] · e_{I∖K} ∧ e_{J∖L}

with ε = ε(I∖K, K) · ε(L, J∖L) the signs that split the two blades, as in the
``cmulRS`` route of Ablamowicz & Fauser's BIGEBRA package (Comput. Phys.
Commun. 170, 2005). It shares no code with ``qclifford``: signs come from
counting inversions on index lists, minors from a memoized Laplace expansion,
and Q(i) arithmetic from the small ``QI`` class below. Blades are bit masks,
bit i standing for e_{i+1}, and coefficients are ``Fraction`` or ``QI``.
"""

from __future__ import annotations

from fractions import Fraction


class QI:
    """Exact Gaussian rational re + im·i."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(x):
        return x if isinstance(x, QI) else QI(x)

    def __add__(self, other):
        other = QI.lift(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QI.lift(other)
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QI.lift(other) - self

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        other = QI.lift(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = QI.lift(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def indices(bits: int):
    out, i = [], 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def concat_sign(first: int, second: int) -> int:
    """Sign of the permutation that sorts indices(first) + indices(second)."""
    left, right = indices(first), indices(second)
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def submasks(bits: int):
    sub = bits
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & bits


class RotaStein:
    """Product oracle for one bilinear form B (a square list of scalars)."""

    def __init__(self, B):
        self.B = B
        self._minors = {}
        self._pairs = {}

    def minor(self, rows: int, cols: int):
        """det B[rows, cols], both index sets in ascending order."""
        if rows == 0:
            return Fraction(1)
        key = (rows, cols)
        if key in self._minors:
            return self._minors[key]
        low = rows & -rows
        row = self.B[low.bit_length() - 1]
        total = Fraction(0)
        for position, j in enumerate(indices(cols)):
            if row[j]:
                term = row[j] * self.minor(rows ^ low, cols ^ (1 << j))
                total = total - term if position % 2 else total + term
        self._minors[key] = total
        return total

    def blade_product(self, I: int, J: int) -> dict:
        key = (I, J)
        if key in self._pairs:
            return self._pairs[key]
        by_size = {}
        for L in submasks(J):
            by_size.setdefault(bin(L).count("1"), []).append(L)
        out = {}
        for K in submasks(I):
            k = bin(K).count("1")
            reverse = -1 if (k * (k - 1) // 2) % 2 else 1
            for L in by_size.get(k, ()):
                left, right = I ^ K, J ^ L
                if left & right:
                    continue
                det = self.minor(K, L)
                if not det:
                    continue
                sign = (reverse * concat_sign(left, K) * concat_sign(L, right)
                        * concat_sign(left, right))
                value = out.get(left | right, Fraction(0))
                out[left | right] = value + det if sign > 0 else value - det
        out = {b: c for b, c in out.items() if c}
        self._pairs[key] = out
        return out

    def product(self, u: dict, v: dict) -> dict:
        """Product of two {blade: coefficient} maps; zero terms dropped."""
        acc = {}
        for bu, cu in u.items():
            for bv, cv in v.items():
                factor = cu * cv
                for bits, c in self.blade_product(bu, bv).items():
                    acc[bits] = acc.get(bits, Fraction(0)) + factor * c
        return {b: c for b, c in acc.items() if c}


def same_terms(oracle_terms: dict, program_terms: dict) -> bool:
    """Compare by value, whatever scalar classes the two sides use."""
    if set(oracle_terms) != set(program_terms):
        return False
    return all(QI.lift(oracle_terms[b]) == as_qi(program_terms[b]) for b in oracle_terms)


def as_qi(x) -> QI:
    """A program scalar (int, Fraction or an object with .re/.im) as QI."""
    if isinstance(x, (int, Fraction)):
        return QI(x)
    return QI(x.re, x.im)
