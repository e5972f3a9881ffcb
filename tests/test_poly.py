"""The exact root layer: rational roots are complete, whatever their size or
spacing, over Q and Q(i)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qclifford.poly import divide_linear, power_of_linear, rational_roots
from qclifford.scalars import gaussian


def _product(*factors):
    """Product of polynomials, coefficients low to high."""
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] = acc[i + j] + a * b
        out = acc
    return out


def _from_roots(roots, *factors):
    """The monic polynomial with these rational roots, times the monic
    integer factors: the product of the q·x − p over the integers, divided
    by its leading coefficient."""
    integral = _product(*([-r.numerator, r.denominator] for r in roots), *factors)
    return [Fraction(a, integral[-1]) for a in integral]


IRREDUCIBLE = {"x^2-2": [-2, 0, 1], "x^2+1": [1, 0, 1], "x^2+x+1": [1, 1, 1]}

magnitudes = st.integers(-400, 400).map(lambda e: Fraction(10) ** e)
rationals = st.builds(lambda s, p, q, scale: s * Fraction(p, q) * scale,
                      st.sampled_from([1, -1]), st.integers(1, 99),
                      st.integers(1, 99), magnitudes)


@st.composite
def polynomials(draw):
    """(m, its distinct rational roots): known rational roots, with a
    near-coincident pair and a repeated root among them at times, times
    irreducible factors and, over Q(i), a non-real linear factor."""
    roots = draw(st.lists(rationals, max_size=2))
    if draw(st.booleans()):
        r = draw(rationals)
        roots += [r, r * (1 + Fraction(1, 10 ** draw(st.integers(1, 20))))]
    if roots and draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)))
    factors = [IRREDUCIBLE[name] for name in
               draw(st.lists(st.sampled_from(sorted(IRREDUCIBLE)), max_size=2, unique=True))]
    m = _from_roots(roots, *factors)
    if draw(st.booleans()):
        m = _product(m, [-gaussian(draw(rationals), draw(rationals)), 1])
    return m, sorted(set(roots))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(polynomials())
def test_rational_roots_are_complete(case):
    m, roots = case
    assert rational_roots(m) == roots


def test_clustered_roots():
    # at the float stage these gave 0 of 2 and 0 of 3 roots
    pair = [Fraction(1), 1 + Fraction(1, 10**20)]
    assert rational_roots(_from_roots(pair)) == pair
    third = Fraction(1, 3)
    triple = [third - Fraction(1, 10**13), third, third + Fraction(1, 10**12)]
    assert rational_roots(_from_roots(triple)) == triple


def test_extreme_and_multiple_roots():
    big, small = Fraction(10) ** 400, Fraction(1, 10**400)
    roots = [-big, -3 * small, small, big]
    assert rational_roots(_from_roots(roots, IRREDUCIBLE["x^2-2"])) == roots
    assert rational_roots(_from_roots([big, big, small])) == [small, big]
    assert rational_roots(_from_roots([Fraction(1, 2)] * 3)) == [Fraction(1, 2)]
    assert rational_roots(_from_roots([0, 0, 0])) == [0]


def test_no_rational_root():
    assert rational_roots([Fraction(1)]) == []
    assert rational_roots(_product(IRREDUCIBLE["x^2-2"], IRREDUCIBLE["x^2+1"])) == []
    i = gaussian(0, 1)
    assert rational_roots([-i, Fraction(1)]) == []               # x − i
    assert rational_roots(_product([-1 - i, 1], [1, 1])) == [-1]  # (x − 1 − i)(x + 1)


def test_divide_linear_and_power_of_linear():
    m = _from_roots([Fraction(2), Fraction(-1, 3)])
    quotient, value = divide_linear(m, Fraction(2))
    assert value == 0 and quotient == [Fraction(1, 3), 1]
    assert divide_linear(m, 1)[1] == m[0] + m[1] + m[2]
    assert power_of_linear(_from_roots([Fraction(3, 2)] * 3)) == Fraction(3, 2)
    assert power_of_linear(m) is None
