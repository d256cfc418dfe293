"""Differential oracle: the Localization normal form against sympy.

An element num * prod_s s^(-e_s) in normal form, written as a fraction,
is in lowest terms with a monic denominator, which is what sympy.cancel
gives once its denominator is made monic.  Test-only: skipped when sympy
is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import Localization, cyclotomic_polynomial, poly_mul

sympy = pytest.importorskip("sympy")

F = Fraction
T = sympy.Symbol("t")

RINGS = (
    Localization([[0, 1], [1, 1]], "y"),
    Localization([cyclotomic_polynomial(d) for d in (1, 2, 3, 4)], "t"),
)

parts = st.tuples(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=1, max_size=5),
    st.lists(st.integers(min_value=-2, max_value=3), min_size=4, max_size=4),
)


def _sym(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * T ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def _sym_element(ring, part):
    num, exps = part
    out = _sym(num)
    for s, e in zip(ring.inverted, exps):
        out = out * _sym(s) ** -e
    return out


def _coeffs(poly):
    out = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sympy_pair(expr):
    """sympy.cancel(expr) as (numerator, monic denominator)."""
    n, d = sympy.fraction(sympy.cancel(expr))
    num, den = _coeffs(sympy.Poly(n, T)), _coeffs(sympy.Poly(d, T))
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


def _pair(x):
    """The normal form num * prod_s s^(-e_s) as (numerator, denominator)."""
    num, den = list(x.num), [F(1)]
    for s, e in zip(x.ring.inverted, x.exps):
        for _ in range(abs(e)):
            if e < 0:
                num = poly_mul(num, s)
            else:
                den = poly_mul(den, s)
    return num, den


@seed(20261022)
@settings(max_examples=40, deadline=None)
@given(parts, parts)
def test_normal_form_matches_sympy_cancel(pa, pb):
    for ring in RINGS:
        n = len(ring.inverted)
        pa_, pb_ = (pa[0], pa[1][:n]), (pb[0], pb[1][:n])
        a, b = ring.element(*pa_), ring.element(*pb_)
        sa, sb = _sym_element(ring, pa_), _sym_element(ring, pb_)
        for ours, theirs in ((a, sa), (a + b, sa + sb), (a - b, sa - sb),
                             (a * b, sa * sb)):
            assert _pair(ours) == _sympy_pair(theirs), ring
