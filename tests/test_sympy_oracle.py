"""Differential oracle: the exact kernel against sympy.

An element num * y^-a (1+y)^-b of the formal ring Q[y, 1/y, 1/(1+y)] in
normal form, written as a fraction, is in lowest terms with a monic
denominator, which is what sympy.cancel gives once its denominator is
made monic.  An element of the cyclotomic ring Q[y]/(+-Phi_N(-y)) is its
remainder modulo the minimal polynomial of y, which sympy.rem gives, and
its inverse is sympy.invert.  The Poincare series of the level-N
presentations and their degrees h_0 are checked against sympy's rational
functions, and the series operations exp, log, inverse and
compose_inverse over QQ against sympy's ring_series.  Test-only: skipped
when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import QQ, TruncatedSeries
from ellgenus.jacobi_q import FORMAL_RING, _modulus, y_model
from ellgenus.level_n import (GradedIdealPresentation, degree_h0,
                              poincare_series)

from _oracles import poly_mul

sympy = pytest.importorskip("sympy")

F = Fraction
T = sympy.Symbol("t")

# the formal ring inverts y and 1 + y
INVERTED = ((0, 1), (1, 1))

parts = st.tuples(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=1, max_size=5),
    st.lists(st.integers(min_value=-2, max_value=3), min_size=2, max_size=2),
)


def _element(ring, coeffs, exps=(0, 0)):
    """sum_i coeffs[i] y^i, over the formal ring times y^-a (1+y)^-b for
    exps = (a, b), built from gen, from_fraction and dot."""
    y = ring.gen()
    x = ring.dot((c, y ** i) for i, c in enumerate(coeffs))
    if ring.modulus is None:
        x = x * y ** -exps[0] * (ring.one + y) ** -exps[1]
    return x


def _sym(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * T ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def _sym_element(part):
    num, exps = part
    out = _sym(num)
    for s, e in zip(INVERTED, exps):
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
    """The normal form num * y^-a (1+y)^-b as (numerator, denominator)."""
    num, den = list(x.num), [F(1)]
    for s, e in zip(INVERTED, x.exps):
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
    a, b = _element(FORMAL_RING, *pa), _element(FORMAL_RING, *pb)
    sa, sb = _sym_element(pa), _sym_element(pb)
    for ours, theirs in ((a, sa), (a + b, sa + sb), (a - b, sa - sb),
                         (a * b, sa * sb)):
        assert _pair(ours) == _sympy_pair(theirs)


@pytest.mark.parametrize("N", range(2, 9))
def test_poincare_series_matches_sympy(N):
    # the level-N presentation: weights 1..4, relations of degree N -+ 1
    weights, degrees = (1, 2, 3, 4), (N - 1, N + 1)
    num, den = poincare_series(GradedIdealPresentation(weights, degrees))
    expected = sympy.Mul(*(1 - T ** r for r in degrees)) / sympy.Mul(
        *(1 - T ** w for w in weights))
    assert sympy.cancel(_sym(num) / _sym(den) - expected) == 0
    # h_0: the Krull dimension 2 pole at t = 1 cancelled, then t = 1
    regular = sympy.cancel(expected * (1 - T) ** 2 * sympy.Mul(
        *(sum(T ** i for i in range(w)) for w in weights)))
    assert degree_h0(GradedIdealPresentation(weights, degrees)) == F(
        str(regular.subs(T, 1))) == N * N - 1


Y = sympy.Symbol("y")

quot_parts = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1, max_size=9)


def _sym_y(coeffs):
    return sum((sympy.Rational(F(c).numerator, F(c).denominator) * Y ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def _residue(expr, modulus, degree):
    """expr mod modulus, as Fractions low -> high padded to degree."""
    out = _coeffs(sympy.Poly(sympy.rem(expr, modulus, Y), Y))
    return tuple(out) + (F(0),) * (degree - len(out))


@seed(20261102)
@settings(max_examples=30, deadline=None)
@given(quot_parts, quot_parts)
def test_cyclotomic_products_and_inverses_match_sympy(pa, pb):
    for N in (3, 4, 5, 7):
        ring, y = y_model(N)
        # the modulus is the monic minimal polynomial +-Phi_N(-y) of y
        modulus = sympy.Poly(sympy.cyclotomic_poly(N, -Y), Y).monic()
        assert _coeffs(modulus) == list(ring.modulus)
        m = modulus.as_expr()
        degree = len(ring.modulus) - 1
        a, b = _element(ring, pa), _element(ring, pb)
        sa, sb = _sym_y(pa), _sym_y(pb)
        assert a.coeffs == _residue(sa, m, degree)
        assert (a * b).coeffs == _residue(sa * sb, m, degree)
        assert (a * y).coeffs == _residue(sa * Y, m, degree)
        for x, sx in ((a, sa), (b, sb), (a * b, sa * sb)):
            if not x.is_zero():
                inv = sympy.invert(sympy.rem(sx, m, Y), m, Y)
                assert x.inverse().coeffs == _residue(inv, m, degree)


def test_modulus_matches_sympy_cyclotomic_poly():
    # every level blowup verify accepts (N <= 66), and more
    for N in range(1, 211):
        modulus = sympy.Poly(sympy.cyclotomic_poly(N, -Y), Y).monic()
        assert _modulus(N) == tuple(int(c) for c in _coeffs(modulus)), N
    for N in (0, -1):
        with pytest.raises(ValueError):
            _modulus(N)


rs = pytest.importorskip("sympy.polys.ring_series")
RS_RING, RS_X, RS_Y = sympy.polys.rings.ring("x,y", sympy.QQ)

tails = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                 min_size=1, max_size=7)
units = st.fractions(min_value=-4, max_value=4,
                     max_denominator=5).filter(bool)


def _rs(series):
    """A TruncatedSeries over QQ with low >= 0 as a sympy ring element."""
    return sum((sympy.QQ(c.numerator, c.denominator) * RS_X ** e
                for e, c in zip(range(series.low, series.order + 1),
                                series.coeffs)), RS_RING.zero)


def _rs_coeffs(p, var, n):
    """Coefficients of var^0..var^n of a sympy ring element, as Fractions."""
    idx = RS_RING.gens.index(var)
    out = [F(0)] * (n + 1)
    for monom, c in p.terms():
        assert sum(monom) == monom[idx] and monom[idx] <= n
        out[monom[idx]] = F(int(c.numerator), int(c.denominator))
    return out


def _coeffs_through(series, n):
    return [series.coeff(e) for e in range(n + 1)]


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(tails, units)
def test_series_ops_over_qq_match_sympy_ring_series(tail, lead):
    n = len(tail)
    # valuation >= 1 for exp; constant term 1 for log; a unit constant
    # term for inverse; a unit linear term for compose_inverse
    shifted = TruncatedSeries(QQ, 1, tail, n)
    assert _coeffs_through(shifted.exp(), n) == _rs_coeffs(
        rs.rs_exp(_rs(shifted), RS_X, n + 1), RS_X, n)
    one_plus = TruncatedSeries(QQ, 0, [F(1)] + tail, n)
    assert _coeffs_through(one_plus.log(), n) == _rs_coeffs(
        rs.rs_log(_rs(one_plus), RS_X, n + 1), RS_X, n)
    unit = TruncatedSeries(QQ, 0, [lead] + tail, n)
    inv = unit.inverse()
    assert (inv.low, inv.order) == (0, n)
    assert _coeffs_through(inv, n) == _rs_coeffs(
        rs.rs_series_inversion(_rs(unit), RS_X, n + 1), RS_X, n)
    f = TruncatedSeries(QQ, 1, [lead] + tail, n + 1)
    g = f.compose_inverse()
    assert (g.low, g.order) == (1, n + 1)
    assert _coeffs_through(g, n + 1) == _rs_coeffs(
        rs.rs_series_reversion(_rs(f), RS_X, n + 2, RS_Y), RS_Y, n + 1)
