from fractions import Fraction

import pytest
from hypothesis import given, settings, seed
from hypothesis import strategies as st

from ellgenus.algebra_kernel import (
    QQ,
    BadValuation,
    ExactDivisionError,
    Localization,
    NonUnitLeadingCoefficient,
    PolyRing,
    QuotientRing,
    RationalFunction,
    TruncatedSeries,
    VariableNotPresent,
    WeightedPoly,
    cyclotomic_polynomial,
    horner,
    poly_divmod,
    poly_eval,
    poly_mul,
    resultant_in,
    ring_invert,
)
from ellgenus.jacobi_q import SeriesRing

F = Fraction

ABCD = PolyRing(("A", 1), ("B", 2), ("C", 3), ("D", 4))


# ---------------------------------------------------------------------------
# series inverse
# ---------------------------------------------------------------------------


def test_series_inverse_geometric():
    # 1/(1+x) = 1 - x + x^2 - ...
    s = TruncatedSeries(QQ, 0, [F(1), F(1)], 8)
    inv = s.inverse()
    for e in range(0, 9):
        assert inv.coeff(e) == F((-1) ** e)


def test_series_inverse_laurent():
    # f = x + x^2, 1/f = x^{-1} (1 - x + x^2 - ...)
    f = TruncatedSeries(QQ, 1, [F(1), F(1)], 8)
    inv = f.inverse()
    assert inv.low == -1
    for k in range(0, 8):
        assert inv.coeff(-1 + k) == F((-1) ** k)


def test_series_inverse_universal_leading_coefficient():
    # Q = 1 + (A/2) x + ..., then 1/Q has linear coefficient -A/2.
    A = ABCD.gen("A")
    Q = TruncatedSeries(ABCD, 0, [ABCD.one, A * F(1, 2)], 3)
    inv = Q.inverse()
    assert inv.coeff(1) == -A * F(1, 2)


def test_series_inverse_times_self_is_one():
    s = TruncatedSeries(QQ, 0, [F(3), F(1), F(-2), F(5)], 7)
    prod = s * s.inverse()
    assert prod.coeff(0) == 1
    for e in range(1, 8):
        assert prod.coeff(e) == 0


def test_series_inverse_zero_raises():
    z = TruncatedSeries.zero_series(QQ, 5)
    with pytest.raises(NonUnitLeadingCoefficient):
        z.inverse()


# ---------------------------------------------------------------------------
# compositional inverse
# ---------------------------------------------------------------------------


def test_compose_inverse_identity():
    f = TruncatedSeries.x_series(QQ, 6)
    g = f.compose_inverse()
    assert g == f


def test_compose_inverse_catalan():
    # f = x - x^2 has inverse y + y^2 + 2 y^3 + 5 y^4 + 14 y^5 (Catalan numbers)
    f = TruncatedSeries(QQ, 1, [F(1), F(-1)], 6)
    g = f.compose_inverse()
    catalan = [1, 1, 2, 5, 14, 42]
    for k, c in enumerate(catalan, start=1):
        assert g.coeff(k) == F(c)


def test_compose_inverse_artanh():
    # Q(x) = x / tanh(x): f = tanh(x), inverse g(y) = sum y^{2n+1}/(2n+1)
    order = 9
    # tanh = sinh/cosh via exp series
    x = TruncatedSeries.x_series(QQ, order)
    ex = x.exp()
    emx = (-x).exp()
    sinh = (ex - emx) * F(1, 2)
    cosh = (ex + emx) * F(1, 2)
    tanh = sinh * cosh.inverse()
    g = tanh.compose_inverse()
    for k in range(1, order + 1):
        expected = F(1, k) if k % 2 == 1 else F(0)
        assert g.coeff(k) == expected


def test_compose_inverse_roundtrip():
    f = TruncatedSeries(QQ, 1, [F(2), F(1), F(-3), F(1, 2)], 7)
    g = f.compose_inverse()
    assert g.compose_inverse() == f
    assert f.compose(g) == TruncatedSeries.x_series(QQ, 7)


def test_compose_inverse_bad_valuation():
    s = TruncatedSeries(QQ, 0, [F(1), F(1)], 5)
    with pytest.raises(BadValuation):
        s.compose_inverse()
    s2 = TruncatedSeries(QQ, 2, [F(1)], 5)
    with pytest.raises(BadValuation):
        s2.compose_inverse()


def _compose_inverse_by_loop(f):
    """Oracle: g_k fixed one at a time from the x^k coefficient of f(g),
    one composition per coefficient."""
    inv_a1 = ring_invert(f.coeff(1))
    g = [f.ring.zero, inv_a1]
    for k in range(2, f.order + 1):
        gk = TruncatedSeries(f.ring, 1, g[1:] + [f.ring.zero], k)
        err = f.truncate(k).compose(gk).coeff(k)
        g.append(-(inv_a1 * err))
    return TruncatedSeries(f.ring, 1, g[1:], f.order)


def test_compose_inverse_matches_loop_oracle_over_abcd():
    A, B, C, D = ABCD.gens()
    tail = [A, B, A * C - D, D * B, A ** 3]
    f = TruncatedSeries(ABCD, 1, [ABCD.from_fraction(F(2))] + tail, 8)
    g = f.compose_inverse()
    assert g.order == 8
    assert g == _compose_inverse_by_loop(f)
    assert f.compose(g) == TruncatedSeries.x_series(ABCD, 8)


# ---------------------------------------------------------------------------
# exp / log / derivative / integrate
# ---------------------------------------------------------------------------


def test_exp_log_roundtrip():
    s = TruncatedSeries(QQ, 1, [F(1), F(-2), F(1, 3)], 8)
    assert s.exp().log() == s


def test_log_of_exp_x_is_x():
    x = TruncatedSeries.x_series(QQ, 10)
    assert x.exp().log() == x


def test_integrate_derivative():
    s = TruncatedSeries(QQ, 1, [F(3), F(5), F(-1)], 6)
    assert s.derivative().integrate() == s


# ---------------------------------------------------------------------------
# weighted polynomials
# ---------------------------------------------------------------------------


def test_weighted_poly_homogeneous_weight():
    A, B, C, D = ABCD.gens()
    p = A * A - B * F(1, 18)
    assert p.weight() == 2
    assert (A + B).weight() is None
    assert (A * C + D).weight() == 4


def test_weighted_poly_monomials_of_weight():
    mons = ABCD.monomials_of_weight(4)
    # A^4, A^2 B, B^2, A C, D
    assert len(mons) == 5


def test_substitute_to_fraction():
    A, B, C, D = ABCD.gens()
    p = A ** 2 * 9 - B
    val = p.substitute({"A": F(1), "B": F(2), "C": 0, "D": 0})
    assert val == F(7)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_linear_pair():
    R = PolyRing("A")
    A, = R.gens()
    r = resultant_in(A - 1, A - 2, "A")
    assert r == R.from_fraction(-1) or r == R.from_fraction(1)
    # value is det [[1,-1],[1,-2]] = -1
    assert r == R.from_fraction(-1)


def test_resultant_eliminates_variable():
    A, B, C, D = ABCD.gens()
    r = resultant_in(A * A - B, A, "A")
    assert r.degree_in("A") <= 0
    assert r == B or r == -B


def test_resultant_footnote_ideal():
    # res_A(B + 3/4 A^2, D + 1/2 A C) proportional to C^2 B + 3 D^2
    A, B, C, D = ABCD.gens()
    r = resultant_in(B + A * A * F(3, 4), D + A * C * F(1, 2), "A")
    target = C * C * B + D * D * 3
    # proportionality: r = lambda * target
    lead_r = r.leading()
    lead_t = target.leading()
    assert lead_r[0] == lead_t[0]
    lam = lead_r[1] / lead_t[1]
    assert r == target * lam
    assert lam != 0


def test_resultant_common_root_vanishes():
    R = PolyRing("A", "B")
    A, B = R.gens()
    p = (A - B) * (A + 1)
    q = (A - B) * (A - 2)
    assert resultant_in(p, q, "A").is_zero()


def test_resultant_variable_not_present():
    A, B, C, D = ABCD.gens()
    with pytest.raises(VariableNotPresent):
        resultant_in(B, D, "A")
    with pytest.raises(VariableNotPresent):
        resultant_in(B, D, "E")


# ---------------------------------------------------------------------------
# quotient rings
# ---------------------------------------------------------------------------


def test_quotient_ring_cyclotomic_sixth_root():
    # N=3: -y a primitive cube root of unity; minimal polynomial of y is
    # Phi_3(-y) = y^2 - y + 1 (monic already)
    phi3 = cyclotomic_polynomial(3)
    mod = [c * F((-1) ** i) for i, c in enumerate(phi3)]
    if mod[-1] < 0:
        mod = [-c for c in mod]
    ring = QuotientRing(mod)
    y = ring.gen()
    # y satisfies y^2 = y - 1; y^6 = 1 since -y is a primitive 6th root? check y^3
    assert y * y == y - 1
    # y is a unit
    assert y * y.inverse() == ring.one


def test_quotient_ring_linear_modulus_is_rational():
    ring = QuotientRing([F(-1), F(1)])  # y - 1
    y = ring.gen()
    assert y == ring.one


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [F(-1), F(1)]
    assert cyclotomic_polynomial(2) == [F(1), F(1)]
    assert cyclotomic_polynomial(4) == [F(1), F(0), F(1)]
    assert cyclotomic_polynomial(6) == [F(1), F(-1), F(1)]


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


CYCLO = Localization([cyclotomic_polynomial(d) for d in (1, 2, 3, 4)], "t")


def test_rational_function_cancellation():
    # (1-t^2)/(1-t) = 1+t, and 1 + t = Phi_2 is a unit
    r = CYCLO.element([1, 0, -1]) / CYCLO.element([1, -1])
    assert r == CYCLO.element([1, 1])
    assert r.num == (F(1),) and r.exps == (0, -1, 0, 0)


def test_rational_function_arithmetic():
    t = CYCLO.gen()
    a = (1 - t).inverse()       # 1/(1-t)
    b = t * (1 - t).inverse()   # t/(1-t)
    assert a - b == CYCLO.element([1, -1]) / (1 - t) * CYCLO.one
    assert a - b == CYCLO.one


def test_rational_function_evaluate():
    r = CYCLO.element([1, 1]) / 2
    assert r.evaluate(F(3)) == F(2)
    with pytest.raises(ZeroDivisionError):
        (1 - CYCLO.gen()).inverse().evaluate(1)


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------


def test_multipoly_vandermonde_division():
    # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
    x1, x2 = PolyRing("x1", "x2").gens()
    p = x1 * x1 - x2 * x2
    q = p.divide_linear(0, 1)
    assert q == x1 + x2


def test_multipoly_division_not_exact():
    x1, x2 = PolyRing("x1", "x2").gens()
    with pytest.raises(ExactDivisionError):
        (x1 * x1 + x2).divide_linear(0, 1)


def test_multipoly_cap():
    x1 = PolyRing("x1").gen("x1").truncate(3)
    p = (x1 + 1) ** 5
    assert p.coeff((4,)) == QQ.zero
    assert p.coeff((3,)) == F(10)


# ---------------------------------------------------------------------------
# property tests (fixed seeds)
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=6),
       st.lists(small_fractions, min_size=1, max_size=6),
       st.lists(small_fractions, min_size=1, max_size=6))
def test_series_ring_axioms(a, b, c):
    order = 6
    sa = TruncatedSeries(QQ, 0, a, order)
    sb = TruncatedSeries(QQ, 0, b, order)
    sc = TruncatedSeries(QQ, 0, c, order)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * sb == sb * sa
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa * sb) * sc == sa * (sb * sc)


@seed(20240818)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=5))
def test_series_inverse_property(coeffs):
    order = 7
    lead = coeffs[0] if coeffs[0] != 0 else F(1)
    s = TruncatedSeries(QQ, 0, [lead] + coeffs[1:], order)
    prod = s * s.inverse()
    assert prod == TruncatedSeries.one_series(QQ, order)


@seed(20240819)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=4))
def test_compose_inverse_involution(tail):
    order = 6
    f = TruncatedSeries(QQ, 1, [F(1)] + tail, order)
    g = f.compose_inverse()
    assert g.compose_inverse() == f


@seed(20240820)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_poly_ring_axioms(e1, e2, c1, c2):
    A, B, C, D = ABCD.gens()
    p = A ** e1 * c1 + B * c2
    q = C ** e2 * c2 - D * c1
    r = A * B - C
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p


XYZ = PolyRing("x", "y", "z")

small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.integers(min_value=-4, max_value=4),
    max_size=5,
).map(lambda t: WeightedPoly(XYZ, {e: F(c) for e, c in t.items()}))


def _truncation(p, cap):
    return {e: c for e, c in p.terms.items() if sum(e) <= cap}


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys,
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=3))
def test_capped_ops_are_truncations_of_uncapped(p, q, a, b, n):
    pa, qb = p.truncate(a), q.truncate(b)
    cap = min(a, b)
    assert (pa + qb).terms == _truncation(p + q, cap)
    assert (pa - qb).terms == _truncation(p - q, cap)
    assert (pa * qb).terms == _truncation(p * q, cap)
    assert (pa * qb).cap == cap
    assert (pa ** n).terms == _truncation(p ** n, a)
    x, y, _ = XYZ.gens()
    quotient = ((x - y) * p).truncate(a).divide_linear(0, 1)
    assert quotient.terms == _truncation(p, a - 1)
    assert quotient.cap == a - 1


@seed(20261019)
@settings(max_examples=30, deadline=None)
@given(small_polys, small_polys)
def test_nested_base_agrees_with_rationals(p, q):
    # the same integer polynomials over Q and over a nested base, whose
    # coefficients are the images of the rational ones
    x, y, _ = XYZ.gens()
    plain = [p + q, p * q - q * 3, p ** 2, horner([1, -2, 3], p),
             ((x - y) * q).divide_linear(0, 1)]
    for base in (QuotientRing([1, -1, 1]), PolyRing("t")):
        ring = PolyRing("x", "y", "z", base=base)
        P, Q = (WeightedPoly(ring, {e: base.from_fraction(c)
                                    for e, c in r.terms.items()})
                for r in (p, q))
        X, Y, _ = ring.gens()
        nested = [P + Q, P * Q - Q * base.from_fraction(3), P ** 2,
                  horner([1, -2, 3], P),
                  ((X - Y) * Q).divide_linear(0, 1)]
        for r, s in zip(plain, nested):
            assert s.terms == {e: base.from_fraction(c)
                               for e, c in r.terms.items()}, base


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=7),
       small_fractions.filter(bool))
def test_compose_inverse_matches_loop_oracle_over_q(tail, lead):
    f = TruncatedSeries(QQ, 1, [lead] + tail, 7)
    assert f.compose_inverse() == _compose_inverse_by_loop(f)


def test_series_times_polynomial_over_series_is_polynomial():
    # a q-series c and a polynomial p over the q-series ring: both orders
    # of the product are the polynomial p * c
    base = QuotientRing([1, -1, 1])
    qs = SeriesRing(base, 2)
    x = PolyRing("x", base=qs).gen("x")
    p = x * x + x * 3
    c = qs.from_function(lambda e: base.from_fraction(e + 1))
    expected = p * c
    assert type(expected) is WeightedPoly
    for prod in (c * p, p * c):
        assert type(prod) is WeightedPoly
        assert prod == expected
    assert expected.coeff((1,)) == c * 3


# ---------------------------------------------------------------------------
# localisations: Q[y, 1/y, 1/(1+y)] and Q[t] at Phi_1..Phi_4
# ---------------------------------------------------------------------------

Y_LOCAL = Localization([[0, 1], [1, 1]], "y")

local_parts = st.tuples(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4),
)
# no root of y, 1 + y or Phi_1..Phi_4 is a rational other than 0, 1, -1
local_points = st.fractions(min_value=-3, max_value=3,
                            max_denominator=5).filter(
    lambda t: t not in (0, 1, -1))


def _local(ring, part):
    num, exps = part
    return ring.element(num, exps[:len(ring.inverted)])


def _local_value(ring, part, t):
    """num(t) * prod s(t)^(-e_s) straight from the data."""
    num, exps = part
    out = poly_eval(num, t)
    for s, e in zip(ring.inverted, exps):
        out *= poly_eval(s, t) ** -e
    return out


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(local_parts, local_parts, local_parts, local_points)
def test_localization_evaluation_is_a_homomorphism(pa, pb, pc, t):
    for ring in (Y_LOCAL, CYCLO):
        a, b, c = (_local(ring, p) for p in (pa, pb, pc))
        va, vb = _local_value(ring, pa, t), _local_value(ring, pb, t)
        assert a.evaluate(t) == va
        assert (a + b).evaluate(t) == va + vb
        assert (a - b).evaluate(t) == va - vb
        assert (a * b).evaluate(t) == va * vb
        # units c * prod s^k invert; t - 2 is prime to every s
        unit = ring.element([pa[0][0] or 1], pa[1][:len(ring.inverted)])
        assert unit.inverse().evaluate(t) == 1 / unit.evaluate(t)
        assert unit * unit.inverse() == ring.one
        if not a.is_zero():
            with pytest.raises(NonUnitLeadingCoefficient):
                (a * ring.element([-2, 1])).inverse()
        # two routes to one function: equal, with equal hashes
        for x, y in (((a + b) * c, a * c + b * c),
                     (a * b - c, b * a + (-c)),
                     ((a * unit) / unit, a)):
            assert x == y
            assert hash(x) == hash(y)
        # the normal form strips a factor s written into the numerator
        s0 = ring.inverted[0]
        lifted = ring.element(poly_mul(a.num, s0), (a.exps[0] + 1,) + a.exps[1:])
        assert lifted == a and hash(lifted) == hash(a)


def test_localization_rejects_non_unit_inverse():
    for ring in (Y_LOCAL, CYCLO):
        with pytest.raises(NonUnitLeadingCoefficient):
            ring.zero.inverse()
        with pytest.raises(NonUnitLeadingCoefficient):
            ring.element([3, 0, 1]).inverse()
    y = Y_LOCAL.gen()
    assert (y * (1 + y) ** 2).inverse() == y ** -1 * (1 + y) ** -2
