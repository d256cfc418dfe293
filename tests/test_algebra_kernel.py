import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, seed
from hypothesis import strategies as st

from ellgenus.algebra_kernel import (
    QQ,
    BadValuation,
    NonUnitLeadingCoefficient,
    TruncatedSeries,
    VariableNotPresent,
    literal_digits,
    parse_int,
    parse_rational,
    ring_invert,
)
from ellgenus.jacobi_q import (
    FORMAL_RING,
    QSeries,
    QSeriesRing,
    QuotElt,
    RationalFunction,
    _cyclotomic,
    y_model,
)
from ellgenus.weighted_poly import PolyRing, WeightedPoly, horner

from _oracles import (
    bareiss_determinant,
    cyclotomic_polynomial,
    poly_divmod,
    poly_gcd,
    poly_mul,
    resultant_in,
)

F = Fraction

ABCD = PolyRing(("A", 1), ("B", 2), ("C", 3), ("D", 4))


# ---------------------------------------------------------------------------
# series inverse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, digits", [
    ("-3/2", 2), (" 7 ", 1), ("1.5e-3", 5), ("1_000", 4), ("2E+10", 11),
    ("1e0005", 6), ("1e99999999", 100000000), ("x", 0), ("1e", 1),
    ("1e" + "9" * 5000, float("inf"))])
def test_literal_digits_counts_the_exponent(text, digits):
    assert literal_digits(text) == digits


def test_parse_rational_refuses_what_fraction_cannot_read_quickly():
    assert parse_rational("1e4299") == 10 ** 4299  # 4300 digits
    assert parse_rational("-1e-4299") == F(-1, 10 ** 4299)
    assert parse_rational(" 3/4 ") == F(3, 4)
    assert parse_rational(0.5) == F(1, 2)
    assert parse_rational(-7) == -7
    # and a bool, which Fraction reads as 0 or 1
    for bad in ("1e4300", "12e4299", "1" * 4301, "1e99999999",
                float("inf"), float("-inf"), float("nan"), True, False):
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        parse_rational("1/x")


def _read(read, text):
    """read(text), or None where it refuses it ("1/0" divides by zero)."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError):
        return None


# the ASCII characters of a rational literal, "_" and spaces, and digits
# of other scripts: Arabic-Indic, Devanagari, fullwidth and superscript
_NUMBER_TEXT = st.text(st.sampled_from(
    "0123456789+-./eE_ \u0663\u0968\uff13\u00b2"), max_size=12)


@seed(20261022)
@settings(max_examples=600, deadline=None)
@given(_NUMBER_TEXT)
def test_one_reader_for_every_number_typed(text):
    # ASCII text without "_" is read exactly as int() and Fraction() read
    # it; other text, which they may read as another number, is refused
    as_int, as_rational = _read(parse_int, text), _read(parse_rational, text)
    if not text.isascii() or "_" in text:
        assert as_int is None and as_rational is None
        return
    assert as_int == _read(int, text)
    assert as_int is None or type(as_int) is int
    if literal_digits(text) > 4300:  # refused before Fraction runs long
        assert as_rational is None
    else:
        assert as_rational == _read(Fraction, text)


@pytest.mark.parametrize("text", ["\u0663", "1_0", "0_2", "\uff13",
                                  "\u0968/2", "1e1_0"])
def test_reader_refuses_what_int_and_fraction_misread(text):
    assert _read(int, text) is not None or _read(Fraction, text) is not None
    for read in (parse_int, parse_rational):
        with pytest.raises(ValueError, match="is not a number"):
            read(text)


def test_parse_int_refuses_a_long_literal_in_its_own_words():
    # int() refuses more than 4300 digits with advice to raise the limit
    # (sys.set_int_max_str_digits), which a user of a command cannot take;
    # the reader refuses it as it refuses a long rational
    assert parse_int("9" * 4300) == 10 ** 4300 - 1
    with pytest.raises(ValueError) as exc:
        parse_int("9" * 4301)
    assert str(exc.value).endswith("has more than 4300 digits written out")


def test_series_inverse_geometric():
    # 1/(1+x) = 1 - x + x^2 - ...
    s = TruncatedSeries(QQ, [F(1), F(1)], 8)
    inv = s.inverse()
    for e in range(0, 9):
        assert inv.coeff(e) == F((-1) ** e)


def test_series_inverse_needs_a_unit_constant_term():
    # f = x + x^2 has no power-series inverse
    f = TruncatedSeries(QQ, [F(0), F(1), F(1)], 8)
    with pytest.raises(NonUnitLeadingCoefficient):
        f.inverse()


def test_power_of_a_series_is_the_repeated_product():
    # s^n is the product s * s * ... * s: the first factor is taken as is,
    # so s^1 is s, and s^0 is the series 1 at the order of s
    s = TruncatedSeries(QQ, [F(1), F(2), F(-3), F(0), F(5)], 4)
    p1 = s ** 1
    assert (p1.order, p1.coeffs) == (s.order, s.coeffs)
    by_hand = s
    for n in range(2, 6):
        by_hand = by_hand * s
        p = s ** n
        assert (p.order, p.coeffs) == (by_hand.order, by_hand.coeffs)
        assert p.order == 4
    p0 = s ** 0
    assert p0.order == 4 and p0 == 1
    assert s ** -2 * s ** 2 == 1


def test_series_inverse_universal_leading_coefficient():
    # Q = 1 + (A/2) x + ..., then 1/Q has linear coefficient -A/2.
    A = ABCD.gen("A")
    Q = TruncatedSeries(ABCD, [ABCD.one, A * F(1, 2)], 3)
    inv = Q.inverse()
    assert inv.coeff(1) == -A * F(1, 2)


def test_series_inverse_times_self_is_one():
    s = TruncatedSeries(QQ, [F(3), F(1), F(-2), F(5)], 7)
    prod = s * s.inverse()
    assert prod.coeff(0) == 1
    for e in range(1, 8):
        assert prod.coeff(e) == 0


def test_series_inverse_zero_raises():
    z = TruncatedSeries(QQ, [], 5)
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
    f = TruncatedSeries(QQ, [F(0), F(1), F(-1)], 6)
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
    f = TruncatedSeries(QQ, [F(0), F(2), F(1), F(-3), F(1, 2)], 7)
    g = f.compose_inverse()
    assert g.compose_inverse() == f
    assert f.compose(g) == TruncatedSeries.x_series(QQ, 7)


def test_compose_inverse_bad_valuation():
    s = TruncatedSeries(QQ, [F(1), F(1)], 5)
    with pytest.raises(BadValuation):
        s.compose_inverse()
    s2 = TruncatedSeries(QQ, [F(0), F(0), F(1)], 5)
    with pytest.raises(BadValuation):
        s2.compose_inverse()


def _compose_inverse_by_loop(f):
    """Oracle: g_k fixed one at a time from the x^k coefficient of f(g),
    one composition per coefficient."""
    inv_a1 = ring_invert(f.coeff(1))
    g = [f.ring.zero, inv_a1]
    for k in range(2, f.order + 1):
        gk = TruncatedSeries(f.ring, g, k)
        err = f.truncate(k).compose(gk).coeff(k)
        g.append(-(inv_a1 * err))
    return TruncatedSeries(f.ring, g, f.order)


def test_compose_inverse_matches_loop_oracle_over_abcd():
    A, B, C, D = ABCD.gens()
    tail = [A, B, A * C - D, D * B, A ** 3]
    f = TruncatedSeries(ABCD, [ABCD.zero, ABCD.from_fraction(F(2))] + tail, 8)
    g = f.compose_inverse()
    assert g.order == 8
    assert g == _compose_inverse_by_loop(f)
    assert f.compose(g) == TruncatedSeries.x_series(ABCD, 8)


# ---------------------------------------------------------------------------
# exp / log / derivative / integrate
# ---------------------------------------------------------------------------


def test_exp_log_roundtrip():
    s = TruncatedSeries(QQ, [F(0), F(1), F(-2), F(1, 3)], 8)
    assert s.exp().log() == s


def test_log_of_exp_x_is_x():
    x = TruncatedSeries.x_series(QQ, 10)
    assert x.exp().log() == x


def test_integrate_derivative():
    s = TruncatedSeries(QQ, [F(0), F(3), F(5), F(-1)], 6)
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
# determinants and resultants
# ---------------------------------------------------------------------------


def _gauss_determinant(rows):
    m = [[F(x) for x in r] for r in rows]
    det = F(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return F(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_bareiss_integer_determinant_matches_gauss():
    rng = random.Random(20261018)
    for trial in range(200):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:
            # singular: one row a combination of two others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % n])]
        if trial % 9 == 0:
            rows[rng.randrange(n)] = [0] * n
        det = bareiss_determinant(rows, 0, 1)
        assert type(det) is int
        assert det == _gauss_determinant(rows)
    assert bareiss_determinant([], 0, 1) == 1


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
# the coefficient rings: QSeriesRing at q^0
# ---------------------------------------------------------------------------

# the formal ring inverts y and 1 + y
INVERTED = ((0, 1), (1, 1))


def _element(ring, coeffs, exps=(0, 0)):
    """sum_i coeffs[i] y^i, over the formal ring times y^-a (1+y)^-b for
    exps = (a, b), built from gen, from_fraction and dot."""
    y = ring.gen()
    x = ring.dot((c, y ** i) for i, c in enumerate(coeffs))
    if ring.modulus is None:
        x = x * y ** -exps[0] * (ring.one + y) ** -exps[1]
    return x


def test_quotient_ring_cyclotomic_sixth_root():
    # N=3: -y a primitive cube root of unity; minimal polynomial of y is
    # Phi_3(-y) = y^2 - y + 1 (monic already)
    ring, y = y_model(3)
    assert ring.modulus == (1, -1, 1)
    assert y * y == y - 1
    assert y ** 6 == ring.one and y ** 3 != ring.one
    # y is a unit
    assert y * y.inverse() == ring.one


def test_quotient_ring_linear_modulus_is_rational():
    # N = 1, 2: the modulus y + 1, y - 1 has degree 1, and y is -1, 1
    for N, value in ((1, -1), (2, 1)):
        ring, y = y_model(N)
        assert len(ring.modulus) == 2
        assert y == ring.from_fraction(value) and y.ints == (value,)


@pytest.mark.parametrize("mode", ["formal", 1, 2, 3, 12])
def test_coefficient_ring_is_the_series_ring_at_q0(mode):
    ring, y = y_model(mode)
    assert ring == QSeriesRing(mode, 0) and ring.base is ring
    cls = RationalFunction if mode == "formal" else QuotElt
    assert type(ring.zero) is type(ring.one) is type(y) is cls
    qs = QSeriesRing(mode, 3)
    assert qs.base == ring and qs.base.base is qs.base
    assert qs != ring and hash(qs.base) == hash(ring)
    s = qs.series([1, y, 0, y * y + 2])
    for n in range(4):
        assert type(s.coeff(n)) is cls
    assert s.coeff(1) == y and s.coeff(2) == ring.zero
    # a coefficient times a series is the series times the coefficient
    assert type(y * s) is type(s * y) is QSeries
    assert y * s == s * y


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [F(-1), F(1)]
    assert cyclotomic_polynomial(2) == [F(1), F(1)]
    assert cyclotomic_polynomial(4) == [F(1), F(0), F(1)]
    assert cyclotomic_polynomial(6) == [F(1), F(-1), F(1)]
    # the package's, on ints, against the Fraction oracle: Phi_n divides
    # y^n - 1 and shares no factor with Phi_(n-1)
    for n in range(1, 40):
        phi = cyclotomic_polynomial(n)
        assert _cyclotomic(n) == phi
        assert poly_gcd(phi, [-1] + [0] * (n - 1) + [1]) == phi
        if n > 1:
            assert poly_gcd(phi, cyclotomic_polynomial(n - 1)) == [1]
    for n in (0, -3):
        with pytest.raises(ValueError):
            _cyclotomic(n)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_rational_function_cancellation():
    # (1-y^2)/(1+y) = 1-y, and y^2 (1+y) is y^-(-2) (1+y)^-(-1)
    y = FORMAL_RING.gen()
    r = (1 - y * y) * (1 + y).inverse()
    assert r == 1 - y
    assert r.num == (F(1), F(-1)) and r.exps == (0, 0)
    s = y * y * (1 + y) * F(1, 2)
    assert s.num == (F(1, 2),) and s.exps == (-2, -1)


def test_rational_function_arithmetic():
    y = FORMAL_RING.gen()
    a = (1 + y).inverse()       # 1/(1+y)
    b = y * (1 + y).inverse()   # y/(1+y)
    assert a + b == FORMAL_RING.one
    assert a - b == _element(FORMAL_RING, [1, -1], (0, 1))


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------


def test_multipoly_cap():
    x1 = PolyRing("x1").gen("x1").truncate(3)
    p = (x1 + 1) ** 5
    assert p.coeff((4,)) == QQ.zero
    assert p.coeff((3,)) == F(10)


@pytest.mark.parametrize("kind", ["poly", "series"])
def test_nested_zero_terms_dropped_without_coercion(kind, monkeypatch):
    # dropping a zero term over a polynomial or series base must not build
    # a constant of the base, or of a series' coefficient ring, to compare
    # against
    if kind == "poly":
        base = PolyRing("s")
        s = base.gen("s")
        nonzero, zero = s * 2 + 1, s - s
    else:
        # Q(zeta_3)[[q]]: the modulus of y_model(3) is y^2 - y + 1
        base = QSeriesRing(3, 2)
        nonzero = base.series([base.base.from_fraction(e + 1)
                               for e in range(3)])
        zero = base.zero
    ring = PolyRing("x", "z", base=base)
    calls = []
    for cls in (PolyRing, QSeriesRing):
        def counted(self, fr, original=cls.from_fraction):
            calls.append(fr)
            return original(self, fr)

        monkeypatch.setattr(cls, "from_fraction", counted)
    p = WeightedPoly(ring, {(1, 0): nonzero, (0, 1): zero, (2, 0): zero})
    q = WeightedPoly(ring, {(1, 0): zero, (0, 2): nonzero}, cap=1)
    assert calls == []
    assert p.terms == {(1, 0): nonzero}
    assert q.terms == {} and q.cap == 1


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
    sa = TruncatedSeries(QQ, a, order)
    sb = TruncatedSeries(QQ, b, order)
    sc = TruncatedSeries(QQ, c, order)
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
    s = TruncatedSeries(QQ, [lead] + coeffs[1:], order)
    prod = s * s.inverse()
    assert prod == TruncatedSeries.one_series(QQ, order)


@seed(20240819)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=4))
def test_compose_inverse_involution(tail):
    order = 6
    f = TruncatedSeries(QQ, [F(0), F(1)] + tail, order)
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
WXYZ = PolyRing(("x", 1), ("y", 2), ("z", 3))


def _small_polys(ring):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        st.integers(min_value=-4, max_value=4),
        max_size=5,
    ).map(lambda t: WeightedPoly(ring, {e: F(c) for e, c in t.items()}))


small_polys = _small_polys(XYZ)


def _truncation(p, cap):
    return {e: c for e, c in p.terms.items() if p.term_weight(e) <= cap}


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([XYZ, WXYZ]).flatmap(
           lambda r: st.tuples(_small_polys(r), _small_polys(r))),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=3))
def test_capped_ops_are_truncations_of_uncapped(pq, a, b, n):
    # the cap bounds the weighted degree: over weights (1, 1, 1) the sum
    # of the exponents, over (1, 2, 3) x + 2y + 3z
    p, q = pq
    pa, qb = p.truncate(a), q.truncate(b)
    cap = min(a, b)
    assert (pa + qb).terms == _truncation(p + q, cap)
    assert (pa - qb).terms == _truncation(p - q, cap)
    assert (pa * qb).terms == _truncation(p * q, cap)
    assert (pa * qb).cap == cap
    assert (pa ** n).terms == _truncation(p ** n, a)


@seed(20261019)
@settings(max_examples=30, deadline=None)
@given(small_polys, small_polys)
def test_nested_base_agrees_with_rationals(p, q):
    # the same integer polynomials over Q and over a nested base, whose
    # coefficients are the images of the rational ones
    plain = [p + q, p * q - q * 3, p ** 2, horner([1, -2, 3], p)]
    for base in (y_model(3)[0], PolyRing("t")):
        ring = PolyRing("x", "y", "z", base=base)
        P, Q = (WeightedPoly(ring, {e: base.from_fraction(c)
                                    for e, c in r.terms.items()})
                for r in (p, q))
        nested = [P + Q, P * Q - Q * base.from_fraction(3), P ** 2,
                  horner([1, -2, 3], P)]
        for r, s in zip(plain, nested):
            assert s.terms == {e: base.from_fraction(c)
                               for e, c in r.terms.items()}, base


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=7),
       small_fractions.filter(bool))
def test_compose_inverse_matches_loop_oracle_over_q(tail, lead):
    f = TruncatedSeries(QQ, [F(0), lead] + tail, 7)
    assert f.compose_inverse() == _compose_inverse_by_loop(f)


def test_series_times_polynomial_over_series_is_polynomial():
    # a q-series c and a polynomial p over the q-series ring: both orders
    # of the product are the polynomial p * c
    qs = QSeriesRing(3, 2)
    base = qs.base
    x = PolyRing("x", base=qs).gen("x")
    p = x * x + x * 3
    c = qs.series([base.from_fraction(e + 1) for e in range(3)])
    expected = p * c
    assert type(expected) is WeightedPoly
    for prod in (c * p, p * c):
        assert type(prod) is WeightedPoly
        assert prod == expected
    assert expected.coeff((1,)) == c * 3


# ---------------------------------------------------------------------------
# the formal ring Q[y, 1/y, 1/(1+y)]
# ---------------------------------------------------------------------------

local_parts = st.tuples(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
)
# no root of y or 1 + y is a rational other than 0, -1
local_points = st.fractions(min_value=-3, max_value=3,
                            max_denominator=5).filter(
    lambda t: t not in (0, 1, -1))


def _poly_value(coeffs, t):
    return sum(F(c) * t ** i for i, c in enumerate(coeffs))


def _local_value(part, t):
    """num(t) t^-a (1+t)^-b straight from the data."""
    num, (a, b) = part
    return _poly_value(num, t) * t ** -a * (1 + t) ** -b


def _evaluate(x, t):
    """An element of the formal ring at y = t, from its normal form."""
    return _local_value((x.num, x.exps), t)


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(local_parts, local_parts, local_parts, local_points)
def test_localization_evaluation_is_a_homomorphism(pa, pb, pc, t):
    ring = FORMAL_RING
    a, b, c = (_element(ring, *p) for p in (pa, pb, pc))
    va, vb = _local_value(pa, t), _local_value(pb, t)
    assert _evaluate(a, t) == va
    assert _evaluate(a + b, t) == va + vb
    assert _evaluate(a - b, t) == va - vb
    assert _evaluate(a * b, t) == va * vb
    # units c y^-a (1+y)^-b invert; y - 2 is prime to y and 1 + y
    unit = _element(ring, [pa[0][0] or 1], pa[1])
    assert _evaluate(unit.inverse(), t) == 1 / _evaluate(unit, t)
    assert unit * unit.inverse() == ring.one
    if not a.is_zero():
        with pytest.raises(NonUnitLeadingCoefficient):
            (a * _element(ring, [-2, 1])).inverse()
    # two routes to one function: equal, with equal hashes
    for x, y in (((a + b) * c, a * c + b * c),
                 (a * b - c, b * a + (-c)),
                 ((a * unit) * unit.inverse(), a)):
        assert x == y
        assert hash(x) == hash(y)
    # the normal form strips a factor y written into the numerator
    lifted = _element(ring, [0] + list(a.num), (a.exps[0] + 1, a.exps[1]))
    assert lifted == a and hash(lifted) == hash(a)


def test_localization_rejects_non_unit_inverse():
    ring = FORMAL_RING
    with pytest.raises(NonUnitLeadingCoefficient):
        ring.zero.inverse()
    with pytest.raises(NonUnitLeadingCoefficient):
        _element(ring, [3, 0, 1]).inverse()
    y = ring.gen()
    assert (y * (1 + y) ** 2).inverse() == y ** -1 * (1 + y) ** -2


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction kernel it replaced
# ---------------------------------------------------------------------------
#
# The oracle is Q[y]/(m) and Q[y] localised at y and 1 + y on Fraction
# coefficients: reduction and trial division by generic polynomial
# division, inverses by the extended Euclidean algorithm over Q.


def _frac_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_add(a, b):
    n = max(len(a), len(b))
    return _frac_trim([(a[i] if i < len(a) else F(0))
                       + (b[i] if i < len(b) else F(0)) for i in range(n)])


class _FracElement:
    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, F)):
            return self.ring.from_fraction(other)
        return None

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out


class _FracQuotientRing:
    def __init__(self, modulus):
        m = _frac_trim([F(c) for c in modulus])
        self.modulus = [c / m[-1] for c in m]
        self.degree = len(m) - 1
        self.one = self.from_fraction(1)

    def from_fraction(self, fr):
        return self.element([fr])

    def element(self, coeffs):
        _, r = poly_divmod(list(coeffs), self.modulus)
        return _FracQuotElt(self, tuple(r) + (F(0),) * (self.degree - len(r)))


class _FracQuotElt(_FracElement):
    def __init__(self, ring, coeffs):
        self.ring, self.coeffs = ring, coeffs

    def __add__(self, other):
        o = self._coerce(other)
        return _FracQuotElt(self.ring, tuple(map(add, self.coeffs, o.coeffs)))

    def __neg__(self):
        return _FracQuotElt(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return _FracQuotElt(self.ring, tuple(a * other for a in self.coeffs))
        return self.ring.element(poly_mul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def inverse(self):
        a = _frac_trim(list(self.coeffs))
        if not a:
            raise NonUnitLeadingCoefficient("zero is not invertible")
        r0, r1, s0, s1 = self.ring.modulus, a, [], [F(1)]
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_add(s0, [-c for c in poly_mul(q, s1)])
        if len(r0) != 1:
            raise NonUnitLeadingCoefficient("element is a zero divisor")
        return self.ring.element([c / r0[0] for c in s0])


class _FracLocalization:
    def __init__(self, inverted):
        monic = [_frac_trim([F(c) for c in s]) for s in inverted]
        self.inverted = tuple(tuple(c / s[-1] for c in s) for s in monic)
        self.zero = _FracRationalFunction(self, (), (0,) * len(monic))
        self.one = self.from_fraction(1)

    def from_fraction(self, fr):
        return self.element([fr])

    def element(self, num, exps=None):
        return self._strip(_frac_trim([F(c) for c in num]),
                           list(exps or self.zero.exps),
                           range(len(self.inverted)))

    def _strip(self, num, exps, which):
        if not num:
            return self.zero
        for i in which:
            while True:
                q, r = poly_divmod(num, self.inverted[i])
                if r:
                    break
                num, exps[i] = q, exps[i] - 1
        return _FracRationalFunction(self, tuple(num), tuple(exps))


class _FracRationalFunction(_FracElement):
    def __init__(self, ring, num, exps):
        self.ring, self.num, self.exps = ring, num, exps

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.num or not o.num:
            return self.ring.zero
        return _FracRationalFunction(self.ring,
                                     tuple(poly_mul(self.num, o.num)),
                                     tuple(map(add, self.exps, o.exps)))

    def __add__(self, other):
        o = self._coerce(other)
        if not o.num:
            return self
        if not self.num:
            return o
        a, b, tied = self.num, o.num, []
        for i, (ea, eb) in enumerate(zip(self.exps, o.exps)):
            for _ in range(eb - ea):
                a = poly_mul(a, self.ring.inverted[i])
            for _ in range(ea - eb):
                b = poly_mul(b, self.ring.inverted[i])
            if ea == eb:
                tied.append(i)
        return self.ring._strip(_frac_add(list(a), list(b)),
                                list(map(max, self.exps, o.exps)), tied)

    def __neg__(self):
        return _FracRationalFunction(self.ring, tuple(-c for c in self.num),
                                     self.exps)

    def inverse(self):
        if len(self.num) != 1:
            raise NonUnitLeadingCoefficient("not a unit")
        return _FracRationalFunction(self.ring, (1 / self.num[0],),
                                     tuple(-e for e in self.exps))

    def __eq__(self, other):
        o = self._coerce(other)
        return self.num == o.num and self.exps == o.exps


# N = 1 and 2 have moduli of degree 1, where y is a rational
KERNEL_RINGS = [FORMAL_RING] + [y_model(N)[0] for N in (1, 2, 3, 5, 7, 12)]


def _oracle_ring(ring):
    if ring.modulus is None:
        return _FracLocalization(INVERTED)
    return _FracQuotientRing(ring.modulus)


def _same(x, o):
    """The integer element x has the oracle element o's value."""
    if isinstance(x, RationalFunction):
        return x.num == o.num and x.exps == o.exps
    return x.coeffs == o.coeffs


def _check_normal_form(x):
    assert len(x.rows) <= 1 and x.rows != ((),)
    assert all(type(c) is int for c in x.ints) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.ints) == 1
    assert not x.ints or x.ints[-1] != 0
    if isinstance(x, RationalFunction):
        for s in INVERTED:
            assert not x.ints or poly_divmod(x.ints, s)[1], (x, s)
        assert x.ints or x.exps == x.ring.zero.exps
    else:
        assert len(x.ints) < len(x.ring.modulus)


small_fractions_kernel = st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4)
kernel_parts = st.tuples(
    st.lists(small_fractions_kernel, min_size=0, max_size=8),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
)


def _pair(ring, oracle, part):
    """The same element in the integer ring and in the oracle."""
    coeffs, exps = part
    if ring.modulus is None:
        return (_element(ring, coeffs, exps),
                oracle.element(coeffs, exps))
    return _element(ring, coeffs), oracle.element(coeffs)


@seed(20261101)
@settings(max_examples=40, deadline=None)
@given(kernel_parts, kernel_parts, small_fractions_kernel,
       st.integers(min_value=0, max_value=3))
def test_integer_kernel_matches_fraction_oracle(pa, pb, c, n):
    for ring in KERNEL_RINGS:
        oracle = _oracle_ring(ring)
        (a, oa), (b, ob) = _pair(ring, oracle, pa), _pair(ring, oracle, pb)
        results = [(a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob),
                   (a * b, oa * ob), (a * c, oa * c), (c * b, ob * c),
                   (a + c, oa + c), (c - b, -(ob - c)), (-a, -oa),
                   (a ** n, oa ** n)]
        # units: every nonzero element of a field Q[y]/(m), and the
        # constants times powers of y and 1 + y in the formal ring
        if ring.modulus is None:
            unit_part = ([pa[0][0] if pa[0] and pa[0][0] else 1], pa[1])
            u, ou = _pair(ring, oracle, unit_part)
        else:
            u, ou = (a, oa) if not a.is_zero() else (ring.one, oracle.one)
        results += [(u.inverse(), ou.inverse()), (u ** -n, ou ** -n),
                    (b * u.inverse(), ob * ou.inverse())]
        for x, o in results:
            assert _same(x, o), ring
            _check_normal_form(x)
        # == and hash agree with the oracle's equality
        assert (a == b) == (oa == ob)
        for x, y in (((a + b) * u, a * u + b * u), (a * b, b * a),
                     (u * u.inverse(), ring.one), (a - a, ring.zero),
                     ((a * u) * u.inverse(), a)):
            assert x == y and hash(x) == hash(y)
        if ring.modulus is None and not a.is_zero():
            # a non-constant numerator prime to y and 1 + y is not a unit
            with pytest.raises(NonUnitLeadingCoefficient):
                (a * _element(ring, [-2, 1])).inverse()


def test_localization_strip_linear_matches_division():
    # s = y and s = 1 + y: the value num(0), num(-1) decides, against
    # generic division, for multiplicities 0..3
    for k in range(4):
        for body in ([3, 1], [2, 0, 5], [-1, 4, 0, 2]):
            for i, s in enumerate(INVERTED):
                num = body
                for _ in range(k):
                    num = poly_mul(num, s)
                x = _element(FORMAL_RING, num)
                exps = [0, 0]
                exps[i] = -k
                q = list(num)
                for _ in range(k):
                    q, r = poly_divmod(q, s)
                    assert not r
                assert poly_divmod(q, s)[1]
                assert x.exps == tuple(exps)
                assert x.num == tuple(q)
                _check_normal_form(x)


# ---------------------------------------------------------------------------
# ring.dot against the fold s = s + a * b
# ---------------------------------------------------------------------------
#
# Products of WeightedPolys and of series are themselves built on dot, so
# the fold multiplies those term by term here; products of rationals, of
# quotient-ring elements and of rational functions do not use dot.

ZETA5 = y_model(5)[0]


def _poly_product(p, q):
    """p * q term by term, capped at the smaller cap."""
    cap = min((c for c in (p.cap, q.cap) if c is not None), default=None)
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, p.ring.base.zero) + c1 * c2
    return WeightedPoly(p.ring, terms, cap)


def _series_product(a, b):
    """a * b by the double loop, under the minimum truncation rule."""
    order = min(a.order, b.order)
    cs = [a.ring.zero] * (order + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j <= order:
                cs[i + j] = cs[i + j] + x * y
    return TruncatedSeries(a.ring, cs, order)


def _nested(a):
    """A q-series as the nested oracle: a TruncatedSeries over its base."""
    order = a.ring.qorder
    return TruncatedSeries(a.ring.base,
                           [a.coeff(n) for n in range(order + 1)], order)


def _q_series_product(a, b):
    """a * b convolved over the base ring, then read back."""
    return a.ring.series(_series_product(_nested(a), _nested(b)).coeffs)


def _fold_product(a, b):
    for cls, product in ((WeightedPoly, _poly_product),
                         (TruncatedSeries, _series_product),
                         (QSeries, _q_series_product)):
        if isinstance(a, cls) and isinstance(b, cls):
            return product(a, b)
    return a * b


def _fold(ring, pairs):
    s = ring.zero
    for a, b in pairs:
        if isinstance(ring, QSeriesRing) and ring.qorder:
            # an element of the base as a constant series, so that its
            # product with a series is convolved over the base
            a, b = (ring.series([x]) if isinstance(x, QSeries)
                    and x.ring is not ring else x for x in (a, b))
        s = s + _fold_product(a, b)
    return s


def _assert_identical(x, y):
    """x and y are one element in one normal form, with equal hashes."""
    assert type(x) is type(y), (x, y)
    if isinstance(y, TruncatedSeries):
        assert x.order == y.order
        for a, b in zip(x.coeffs, y.coeffs):
            _assert_identical(a, b)
        return
    if isinstance(y, QSeries):
        assert (x.rows, x.den, x.exps) == (y.rows, y.den, y.exps)
    elif isinstance(y, WeightedPoly):
        assert x.cap == y.cap and x.terms.keys() == y.terms.keys()
        for e, c in y.terms.items():
            _assert_identical(x.terms[e], c)
    assert x == y and hash(x) == hash(y)


small_ints = st.integers(min_value=-3, max_value=3)


def _quot_elements(ring):
    return st.lists(small_fractions_kernel, max_size=6).map(
        lambda c: _element(ring, c))


def _local_elements(ring):
    # numerators of every degree, and units c y^-a (1+y)^-b, whose sums
    # often have a factor y or 1 + y left to strip
    exps = st.lists(st.integers(min_value=-2, max_value=2), min_size=2,
                    max_size=2)
    return st.one_of(
        st.tuples(st.lists(small_fractions_kernel, max_size=4), exps),
        st.tuples(st.sampled_from([[1], [-1], [2]]), exps),
    ).map(lambda t: _element(ring, *t))


def _poly_elements(ring, caps):
    return st.tuples(_small_polys(ring), st.sampled_from(caps)).map(
        lambda t: t[0] if t[1] is None else t[0].truncate(t[1]))


def _series_elements(ring, coefficients):
    # short and full coefficient lists, and some past the ring's qorder
    return st.lists(coefficients, max_size=ring.qorder + 2).map(ring.series)


def _series_case(ring, coefficients):
    # the ring and its factors: its series and the elements of its base
    return ring, st.one_of(_series_elements(ring, coefficients), coefficients)


Q_ZETA5 = QSeriesRing(5, 3)
Q_FORMAL = QSeriesRing("formal", 2)
# criteria 7 and 9 run over Q(zeta_2) and Q(zeta_3), moduli of degree 1, 2
Q_ZETA2, Q_ZETA3 = QSeriesRing(2, 3), QSeriesRing(3, 2)

DOT_CASES = {
    "QQ": (QQ, small_fractions_kernel),
    "poly": (XYZ, _poly_elements(XYZ, [None])),
    "poly-capped": (WXYZ, _poly_elements(WXYZ, [None, 0, 2, 4, 6])),
    "zeta5": (ZETA5, _quot_elements(ZETA5)),
    "formal": (FORMAL_RING, _local_elements(FORMAL_RING)),
    "series-zeta2": _series_case(Q_ZETA2, _quot_elements(Q_ZETA2.base)),
    "series-zeta3": _series_case(Q_ZETA3, _quot_elements(Q_ZETA3.base)),
    "series-zeta5": _series_case(Q_ZETA5, _quot_elements(ZETA5)),
    "series-formal": _series_case(Q_FORMAL, _local_elements(FORMAL_RING)),
}


def _oracle_coeffs(ring, oracle, x):
    """The q^0..q^qorder coefficients of x, a rational or an element of
    the q-series ring or of its base, in the Fraction oracle."""
    if isinstance(x, (int, F)):
        return [oracle.from_fraction(x)] + [oracle.from_fraction(0)] * (
            ring.qorder)
    out = []
    for n in range(ring.qorder + 1):
        c = x.coeff(n) if n <= x.ring.qorder else x.ring.base.zero
        out.append(oracle.element(c.num, c.exps)
                   if isinstance(c, RationalFunction)
                   else oracle.element(c.coeffs))
    return out


def _oracle_dot(ring, pairs):
    """ring.dot(pairs) as coefficients in the Fraction oracle, convolved
    there: no sum or product of the integer kernel takes part."""
    oracle = _oracle_ring(ring)
    n = ring.qorder + 1
    out = [oracle.from_fraction(0)] * n
    for a, b in pairs:
        a, b = (_oracle_coeffs(ring, oracle, x) for x in (a, b))
        for i in range(n):
            for j in range(n - i):
                out[i + j] = out[i + j] + a[i] * b[j]
    return out


@pytest.mark.parametrize("name", sorted(DOT_CASES))
@seed(20261201)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dot_matches_fold(name, data):
    ring, elements = DOT_CASES[name]
    factor = st.one_of(elements, elements, st.just(ring.zero),
                       small_ints, small_fractions_kernel)
    pairs = data.draw(st.lists(st.tuples(factor, factor), max_size=5))
    for a, b in pairs:
        # products of series and of polynomials are one-pair dots
        if isinstance(a, (WeightedPoly, TruncatedSeries, QSeries)) and (
                type(a) is type(b)):
            _assert_identical(a * b, _fold_product(a, b))
        for x in (a, b):
            if isinstance(x, QSeries):
                _assert_identical(-x, x * -1)
    want = _fold(ring, pairs)
    _assert_identical(ring.dot(pairs), want)
    if isinstance(ring, QSeriesRing):
        # _fold adds with the ring's own dot; the oracle does not
        got = ring.dot(pairs)
        for n, o in enumerate(_oracle_dot(ring, pairs)):
            assert _same(got.coeff(n), o), n
    # the pairs are read once, so a generator serves as well as a list
    _assert_identical(ring.dot(iter(pairs)), want)


@pytest.mark.parametrize("name", sorted(DOT_CASES))
def test_dot_of_nothing_is_zero(name):
    ring, _ = DOT_CASES[name]
    _assert_identical(ring.dot([]), ring.zero)
    _assert_identical(ring.dot([(0, 0), (F(1, 2), 0)]), ring.zero)


SUB_CASES = {
    "QQ": (QQ, small_fractions_kernel),
    "poly": (XYZ, _poly_elements(XYZ, [None])),
    "series-formal": (Q_FORMAL, _series_elements(
        Q_FORMAL, _local_elements(FORMAL_RING))),
}


@pytest.mark.parametrize("name", sorted(SUB_CASES))
@seed(20261203)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_difference_is_sum_with_negation(name, data):
    ring, elements = SUB_CASES[name]

    def series():
        zeros = data.draw(st.integers(min_value=0, max_value=2))
        coeffs = data.draw(st.lists(elements, max_size=4))
        return TruncatedSeries(
            ring, [ring.zero] * zeros + coeffs,
            zeros + data.draw(st.integers(min_value=0, max_value=3)))

    a, b = series(), series()
    _assert_identical(a - b, a + (-b))
    c = data.draw(small_fractions_kernel)
    _assert_identical(a - c, a + (-c))
    _assert_identical(c - a, c + (-a))


def test_dot_rejects_mixed_rings():
    for ring in (ZETA5, FORMAL_RING):
        other = y_model(7)[0] if ring is ZETA5 else ZETA5
        with pytest.raises(ValueError):
            ring.dot([(ring.one, other.one)])
    with pytest.raises(TypeError):
        XYZ.dot([(XYZ.one, TruncatedSeries.one_series(QQ, 2))])


# ---------------------------------------------------------------------------
# truncation soundness: a coefficient reported at order n is the one
# computed at order n + 3
# ---------------------------------------------------------------------------

SOUNDNESS_RINGS = {
    "QQ": (QQ, small_fractions_kernel,
           small_fractions_kernel.filter(bool)),
    "formal": (FORMAL_RING, _local_elements(FORMAL_RING),
               st.tuples(small_fractions_kernel.filter(bool),
                         st.lists(st.integers(min_value=-2, max_value=2),
                                  min_size=2, max_size=2)).map(
                   lambda t: _element(FORMAL_RING, [t[0]], t[1]))),
    "zeta5": (ZETA5, _quot_elements(ZETA5),
              _quot_elements(ZETA5).filter(lambda c: not c.is_zero())),
}


def _assert_sound(short, long):
    """Every coefficient of short equals long's at the same exponent."""
    assert short.order <= long.order
    for e in range(short.order + 1):
        assert short.coeff(e) == long.coeff(e), e


@pytest.mark.parametrize("name", sorted(SOUNDNESS_RINGS))
@seed(20261202)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_series_ops_are_truncation_sound(name, data):
    ring, elements, units = SOUNDNESS_RINGS[name]
    n = data.draw(st.integers(min_value=0, max_value=4), label="n")

    def series(zeros, lead, extra=0):
        # zeros leading zeros, then a coefficient from lead, known through
        # order zeros + n + 3 + extra
        size = n + 3 + extra
        body = data.draw(st.lists(elements, min_size=size, max_size=size))
        return TruncatedSeries(
            ring, [ring.zero] * zeros + [data.draw(lead)] + body,
            zeros + size)

    def check(op, *args):
        _assert_sound(op(*(s.truncate(s.order - 3) for s in args)),
                      op(*args))

    a = series(data.draw(st.integers(min_value=0, max_value=2)), elements)
    b = series(data.draw(st.integers(min_value=0, max_value=2)), elements,
               data.draw(st.integers(min_value=0, max_value=2)))
    check(lambda s, t: s * t, a, b)
    check(lambda s: s * b, a)
    check(lambda s: b * s, a)
    check(TruncatedSeries.inverse, series(0, units))
    check(TruncatedSeries.exp, series(1, elements))
    check(TruncatedSeries.log, series(0, st.just(ring.one)))
    check(TruncatedSeries.compose_inverse, series(1, units))
    inner = series(data.draw(st.integers(min_value=1, max_value=2)),
                   elements, data.draw(st.integers(min_value=0, max_value=2)))
    check(TruncatedSeries.compose, series(0, elements), inner)
