from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import TruncatedSeries, coeff_is_zero
from ellgenus.cohomology_models import catalog, chern_vector, cp_model, product_model
from ellgenus.genus_engine import GenusSpec, evaluate
from ellgenus import jacobi_q
from ellgenus.jacobi_q import (
    InconsistentSystem,
    NotLaurent,
    NotSU,
    SeriesRing,
    as_y_laurent,
    chi_y_loop,
    extract_qi,
    integrality_check,
    match_quartic,
    phi_at_minus_z,
    phi_ell_q,
    weierstrass_p,
    xscale,
    y_model,
)
from ellgenus.level_n import compute_level_data, level2_modular_forms
from ellgenus.universal_elliptic import (
    QQ,
    QuarticData,
    q_of_h,
    solve_h,
    specialize,
)

F = Fraction

QORDER = 3
XORDER = 10


# ---------------------------------------------------------------------------
# a u-series oracle for Phi: the product expanded in u = e^{-x} and q
# ---------------------------------------------------------------------------


class UXSeries:
    """q-truncated series whose q^n coefficient is a u-Laurent polynomial.

    rows[n] maps the u-exponent to a coefficient (Fraction or y-ring
    element); exponents outside [-window, window] are dropped, which is
    sound as long as the window exceeds every u-power that can influence
    the retained range (the constructors choose it that way).
    """

    def __init__(self, qorder, rows, window):
        self.qorder = qorder
        self.window = window
        self.rows = [
            {e: c for e, c in row.items()
             if abs(e) <= window and not coeff_is_zero(c)}
            for row in rows
        ]

    def __mul__(self, other):
        rows = [dict() for _ in range(self.qorder + 1)]
        for i, ra in enumerate(self.rows):
            for j, rb in enumerate(other.rows):
                if i + j > self.qorder:
                    break
                tgt = rows[i + j]
                for ea, ca in ra.items():
                    for eb, cb in rb.items():
                        e = ea + eb
                        if abs(e) > self.window:
                            continue
                        prev = tgt.get(e)
                        tgt[e] = ca * cb if prev is None else prev + ca * cb
        return UXSeries(self.qorder, rows, self.window)

    def scale_u(self, c):
        """Substitute u -> c * u (c a unit of the coefficient ring)."""
        rows = []
        for row in self.rows:
            rows.append({e: coeff * c ** e for e, coeff in row.items()})
        return UXSeries(self.qorder, rows, self.window)

    def shift_u_by_q(self):
        """Substitute u -> q u (x -> x + 2 pi i tau)."""
        rows = [dict() for _ in range(self.qorder + 1)]
        for n, row in enumerate(self.rows):
            for e, c in row.items():
                if 0 <= n + e <= self.qorder:
                    rows[n + e][e] = rows[n + e].get(e, Fraction(0)) + c
        return UXSeries(self.qorder, rows, self.window)

    def times_u_power(self, k):
        rows = [{e + k: c for e, c in row.items()} for row in self.rows]
        return UXSeries(self.qorder, rows, self.window)

    def scalar(self, c):
        return UXSeries(
            self.qorder,
            [{e: v * c for e, v in row.items()} for row in self.rows],
            self.window,
        )

    def eval_u(self, value, ring):
        """Substitute a ring value for u; returns a q-series over ring."""
        inv = value ** (-1) if any(
            e < 0 for row in self.rows for e in row
        ) else None
        coeffs = []
        for row in self.rows:
            total = ring.zero
            for e, c in row.items():
                term = ring.from_fraction(c) if isinstance(
                    c, (int, Fraction)) else c
                p = value ** e if e >= 0 else inv ** (-e)
                total = total + term * p
            coeffs.append(total)
        return TruncatedSeries(ring, 0, coeffs, self.qorder)

    def to_x_series(self, xorder, nested):
        """Expand u = e^{-x}; x-series over a SeriesRing."""
        coeffs = []
        for k in range(xorder + 1):
            inv_k = Fraction(1, factorial(k))

            def qc(n, k=k, inv_k=inv_k):
                total = nested.base.zero
                for e, c in self.rows[n].items():
                    w = Fraction((-e) ** k) * inv_k
                    term = c * w
                    if isinstance(term, (int, Fraction)):
                        term = nested.base.from_fraction(term)
                    total = total + term
                return total

            coeffs.append(nested.from_function(qc))
        return TruncatedSeries(nested, 0, coeffs, xorder)

    def __eq__(self, other):
        return (
            isinstance(other, UXSeries)
            and self.qorder == other.qorder
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"<UXSeries qorder={self.qorder} window={self.window}>"


def phi_product(qorder, uwindow=None):
    """Phi(tau, x) = (1-u) prod (1-q^n u)(1-q^n/u)/(1-q^n)^2, exactly."""
    if uwindow is None:
        uwindow = qorder + 2
    out = UXSeries(
        qorder,
        [{0: Fraction(1), 1: Fraction(-1)}] + [{} for _ in range(qorder)],
        uwindow,
    )
    # scalar factor prod (1-q^n)^{-2} = prod sum_m (m+1) q^{nm}
    scal = TruncatedSeries.one_series(QQ, qorder)
    for n in range(1, qorder + 1):
        rows = [dict() for _ in range(qorder + 1)]
        rows[0][0] = Fraction(1)
        rows[n][1] = Fraction(-1)
        out = out * UXSeries(qorder, rows, uwindow)
        rows = [dict() for _ in range(qorder + 1)]
        rows[0][0] = Fraction(1)
        rows[n][-1] = Fraction(-1)
        out = out * UXSeries(qorder, rows, uwindow)
        scal = scal * TruncatedSeries.from_function(
            QQ,
            lambda e, n=n: Fraction(e // n + 1) if e % n == 0 else Fraction(0),
            qorder,
        )
    rows = [dict() for _ in range(qorder + 1)]
    for n in range(qorder + 1):
        c = scal.coeff(n)
        if c:
            rows[n][0] = c
    return out * UXSeries(qorder, rows, uwindow)


# ---------------------------------------------------------------------------
# the product form as an oracle for the divisor sums: Q(x) multiplied out
# as 2 * qorder nested x-series over q-series, then its log
# ---------------------------------------------------------------------------


def _phi_at_minus_z_product(qorder, ring, y):
    """Phi(tau, -z) = (1+y) prod (1+y q^n)(1+y^{-1} q^n)/(1-q^n)^2."""
    y_inv = y ** (-1)
    out = TruncatedSeries(ring, 0, [ring.one + y], qorder)
    for n in range(1, qorder + 1):
        f1 = TruncatedSeries.from_function(
            ring, lambda e, n=n: ring.one if e == 0 else
            (y if e == n else ring.zero), qorder)
        f2 = TruncatedSeries.from_function(
            ring, lambda e, n=n: ring.one if e == 0 else
            (y_inv if e == n else ring.zero), qorder)
        geom2 = TruncatedSeries.from_function(
            ring, lambda e, n=n: ring.from_fraction(e // n + 1)
            if e % n == 0 else ring.zero, qorder)
        out = out * f1 * f2 * geom2
    return out


def _product_genus(qorder, xorder, mode):
    """Q(x) = x/(1-u) (1 + y u) prod_n [...] / Phi(tau,-z), multiplied out."""
    ring, y = y_model(mode)
    nested = SeriesRing(ring, qorder)
    y_inv = y ** (-1)
    x = TruncatedSeries.x_series(QQ, xorder + 1)
    denom = TruncatedSeries.one_series(QQ, xorder + 1) - (-x).exp()
    todd = (x * denom.inverse()).truncate(xorder)
    q_of_x = TruncatedSeries(nested, 0, [
        nested.from_fraction(todd.coeff(k)) for k in range(xorder + 1)
    ], xorder)
    q_of_x = q_of_x * TruncatedSeries(nested, 0, [
        nested.constant(ring.one + y)] + [
        nested.constant(y * F((-1) ** k, factorial(k)))
        for k in range(1, xorder + 1)], xorder)
    for n in range(1, qorder + 1):
        for sign, unit in ((1, ring.one + y), (-1, ring.one + y_inv)):
            # 1 + unit * sum_{m>=1} q^{nm} u^{sign*m}
            coeffs = []
            for k in range(xorder + 1):
                def qc(e, k=k, n=n, sign=sign, unit=unit):
                    if e == 0 or e % n:
                        return ring.zero
                    return unit * F((sign * -(e // n)) ** k, factorial(k))

                col = nested.from_function(qc)
                coeffs.append(col + nested.one if k == 0 else col)
            q_of_x = q_of_x * TruncatedSeries(nested, 0, coeffs, xorder)
    norm_inv = _phi_at_minus_z_product(qorder, ring, y).inverse()
    return GenusSpec(xscale(q_of_x, norm_inv))


def _assert_q_series_agree(a, b, qorder):
    """Two q-series agree through q^qorder."""
    assert a.order >= qorder and b.order >= qorder
    for n in range(qorder + 1):
        assert a.coeff(n) == b.coeff(n), n


@pytest.mark.parametrize("mode,qorder,xorder", [
    ("formal", 4, 4), ("formal", 8, 6), ("formal", 30, 2),
    (2, 4, 4), (3, 4, 4), (5, 4, 4)])
def test_divisor_sums_equal_product_log(mode, qorder, xorder):
    spec = phi_ell_q(qorder, xorder, mode)
    oracle = _product_genus(qorder, xorder, mode)
    assert spec.order == xorder
    for k in range(1, xorder + 1):
        _assert_q_series_agree(spec.log_coeffs[k], oracle.log_coeffs[k],
                               qorder)


@pytest.mark.parametrize("mode", ["formal", 3])
def test_phi_at_minus_z_equals_product(mode):
    ring, y = y_model(mode)
    _assert_q_series_agree(phi_at_minus_z(12, ring, y),
                           _phi_at_minus_z_product(12, ring, y), 12)


@pytest.mark.parametrize("mode", ["formal", 2, 3])
def test_divisor_sums_truncation_sound(mode):
    # every l_k through q^n and x^n equals the one built to order n + 3,
    # in qorder and in xorder; likewise Phi(tau, -z)
    ring, y = y_model(mode)
    for n in (1, 2, 4):
        low = phi_ell_q(n, n, mode)
        for high in (phi_ell_q(n + 3, n, mode), phi_ell_q(n, n + 3, mode),
                     phi_ell_q(n + 3, n + 3, mode)):
            for k in range(1, n + 1):
                _assert_q_series_agree(low.log_coeffs[k],
                                       high.log_coeffs[k], n)
        _assert_q_series_agree(phi_at_minus_z(n, ring, y),
                               phi_at_minus_z(n + 3, ring, y), n)


def test_q_is_formed_only_when_read():
    spec = phi_ell_q(3, 4, "formal")
    evaluate(spec, chern_vector(catalog("W2")))
    assert "q" not in vars(spec)
    oracle = _product_genus(3, 4, "formal")
    for k in range(5):
        _assert_q_series_agree(spec.q.coeff(k), oracle.q.coeff(k), 3)


# ---------------------------------------------------------------------------
# the theta-quotient product
# ---------------------------------------------------------------------------


def test_phi_leading_rows():
    phi = phi_product(1)
    assert phi.rows[0] == {0: F(1), 1: F(-1)}
    # (1-u)(1 - q(u + 1/u) + ...)(1 + 2q + ...)
    assert phi.rows[1] == {-1: F(-1), 0: F(3), 1: F(-3), 2: F(1)}


def test_phi_matches_triple_product_oracle():
    # Jacobi triple product: the whole product collapses to
    #   Phi = [sum_k (-1)^{k+1} q^{k(k+1)/2} u^{k+1}] / prod (1-q^n)^3,
    # and prod (1-q^n) has the pentagonal-number expansion
    #   sum_m (-1)^m q^{m(3m-1)/2}  -- two independent closed forms.
    qorder = 6
    phi = phi_product(qorder)

    def pent(e):
        for m in range(-qorder - 1, qorder + 2):
            if m * (3 * m - 1) // 2 == e:
                return F((-1) ** m)
        return F(0)

    eta = TruncatedSeries.from_function(QQ, pent, qorder)
    p3inv = (eta * eta * eta).inverse()
    for n in range(qorder + 1):
        expected = {}
        for k in range(-qorder - 1, qorder + 2):
            j = k * (k + 1) // 2
            if j > n:
                continue
            c = F((-1) ** (k + 1)) * p3inv.coeff(n - j)
            if c:
                expected[k + 1] = expected.get(k + 1, F(0)) + c
        expected = {e: c for e, c in expected.items() if c}
        assert phi.rows[n] == expected, n


def test_phi_is_odd():
    # Phi(tau, -x) = -u^{-1} Phi(tau, x), i.e. u -> 1/u flips and shifts
    phi = phi_product(4)
    flipped = [{-e: c for e, c in row.items()} for row in phi.rows]
    expected = phi.times_u_power(-1).scalar(F(-1))
    assert flipped == expected.rows


def test_phi_shift_identity():
    # substituting u -> qu (x -> x + 2 pi i tau) gives -u^{-1} Phi
    big = 8
    phi = phi_product(big)
    lhs = phi.shift_u_by_q()
    rhs = phi.times_u_power(-1).scalar(F(-1))
    for m in range(4):
        lo = m - big  # the truncated shift is exact from this exponent up
        a = {e: c for e, c in lhs.rows[m].items() if e >= lo}
        b = {e: c for e, c in rhs.rows[m].items() if e >= lo}
        assert a == b


def test_normalizer_is_phi_at_u_equals_minus_y():
    # Phi(tau, -z) with y = -e^z means evaluating the product at u = -y
    ring, y = y_model("formal")
    phi = phi_product(5)
    assert phi.eval_u(-y, ring) == phi_at_minus_z(5, ring, y)


@settings(max_examples=25, deadline=None)
@seed(20240823)
@given(
    st.fractions(
        min_value=F(-5), max_value=F(5), max_denominator=6
    ).filter(lambda c: c != 0)
)
def test_scale_u_round_trip(c):
    phi = phi_product(3)
    assert phi.scale_u(c).scale_u(1 / c) == phi


# ---------------------------------------------------------------------------
# recovering the quartic from the product form
# ---------------------------------------------------------------------------


def test_extract_leading_term_is_chi_y_point():
    # at q = 0 the genus degenerates to chi_y with rescaled variable, so
    # (A,B,C,D) start at the image of the chi_y point (1-y, (1+y)^2, 0, 0)
    # under weight-w division by (1+y)^w
    _, abcd = extract_qi("formal", 2, 8)
    ring, y = y_model("formal")
    one = ring.one
    u = (one + y).inverse()
    assert abcd.A.coeff(0) == (one - y) * u
    assert abcd.B.coeff(0) == (y * y - 10 * y + one) * 2 * u * u
    assert abcd.C.coeff(0) == y * (y - one) * u * u * u
    assert abcd.D.coeff(0) == y * (-(y * y) + 4 * y - one) * u**4


def weierstrass_p_prime(qorder):
    """Oracle: d/dz of the Weierstrass series (z-derivative acts as y d/dy)."""
    ring, y = y_model("formal")
    minus_y = -y
    minus_y_inv = minus_y ** (-1)

    def coeff(n):
        if n == 0:
            return y * (y - ring.one) * (ring.one + y) ** (-3)
        total = ring.zero
        for d in range(1, n + 1):
            if n % d == 0:
                total = total + (minus_y ** d - minus_y_inv ** d) * (d * d)
        return total

    return TruncatedSeries(ring, 0, [coeff(n) for n in range(qorder + 1)],
                           qorder)


def test_bcd_are_weierstrass_expansions():
    qorder = QORDER
    _, abcd = extract_qi("formal", qorder, XORDER)
    wp = weierstrass_p(qorder)
    wpp = weierstrass_p_prime(qorder)
    assert abcd.B == wp * 24
    assert abcd.C == wpp
    # D = 6 p^2 - g_2/2 with g_2/2 = 1/24 + 10 sum sigma_3(n) q^n
    ring, _ = y_model("formal")

    def half_g2(n):
        if n == 0:
            return ring.from_fraction(F(1, 24))
        s3 = sum(d**3 for d in range(1, n + 1) if n % d == 0)
        return ring.from_fraction(F(10 * s3))

    g2h = TruncatedSeries.from_function(ring, half_g2, qorder)
    assert abcd.D == wp * wp * 6 - g2h


def _log_derivative(f):
    """Oracle: h = f'/f, through the window f' * f^-1 provably has."""
    return (f.derivative() * f.inverse()).truncate(f.order - 3)


def test_match_quartic_rejects_non_elliptic_series():
    # f = x + x^2 does not satisfy any quartic differential equation
    f = TruncatedSeries(QQ, 1, [F(1), F(1)], 10)
    with pytest.raises(InconsistentSystem):
        match_quartic(_log_derivative(f))


@pytest.mark.parametrize("mode, qorder, xorder", [
    (2, 4, 10), (3, 4, 12), (4, 3, 14), (5, 2, 16), ("formal", 3, 8)])
def test_extract_qi_matches_log_derivative_of_f(mode, qorder, xorder,
                                                monkeypatch):
    # h read off log Q equals f'/f of f = x/Q(x), with the same x- and
    # q-windows, so the closing check covers the same range and q_1..q_4
    # agree coefficient by coefficient
    seen = []

    def recording(h):
        seen.append(h)
        return match_quartic(h)

    monkeypatch.setattr(jacobi_q, "match_quartic", recording)
    quartic, _ = extract_qi(mode, qorder, xorder)
    h = _log_derivative(phi_ell_q(qorder, xorder, mode).f_series)
    (h_read,) = seen
    assert (h_read.low, h_read.order) == (h.low, h.order) == (-1, xorder - 3)
    assert h_read.coeffs == h.coeffs
    oracle = match_quartic(h)
    for a, b in zip(quartic, oracle):
        assert (a.low, a.order) == (b.low, b.order) == (0, qorder)
        assert a.coeffs == b.coeffs


def test_level2_extraction_is_delta_epsilon():
    qorder = 6
    quartic, abcd = extract_qi(2, qorder, 10)
    assert abcd.A.is_zero() and abcd.C.is_zero()
    delta, eps = level2_modular_forms(qorder)
    ring, _ = y_model(2)
    to_b = TruncatedSeries.from_function(
        ring, lambda n: ring.from_fraction(-16 * delta.coeff(n)), qorder
    )
    to_d = TruncatedSeries.from_function(
        ring, lambda n: ring.from_fraction(2 * eps.coeff(n)), qorder
    )
    assert abcd.B == to_b
    assert abcd.D == to_d


def test_cyclotomic_extraction_truncation_sound():
    # q_1..q_4 through q^qorder do not depend on how far past qorder, or
    # past xorder, the genus was built
    for N in (2, 3):
        qorder, xorder = 3, 8
        low, _ = extract_qi(N, qorder, xorder)
        high, _ = extract_qi(N, qorder + 1, xorder + 2)
        for a, b in zip(low, high):
            assert a.order == qorder
            for n in range(qorder + 1):
                assert a.coeff(n) == b.coeff(n), (N, n)


def test_formal_product_truncation_sound():
    # the formal-mode Q(x) through q^qorder and x^xorder does not
    # depend on how far past either order it was built
    qorder, xorder = 3, 8
    low = phi_ell_q(qorder, xorder, "formal")
    high = phi_ell_q(qorder + 1, xorder + 2, "formal")
    assert low.order == xorder
    for k in range(xorder + 1):
        a, b = low.q.coeff(k), high.q.coeff(k)
        assert a.order == qorder
        for n in range(qorder + 1):
            assert a.coeff(n) == b.coeff(n), (k, n)


def test_formal_extraction_truncation_sound():
    qorder, xorder = 3, 8
    low, _ = extract_qi("formal", qorder, xorder)
    high, _ = extract_qi("formal", qorder + 1, xorder + 2)
    for a, b in zip(low, high):
        assert a.order == qorder
        for n in range(qorder + 1):
            assert a.coeff(n) == b.coeff(n), n


def test_extracted_point_satisfies_level_relations():
    for N in (2, 3):
        quartic, _ = extract_qi(N, 4, 2 * N + 6)
        data = compute_level_data(N)
        images = dict(zip(("q1", "q2", "q3", "q4"), quartic))
        for rel in (data.r_lower_q(), data.r_upper_q()):
            v = rel.substitute(images, ring=quartic.ring)
            assert v.is_zero()


# ---------------------------------------------------------------------------
# the loop-space expansion chi_y(q, LX)
# ---------------------------------------------------------------------------


def test_loop_expansion_needs_su():
    with pytest.raises(NotSU):
        chi_y_loop(cp_model(2), 2)


def test_k3_loop_expansion_displays():
    v = chi_y_loop(catalog("W2"), QORDER)
    assert as_y_laurent(v.coeff(0)) == {0: F(2), 1: F(-20), 2: F(2)}
    # (1+y)^2 (-20/y - 88 - 20 y)
    assert as_y_laurent(v.coeff(1)) == {
        -1: F(-20), 0: F(-128), 1: F(-216), 2: F(-128), 3: F(-20)
    }
    # (1+y)^2 (2/y^2 - 220/y - 588 - 220 y + 2 y^2)
    assert as_y_laurent(v.coeff(2)) == {
        -2: F(2), -1: F(-216), 0: F(-1026), 1: F(-1616),
        2: F(-1026), 3: F(-216), 4: F(2),
    }


def test_k3_loop_expansion_is_weierstrass_times_normalizer():
    qorder = QORDER
    v = chi_y_loop(catalog("W2"), qorder)
    ring, y = y_model("formal")
    norm = phi_at_minus_z(qorder, ring, y)
    assert v == weierstrass_p(qorder) * 24 * norm * norm


def test_loop_expansion_is_multiplicative():
    k3 = catalog("W2")
    v = chi_y_loop(product_model(k3, k3), QORDER)
    w = chi_y_loop(k3, QORDER)
    assert v == w * w


def test_loop_expansion_coefficients_are_integral():
    for name in ("W2", "W3", "W4", "W5", "W6"):
        ok, violation = integrality_check(chi_y_loop(catalog(name), QORDER))
        assert ok, (name, violation)


def test_integrality_check_reports_violations():
    v = chi_y_loop(catalog("W2"), 2) * F(1, 4)
    ok, violation = integrality_check(v)
    assert not ok
    n, e, c = violation
    assert c.denominator != 1


def test_as_y_laurent_rejects_true_denominators():
    ring, y = y_model("formal")
    with pytest.raises(NotLaurent):
        as_y_laurent((ring.one + y).inverse())
    assert as_y_laurent(y * y * F(3, 2)) == {2: F(3, 2)}
    assert as_y_laurent((y ** (-2)) * 5) == {-2: F(5)}
    assert as_y_laurent(F(7)) == {0: F(7)}


# ---------------------------------------------------------------------------
# cross-validation against the differential-equation solution
# ---------------------------------------------------------------------------


def test_product_form_matches_ode_solution():
    # evaluate the universal genus at the extracted q-series point and
    # compare with direct evaluation of the q-side genus (two routes)
    qorder = QORDER
    spec = phi_ell_q(qorder, 8, "formal")
    quartic, _ = extract_qi("formal", qorder, XORDER)
    su = specialize(q_of_h(solve_h(QuarticData.generic(), 6)), quartic)
    for name in ("W2", "W3", "W4", "W5", "W6"):
        cv = chern_vector(catalog(name))
        assert evaluate(su, cv) == evaluate(spec, cv), name


def test_twisted_projective_spaces_vanish_at_level_n():
    # the level-N genus kills CP(p+q-1) twisted by weights with N | p - q
    cases = {2: [(3, 1), (4, 2)], 3: [(4, 1)]}
    for N, pqs in cases.items():
        for p, q in pqs:
            spec = phi_ell_q(4, max(p + q - 1, 4), N)
            v = evaluate(spec, chern_vector(catalog(f"TwCP({p},{q})")))
            assert v.is_zero(), (N, p, q)


def test_cyclotomic_f_is_shifted_phi_quotient():
    # at level N, f(x) = Phi(x) Phi(-2 pi i/N) / Phi(x - 2 pi i/N) with
    # e^{2 pi i/N} = -y; the shift acts on u as u -> -y u
    for N in (2, 3):
        qorder, xorder = 3, 8
        ring, y = y_model(N)
        nested = SeriesRing(ring, qorder)
        phi = phi_product(qorder, uwindow=qorder + xorder + 2)
        num_x = phi.to_x_series(xorder, nested)
        shifted_x = phi.scale_u(-y).to_x_series(xorder, nested)
        const = phi.eval_u(-y, ring)
        f_cmp = xscale(num_x, const) * shifted_x.inverse()
        f = phi_ell_q(qorder, xorder, N).f_series
        assert (f_cmp.truncate(f.order) - f).is_zero(), N
