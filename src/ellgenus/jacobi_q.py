"""q-expansion side of the elliptic genus: Jacobi-form products in closed form.

The building block is the entire function
Phi(tau, x) = (1 - u) prod_n (1 - q^n u)(1 - q^n / u)/(1 - q^n)^2 with
u = e^{-x}, q = e^{2 pi i tau}.  From its product form the characteristic
series of the genus acquires the expansion (with y = -e^z)

  Q(x) = x/(1-u) (1 + y u) prod_n [(1+y q^n u)/(1-q^n u)]
                               [(1+y^{-1} q^n/u)/(1-q^n/u)] / Phi(tau,-z),

valid on SU classes (an overall e^{kx} factor is dropped).  The module
never multiplies the product out.  The log of each factor is a geometric
series in q^n u^{+-1}, so log Q(x) = sum_k l_k x^k has the divisor sums

  l_k = [x^k] (log(x/(1-u)) + log(1 + y(u - 1)/(1+y)))
        + sum_{e>=1} q^e sum_{m|e} ((-1)^(m+1) (y^m (-m)^k + y^-m m^k)
                                    + (-m)^k + m^k) / (m k!)

for k >= 1, the twisted-Eisenstein expansion of the elliptic genus
(Zagier, "Note on the Landweber-Stong elliptic genus", LNM 1326, 1988;
Hirzebruch, Berger & Jung, Manifolds and Modular Forms, 1992), and
Phi(tau, -z) is (1+y) times the exponential of the k = 0 sums.  The
GenusSpec is built from the l_k; Q(x) is their exponential, formed only
when a caller reads it.  The quartic coefficients never need Q: with
f = x/Q, h = f'/f = 1/x - sum_k k l_k x^(k-1) is read off the l_k, and
(h')^2 = h^4 + q_1 h^3 + ... + q_4 is matched term by term.  The sums
are exact over two coefficient models for y: a formal y in
Q[y, 1/y, 1/(1+y)], or a cyclotomic quotient ring where -y is a
primitive N-th root of unity.  The module also provides
the loop-space expansion chi_y(q, LX), the Weierstrass series, recovery
of the quartic coefficients q_1..q_4 as q-series, and the integrality
check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra_kernel import TruncatedSeries, coeff_is_zero
from .dense_poly import (
    Localization,
    QuotientRing,
    cyclotomic_polynomial,
    poly_mul_power,
)
from .genus_engine import GenusSpec, classical_genus, evaluate

DEFAULT_QORDER = 5
DEFAULT_XORDER = 12


class NotSU(ValueError):
    pass


class InconsistentSystem(ArithmeticError):
    pass


class NotLaurent(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient models for y
# ---------------------------------------------------------------------------


# Q[y] localised at y and 1 + y.  The only non-monomial factor the q-side
# ever inverts is Phi(tau, -z), whose q^0 term is 1 + y, so every
# denominator met is y^a (1+y)^b.
FORMAL_RING = Localization(([0, 1], [1, 1]), "y")


def y_model(mode):
    """(ring, y) for mode 'formal' or an integer N (cyclotomic).

    In formal mode y is a variable and y, 1 + y are invertible.  In
    cyclotomic mode -y is a primitive N-th root of unity: the modulus
    is the monic minimal polynomial of y, +-Phi_N(-y).
    """
    if mode == "formal":
        return FORMAL_RING, FORMAL_RING.gen()
    N = int(mode)
    phi = cyclotomic_polynomial(N)
    m = [c * Fraction((-1) ** i) for i, c in enumerate(phi)]
    ring = QuotientRing(m)
    return ring, ring.gen()


def as_y_laurent(value):
    """Element of the formal y-ring -> dict exponent -> Fraction.

    Requires no power of 1 + y in the denominator; raises NotLaurent
    otherwise.
    """
    if isinstance(value, (int, Fraction)):
        return {0: Fraction(value)} if value else {}
    ey, e1 = value.exps
    if e1 > 0:
        raise NotLaurent(f"denominator is not a monomial: {value}")
    num = poly_mul_power(value.ints, (1, 1), -e1)
    return {e - ey: Fraction(c, value.den) for e, c in enumerate(num) if c}


class SeriesRing:
    """Ring context whose elements are q-truncated series over a base."""

    def __init__(self, base, qorder):
        self.base = base
        self.qorder = qorder
        self.zero = TruncatedSeries.zero_series(base, qorder)
        self.one = TruncatedSeries.one_series(base, qorder)

    def from_fraction(self, fr):
        return self.one * Fraction(fr)

    def constant(self, c):
        """Constant q-series with a base-ring value."""
        return TruncatedSeries(self.base, 0, [c], self.qorder)

    def dot(self, pairs):
        """Sum of the products, one base dot per q-exponent.

        The window is the fold's from zero: low the least of 0 and the
        products' lows, order the least of qorder and the products'
        orders by the minimum rule.  A factor that is not a series is a
        scalar: it multiplies a series coefficientwise, and a product of
        two scalars is a constant series.
        """
        low, order = 0, self.qorder
        products, scaled = [], []
        for a, b in pairs:
            if not isinstance(a, TruncatedSeries):
                a, b = b, a
            if not isinstance(a, TruncatedSeries):
                a = self.constant(a)
            if isinstance(b, TruncatedSeries):
                low = min(low, a.low + b.low)
                order = min(order, a.order + b.low, b.order + a.low)
                products.append((a, b))
            else:
                low = min(low, a.low)
                order = min(order, a.order)
                scaled.append((a, b))

        def pairs_at(e):
            for a, b in products:
                for i in range(max(a.low, e - b.order),
                               min(a.order, e - b.low) + 1):
                    yield a.coeffs[i - a.low], b.coeffs[e - i - b.low]
            for a, c in scaled:
                if a.low <= e:
                    yield a.coeffs[e - a.low], c

        base_dot = self.base.dot
        return TruncatedSeries(
            self.base, low,
            [base_dot(pairs_at(e)) for e in range(low, order + 1)], order)

    def from_function(self, fn):
        return TruncatedSeries.from_function(self.base, fn, self.qorder)

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.base == other.base
            and self.qorder == other.qorder
        )

    def __hash__(self):
        return hash(("SeriesRing", self.base, self.qorder))

    def __repr__(self):
        return f"{self.base!r}[[q]]/q^{self.qorder + 1}"


def xscale(xs, c):
    """Multiply an x-series by one nested coefficient (not an x-series)."""
    return TruncatedSeries(xs.ring, xs.low, [a * c for a in xs.coeffs],
                           xs.order)


# ---------------------------------------------------------------------------
# the product as divisor sums
# ---------------------------------------------------------------------------


def _y_powers(ring, y, n):
    """[y^0, ..., y^n] and [y^0, ..., y^-n]."""
    up, down = [ring.one], [ring.one]
    y_inv = y ** (-1)
    for _ in range(n):
        up.append(up[-1] * y)
        down.append(down[-1] * y_inv)
    return up, down


def _divisor_sums(ring, powers, weight):
    """[0, s_1, ..., s_n] with s_e = sum_{m|e} (a y^m + b y^-m + c).

    powers is _y_powers(ring, y, n); weight(m) gives the rationals
    (a, b, c).  Each s_e is one ring.dot.
    """
    up, down = powers
    weights = [None] + [weight(m) for m in range(1, len(up))]

    def pairs(e):
        for m in range(1, e + 1):
            if e % m == 0:
                a, b, c = weights[m]
                yield from ((up[m], a), (down[m], b), (ring.one, c))

    return [ring.zero] + [ring.dot(pairs(e)) for e in range(1, len(up))]


def phi_at_minus_z(qorder, ring, y):
    """Phi(tau, -z) = (1+y) prod (1+y q^n)(1+y^{-1} q^n)/(1-q^n)^2.

    The log of the product is sum_e q^e sum_{m|e}
    ((-1)^(m+1) (y^m + y^-m) + 2) / m.
    """
    log = _divisor_sums(ring, _y_powers(ring, y, qorder), lambda m: (
        Fraction((-1) ** (m + 1), m), Fraction((-1) ** (m + 1), m),
        Fraction(2, m)))
    return TruncatedSeries(ring, 0, log, qorder).exp() * (ring.one + y)


def phi_ell_q(qorder=DEFAULT_QORDER, xorder=DEFAULT_XORDER, mode="formal"):
    """The genus of the theta product, from its log coefficients l_k.

    mode: "formal" (coefficients in Q[y, 1/y, 1/(1+y)]) or an integer N
    (coefficients in the cyclotomic model where -y is a primitive N-th
    root of unity).  Each l_k is a q-series through q^qorder; its q^0
    term is log(x/(1-u)) + log(1 + y(u-1)/(1+y)) at x^k, and its q^e
    terms are the divisor sums of the module docstring.  The overall
    e^{kx} factor is dropped, so evaluation is only meaningful on SU
    classes.
    """
    ring, y = y_model(mode)
    powers = _y_powers(ring, y, qorder)
    todd = classical_genus("todd", order=xorder).log_coeffs
    w = y * (ring.one + y) ** (-1)
    unit = TruncatedSeries(ring, 0, [ring.one] + [
        w * Fraction((-1) ** k, factorial(k)) for k in range(1, xorder + 1)
    ], xorder).log()
    nested = SeriesRing(ring, qorder)
    logs = [nested.zero]
    for k in range(1, xorder + 1):
        sums = _divisor_sums(ring, powers, lambda m, k=k: (
            Fraction((-1) ** (m + 1) * (-m) ** k, m * factorial(k)),
            Fraction((-1) ** (m + 1) * m ** k, m * factorial(k)),
            Fraction((-m) ** k + m ** k, m * factorial(k))))
        sums[0] = unit.coeff(k) + todd[k]
        logs.append(TruncatedSeries(ring, 0, sums, qorder))
    return GenusSpec.from_log_coeffs(nested, logs,
                                     name=f"phi_ell(q; {mode})")


# The benchmark's tracer (bench/tracer.py) times the q-side build under
# these names.
qx_of_phiell_product = _product_spec = phi_ell_q


# ---------------------------------------------------------------------------
# loop-space expansion and the Weierstrass series
# ---------------------------------------------------------------------------


def chi_y_loop(X, qorder=DEFAULT_QORDER):
    """chi_y(q, LX) = phi_ell(X) * Phi(tau,-z)^dim as a q-series in y.

    X must be an SU class (all Chern numbers containing c_1 vanish).
    """
    if not X.is_su():
        raise NotSU("chi_y(q, LX) needs an SU class")
    spec = phi_ell_q(qorder, max(X.dim, 2), "formal")
    v = evaluate(spec, X)
    ring, y = y_model("formal")
    norm = phi_at_minus_z(qorder, ring, y)
    return v * norm ** X.dim


def weierstrass_p(qorder=DEFAULT_QORDER):
    """The Weierstrass series: -y/(1+y)^2
    + sum_n q^n sum_{d|n} d((-y)^d + (-y)^{-d}) + (1/12)(1 - 24 sum sigma_1 q^n)."""
    ring, y = y_model("formal")
    coeffs = _divisor_sums(ring, _y_powers(ring, y, qorder), lambda d: (
        (-1) ** d * d, (-1) ** d * d, -2 * d))
    coeffs[0] = (-y * (ring.one + y) ** (-2)
                 + ring.from_fraction(Fraction(1, 12)))
    return TruncatedSeries(ring, 0, coeffs, qorder)


# ---------------------------------------------------------------------------
# recovering the quartic coefficients
# ---------------------------------------------------------------------------


def match_quartic(h):
    """q_1..q_4 with (h')^2 = h^4 + q_1 h^3 + ... + q_4 for h = f'/f.

    h is a Laurent series 1/x + O(1); extract_qi reads it off log Q,
    since h = 1/x - sum_k k l_k x^(k-1) for f = x/Q.  The coefficients of
    (h')^2 - h^4 at x^{-3}..x^0 determine q_1..q_4 sequentially; the
    remaining Laurent coefficients must then vanish, which is checked —
    raises InconsistentSystem if the genus does not satisfy a quartic
    differential equation.
    """
    from .elliptic_ode import QuarticData

    ring = h.ring
    hp = h.derivative()
    h2 = h * h
    h3 = h2 * h
    h4 = h2 * h2
    rem = (hp * hp - h4).truncate(h4.order)
    powers = {3: h3.truncate(rem.order), 2: h2.truncate(rem.order),
              1: h.truncate(rem.order)}
    qs = []
    for pw in (3, 2, 1, 0):
        c = rem.coeff(-pw)
        qs.append(c)
        if pw:
            rem = rem - xscale(powers[pw], c)
        else:
            rem = rem - TruncatedSeries(ring, 0, [c], rem.order)
    for e in range(rem.low, rem.order + 1):
        if not coeff_is_zero(rem.coeff(e)):
            raise InconsistentSystem(
                f"quartic does not close at x^{e}: {rem.coeff(e)}"
            )
    return QuarticData(*qs, ring=ring)


def extract_qi(mode="formal", qorder=DEFAULT_QORDER, xorder=DEFAULT_XORDER):
    """The q-expansions of q_1..q_4 (and of A, B, C, D).

    Returns (QuarticData, ABCDPoint) over the q-series ring, recovered
    from h = f'/f = 1/x - sum_k k l_k x^(k-1), read off the log
    coefficients l_k of the genus, via its quartic differential
    equation.  h is known through x^(xorder-3), the window that
    (f' * f^-1) of the truncated f = x/Q(x) would have: Q, f and its
    inverse are never formed.
    """
    from .elliptic_ode import q_to_abcd

    spec = phi_ell_q(qorder, xorder, mode)
    ring, logs = spec.ring, spec.log_coeffs
    h = TruncatedSeries(ring, -1, [ring.one] + [
        logs[k] * (-k) for k in range(1, xorder - 1)], xorder - 3)
    quartic = match_quartic(h)
    return quartic, q_to_abcd(quartic)


# ---------------------------------------------------------------------------
# integrality
# ---------------------------------------------------------------------------


def integrality_check(series):
    """Is every coefficient in Z[y, y^{-1}]?  Returns (ok, violation).

    violation is None or (q-power, y-exponent, value).
    """
    for n in range(series.low, series.order + 1):
        lau = as_y_laurent(series.coeff(n))
        for e, c in sorted(lau.items()):
            if c.denominator != 1:
                return False, (n, e, c)
    return True, None
