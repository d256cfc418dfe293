"""The elliptic differential equation over any exact coefficient ring.

The genus is determined by the unique Laurent solution h(x) = 1/x + c_1 +
c_2 x + ... of the differential equation (h')^2 = S(h) for the quartic
S(y) = y^4 + q_1 y^3 + q_2 y^2 + q_3 y + q_4; with f defined by f'/f = h
and f = x + O(x^2), the characteristic series is Q(x) = x/f(x).  The
quartic is given by q_1..q_4 (QuarticData) or, after the standard
coordinate change, by A, B, C, D (ABCDPoint).  The ODE is solved with the
quartic depressed by q_1/4 = A/2, which leaves it free of A.

Everything here is generic over the coefficient ring, so rational point
values and symbolic generators share one code path, and nothing here
imports a polynomial ring: a genus at one rational point runs in QQ
alone.  The symbolic rings Q[q1..q4] and Q[A, B, C, D] and the universal
genus over them are in universal_elliptic, which re-exports these names.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_kernel import QQ, TruncatedSeries
from .genus_engine import GenusSpec


class QuarticData:
    """S(y) = y^4 + q1 y^3 + q2 y^2 + q3 y + q4 over an exact ring."""

    def __init__(self, q1, q2, q3, q4, ring=QQ):
        self.ring = ring
        self.q = (q1, q2, q3, q4)

    @classmethod
    def generic(cls):
        from .universal_elliptic import Q_RING
        q1, q2, q3, q4 = Q_RING.gens()
        return cls(q1, q2, q3, q4, ring=Q_RING)

    def __iter__(self):
        return iter(self.q)

    def __eq__(self, other):
        return isinstance(other, QuarticData) and list(self.q) == list(other.q)

    def __repr__(self):
        return f"QuarticData{self.q!r}"


class ABCDPoint:
    """A point (or the generic point) of the coefficient ring Q[A,B,C,D]."""

    def __init__(self, A, B, C, D, ring=QQ):
        self.ring = ring
        self.A, self.B, self.C, self.D = A, B, C, D

    @classmethod
    def generic(cls):
        from .universal_elliptic import ABCD_RING
        A, B, C, D = ABCD_RING.gens()
        return cls(A, B, C, D, ring=ABCD_RING)

    def __iter__(self):
        return iter((self.A, self.B, self.C, self.D))

    def __eq__(self, other):
        return isinstance(other, ABCDPoint) and list(self) == list(other)

    def __repr__(self):
        return f"ABCDPoint({self.A}, {self.B}, {self.C}, {self.D})"


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def abcd_to_q(p):
    """(A,B,C,D) -> (q1..q4) so that both describe the same quartic."""
    A, B, C, D = p
    h = Fraction(1, 2)
    q1 = 2 * A
    q2 = Fraction(3, 2) * A ** 2 - B * Fraction(1, 4)
    q3 = A ** 3 * h - A * B * Fraction(1, 4) + 4 * C
    q4 = (
        A ** 4 * Fraction(1, 16)
        - A ** 2 * B * Fraction(1, 16)
        + 2 * (A * C)
        + B ** 2 * Fraction(1, 64)
        - 2 * D
    )
    return QuarticData(q1, q2, q3, q4, ring=p.ring)


def q_to_abcd(q):
    """(q1..q4) -> (A,B,C,D); inverse of abcd_to_q."""
    q1, q2, q3, q4 = q
    A = q1 * Fraction(1, 2)
    B = Fraction(3, 2) * q1 ** 2 - 4 * q2
    C = q1 ** 3 * Fraction(1, 32) - q1 * q2 * Fraction(1, 8) + q3 * Fraction(1, 4)
    D = (
        Fraction(3, 128) * q1 ** 4
        - q1 ** 2 * q2 * Fraction(1, 8)
        + q1 * q3 * Fraction(1, 8)
        + q2 ** 2 * Fraction(1, 8)
        - q4 * Fraction(1, 2)
    )
    return ABCDPoint(A, B, C, D, ring=q.ring)


# ---------------------------------------------------------------------------
# the ODE solution
# ---------------------------------------------------------------------------


def _square_coeff(ring, a, n, lo):
    """sum a_j a_k over j + k = n with j, k >= lo, by symmetric halves."""
    half, odd = divmod(n, 2)
    s = ring.dot((a[j], a[n - j]) for j in range(lo, half + odd))
    s = s * Fraction(2)
    if not odd and half >= lo:
        s = s + ring.dot([(a[half], a[half])])
    return s


def solve_h(S, order):
    """The unique h = 1/x + c_1 + c_2 x + ... with (h')^2 = S(h).

    Returns a Laurent TruncatedSeries with low = -1 carrying c_1..c_order
    (exponents 0..order-1).

    The equation is solved in its depressed form.  With s = q1/4,
    S(z - s) = z^4 + p2 z^2 + p3 z + p4, where p2 = q2 - (3/8) q1^2,
    p3 = q3 - 2s(q2 - q1 s) and p4 = q4 - s(q3 - s(q2 - 3s^2)); so
    h = h0 - s for the solution h0 of (h0')^2 = S(h0 - s), and only c_1
    differs from h0's.  For the generic quartic in A, B, C, D, s = A/2
    and p2, p3, p4 are free of A (the Weierstrass-type normal form of
    Hirzebruch, Berger and Jung, Manifolds and Modular Forms, 1992), so
    every c_i with i >= 2 lies in Q[B, C, D].

    The coefficients of h0 come from the first-order equation by a
    recurrence.  Write H = x h0 = sum_i c_i x^i (c_0 = 1), G = H^2 =
    sum_j g_j x^j and P = x H' - H = sum_i (i-1) c_i x^i; times x^4 the
    equation reads P^2 = G^2 + p2 x^2 G + p3 x^3 H + p4 x^4.  At x^i the
    unknown c_i enters only through 2 (-1) (i-1) c_i in P^2 and
    2 g_0 g_i = 4 c_i + (terms in c_1..c_{i-1}) in G^2.  So with c_i set
    to 0, the residual r at x^i, which is the coefficient of
    (h0')^2 - S(h0 - s) at x^(e-3) for the exponent e = i - 1 of c_i,
    gives c_i = r / (2e + 4).  The divisor 2e + 4 is never zero (the
    second-order equation 2h'' = S'(h) would divide by (e-3)(e+2),
    which vanishes at e = 3).  The g_j are kept as they become known,
    so each step costs O(e) ring products: one convolution coefficient
    each of P^2, G (at c_i = 0) and G^2, the squares by symmetric
    halves.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ring = S.ring
    q1, q2, q3, q4 = S
    s = q1 * Fraction(1, 4)
    p2 = q2 - q1 * s * Fraction(3, 2)
    p3 = q3 - s * (q2 - q1 * s) * Fraction(2)
    p4 = q4 - s * (q3 - s * (q2 - s * s * Fraction(3)))
    c = [ring.one]   # c_i, coefficients of H = x h0
    p = [-ring.one]  # (i - 1) c_i, coefficients of P
    g = [ring.one]   # g_j, coefficients of G = H^2
    for i in range(1, order + 1):
        g.append(_square_coeff(ring, c, i, 1))  # g_i at c_i = 0
        r = _square_coeff(ring, p, i, 1) - _square_coeff(ring, g, i, 0)
        if i >= 2:
            r = r - g[i - 2] * p2
        if i >= 3:
            r = r - c[i - 3] * p3
        if i == 4:
            r = r - p4
        ci = r * Fraction(1, 2 * i + 2)  # 2e + 4 with e = i - 1
        c.append(ci)
        p.append(ci * Fraction(i - 1))
        g[i] = g[i] + ci * Fraction(2)
    c[1] = c[1] - s  # h = h0 - s
    return TruncatedSeries(ring, -1, c, order - 1)


def q_of_h(h, name="genus"):
    """GenusSpec with f'/f = h: log Q(x) = log(x/f) = -integral(h - 1/x)."""
    ring = h.ring
    one_over_x = TruncatedSeries(ring, -1, [ring.one], h.order)
    log_q = -(h - one_over_x).integrate()
    return GenusSpec(ring, log_q.coeffs, name=name)
