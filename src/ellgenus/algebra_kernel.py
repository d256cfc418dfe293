"""Exact arithmetic foundation.

Rationals (stdlib Fraction) and their ring context QQ; zero tests and
inverses of coefficients in any ring; the errors; and truncated series
in one variable over any ring context.  Each other representation has a
module of its own, so a command compiles only those it runs: sparse
weighted polynomials in weighted_poly, and the flat ring of q-series,
whose truncation at q^0 is the coefficient ring Q(zeta_N) or
Q[y, 1/y, 1/(1+y)], in jacobi_q with the int-list kernels it is built on.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from importlib import import_module
from math import gcd, inf, isfinite


class NonUnitLeadingCoefficient(ArithmeticError):
    pass


class BadValuation(ValueError):
    pass


class VariableNotPresent(KeyError):
    pass


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {x!r}")


def _max_str_digits():
    """The most digits Python converts between an int and a str, as
    sys.get_int_max_str_digits() sets it (its default if unlimited)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def literal_digits(text):
    """The decimal digits of a rational literal such as "-3/2" or
    "1.5e-3" plus the size of its exponent: about as many digits as the
    number has written out."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(ch.isdecimal() for ch in mantissa)
    if not exponent.isdecimal():
        return digits
    return digits + (int(exponent) if len(exponent) <= _max_str_digits()
                     else inf)


def parse_rational(value):
    """A Fraction from a rational read from outside: a str such as "-3/2"
    or "1.5e3", an int or a float.  ValueError where Fraction would
    overflow or run long: a float that is not finite, or a literal of
    more than _max_str_digits() digits with its exponent (literal_digits).
    """
    if isinstance(value, float) and not isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    if isinstance(value, str) and literal_digits(value) > _max_str_digits():
        raise ValueError(f"{value!r} has more than {_max_str_digits()} "
                         "digits written out")
    return Fraction(value)


# ---------------------------------------------------------------------------
# coefficient ring contexts
#
# A "ring context" is any object with attributes/methods
#     zero, one, from_fraction(fr), dot(pairs)
# whose elements support +, -, unary -, *, == and multiplication by Fraction.
# Fraction itself is the base case.  PolyRing (weighted_poly) and the flat
# q-series ring QSeriesRing (jacobi_q), which at q^0 is the coefficient
# ring of the q-series, are ring contexts too, so coefficient rings nest.
#
# dot(pairs) is the sum of a * b over an iterable of pairs, each factor an
# element of the ring or a rational.  It equals the fold s = zero; s = s +
# a * b, with the same truncation, but accumulates in the unnormalised
# representation and normalises once, at the end: one Fraction for QQ, one
# gcd for a polynomial over QQ (int numerators over one denominator), one
# integer convolution in a QSeriesRing (then one reduction mod m, or one
# stripping of y and 1 + y), and over any other nested ring one base dot
# per coefficient of the result.
# Products of polynomials and of series, and the convolutions of the
# builders, are built on it.  It reads the pairs once.
# ---------------------------------------------------------------------------


class FractionRing:
    """Ring context for plain rational coefficients."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_fraction(fr):
        return _fr(fr)

    @staticmethod
    def dot(pairs):
        # integer numerator over the least common denominator so far
        n, d = 0, 1
        for a, b in pairs:
            pn = a.numerator * b.numerator
            if not pn:
                continue
            pd = a.denominator * b.denominator
            if pd != d:
                g = gcd(d, pd)
                if g != pd:
                    m = pd // g
                    n *= m
                    d *= m
                pn *= d // pd
            n += pn
        return Fraction(n, d)

    def __repr__(self):
        return "QQ"


QQ = FractionRing()


def coeff_is_zero(c):
    """Is the coefficient zero?  c is rational or a ring element."""
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


def ring_invert(c):
    """Multiplicative inverse of a coefficient, if it is a unit."""
    if isinstance(c, Fraction):
        if c == 0:
            raise NonUnitLeadingCoefficient("division by zero coefficient")
        return 1 / c
    inv = getattr(c, "inverse", None)
    if inv is None:
        raise NonUnitLeadingCoefficient(f"cannot invert {c!r}")
    try:
        return inv()
    except NonUnitLeadingCoefficient:
        raise
    except ArithmeticError as exc:
        raise NonUnitLeadingCoefficient(str(exc)) from exc

# ---------------------------------------------------------------------------
# truncated series in one variable, generic coefficients
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Laurent/power series known exactly for exponents low..order.

    Coefficients live in an arbitrary ring context (see module docstring).
    Binary operations keep only the provably correct range (minimum rule).
    """

    __slots__ = ("ring", "low", "coeffs", "order")

    def __init__(self, ring, low, coeffs, order=None):
        if order is None:
            order = low + len(coeffs) - 1
        length = order - low + 1
        if length < 0:
            raise ValueError("empty coefficient window")
        cs = list(coeffs[:length])
        cs += [ring.zero] * (length - len(cs))
        self.ring = ring
        self.low = low
        self.coeffs = cs
        self.order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero_series(cls, ring, order, low=0):
        return cls(ring, low, [], order)

    @classmethod
    def one_series(cls, ring, order):
        return cls(ring, 0, [ring.one], order)

    @classmethod
    def x_series(cls, ring, order):
        return cls(ring, 1, [ring.one], order)

    @classmethod
    def from_function(cls, ring, fn, order, low=0):
        """Coefficients fn(e) for low <= e <= order."""
        return cls(ring, low, [fn(e) for e in range(low, order + 1)], order)

    # -- access -------------------------------------------------------------

    def coeff(self, e):
        if e < self.low:
            return self.ring.zero
        if e > self.order:
            raise IndexError(f"coefficient x^{e} beyond truncation {self.order}")
        return self.coeffs[e - self.low]

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c != self.ring.zero:
                return self.low + i
        return None

    def is_zero(self):
        return self.valuation() is None

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries(self.ring, self.low, self.coeffs, order)

    def shift(self, k):
        """Multiply by x^k."""
        return TruncatedSeries(self.ring, self.low + k, self.coeffs, self.order + k)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.ring, 0, [self.ring.from_fraction(other)], self.order
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        low = min(self.low, o.low)
        order = min(self.order, o.order)
        cs = []
        for e in range(low, order + 1):
            a = self.coeffs[e - self.low] if self.low <= e <= self.order else self.ring.zero
            b = o.coeffs[e - o.low] if o.low <= e <= o.order else self.ring.zero
            cs.append(a + b)
        return TruncatedSeries(self.ring, low, cs, order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            # product provably correct to min(o1 + low2, o2 + low1); the
            # coefficient k places above low pairs a[i] with b[k - i], and
            # k never passes the end of either window
            low = self.low + other.low
            order = min(self.order + other.low, other.order + self.low)
            a, b, dot = self.coeffs, other.coeffs, self.ring.dot
            cs = [dot(zip(a, b[k::-1])) for k in range(order - low + 1)]
            return TruncatedSeries(self.ring, low, cs, order)
        if hasattr(other, "terms") and other.ring != self.ring:
            # a polynomial (weighted_poly.WeightedPoly) over a ring of
            # series: its product applies
            return NotImplemented
        # a rational or a scalar from the coefficient ring
        return TruncatedSeries(
            self.ring, self.low, [c * other for c in self.coeffs], self.order
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.one_series(self.ring, self.order)
        # the first factor is taken as is, not multiplied into 1, so the
        # window of a Laurent series does not shrink
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        low = min(self.low, o.low)
        for e in range(low, order + 1):
            a = self.coeffs[e - self.low] if self.low <= e <= self.order else self.ring.zero
            b = o.coeffs[e - o.low] if o.low <= e <= o.order else self.ring.zero
            if not (a == b):
                return False
        return True

    # -- series operations --------------------------------------------------

    def inverse(self):
        v = self.valuation()
        if v is None:
            raise NonUnitLeadingCoefficient("inverse of zero series")
        n = self.order - v
        a = [self.coeff(v + k) for k in range(n + 1)]
        b0 = ring_invert(a[0])
        b = [b0]
        tail, dot = a[1:], self.ring.dot
        for _ in range(n):
            # b_k = -b_0 sum_{i=1..k} a_i b_{k-i}
            b.append(-(b0 * dot(zip(tail, reversed(b)))))
        return TruncatedSeries(self.ring, -v, b, -v + n)

    def derivative(self):
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.low + i
            out.append(c * Fraction(e) if e != 0 else self.ring.zero)
        return TruncatedSeries(self.ring, self.low - 1, out, self.order - 1)

    def integrate(self):
        """Antiderivative with zero constant term; requires no x^{-1} term."""
        if self.low <= -1 <= self.order and self.coeff(-1) != self.ring.zero:
            raise BadValuation("cannot integrate an x^{-1} term")
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.low + i
            if e == -1:
                out.append(self.ring.zero)
            else:
                out.append(c * Fraction(1, e + 1))
        return TruncatedSeries(self.ring, self.low + 1, out, self.order + 1)

    def compose(self, g):
        """self(g); requires self.low >= 0 and g of positive valuation."""
        if self.low < 0:
            raise BadValuation("cannot compose a Laurent series")
        if g.low < 1:
            raise BadValuation("composition argument needs positive valuation")
        work = g.order
        # coefficients of self beyond self.order would first matter at
        # y^((self.order + 1) * val(g))
        valid = min(g.order, (self.order + 1) * g.low - 1)
        result = TruncatedSeries.zero_series(self.ring, work)
        one = TruncatedSeries.one_series(self.ring, work)
        for e in range(self.order, -1, -1):
            result = result * g + one * self.coeff(e)
        return result.truncate(valid)

    def compose_inverse(self):
        """Compositional inverse g with self(g(y)) = y.

        Requires valuation exactly 1 with unit linear coefficient.  By
        Lagrange inversion [y^k] g = (1/k) [x^(k-1)] (x/self)^k.
        """
        if self.low > 1 or self.valuation() != 1:
            raise BadValuation("compositional inverse needs valuation exactly 1")
        x_over_f = self.shift(-1).inverse()
        power = x_over_f
        g = []
        for k in range(1, self.order + 1):
            g.append(power.coeff(k - 1) * Fraction(1, k))
            power = power * x_over_f
        return TruncatedSeries(self.ring, 1, g, self.order)

    def exp(self):
        """exp of a series with valuation >= 1."""
        if self.low < 1 and not all(
            c == self.ring.zero for c in self.coeffs[: max(0, 1 - self.low)]
        ):
            raise BadValuation("exp needs positive valuation")
        order = self.order
        # j a_j for j = 1..order
        ja = [self.coeff(j) * Fraction(j) for j in range(1, order + 1)]
        b = [self.ring.one]
        dot = self.ring.dot
        for k in range(1, order + 1):
            # k b_k = sum_{j=1..k} j a_j b_{k-j}
            b.append(dot(zip(ja, reversed(b))) * Fraction(1, k))
        return TruncatedSeries(self.ring, 0, b, order)

    def log(self):
        """log of a series with constant term 1."""
        if self.low > 0 or self.coeff(0) != self.ring.one:
            raise BadValuation("log needs constant term 1")
        d = self.derivative()
        return (d * self.inverse()).truncate(self.order - 1).integrate()

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            e = self.low + i
            parts.append(f"({c})*x^{e}" if e else f"({c})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order + 1})"

    __repr__ = __str__


# bench/tracer.py reads these names from this module; each is forwarded to
# the module it lives in, where the three functions are aliases of the
# integer kernels that module runs.
_MOVED = {"WeightedPoly": "weighted_poly", "MultiPoly": "weighted_poly",
          "resultant_in": "level_n", "RationalFunction": "jacobi_q",
          "QuotElt": "jacobi_q", "poly_gcd": "jacobi_q",
          "poly_divmod": "jacobi_q"}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_MOVED[name]}"), name)
