"""Exact arithmetic foundation.

Rationals (stdlib Fraction) and their ring context QQ; zero tests and
inverses of coefficients in any ring; the errors; and truncated power
series in one variable, known from x^0 up to an order, over any ring
context.  Each other representation has a module of its own, so a
command compiles only those it runs: sparse weighted polynomials in
weighted_poly, and the flat ring of q-series, whose truncation at q^0
is the coefficient ring Q(zeta_N) or Q[y, 1/y, 1/(1+y)], in jacobi_q
with the int-list kernels it is built on.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from importlib import import_module
from math import gcd, inf, isfinite
from operator import add, sub


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
    exponent = exponent.strip().lstrip("+-").lstrip("0")
    digits = sum(ch.isdecimal() for ch in mantissa)
    if not exponent.isdecimal():
        return digits
    return digits + (int(exponent) if len(exponent) <= _max_str_digits()
                     else inf)


def _number_text(text):
    """text, if it may be read as a number: ASCII without "_", and at
    most _max_str_digits() digits written out with its exponent
    (literal_digits).  int() and Fraction() read more, the digits of
    every script and "_" between digits, so "٣" would be read as 3 and
    "1_0" as 10; and Fraction() runs long on a large exponent, while
    int() refuses a long literal with advice a user cannot take.  Text
    that passes is read exactly as they read it, surrounding spaces
    included."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number")
    if literal_digits(text) > _max_str_digits():
        raise ValueError(f"{text!r} has more than {_max_str_digits()} "
                         "digits written out")
    return text


def parse_int(text):
    """An int from text read from outside, the command line's and the
    catalog names' numbers and JSON Chern-number keys: int() of
    _number_text, ValueError otherwise."""
    return int(_number_text(text))


def parse_rational(value):
    """A Fraction from a rational read from outside: a str such as "-3/2"
    or "1.5e3" (_number_text), an int or a float.  ValueError for a bool,
    which Fraction would read as 0 or 1, and for a float that is not
    finite, which it cannot read."""
    if isinstance(value, bool):
        raise ValueError(f"{value} is not a number")
    if isinstance(value, float) and not isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return Fraction(_number_text(value) if isinstance(value, str) else value)


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
# truncated power series in one variable, generic coefficients
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Power series known exactly for exponents 0..order.

    Coefficients live in an arbitrary ring context (see module docstring).
    Binary operations keep only the provably correct range: the smaller
    order.
    """

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs, order=None):
        if order is None:
            order = len(coeffs) - 1
        if order < -1:
            raise ValueError("empty coefficient window")
        cs = list(coeffs[:order + 1])
        cs += [ring.zero] * (order + 1 - len(cs))
        self.ring = ring
        self.coeffs = cs
        self.order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def one_series(cls, ring, order):
        return cls(ring, [ring.one], order)

    @classmethod
    def x_series(cls, ring, order):
        return cls(ring, [ring.zero, ring.one], order)

    @classmethod
    def from_function(cls, ring, fn, order):
        """Coefficients fn(e) for 0 <= e <= order."""
        return cls(ring, [fn(e) for e in range(order + 1)], order)

    # -- access -------------------------------------------------------------

    def coeff(self, e):
        if e > self.order:
            raise IndexError(f"coefficient x^{e} beyond truncation {self.order}")
        return self.coeffs[e] if e >= 0 else self.ring.zero

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c != self.ring.zero:
                return i
        return None

    def is_zero(self):
        return self.valuation() is None

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries(self.ring, self.coeffs, order)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.ring, [self.ring.from_fraction(other)], self.order
            )
        return None

    def _zip(self, other, op):
        # op on the coefficients at each exponent of the common prefix
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        return TruncatedSeries(self.ring, list(map(op, self.coeffs, o.coeffs)),
                               order)

    def __add__(self, other):
        return self._zip(other, add)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, [-c for c in self.coeffs],
                               self.order)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            # the coefficient at x^k pairs a[i] with b[k - i]
            order = min(self.order, other.order)
            a, b, dot = self.coeffs, other.coeffs, self.ring.dot
            cs = [dot(zip(a, b[k::-1])) for k in range(order + 1)]
            return TruncatedSeries(self.ring, cs, order)
        if hasattr(other, "terms") and other.ring != self.ring:
            # a polynomial (weighted_poly.WeightedPoly) over a ring of
            # series: its product applies
            return NotImplemented
        # a rational or a scalar from the coefficient ring
        return TruncatedSeries(
            self.ring, [c * other for c in self.coeffs], self.order
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.one_series(self.ring, self.order)
        # the first factor is taken as is, not multiplied into 1
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
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    # -- series operations --------------------------------------------------

    def inverse(self):
        """1/self; the constant term must be a unit of the ring."""
        a, dot = self.coeffs, self.ring.dot
        b0 = ring_invert(a[0])
        b = [b0]
        tail = a[1:]
        for _ in range(self.order):
            # b_k = -b_0 sum_{i=1..k} a_i b_{k-i}
            b.append(-(b0 * dot(zip(tail, reversed(b)))))
        return TruncatedSeries(self.ring, b, self.order)

    def derivative(self):
        return TruncatedSeries(self.ring, [
            c * Fraction(e) for e, c in enumerate(self.coeffs[1:], 1)],
            self.order - 1)

    def integrate(self):
        """Antiderivative with zero constant term."""
        return TruncatedSeries(
            self.ring, [self.ring.zero] + [
                c * Fraction(1, e) for e, c in enumerate(self.coeffs, 1)],
            self.order + 1)

    def compose(self, g):
        """self(g); requires g of positive valuation."""
        v = g.valuation()
        if v == 0:
            raise BadValuation("composition argument needs positive valuation")
        # coefficients of self beyond self.order would first matter at
        # y^((self.order + 1) * val(g))
        valid = g.order if v is None else min(g.order,
                                              (self.order + 1) * v - 1)
        result = TruncatedSeries(self.ring, [], g.order)
        one = TruncatedSeries.one_series(self.ring, g.order)
        for e in range(self.order, -1, -1):
            result = result * g + one * self.coeff(e)
        return result.truncate(valid)

    def compose_inverse(self):
        """Compositional inverse g with self(g(y)) = y.

        Requires valuation exactly 1 with unit linear coefficient.  By
        Lagrange inversion [y^k] g = (1/k) [x^(k-1)] (x/self)^k.
        """
        if self.valuation() != 1:
            raise BadValuation("compositional inverse needs valuation exactly 1")
        x_over_f = TruncatedSeries(self.ring, self.coeffs[1:],
                                   self.order - 1).inverse()
        power = x_over_f
        g = [self.ring.zero]
        for k in range(1, self.order + 1):
            g.append(power.coeff(k - 1) * Fraction(1, k))
            power = power * x_over_f
        return TruncatedSeries(self.ring, g, self.order)

    def exp(self):
        """exp of a series with valuation >= 1."""
        if self.coeff(0) != self.ring.zero:
            raise BadValuation("exp needs positive valuation")
        order = self.order
        # j a_j for j = 1..order
        ja = [c * Fraction(j) for j, c in enumerate(self.coeffs[1:], 1)]
        b = [self.ring.one]
        dot = self.ring.dot
        for k in range(1, order + 1):
            # k b_k = sum_{j=1..k} j a_j b_{k-j}
            b.append(dot(zip(ja, reversed(b))) * Fraction(1, k))
        return TruncatedSeries(self.ring, b, order)

    def log(self):
        """log of a series with constant term 1."""
        if self.coeff(0) != self.ring.one:
            raise BadValuation("log needs constant term 1")
        d = self.derivative()
        return (d * self.inverse()).truncate(self.order - 1).integrate()

    def __str__(self):
        parts = [f"({c})*x^{e}" if e else f"({c})"
                 for e, c in enumerate(self.coeffs) if c != self.ring.zero]
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
