"""Exact arithmetic foundation.

Rationals (stdlib Fraction); one sparse multivariate polynomial type,
WeightedPoly, with weighted variables, coefficients in any ring context
and an optional weighted-degree cap that makes it a truncated
multivariate series; resultants; truncated series in one variable over
any ring context; univariate quotient rings Q[y]/(m); and rational
functions in one variable whose denominators are products of fixed
irreducibles, the localisations of Q[t] at finitely many primes, kept in
a normal form that needs no polynomial gcd.

The last two are dense: an element stores its numerator as a tuple of
ints over one positive int denominator.  Their moduli and inverted
polynomials are monic over Z, so reduction and trial division stay in
the integers; Fractions appear only where a coefficient is read out.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, mul


class NonUnitLeadingCoefficient(ArithmeticError):
    pass


class BadValuation(ValueError):
    pass


class VariableNotPresent(KeyError):
    pass


class ExactDivisionError(ArithmeticError):
    pass


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {x!r}")


# ---------------------------------------------------------------------------
# coefficient ring contexts
#
# A "ring context" is any object with attributes/methods
#     zero, one, from_fraction(fr), dot(pairs)
# whose elements support +, -, unary -, *, == and multiplication by Fraction.
# Fraction itself is the base case.  PolyRing, QuotientRing and Localization
# below are ring contexts too, so coefficient rings nest.
#
# dot(pairs) is the sum of a * b over an iterable of pairs, each factor an
# element of the ring or a rational.  It equals the fold s = zero; s = s +
# a * b, with the same truncation, but accumulates in the unnormalised
# representation and normalises once, at the end: one Fraction for QQ, one
# reduction mod m in a QuotientRing, one _strip in a Localization, and over
# a nested ring one base dot per coefficient of the result.  Products of
# polynomials and of series, and the convolutions of the builders, are
# built on it.  It reads the pairs once.
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
# sparse multivariate polynomials: weighted variables, generic
# coefficients, optional weighted-degree cap
# ---------------------------------------------------------------------------


def _mincap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class PolyRing:
    """base[x_1, ..., x_k] with a positive integer weight per variable.

    base is a ring context (QQ by default, or e.g. a QuotientRing, a ring
    of q-series or another PolyRing).  Variables are ordered; the first
    variable is largest in the graded lexicographic term order used for
    display and leading terms.
    """

    def __init__(self, *variables, base=QQ):
        spec = []
        for v in variables:
            if isinstance(v, str):
                spec.append((v, 1))
            else:
                name, w = v
                w = int(w)
                if w <= 0:
                    raise ValueError("variable weights must be positive")
                spec.append((str(name), w))
        self.variables = tuple(spec)
        self.names = tuple(n for n, _ in spec)
        self.weights = tuple(w for _, w in spec)
        self.nvars = len(spec)
        if len(set(self.names)) != self.nvars:
            raise ValueError("duplicate variable names")
        self.base = base
        self.zero = WeightedPoly(self, {})
        self.one = self.constant(base.one)

    def gen(self, name):
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return WeightedPoly(self, {exps: self.base.one})

    def gens(self):
        return tuple(self.gen(n) for n in self.names)

    def constant(self, c):
        """The constant polynomial with value c, an element of base."""
        return WeightedPoly(self, {(0,) * self.nvars: c})

    def from_fraction(self, fr):
        return self.constant(self.base.from_fraction(fr))

    def monomial(self, exps, coeff=1):
        coeff = self.base.from_fraction(coeff)
        return WeightedPoly(self, {tuple(exps): coeff})

    def dot(self, pairs):
        """Sum of the products: the coefficient pairs of every product
        monomial are collected first, then summed by one base dot each.
        A pair multiplies to the smaller cap of its factors and the sum
        keeps the smallest cap of all."""
        weights = self.weights
        buckets = {}
        cap = None
        for a, b in pairs:
            a, b = self._element(a), self._element(b)
            pair_cap = _mincap(a.cap, b.cap)
            cap = _mincap(cap, pair_cap)
            if pair_cap is None:
                right = [(0, e2, c2) for e2, c2 in b.terms.items()]
            else:
                right = [(sum(map(mul, e2, weights)), e2, c2)
                         for e2, c2 in b.terms.items()]
            for e1, c1 in a.terms.items():
                room = 0 if pair_cap is None else (
                    pair_cap - sum(map(mul, e1, weights)))
                for w2, e2, c2 in right:
                    if w2 > room:
                        continue
                    e = tuple(map(add, e1, e2))
                    bucket = buckets.get(e)
                    if bucket is None:
                        buckets[e] = [c1, c2]
                    else:
                        bucket += c1, c2
        # a bucket holds its pairs flat: c1, c2, c1', c2', ...
        base_dot = self.base.dot
        return WeightedPoly(self, {e: base_dot(zip(cs[::2], cs[1::2]))
                                   for e, cs in buckets.items()}, cap)

    def _element(self, x):
        # x as an element of this ring: rationals and base elements are
        # constants
        if isinstance(x, WeightedPoly) and x.ring is self:
            return x
        p = self.zero._coerce(x)
        if p is None:
            raise TypeError(f"{x!r} is not an element of {self!r}")
        return p

    def monomials_of_weight(self, w):
        """All exponent tuples of total weight exactly w."""
        out = []

        def rec(i, rem, acc):
            if i == self.nvars:
                if rem == 0:
                    out.append(tuple(acc))
                return
            wi = self.weights[i]
            for e in range(rem // wi + 1):
                rec(i + 1, rem - e * wi, acc + [e])

        rec(0, w, [])
        return out

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.base == other.base)

    def __hash__(self):
        return hash((self.variables, self.base))

    def __repr__(self):
        names = ", ".join(
            n if w == 1 else f"{n}(w={w})" for n, w in self.variables
        )
        if self.base is QQ:
            return f"Q[{names}]"
        return f"({self.base!r})[{names}]"


class WeightedPoly:
    """Element of a PolyRing; terms map exponent tuples to nonzero
    coefficients in ring.base.

    cap, if not None, bounds the weighted degree (term_weight, the sum of
    the exponents times the variable weights): terms above it are
    dropped, which makes the element a truncated multivariate series, and
    binary operations keep the smaller cap of their operands.
    """

    __slots__ = ("ring", "terms", "cap")

    def __init__(self, ring, terms, cap=None):
        self.ring = ring
        self.cap = cap
        # coeff_is_zero builds nothing, where c != 0 on a ring element
        # would coerce 0 into the base
        self.terms = {e: c for e, c in terms.items()
                      if not coeff_is_zero(c)
                      and (cap is None or self.term_weight(e) <= cap)}

    def truncate(self, cap):
        """Drop the terms of weight above cap, which becomes the cap."""
        return WeightedPoly(self.ring, self.terms, _mincap(self.cap, cap))

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def term_weight(self, exps):
        return sum(map(mul, exps, self.ring.weights))

    def weight(self):
        """Weight if homogeneous, else None.  Zero returns None as well
        (it is homogeneous of every weight)."""
        ws = {self.term_weight(e) for e in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def is_homogeneous(self, w=None):
        ws = {self.term_weight(e) for e in self.terms}
        if not ws:
            return True
        if w is None:
            return len(ws) == 1
        return ws == {w}

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.base.zero)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.base.zero)

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other):
        return isinstance(other, WeightedPoly) and (
            other.ring is self.ring or other.ring == self.ring)

    def _scalar(self, other):
        """other as a coefficient multiplying every term, or None.

        Rationals are scalars over every base, and so is a WeightedPoly
        of the base ring.  Over a base other than QQ any value that is
        not a WeightedPoly is taken to be a base element.  None means
        other belongs to a ring over this one, whose reflected operation
        Python tries next.
        """
        if isinstance(other, (int, Fraction)):
            return other
        if isinstance(other, WeightedPoly):
            if other.ring == self.ring.base:
                return other
            if other.ring.base != self.ring:
                raise ValueError("mixed polynomial rings")
            return None
        return None if self.ring.base is QQ else other

    def _coerce(self, other):
        if self._same_ring(other):
            return other
        c = self._scalar(other)
        if c is None:
            return None
        if isinstance(c, (int, Fraction)):
            return self.ring.from_fraction(c)
        return self.ring.constant(c)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        return WeightedPoly(self.ring, terms, _mincap(self.cap, o.cap))

    __radd__ = __add__

    def __neg__(self):
        return WeightedPoly(self.ring, {e: -c for e, c in self.terms.items()},
                            self.cap)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not self._same_ring(other):
            c = self._scalar(other)
            if c is None:
                return NotImplemented
            return WeightedPoly(
                self.ring, {e: a * c for e, a in self.terms.items()}, self.cap)
        return self.ring.dot([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _fr(other))
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def inverse(self):
        """Inverse of a unit (a constant that is a unit of the base)."""
        if len(self.terms) == 1:
            c = self.constant_term()
            if c != 0:
                return self.ring.constant(ring_invert(c))
        raise NonUnitLeadingCoefficient("polynomial is not a unit")

    # -- term order / display ----------------------------------------------

    def _grlex_key(self, exps):
        # graded lex: higher weight first, then lex with variable 0 largest
        return (self.term_weight(exps), exps)

    def leading(self):
        """(exps, coeff) of the graded-lex leading term; None for zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=self._grlex_key)
        return e, self.terms[e]

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        lt = self.leading()
        if lt is None:
            return self
        return self * (Fraction(1) / lt[1])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=self._grlex_key, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                n if k == 1 else f"{n}^{k}"
                for n, k in zip(self.ring.names, e)
                if k
            )
            if not isinstance(c, (int, Fraction)):
                parts.append((1, f"({c})*{mon}" if mon else f"({c})"))
                continue
            if not mon:
                parts.append((c, str(abs(c))))
                continue
            ac = abs(c)
            if ac == 1:
                parts.append((c, mon))
            else:
                parts.append((c, f"{ac}*{mon}"))
        out = ""
        for i, (c, txt) in enumerate(parts):
            if i == 0:
                out = ("-" if c < 0 else "") + txt
            else:
                out += (" - " if c < 0 else " + ") + txt
        return out

    __repr__ = __str__

    # -- substitution and variable operations -------------------------------

    def substitute(self, mapping, ring=QQ):
        """Evaluate with variables replaced by elements of a target ring.

        mapping: dict name -> target-ring element (or Fraction/int).
        Every variable that actually appears must be mapped.  The
        coefficients multiply the target elements as scalars.
        """
        powers = []  # per variable: [1, image, image^2, ...] as needed
        for i, name in enumerate(self.ring.names):
            if name in mapping:
                v = mapping[name]
                if isinstance(v, (int, Fraction)):
                    v = ring.from_fraction(v)
                powers.append([ring.one, v])
            else:
                if any(e[i] for e in self.terms):
                    raise VariableNotPresent(f"no image for variable {name}")
                powers.append(None)
        result = ring.zero
        for exps, c in self.terms.items():
            term = ring.one
            for pw, k in zip(powers, exps):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    term = term * pw[k]
            result = result + term * c
        return result

    # -- univariate views ---------------------------------------------------

    def degree_in(self, name):
        i = self.ring.names.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def as_univariate(self, name):
        """dict exponent-of-name -> WeightedPoly not involving name."""
        i = self.ring.names.index(name)
        out = {}
        for exps, c in self.terms.items():
            out.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
        return {k: WeightedPoly(self.ring, t) for k, t in out.items()}

    # -- exact division (integral domain) -----------------------------------

    def exact_div(self, other):
        """Exact quotient self/other; raises ExactDivisionError otherwise."""
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        lt = o.leading()
        le, lc = lt
        rem = self
        qterms = {}
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(k < 0 for k in qe):
                raise ExactDivisionError("not exactly divisible")
            qc = rc / lc
            qterms[qe] = qterms.get(qe, Fraction(0)) + qc
            rem = rem - WeightedPoly(self.ring, {qe: qc}) * o
        return WeightedPoly(self.ring, qterms)


def horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ... for a WeightedPoly x,
    the coefficients in its ring's base; the result keeps x's cap."""
    out = x.ring.zero
    for c in reversed(coeffs):
        out = out * x + c
    return out


# The benchmark's tracer (bench/tracer.py) times products under this name
# too.
MultiPoly = WeightedPoly


# ---------------------------------------------------------------------------
# fraction-free determinant and Sylvester resultant
# ---------------------------------------------------------------------------


def bareiss_determinant(rows, zero, one):
    """Fraction-free (Bareiss) determinant over an integral domain.

    rows: square list-of-lists; entries support *, - and exact_div, or
    are ints.  The division is chosen once: over Z (int zero and one)
    every division is an exact //, so no Fraction is formed.
    """
    n = len(rows)
    if n == 0:
        return one
    ints = type(zero) is int and type(one) is int
    div = floordiv if ints else type(zero).exact_div
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k] == zero:
            piv = next((i for i in range(k + 1, n) if m[i][k] != zero), None)
            if piv is None:
                return zero
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = div(num, prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant_in(p, q, var):
    """Sylvester resultant of p and q with respect to one variable.

    Both inputs live in the same PolyRing; the result does not involve var.
    Nothing in the package calls it: level_n.eliminant interpolates the
    resultant from integer determinants at points.  It is the tests'
    symbolic oracle, kept here because the benchmark's tracer looks it up
    by name, until the package carries its own trace spans.
    """
    if not isinstance(p, WeightedPoly) or not isinstance(q, WeightedPoly):
        raise TypeError("resultant_in expects WeightedPoly inputs")
    ring = p.ring
    if var not in ring.names:
        raise VariableNotPresent(var)
    pu = p.as_univariate(var)
    qu = q.as_univariate(var)
    m = max(pu, default=-1)
    n = max(qu, default=-1)
    if m < 1 and n < 1:
        raise VariableNotPresent(f"{var} appears in neither argument")
    if m < 0 or n < 0:
        raise ExactDivisionError("resultant with the zero polynomial")
    pc = [pu.get(k, ring.zero) for k in range(m, -1, -1)]
    qc = [qu.get(k, ring.zero) for k in range(n, -1, -1)]
    size = m + n
    rows = []
    for i in range(n):
        rows.append([ring.zero] * i + pc + [ring.zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([ring.zero] * i + qc + [ring.zero] * (size - i - n - 1))
    return bareiss_determinant(rows, ring.zero, ring.one)


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
        if isinstance(other, WeightedPoly) and other.ring != self.ring:
            # a polynomial over a ring of series: its product applies
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


# ---------------------------------------------------------------------------
# dense polynomials in one variable: coefficient lists, low -> high
# ---------------------------------------------------------------------------


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    """Product of coefficient lists; integer inputs give an integer list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _poly_trim(out)


def poly_mul_power(a, s, k):
    """a * s^k for coefficient lists a, s and k >= 0: a shift for s = t,
    else one product with s^k."""
    if not k or not a:
        return a
    if tuple(s) == (0, 1):
        return [0] * k + list(a)
    power = s
    for _ in range(k - 1):
        power = poly_mul(power, s)
    return poly_mul(a, power)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [_fr(x) for x in a]
    b = [_fr(x) for x in b]
    _poly_trim(a)
    _poly_trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while r and len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i in range(len(b)):
            r[k + i] -= c * b[i]
        _poly_trim(r)
    return _poly_trim(q), r


# No caller in the package: the benchmark's tracer (bench/tracer.py) looks
# this name up.
def poly_gcd(a, b):
    a = _poly_trim([_fr(x) for x in a])
    b = _poly_trim([_fr(x) for x in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = [x / a[-1] for x in a]
    return a


def poly_eval(a, t):
    r = Fraction(0)
    for c in reversed(a):
        r = r * _fr(t) + c
    return r


def cyclotomic_polynomial(n):
    """Coefficients (low -> high) of the n-th cyclotomic polynomial.

    Standard divisor recursion: x^n - 1 = prod_{d | n} Phi_d(x).
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic_polynomial(d))
    q, r = poly_divmod(num, den)
    assert not r
    return q


# ---------------------------------------------------------------------------
# integer numerators over one shared denominator
#
# QuotElt and RationalFunction store a numerator as ints / den: a tuple
# of ints (low -> high, no trailing zeros) and one int den > 0 sharing no
# factor with their content.  Every modulus and inverted polynomial is
# monic over Z, so by Gauss's lemma reduction and trial division by it
# never leave Z, and products and sums need one gcd each.
# ---------------------------------------------------------------------------


def _monic_ints(coeffs, what):
    """coeffs divided by their leading coefficient, as a tuple of ints;
    ValueError unless that has degree >= 1 and integer coefficients."""
    m = _poly_trim([_fr(c) for c in coeffs])
    if len(m) < 2:
        raise ValueError(f"{what} must have degree >= 1")
    m = [c / m[-1] for c in m]
    if any(c.denominator != 1 for c in m):
        raise ValueError(f"{what} must be monic over Z up to a unit")
    return tuple(c.numerator for c in m)


def _ints_over_den(coeffs):
    """Rationals -> (list of ints, common denominator)."""
    fs = [_fr(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs], den


def _normal(ints, den):
    """ints / den in normal form: trailing zeros trimmed (ints is a list
    and is trimmed in place), den > 0 and gcd(den, content) = 1."""
    _poly_trim(ints)
    if not ints:
        return (), 1
    if den == 1:
        return tuple(ints), 1
    g = gcd(den, *ints)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(ints), den
    return tuple(c // g for c in ints), den // g


def _sum(a, da, b, db):
    """a/da + b/db over their least common denominator, not normalised."""
    if da != db:
        g = gcd(da, db)
        a = [c * (db // g) for c in a]
        b = [c * (da // g) for c in b]
        da = da // g * db
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out, da


def _mac(acc, d, a, da, b, db):
    """acc/d + (a/da)(b/db) over the least common denominator, not
    normalised: returns the new (acc, d), acc changed in place unless
    the denominator grows."""
    pd = da * db
    f = 1
    if pd != d:
        g = gcd(d, pd)
        if g != pd:
            m = pd // g
            acc = [c * m for c in acc]
            d *= m
        f = d // pd
    short = len(a) + len(b) - 1 - len(acc)
    if short > 0:
        acc += [0] * short
    for i, x in enumerate(a):
        if x:
            x *= f
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return acc, d


def _divmod_monic(a, m):
    """Quotient and remainder of the ints a by the monic ints m, by
    synthetic division."""
    k = len(m) - 1
    r = list(a)
    q = [0] * max(0, len(r) - k)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            q[i - k] = c
            for j in range(k):
                r[i - k + j] -= c * m[j]
    del r[k:]
    return q, _poly_trim(r)


def _divide_out(a, s):
    """a / s for nonzero trimmed ints a and monic ints s, or None if s
    does not divide a."""
    if len(s) == 2 and s[0] in (0, 1, -1):
        # s = t - r with r in {0, 1, -1} divides a exactly when a(r) = 0
        r = -s[0]
        if r == 0:
            return a[1:] if a[0] == 0 else None
        if sum(a[::2]) + r * sum(a[1::2]):
            return None
    q, rem = _divmod_monic(a, s)
    return None if rem else q


def _combine(a, x, b, y, k):
    """a*x - b*t^k*y for int lists x, y and ints a, b, trimmed."""
    out = [a * c for c in x]
    out += [0] * (len(y) + k - len(out))
    for i, c in enumerate(y, k):
        out[i] -= b * c
    return _poly_trim(out)


class _DenseElement:
    """Arithmetic shared by the dense one-variable ring elements QuotElt
    and RationalFunction.  Each stores its numerator as ints / den in the
    normal form above, has a ring with from_fraction and one, defines +,
    * and inverse, and rebuilds itself around a new numerator by _with."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return None

    def _fractions(self):
        return tuple(Fraction(c, self.den) for c in self.ints)

    def _scale(self, c):
        """self times a rational c."""
        c = _fr(c)
        return self._with(*_normal([a * c.numerator for a in self.ints],
                                   self.den * c.denominator))

    def is_zero(self):
        return not self.ints

    def __neg__(self):
        return self._with(tuple(-a for a in self.ints), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out


# ---------------------------------------------------------------------------
# univariate quotient ring Q[y]/(m(y))
# ---------------------------------------------------------------------------


class QuotientRing:
    """Q[y]/(m(y)), m of degree >= 1 and monic over Z up to a unit.

    The modulus is stored monic, as a tuple of ints; a polynomial that is
    not integral once divided by its leading coefficient raises
    ValueError.  An element is stored as ints / den of degree below m.
    """

    def __init__(self, modulus, varname="y"):
        self.modulus = _monic_ints(modulus, "modulus")
        self.degree = len(self.modulus) - 1
        self.varname = varname
        self.zero = QuotElt(self, (), 1)
        self.one = QuotElt(self, (1,), 1)

    def from_fraction(self, fr):
        fr = _fr(fr)
        return QuotElt(self, (fr.numerator,) if fr else (), fr.denominator)

    def gen(self):
        if self.degree == 1:
            # y is congruent to a rational
            return self.from_fraction(-self.modulus[0])
        return QuotElt(self, (0, 1), 1)

    def element(self, coeffs):
        return self._reduce(*_ints_over_den(coeffs))

    def dot(self, pairs):
        """Sum of the products, accumulated in Z[y] over one denominator
        and reduced modulo m once."""
        acc, d = [], 1
        for x, y in pairs:
            a, da = self._parts(x)
            b, db = self._parts(y)
            if a and b:
                acc, d = _mac(acc, d, a, da, b, db)
        return self._reduce(acc, d)

    def _parts(self, x):
        # (ints, den) of an element or a rational
        if isinstance(x, QuotElt):
            if x.ring is not self and x.ring != self:
                raise ValueError("mixed rings")
            return x.ints, x.den
        x = _fr(x)
        return (x.numerator,) if x else (), x.denominator

    def _reduce(self, ints, den):
        # ints / den modulo m, in normal form
        return QuotElt(self, *_normal(_divmod_monic(ints, self.modulus)[1],
                                      den))

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"Q[{self.varname}]/(m), m degree {self.degree}"


class QuotElt(_DenseElement):
    """Element ints / den of a QuotientRing; coeffs gives its Fraction
    coefficients, low -> high, padded to the degree of the modulus."""

    __slots__ = ("ring", "ints", "den")

    def __init__(self, ring, ints, den):
        self.ring = ring
        self.ints = ints
        self.den = den

    @property
    def coeffs(self):
        c = self._fractions()
        return c + (Fraction(0),) * (self.ring.degree - len(c))

    def _with(self, ints, den):
        return QuotElt(self.ring, ints, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuotElt(self.ring,
                       *_normal(*_sum(self.ints, self.den, o.ints, o.den)))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring._reduce(poly_mul(self.ints, o.ints),
                                 self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ints == o.ints and self.den == o.den

    def __hash__(self):
        return hash((self.ring, self.ints, self.den))

    def inverse(self):
        """Inverse by the extended Euclidean algorithm in Z[y].

        Each pair (r, s) of integer lists keeps r = s * self (mod m);
        reducing one pair by the other scales it by a leading
        coefficient instead of dividing, and each pair is divided by its
        content.  A nonzero constant r ends it: the inverse is s / r.
        """
        if not self.ints:
            raise NonUnitLeadingCoefficient("zero is not invertible")
        r0, s0 = list(self.ring.modulus), []
        r1, s1 = list(self.ints), [self.den]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                k, a, b = len(r0) - len(r1), r1[-1], r0[-1]
                r0 = _combine(a, r0, b, r1, k)
                s0 = _combine(a, s0, b, s1, k)
                g = gcd(*r0, *s0)
                if g > 1:
                    r0 = [c // g for c in r0]
                    s0 = [c // g for c in s0]
            r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise NonUnitLeadingCoefficient("element is a zero divisor")
        return self.ring._reduce(s1, r1[0])

    def __str__(self):
        y = self.ring.varname
        parts = []
        for e, c in enumerate(self._fractions()):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*{y}" if c != 1 else y)
            else:
                parts.append(f"{c}*{y}^{e}" if c != 1 else f"{y}^{e}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Q[t] localised at a finite set of irreducible polynomials
# ---------------------------------------------------------------------------


class Localization:
    """Q[t] with a fixed finite set S of polynomials made invertible.

    The members of S (coefficient lists, low -> high) must be irreducible,
    pairwise coprime and monic over Z up to a unit; they are stored monic,
    as tuples of ints, and any other raises ValueError.  Then every
    element is uniquely num(t) * prod_s s(t)^(-e_s) with integer
    exponents and num divisible by no s, and the ring operations keep
    this form by exact trial division in Z[t] alone, never a polynomial
    gcd.  The units are the elements whose num is a constant.
    """

    def __init__(self, inverted, varname="t"):
        self.inverted = tuple(_monic_ints(s, "inverted polynomials")
                              for s in inverted)
        self.varname = varname
        self.zero = RationalFunction(self, (), 1, (0,) * len(self.inverted))
        self.one = self.from_fraction(1)

    def from_fraction(self, fr):
        fr = _fr(fr)
        return RationalFunction(self, (fr.numerator,) if fr else (),
                                fr.denominator, self.zero.exps)

    def gen(self):
        return self.element([0, 1])

    def element(self, num, exps=None):
        """num(t) * prod_s s(t)^(-e_s) in normal form."""
        return self._strip(*_ints_over_den(num), list(exps or self.zero.exps),
                           range(len(self.inverted)))

    def dot(self, pairs):
        """Sum of the products.  The numerators are accumulated over one
        denominator per exponent tuple; the sums are lifted to the largest
        exponents, added, and normalised by one _strip."""
        buckets = {}
        for x, y in pairs:
            a, da, ea = self._parts(x)
            b, db, eb = self._parts(y)
            if a and b:
                e = tuple(map(add, ea, eb))
                acc, d = buckets.get(e, ([], 1))
                buckets[e] = _mac(acc, d, a, da, b, db)
        # a bucket that cancelled to zero would raise the exponents only
        # for _strip to lower them again
        buckets = {e: v for e, v in buckets.items() if any(v[0])}
        if not buckets:
            return self.zero
        top = [max(col) for col in zip(*buckets)]
        total, den = [], 1
        for exps, (acc, d) in buckets.items():
            for s, k, t in zip(self.inverted, exps, top):
                acc = poly_mul_power(acc, s, t - k)
            total, den = _sum(total, den, acc, d)
        return self._strip(total, den, top, range(len(self.inverted)))

    def _parts(self, x):
        # (ints, den, exps) of an element or a rational
        if isinstance(x, RationalFunction):
            if x.ring is not self and x.ring != self:
                raise ValueError("mixed rings")
            return x.ints, x.den, x.exps
        x = _fr(x)
        return (x.numerator,) if x else (), x.denominator, self.zero.exps

    def _strip(self, ints, den, exps, which):
        # normalise ints / den, then move every factor s of it, for the s
        # in which, into exps
        ints, den = _normal(ints, den)
        if not ints:
            return self.zero
        for i in which:
            while True:
                q = _divide_out(ints, self.inverted[i])
                if q is None:
                    break
                ints, exps[i] = q, exps[i] - 1
        return RationalFunction(self, tuple(ints), den, tuple(exps))

    def __eq__(self, other):
        return (isinstance(other, Localization)
                and self.inverted == other.inverted)

    def __hash__(self):
        return hash(self.inverted)

    def __repr__(self):
        return f"Q[{self.varname}] localised at {len(self.inverted)} primes"


class RationalFunction(_DenseElement):
    """num(t) * prod_s s(t)^(-e_s), an element of a Localization.

    num is stored as ints / den and is divisible by no s; exps is the
    tuple of the e_s, and zero has ints () and every exponent 0.  num
    gives the coefficients of num as Fractions, low -> high.
    """

    __slots__ = ("ring", "ints", "den", "exps")

    def __init__(self, ring, ints, den, exps):
        self.ring = ring
        self.ints = ints
        self.den = den
        self.exps = exps

    @property
    def num(self):
        return self._fractions()

    def _with(self, ints, den):
        if not ints:
            return self.ring.zero
        return RationalFunction(self.ring, ints, den, self.exps)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.ints or not o.ints:
            return self.ring.zero
        # numerators prime to every s have a product prime to every s
        return RationalFunction(
            self.ring,
            *_normal(poly_mul(self.ints, o.ints), self.den * o.den),
            tuple(map(add, self.exps, o.exps)))

    __rmul__ = __mul__

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.ints:
            return self
        if not self.ints:
            return o
        # lift both numerators to the larger exponents; where these differ
        # just one lifted numerator is divisible by s, so the sum is not
        a, b, tied = self.ints, o.ints, []
        for i, (s, ea, eb) in enumerate(
                zip(self.ring.inverted, self.exps, o.exps)):
            if ea < eb:
                a = poly_mul_power(a, s, eb - ea)
            elif eb < ea:
                b = poly_mul_power(b, s, ea - eb)
            else:
                tied.append(i)
        return self.ring._strip(*_sum(a, self.den, b, o.den),
                                list(map(max, self.exps, o.exps)), tied)

    __radd__ = __add__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self):
        """Inverse of a unit c * prod_s s^(-e_s); anything else raises."""
        if len(self.ints) != 1:
            raise NonUnitLeadingCoefficient(f"not a unit: {self}")
        c = self.ints[0]
        sign = 1 if c > 0 else -1
        return RationalFunction(self.ring, (sign * self.den,), sign * c,
                                tuple(-e for e in self.exps))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.ints == o.ints and self.den == o.den
                and self.exps == o.exps)

    def __hash__(self):
        return hash((self.ints, self.den, self.exps))

    def evaluate(self, t):
        out = poly_eval(self.ints, t) / self.den
        for s, e in zip(self.ring.inverted, self.exps):
            v = poly_eval(s, t)
            if v == 0 and e > 0:
                raise ZeroDivisionError("pole of rational function")
            out *= v ** -e
        return out

    def __repr__(self):
        num = ", ".join(map(str, self.num))
        return f"RationalFunction([{num}], exps={self.exps})"
