"""Sparse multivariate polynomials: weighted variables, generic
coefficients, optional weighted-degree cap.

One type, WeightedPoly, in a PolyRing over any ring context (see
algebra_kernel); horner evaluation; the fraction-free determinant and
the Sylvester resultant.  Over QQ the coefficients are int numerators
over one denominator, so arithmetic runs on ints with one gcd per result;
the rationals that terms, coeff and printing show are built on read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, mul

from .algebra_kernel import (QQ, ExactDivisionError, NonUnitLeadingCoefficient,
                             VariableNotPresent, _fr, coeff_is_zero,
                             ring_invert)


def _mincap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _normal(ring, num, den, cap):
    """The element num / den of a ring over QQ, num a dict exps -> int,
    in normal form: zero terms and terms above cap dropped, den > 0 and
    gcd(den, content) = 1."""
    weights = ring.weights
    num = {e: c for e, c in num.items() if c and (
        cap is None or sum(map(mul, e, weights)) <= cap)}
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    p = WeightedPoly.__new__(WeightedPoly)
    p.ring, p.num, p.den, p.cap, p._terms = ring, num, den, cap, None
    return p


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
        """Sum of the products.  Over QQ the numerators are convolved
        over the least common denominator so far and normalised once;
        over another base the coefficient pairs of every product monomial
        are collected first, then summed by one base dot each.  A pair
        multiplies to the smaller cap of its factors and the sum keeps
        the smallest cap of all."""
        weights = self.weights
        ints = self.base is QQ
        acc, d, cap = {}, 1, None
        for a, b in pairs:
            a, b = self._element(a), self._element(b)
            pair_cap = _mincap(a.cap, b.cap)
            cap = _mincap(cap, pair_cap)
            if not (a.num and b.num):
                continue
            right = [(0 if pair_cap is None else sum(map(mul, e2, weights)),
                      e2, c2) for e2, c2 in b.num.items()]
            if ints:
                # acc / d and the pair over their least common denominator
                pd = a.den * b.den
                m = pd // gcd(d, pd)
                if m != 1:
                    acc = {e: c * m for e, c in acc.items()}
                    d *= m
                f = d // pd
            for e1, c1 in a.num.items():
                room = 0 if pair_cap is None else (
                    pair_cap - sum(map(mul, e1, weights)))
                if not ints:
                    for w2, e2, c2 in right:
                        if w2 <= room:
                            e = tuple(map(add, e1, e2))
                            bucket = acc.get(e)
                            if bucket is None:
                                acc[e] = [c1, c2]
                            else:
                                bucket += c1, c2
                    continue
                c1 *= f
                for w2, e2, c2 in right:
                    if w2 <= room:
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        if ints:
            # a pair of a larger cap may have left terms above the sum's
            return _normal(self, acc, d, cap)
        # a bucket holds its pairs flat: c1, c2, c1', c2', ...
        base_dot = self.base.dot
        return WeightedPoly(self, {e: base_dot(zip(cs[::2], cs[1::2]))
                                   for e, cs in acc.items()}, cap)

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

    Over QQ it is num / den, num mapping the same exponents to ints, in
    normal form: den > 0 and gcd(den, content) = 1.  Over another base
    den is None and num is terms.

    cap, if not None, bounds the weighted degree (term_weight, the sum of
    the exponents times the variable weights): terms above it are
    dropped, which makes the element a truncated multivariate series, and
    binary operations keep the smaller cap of their operands.
    """

    __slots__ = ("ring", "num", "den", "cap", "_terms")

    def __init__(self, ring, terms, cap=None):
        self.ring = ring
        self.cap = cap
        # coeff_is_zero builds nothing, where c != 0 on a ring element
        # would coerce 0 into the base
        terms = {e: c for e, c in terms.items()
                 if not coeff_is_zero(c)
                 and (cap is None or self.term_weight(e) <= cap)}
        self.num, self.den, self._terms = terms, None, terms
        if ring.base is QQ:
            # over the least common denominator the content is prime to it
            self.den = lcm(*(c.denominator for c in terms.values()))
            self.num = {e: c.numerator * (self.den // c.denominator)
                        for e, c in terms.items()}
            self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            self._terms = {e: Fraction(c, self.den)
                           for e, c in self.num.items()}
        return self._terms

    def truncate(self, cap):
        """Drop the terms of weight above cap, which becomes the cap."""
        cap = _mincap(self.cap, cap)
        if self.den is None:
            return WeightedPoly(self.ring, self.num, cap)
        return _normal(self.ring, self.num, self.den, cap)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def term_weight(self, exps):
        return sum(map(mul, exps, self.ring.weights))

    def weight(self):
        """Weight if homogeneous, else None.  Zero returns None as well
        (it is homogeneous of every weight)."""
        ws = {self.term_weight(e) for e in self.num}
        if len(ws) == 1:
            return ws.pop()
        return None

    def is_homogeneous(self, w=None):
        ws = {self.term_weight(e) for e in self.num}
        if not ws:
            return True
        if w is None:
            return len(ws) == 1
        return ws == {w}

    def coeff(self, exps):
        c = self.num.get(tuple(exps))
        if c is None:
            return self.ring.base.zero
        return c if self.den is None else Fraction(c, self.den)

    def constant_term(self):
        return self.coeff((0,) * self.ring.nvars)

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
        cap = _mincap(self.cap, o.cap)
        a, b, d = self.num, o.num, self.den
        if d is not None and d != o.den:
            d = lcm(d, o.den)
            a = {e: c * (d // self.den) for e, c in a.items()}
            b = {e: c * (d // o.den) for e, c in b.items()}
        terms = dict(a)
        for e, c in b.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        if d is None:
            return WeightedPoly(self.ring, terms, cap)
        return _normal(self.ring, terms, d, cap)

    __radd__ = __add__

    def __neg__(self):
        num = {e: -c for e, c in self.num.items()}
        if self.den is None:
            return WeightedPoly(self.ring, num, self.cap)
        return _normal(self.ring, num, self.den, self.cap)

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
            if self.den is None:
                return WeightedPoly(
                    self.ring, {e: a * c for e, a in self.num.items()},
                    self.cap)
            return _normal(self.ring,
                           {e: a * c.numerator for e, a in self.num.items()},
                           self.den * c.denominator, self.cap)
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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.num.items())))

    def inverse(self):
        """Inverse of a unit (a constant that is a unit of the base)."""
        if len(self.num) == 1:
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
        if not self.num:
            return None
        e = max(self.num, key=self._grlex_key)
        return e, self.coeff(e)

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1 (over QQ)."""
        lt = self.leading()
        if lt is None:
            return self
        return _normal(self.ring, self.num, self.num[lt[0]], self.cap)

    def __str__(self):
        # over QQ each coefficient is num[e] / den, reduced here by one gcd
        num, den, names = self.num, self.den, self.ring.names
        out = []
        for e in sorted(num, key=self._grlex_key, reverse=True):
            c = num[e]
            mon = "*".join(n if k == 1 else f"{n}^{k}"
                           for n, k in zip(names, e) if k)
            if den is not None:
                g = gcd(c, den)
                p, q = c // g, den // g
            elif isinstance(c, (int, Fraction)):
                p, q = c.numerator, c.denominator
            else:
                out.append((False, f"({c})*{mon}" if mon else f"({c})"))
                continue
            mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            if mon:
                mag = mon if mag == "1" else f"{mag}*{mon}"
            out.append((p < 0, mag))
        if not out:
            return "0"
        text = "-" if out[0][0] else ""
        return text + out[0][1] + "".join(
            (" - " if neg else " + ") + part for neg, part in out[1:])

    __repr__ = __str__

    # -- substitution and variable operations -------------------------------

    def substitute(self, mapping, ring=QQ):
        """Evaluate with variables replaced by elements of a target ring.

        mapping: dict name -> target-ring element (or Fraction/int).
        Every variable that actually appears must be mapped.  The
        coefficients multiply the target elements as scalars.  Each power
        of an image is formed once; the terms are grouped by the power of
        one variable after another, each group summed by one ring.dot.
        """
        levels = []  # (variable index, [1, image, image^2, ...])
        for i, name in enumerate(self.ring.names):
            top = max((e[i] for e in self.num), default=0)
            if not top:
                continue
            if name not in mapping:
                raise VariableNotPresent(f"no image for variable {name}")
            v = mapping[name]
            if isinstance(v, (int, Fraction)):
                v = ring.from_fraction(v)
            pw = [ring.one, v]
            while len(pw) <= top:
                pw.append(pw[-1] * v)
            levels.append((i, pw))

        def fold(terms, level):
            # the sum of the terms, which agree in the variables before
            # levels[level], with those variables left out
            if level == len(levels):
                return terms[0][1]
            i, pw = levels[level]
            groups = {}
            for t in terms:
                groups.setdefault(t[0][i], []).append(t)
            return ring.dot((pw[k], fold(g, level + 1))
                            for k, g in groups.items())

        if not levels:
            return ring.dot((ring.one, c) for c in self.terms.values())
        return fold(list(self.terms.items()), 0)

    # -- univariate views ---------------------------------------------------

    def degree_in(self, name):
        i = self.ring.names.index(name)
        return max((e[i] for e in self.num), default=-1)

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
