"""Sparse multivariate polynomials: weighted variables, generic
coefficients, optional weighted-degree cap.

One type, WeightedPoly, in a PolyRing over any ring context (see
algebra_kernel), and horner evaluation.

A monomial is stored as one int, its key (packed exponent vectors:
Monagan and Pearce, CASC 2007).  Each exponent has a 16-bit field whose
top bit is a guard, the first variable in the highest field, and the
weighted degree lies above all of them.  So a monomial product is one
int addition, the cap test is one comparison, and the graded
lexicographic order is the order of the keys.  An exponent stays below
EXPONENT_BOUND = 2^15: a product that reaches it sets a guard bit and
raises ExponentOverflow, and never wraps.  terms, coeff, leading and
substitute show exponent tuples.

Over QQ the coefficients are int numerators over one denominator, so
arithmetic runs on ints with one gcd per result; the rationals that
terms, coeff and printing show are built on read.  A ring whose base is
a PolyRing over QQ stores its elements flat, in the same form: a key is
the weight and exponents of the ring's own variables above the
coefficient monomial's weight and key, and the cap counts the ring's own
weight only.  So its products run the same integer convolution, and
terms and coeff rebuild the coefficients in the base.  Over any other
base a coefficient is a base element, and a product collects the
coefficient pairs of every monomial for one base dot each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_

from .algebra_kernel import (QQ, NonUnitLeadingCoefficient,
                             VariableNotPresent, _fr, coeff_is_zero,
                             ring_invert)

# The width of an exponent field; its top bit is the guard, so an
# exponent is at most 2^(_BITS - 1) - 1.
_BITS = 16
_FIELD = (1 << _BITS) - 1
EXPONENT_BOUND = 1 << (_BITS - 1)


class ExponentOverflow(ValueError):
    """An exponent reached EXPONENT_BOUND, the width of its key field."""


def _mincap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _make(ring, num, den, cap):
    p = WeightedPoly.__new__(WeightedPoly)
    p.ring, p.num, p.den, p.cap, p._terms = ring, num, den, cap, None
    return p


def _normal(ring, num, den, cap):
    """The element num / den of a ring over QQ or of a flat ring, num a
    dict key -> int, in normal form: zero terms and terms above cap
    dropped, den > 0 and gcd(den, content) = 1."""
    if cap is None:
        num = {k: c for k, c in num.items() if c}
    else:
        top = (cap + 1) << ring._shift
        num = {k: c for k, c in num.items() if c and k < top}
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    return _make(ring, num, den, cap)


def _nonzero(ring, num, cap):
    """The element with base coefficients num (a dict key -> base
    element) of a ring over another base, zero terms and terms above cap
    dropped."""
    # coeff_is_zero builds nothing, where c != 0 on a ring element would
    # coerce 0 into the base
    top = None if cap is None else (cap + 1) << ring._shift
    return _make(ring, {k: c for k, c in num.items()
                        if not coeff_is_zero(c) and (top is None or k < top)},
                 None, cap)


def _check_guards(ring, keys):
    if reduce(or_, keys, 0) & ring._guard:
        raise ExponentOverflow(
            f"an exponent in {ring!r} reached {EXPONENT_BOUND}")


class PolyRing:
    """base[x_1, ..., x_k] with a positive integer weight per variable.

    base is a ring context (QQ by default, or e.g. Q(zeta_N), a ring of
    q-series or another PolyRing).  Variables are ordered; the first
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
        # coefficients are ints over one denominator over QQ and in the
        # flat form, over a polynomial ring over QQ
        self._flat = isinstance(base, PolyRing) and base.base is QQ
        self._ints = base is QQ or self._flat
        # the key's fields from the top: the weight, the exponents, and
        # in the flat form the base weight's field and the base key below
        # bit _low
        low = self._low = base._shift + _BITS if self._flat else 0
        self._shift = low + self.nvars * _BITS
        self._pos = tuple(range(self._shift - _BITS, low - 1, -_BITS))
        self._units = tuple((w << self._shift) + (1 << p)
                            for w, p in zip(self.weights, self._pos))
        self._guard = sum(1 << (p + _BITS - 1) for p in self._pos) | (
            base._guard | 1 << (low - 1) if self._flat else 0)
        self.zero = WeightedPoly(self, {})
        self.one = self.constant(base.one)

    def key(self, exps):
        """The key of an exponent tuple, which has one entry per
        variable, each at least 0 and below EXPONENT_BOUND."""
        exps = tuple(exps)
        if len(exps) != self.nvars or (exps and min(exps) < 0):
            raise ValueError(f"{exps!r} is not an exponent tuple of {self!r}")
        if exps and max(exps) >= EXPONENT_BOUND:
            raise ExponentOverflow(
                f"an exponent in {self!r} reached {EXPONENT_BOUND}")
        return sum(map(mul, exps, self._units))

    def exponents(self, key):
        """The exponent tuple of a key."""
        return tuple((key >> p) & _FIELD for p in self._pos)

    def _coefficient(self, c):
        """(num, den) of a coefficient c, rational or, in the flat form,
        an uncapped element of the base, num keyed below bit _low."""
        if isinstance(c, (int, Fraction)):
            return ({0: c.numerator} if c else {}), c.denominator
        if not (self._flat and isinstance(c, WeightedPoly)
                and c.ring == self.base):
            raise TypeError(f"{c!r} is not a coefficient of {self!r}")
        if c.cap is not None:
            raise ValueError(f"a coefficient of {self!r} carries no cap")
        if c.num and max(c.num) >> (self._low - 1):
            raise ExponentOverflow(
                f"the weight of a coefficient of {self!r} reached "
                f"{EXPONENT_BOUND}")
        return c.num, c.den

    def gen(self, name):
        unit = self._units[self.names.index(name)]
        if self._ints:
            return _make(self, {unit: 1}, 1, None)
        return _make(self, {unit: self.base.one}, None, None)

    def gens(self):
        return tuple(self.gen(n) for n in self.names)

    def constant(self, c):
        """The constant polynomial with value c, an element of base."""
        if self._ints:
            # a constant's keys are those of its coefficient
            return _make(self, *self._coefficient(c), None)
        return _nonzero(self, {0: c}, None)

    def from_fraction(self, fr):
        if self._ints:
            return self.constant(_fr(fr))
        return self.constant(self.base.from_fraction(fr))

    def monomial(self, exps, coeff=1):
        coeff = self.base.from_fraction(coeff)
        return WeightedPoly(self, {tuple(exps): coeff})

    def dot(self, pairs):
        """Sum of the products.  Over QQ and in the flat form the
        numerators are convolved over the least common denominator so
        far and normalised once; over another base the coefficient pairs
        of every product monomial are collected first, then summed by one
        base dot each.  A pair multiplies to the smaller cap of its
        factors and the sum keeps the smallest cap of all."""
        if not self._ints:
            return self._bucket_dot(pairs)
        acc, d, cap = {}, 1, None
        for a, b in pairs:
            a, b = self._element(a), self._element(b)
            pair_cap = _mincap(a.cap, b.cap)
            cap = _mincap(cap, pair_cap)
            if not (a.num and b.num):
                continue
            # acc / d and the pair over their least common denominator
            pd = a.den * b.den
            m = pd // gcd(d, pd)
            if m != 1:
                acc = {k: c * m for k, c in acc.items()}
                d *= m
            f = d // pd
            get = acc.get
            if pair_cap is None:
                right = list(b.num.items())
                for k1, c1 in a.num.items():
                    c1 *= f
                    for k2, c2 in right:
                        k = k1 + k2
                        acc[k] = get(k, 0) + c1 * c2
                continue
            # the keys of b in increasing weight: a product is under the
            # cap while k1 + k2 < top
            top = (pair_cap + 1) << self._shift
            right = sorted(b.num.items())
            for k1, c1 in a.num.items():
                room = top - k1
                c1 *= f
                for k2, c2 in right:
                    if k2 >= room:
                        break
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        _check_guards(self, acc)
        # a pair of a larger cap may have left terms above the sum's
        return _normal(self, acc, d, cap)

    def _bucket_dot(self, pairs):
        acc, cap = {}, None
        for a, b in pairs:
            a, b = self._element(a), self._element(b)
            pair_cap = _mincap(a.cap, b.cap)
            cap = _mincap(cap, pair_cap)
            top = None if pair_cap is None else (pair_cap + 1) << self._shift
            right = sorted(b.num.items())
            for k1, c1 in a.num.items():
                for k2, c2 in right:
                    k = k1 + k2
                    if top is not None and k >= top:
                        break
                    bucket = acc.get(k)
                    if bucket is None:
                        acc[k] = [c1, c2]
                    else:
                        bucket += c1, c2
        _check_guards(self, acc)
        # a bucket holds its pairs flat: c1, c2, c1', c2', ...
        base_dot = self.base.dot
        return _nonzero(self, {k: base_dot(zip(cs[::2], cs[1::2]))
                               for k, cs in acc.items()}, cap)

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

    num maps the keys of the terms (see the module docstring) to their
    coefficients.  Over QQ and in the flat form it is num / den, the
    coefficients ints, in normal form: den > 0 and gcd(den, content) = 1.
    Over another base den is None and num holds the base elements.

    cap, if not None, bounds the weighted degree (term_weight, the sum of
    the exponents times the variable weights): terms above it are
    dropped, which makes the element a truncated multivariate series, and
    binary operations keep the smaller cap of their operands.

    The constructor takes terms keyed by exponent tuples, each with one
    entry per variable, each at least 0 and below EXPONENT_BOUND.
    """

    __slots__ = ("ring", "num", "den", "cap", "_terms")

    def __init__(self, ring, terms, cap=None):
        num = {ring.key(e): c for e, c in terms.items()}
        if ring._ints:
            # each coefficient as ints over the least common denominator
            parts = [(k, *ring._coefficient(c)) for k, c in num.items()]
            den = lcm(*(d for _, _, d in parts))
            p = _normal(ring, {k + inner: c * (den // d) for k, n, d in parts
                               for inner, c in n.items()}, den, cap)
        else:
            p = _nonzero(ring, num, cap)
        self.ring, self.num, self.den, self.cap = ring, p.num, p.den, cap
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            ring, num, den = self.ring, self.num, self.den
            exponents = ring.exponents
            if ring._flat:
                groups, low = {}, ring._low
                mask = (1 << low) - 1
                for k, c in num.items():
                    groups.setdefault(k >> low, {})[k & mask] = c
                self._terms = {
                    exponents(o << low): _normal(ring.base, g, den, None)
                    for o, g in groups.items()}
            elif den is None:
                self._terms = {exponents(k): c for k, c in num.items()}
            else:
                self._terms = {exponents(k): Fraction(c, den)
                               for k, c in num.items()}
        return self._terms

    def truncate(self, cap):
        """Drop the terms of weight above cap, which becomes the cap."""
        cap = _mincap(self.cap, cap)
        if self.den is None:
            return _nonzero(self.ring, self.num, cap)
        return _normal(self.ring, self.num, self.den, cap)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def term_weight(self, exps):
        return sum(map(mul, exps, self.ring.weights))

    def weight(self):
        """Weight if homogeneous, else None.  Zero returns None as well
        (it is homogeneous of every weight)."""
        shift = self.ring._shift
        ws = {k >> shift for k in self.num}
        if len(ws) == 1:
            return ws.pop()
        return None

    def is_homogeneous(self, w=None):
        shift = self.ring._shift
        ws = {k >> shift for k in self.num}
        if not ws:
            return True
        if w is None:
            return len(ws) == 1
        return ws == {w}

    def coeff(self, exps):
        exps = tuple(exps)
        ring = self.ring
        if ring._flat:
            return self.terms.get(exps, ring.base.zero)
        try:
            c = self.num.get(ring.key(exps))
        except ValueError:  # no term has these exponents
            c = None
        if c is None:
            return ring.base.zero
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
        of the base ring.  Over a base other than QQ or a polynomial ring
        over QQ any value that is not a WeightedPoly is taken to be a
        base element.  None means other belongs to a ring over this one,
        whose reflected operation Python tries next.
        """
        if isinstance(other, (int, Fraction)):
            return other
        if isinstance(other, WeightedPoly):
            if other.ring == self.ring.base:
                return other
            if other.ring.base != self.ring:
                raise ValueError("mixed polynomial rings")
            return None
        return None if self.ring._ints else other

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
            a = {k: c * (d // self.den) for k, c in a.items()}
            b = {k: c * (d // o.den) for k, c in b.items()}
        terms = dict(a)
        for k, c in b.items():
            prev = terms.get(k)
            terms[k] = c if prev is None else prev + c
        if d is None:
            return _nonzero(self.ring, terms, cap)
        return _normal(self.ring, terms, d, cap)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {k: -c for k, c in self.num.items()},
                     self.den, self.cap)

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
                return _nonzero(self.ring,
                                {k: a * c for k, a in self.num.items()},
                                self.cap)
            if isinstance(c, (int, Fraction)):
                return _normal(self.ring,
                               {k: a * c.numerator
                                for k, a in self.num.items()},
                               self.den * c.denominator, self.cap)
            # in the flat form a base element is a constant of the ring
            other = self.ring.constant(c)
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
        """(exps, coeff) of the graded-lex leading term, the largest key;
        None for zero."""
        if not self.num:
            return None
        e = self.ring.exponents(max(self.num))
        return e, self.coeff(e)

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1 (over QQ)."""
        if not self.num:
            return self
        return _normal(self.ring, self.num, self.num[max(self.num)],
                       self.cap)

    def __str__(self):
        ring, den = self.ring, self.den
        if den is not None and not ring._flat:
            # the terms by falling keys; each coefficient is num[k] / den,
            # reduced here by one gcd
            items = [(ring.exponents(k), self.num[k])
                     for k in sorted(self.num, reverse=True)]
        else:
            den = None
            items = [(e, self.terms[e]) for e in sorted(
                self.terms, key=self._grlex_key, reverse=True)]
        out = []
        for e, c in items:
            mon = "*".join(n if k == 1 else f"{n}^{k}"
                           for n, k in zip(ring.names, e) if k)
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
        terms = self.terms
        levels = []  # (variable index, [1, image, image^2, ...])
        for i, name in enumerate(self.ring.names):
            top = self.degree_in(name)
            if top <= 0:
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
            return ring.dot((ring.one, c) for c in terms.values())
        return fold(list(terms.items()), 0)

    # -- degree in one variable ---------------------------------------------

    def degree_in(self, name):
        pos = self.ring._pos[self.ring.names.index(name)]
        return max(((k >> pos) & _FIELD for k in self.num), default=-1)


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
