"""Sparse multivariate polynomials: weighted variables, generic
coefficients, optional weighted-degree cap.

One type, WeightedPoly, in a PolyRing over any ring context (see
algebra_kernel); horner evaluation; the fraction-free determinant and
the Sylvester resultant.
"""

from __future__ import annotations

from fractions import Fraction
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
