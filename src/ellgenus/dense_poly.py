"""Dense polynomials in one variable: coefficient lists, low -> high,
and the rings built on them.

Cyclotomic polynomials; quotient rings Q[y]/(m) (QuotientRing, QuotElt);
and Q[t] localised at finitely many irreducibles (Localization,
RationalFunction), in a normal form that needs no polynomial gcd.  Both
rings are ring contexts (see algebra_kernel) and store a numerator as a
tuple of ints over one positive int denominator.  Their moduli and
inverted polynomials are monic over Z, so reduction and trial division
stay in the integers; Fractions appear only where a coefficient is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .algebra_kernel import NonUnitLeadingCoefficient, _fr


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
