"""q-expansion side of the elliptic genus: Jacobi-form products in closed form.

The building block is the entire function
Phi(tau, x) = (1 - u) prod_n (1 - q^n u)(1 - q^n / u)/(1 - q^n)^2 with
u = e^{-x}, q = e^{2 pi i tau}.  From its product form the characteristic
series of the genus acquires the expansion (with y = -e^z)

  Q(x) = x/(1-u) (1 + y u) prod_n [(1+y q^n u)/(1-q^n u)]
                               [(1+y^{-1} q^n/u)/(1-q^n/u)] / Phi(tau,-z),

valid on SU classes (an overall e^{kx} factor is dropped).  The module
never multiplies the x-dependent product out.  The log of each factor is
a geometric series in q^n u^{+-1}, so log Q(x) = sum_k l_k x^k has the
divisor sums

  l_k = [x^k] (log(x/(1-u)) + log(1 + y(u - 1)/(1+y)))
        + sum_{e>=1} q^e sum_{m|e} ((-1)^(m+1) (y^m (-m)^k + y^-m m^k)
                                    + (-m)^k + m^k) / (m k!)

for k >= 1, the twisted-Eisenstein expansion of the elliptic genus
(Zagier, "Note on the Landweber-Stong elliptic genus", LNM 1326, 1988;
Hirzebruch, Berger & Jung, Manifolds and Modular Forms, 1992), while
Phi(tau, -z), the one factor of Q(x) free of x, comes from the Jacobi
triple product.  The
GenusSpec is built from the l_k; Q(x) is their exponential, formed only
when a caller reads it.  The quartic coefficients never need Q: with
f = x/Q, h = f'/f = 1/x - sum_k k l_k x^(k-1) is read off the l_k,
q_1..q_4 are read from (h')^2 = h^4 + q_1 h^3 + ... + q_4 through x^0,
and the rest of h is compared with the solution of that equation.

Every q-series is exact over one of two coefficient models for y: a
formal y in Q[y, 1/y, 1/(1+y)], or a cyclotomic quotient ring where -y
is a primitive N-th root of unity.  It is an element of one flat ring,
QSeriesRing: the numerators of all its q-coefficients are Python ints
over one denominator, so a sum of products is one integer convolution
followed by one reduction and one normalisation, with no ring of series
nested over the coefficient ring.  The coefficient models are that ring
truncated at q^0: one normal form, one dot and one normalisation serve
the series and their coefficients, whose element classes QuotElt and
RationalFunction add only inverses and printing.  The ring is built on
a few kernels on int lists, defined here: products, synthetic division
by a monic polynomial, the cross-multiplied step of the extended
Euclidean algorithm in Z[y], and the cyclotomic modulus built from
them.  The module also provides the loop-space expansion chi_y(q, LX),
the Weierstrass series, recovery of the quartic coefficients q_1..q_4
as q-series, and the integrality check.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm
from operator import add, neg

from .algebra_kernel import (
    QQ,
    NonUnitLeadingCoefficient,
    TruncatedSeries,
    coeff_is_zero,
    ring_invert,
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
# polynomials in y as int lists, low -> high
# ---------------------------------------------------------------------------


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    """Product of int coefficient lists, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _poly_trim(out)


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


def _combine(a, x, b, y, k):
    """a*x - b*t^k*y for int lists x, y and ints a, b, trimmed: the
    cross-multiplied reduction step of the extended Euclidean algorithm
    in Z[y]."""
    out = [a * c for c in x]
    out += [0] * (len(y) + k - len(out))
    for i, c in enumerate(y, k):
        out[i] -= b * c
    return _poly_trim(out)


# bench/tracer.py times the two kernels under these names.
poly_divmod = _divmod_monic
poly_gcd = _combine


def _cyclotomic(n):
    """Phi_n as ints: y^n - 1 divided exactly by Phi_d for each proper
    divisor d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    phi = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = _divmod_monic(phi, _cyclotomic(d))[0]
    return phi


# ---------------------------------------------------------------------------
# the flat ring of q-series, and at q^0 the coefficient models for y
# ---------------------------------------------------------------------------


def _modulus(mode):
    """The monic minimal polynomial +-Phi_N(-y) of y for mode N, as ints;
    None for mode 'formal'."""
    if mode == "formal":
        return None
    phi = _cyclotomic(int(mode))
    sign = (-1) ** (len(phi) - 1)
    return tuple(c * (-1) ** i * sign for i, c in enumerate(phi))


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
    num = QSeriesRing._lift(value.ints, (0, e1), (0, 0))
    return {e - ey: Fraction(c, value.den) for e, c in enumerate(num) if c}


class QSeriesRing:
    """Ring context of the q-series through q^qorder over the coefficient
    model of mode: an integer N for Q(zeta_N), where -y is a primitive
    N-th root of unity, or 'formal' for Q[y, 1/y, 1/(1+y)].

    An element (QSeries) is flat: the numerators of its q^0..q^qorder
    coefficients as rows of ints, one tuple per power of q, trailing zero
    rows dropped, over one denominator den > 0 prime to their content.
    Cyclotomic rows are reduced modulo the modulus, the minimal polynomial
    of y.  Formal rows share one exponent tuple (a, b): the series is
    sum_n q^n rows[n](y) / den * y^-a (1+y)^-b, and neither y nor 1 + y
    divides every row.  This normal form is unique.

    At qorder 0 the ring is the coefficient model itself and its own
    base; its elements are QuotElt (cyclotomic) or RationalFunction
    (formal).  The base of any other ring is the ring of its mode at
    qorder 0, and coeff(n) is an element of it.
    """

    def __init__(self, mode, qorder):
        self.qorder = qorder
        if qorder:
            self.base = QSeriesRing(mode, 0)
            self.modulus = self.base.modulus
        else:
            self.base = self
            # the cyclotomic modulus, None over the formal ring
            self.modulus = _modulus(mode)
        self._element = QSeries if qorder else (
            QuotElt if self.modulus else RationalFunction)
        self.zero = self._element(self, (), 1, () if self.modulus else (0, 0))
        self.one = self.constant(1)

    def constant(self, c):
        """The constant series c, c rational or in the base ring."""
        return self.dot([(c, 1)])

    from_fraction = constant

    def gen(self):
        """y, in the base ring; where the modulus has degree 1 (N = 1, 2)
        y is congruent to a rational."""
        base, m = self.base, self.modulus
        if m and len(m) == 2:
            return base.constant(-m[0])
        return base._finish([[0, 1]], 1, base.zero.exps)

    def series(self, coeffs):
        """sum_n coeffs[n] q^n through q^qorder, each rational or in the
        base ring."""
        exps = self.zero.exps
        return self.dot((c, self._element(self, ((),) * n + ((1,),), 1, exps))
                        for n, c in enumerate(coeffs[:self.qorder + 1]))

    @staticmethod
    def _lift(ints, exps, top):
        # the ints times y^(top - exps)_0 (1 + y)^(top - exps)_1
        if exps == top:
            return ints
        k = top[1] - exps[1]
        return poly_mul(ints, [0] * (top[0] - exps[0])
                        + [comb(k, j) for j in range(k + 1)])

    def _parts(self, x):
        # (rows, den, exps) of a series of the ring or of its base, or of
        # a rational
        if isinstance(x, (int, Fraction)):
            return ((x.numerator,),) if x else (), x.denominator, \
                self.zero.exps
        r = x.ring
        if not (r is self or r is self.base or r == self or r == self.base):
            raise ValueError("mixed rings")
        return x.rows, x.den, x.exps

    def dot(self, pairs):
        """Sum of the products.  A single product of one-row operands
        (elements of the ring at q^0, rationals) is one row product.
        Otherwise, over the formal ring, the second factor of each pair,
        which callers make the smaller, is first lifted to the largest
        exponent sum of the pairs.  The rows of every pair are then
        convolved into one int array over one denominator, row e of the sum
        being its slice e * width .. (e + 1) * width: a second factor of one
        int scales the first one's rows, and any other visits only its
        nonzero ints, which over the formal ring are often few.  Each
        q-slot is reduced modulo the cyclotomic modulus, and the sum is put
        in normal form once."""
        formal = not self.modulus
        items, sums = [], []
        for x, z in pairs:
            a, b = self._parts(x), self._parts(z)
            if a[0] and b[0]:
                items.append((a, b))
                if formal:
                    sums.append(tuple(map(add, a[2], b[2])))
        if not items:
            return self.zero
        top = tuple(map(max, *sums, sums[0])) if formal else ()
        (ra, da, _), (rb, db, _) = items[0]
        if len(items) == 1 and len(ra) == len(rb) == 1:
            rows, den = [poly_mul(ra[0], rb[0])], da * db
        else:
            rows, den = self._convolve(items, sums, top)
        m = self.modulus
        if m:
            rows = [_divmod_monic(r, m)[1] if len(r) >= len(m) else r
                    for r in rows]
        return self._finish(rows, den, top)

    def _convolve(self, items, sums, top):
        # the trimmed rows and the denominator of the sum of the pairs
        n, den, width = self.qorder + 1, 1, 1
        for i, (a, b) in enumerate(items):
            if sums and sums[i] != top:
                b = [self._lift(r, sums[i], top) for r in b[0]], b[1]
                items[i] = a, b
            den = lcm(den, a[1] * b[1])
            width = max(width, max(map(len, a[0])) + max(map(len, b[0])) - 1)
        flat = [0] * (n * width)
        for (ra, da, *_), (rb, db, *_) in items:
            f = den // (da * db)
            if len(rb) == 1 and len(rb[0]) == 1:
                # a scalar: a's rows, scaled, into the sum
                f *= rb[0][0]
                for i, r in enumerate(ra[:n]):
                    for k, x in enumerate(r, i * width):
                        flat[k] += x * f
                continue
            # b's nonzero ints at their offsets in the sum, in order
            nz = [(i * width + j, z) for i, row in enumerate(rb[:n])
                  for j, z in enumerate(row) if z]
            for i, r in enumerate(ra[:n]):
                # the part of b that stays below q^n
                nzi = nz[:bisect_left(nz, ((n - i) * width,))] if i else nz
                for k, x in enumerate(r, i * width):
                    if x:
                        x *= f
                        for j, z in nzi:
                            flat[k + j] += x * z
        return [_poly_trim(flat[i:i + width])
                for i in range(0, n * width, width)], den

    def _finish(self, rows, den, exps):
        """The series of the trimmed int lists rows over den in normal
        form: over the formal ring the factors y and 1 + y of every row
        are moved into exps."""
        while rows and not rows[-1]:
            rows.pop()
        if not rows:
            return self.zero
        if not self.modulus:
            ey, e1 = exps
            shift = min(r.index(next(filter(None, r))) for r in rows if r)
            rows = [r[shift:] for r in rows]
            while not any(sum(r[::2]) - sum(r[1::2]) for r in rows):
                rows = [_divmod_monic(r, (1, 1))[0] for r in rows]
                e1 -= 1
            exps = ey - shift, e1
        g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            rows = [list(map(g.__rfloordiv__, r)) for r in rows]
        return self._element(self, tuple(map(tuple, rows)), den // g, exps)

    def __eq__(self, other):
        return (isinstance(other, QSeriesRing)
                and self.modulus == other.modulus
                and self.qorder == other.qorder)

    def __hash__(self):
        return hash(("QSeriesRing", self.modulus, self.qorder))

    def __repr__(self):
        if self.qorder:
            return f"{self.base!r}[[q]]/q^{self.qorder + 1}"
        if self.modulus:
            return f"Q[y]/(m), m degree {len(self.modulus) - 1}"
        return "Q[y] localised at 2 primes"


class QSeries:
    """Element of a QSeriesRing (see there): rows, den and exps."""

    __slots__ = ("ring", "rows", "den", "exps")
    low = 0

    def __init__(self, ring, rows, den, exps):
        self.ring = ring
        self.rows = rows
        self.den = den
        self.exps = exps

    @property
    def order(self):
        return self.ring.qorder

    def coeff(self, n):
        """The q^n coefficient, an element of the base ring."""
        if n > self.ring.qorder:
            raise IndexError(f"coefficient q^{n} beyond truncation "
                             f"{self.ring.qorder}")
        base = self.ring.base
        if not 0 <= n < len(self.rows):
            return base.zero
        return base._finish([self.rows[n]], self.den, self.exps)

    def is_zero(self):
        return not self.rows

    def _dot(self, pairs, other):
        # ring.dot(pairs) if other is a rational or a series of the ring
        # or of its base.  A deeper series over this ring of coefficients,
        # a polynomial or an x-series over the ring applies its own
        # operation: Python tries it only where the types differ.
        if isinstance(other, (int, Fraction)) or (
                isinstance(other, QSeries)
                and (self.ring.qorder or not other.ring.qorder)):
            return self.ring.dot(pairs)
        return NotImplemented

    def __add__(self, other):
        return self._dot(((self, 1), (other, 1)), other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._dot(((self, 1), (other, -1)), other)

    def __rsub__(self, other):
        return self._dot(((self, -1), (other, 1)), other)

    def __neg__(self):
        # negation keeps the normal form
        return type(self)(self.ring, tuple(tuple(map(neg, r))
                                           for r in self.rows),
                          self.den, self.exps)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ring._finish(
                [list(map(other.numerator.__mul__, r)) for r in self.rows]
                if other else [], self.den * other.denominator, self.exps)
        return self._dot([(self, other)], other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self.ring.one, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._dot([(other, 1)], other)
        if o is NotImplemented:
            return o
        return (self.rows, self.den, self.exps, self.ring) == (
            o.rows, o.den, o.exps, o.ring)

    def __hash__(self):
        return hash((self.rows, self.den, self.exps))

    def inverse(self):
        """By Newton's iteration b -> b + b (1 - self b), which doubles the
        number of correct coefficients."""
        b = self.ring.constant(ring_invert(self.coeff(0)))
        for _ in range(self.ring.qorder.bit_length()):
            b = b + b * (1 - self * b)
        return b

    def __str__(self):
        return " + ".join([f"({self.coeff(n)})*q^{n}"
                           for n, r in enumerate(self.rows) if r]
                          + [f"O(q^{self.ring.qorder + 1})"])

    __repr__ = __str__


class QuotElt(QSeries):
    """Element of Q(zeta_N) = QSeriesRing(N, 0): ints / den with ints
    reduced modulo the modulus.  coeffs gives its Fraction coefficients,
    low -> high, padded to the degree of the modulus."""

    __slots__ = ()

    @property
    def ints(self):
        return self.rows[0] if self.rows else ()

    @property
    def coeffs(self):
        c = tuple(Fraction(a, self.den) for a in self.ints)
        return c + (Fraction(0),) * (len(self.ring.modulus) - 1 - len(c))

    def inverse(self):
        """Inverse by the extended Euclidean algorithm in Z[y].

        Each pair (r, s) of integer lists keeps r = s * self (mod m);
        reducing one pair by the other scales it by a leading
        coefficient instead of dividing, and each pair is divided by its
        content.  A nonzero constant r ends it: the inverse is s / r.
        """
        if not self.rows:
            raise NonUnitLeadingCoefficient("zero is not invertible")
        m = self.ring.modulus
        r0, s0 = list(m), []
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
        r = r1[0]
        if r < 0:
            s1, r = [-c for c in s1], -r
        return self.ring._finish([_divmod_monic(s1, m)[1]], r, ())

    def __str__(self):
        parts = []
        for e, c in enumerate(self.ints):
            c = Fraction(c, self.den)
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*y" if c != 1 else "y")
            else:
                parts.append(f"{c}*y^{e}" if c != 1 else f"y^{e}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class RationalFunction(QSeries):
    """Element num(y) y^-a (1+y)^-b of Q[y, 1/y, 1/(1+y)] =
    QSeriesRing('formal', 0): num = ints / den, divisible by neither y
    nor 1 + y, and exps = (a, b).  num gives the Fraction coefficients of
    num, low -> high.  The only non-monomial factor the q-side ever
    inverts is Phi(tau, -z), whose q^0 term is 1 + y, so every
    denominator met is y^a (1+y)^b."""

    __slots__ = ()

    @property
    def ints(self):
        return self.rows[0] if self.rows else ()

    @property
    def num(self):
        return tuple(Fraction(c, self.den) for c in self.ints)

    def inverse(self):
        """Inverse of a unit c y^-a (1+y)^-b; anything else raises."""
        if len(self.ints) != 1:
            raise NonUnitLeadingCoefficient(f"not a unit: {self}")
        c = self.ints[0]
        sign = 1 if c > 0 else -1
        return RationalFunction(self.ring, ((sign * self.den,),), sign * c,
                                tuple(-e for e in self.exps))

    def __repr__(self):
        num = ", ".join(map(str, self.num))
        return f"RationalFunction([{num}], exps={self.exps})"

    __str__ = __repr__


FORMAL_RING = QSeriesRing("formal", 0)


def y_model(mode):
    """(ring, y) for mode 'formal' or an integer N (cyclotomic): the
    coefficient ring QSeriesRing(mode, 0) and its generator.

    In formal mode y is a variable and y, 1 + y are invertible.  In
    cyclotomic mode -y is a primitive N-th root of unity: the modulus
    is the monic minimal polynomial of y, +-Phi_N(-y).
    """
    ring = FORMAL_RING if mode == "formal" else QSeriesRing(mode, 0)
    return ring, ring.gen()


# ---------------------------------------------------------------------------
# the product as divisor sums
# ---------------------------------------------------------------------------


def _y_powers(qs):
    """[(y^m, y^-m) for m = 1..qorder] as parts (see QSeriesRing._parts)."""
    y = qs.base.gen()
    y_inv = y.inverse()
    up = down = qs.base.one
    powers = []
    for _ in range(qs.qorder):
        up, down = up * y, down * y_inv
        powers.append((qs._parts(up), qs._parts(down)))
    return powers


def _divisor_sums(qs, powers, weight, head=0):
    """head + sum_e q^e sum_{m|e} (a y^m + b y^-m + c) in the q-series
    ring qs, weight(m) giving the rationals (a, b, c) and powers being
    _y_powers(qs).

    The y^m, y^-m and 1, times their weights, are lifted once to one
    denominator and one exponent tuple; row e is the sum of those of the
    divisors m of e.
    """
    one = qs._parts(1)
    terms = [(0, qs._parts(head), 1)]
    for m, (up, down) in enumerate(powers, 1):
        terms += zip((m, m, m), (up, down, one), weight(m))
    terms = [(m, r[0], d * w.denominator, e, w.numerator)
             for m, (r, d, e), w in terms if r and w]
    if not terms:
        return qs.zero
    den = lcm(*(t[2] for t in terms))
    top = tuple(map(max, *(t[3] for t in terms), terms[0][3]))
    rows = [[] for _ in range(qs.qorder + 1)]
    for m, ints, d, e, w in terms:
        ints = qs._lift([c * w * (den // d) for c in ints], e, top)
        for row in (rows[m::m] if m else rows[:1]):
            row += [0] * (len(ints) - len(row))
            for i, c in enumerate(ints):
                row[i] += c
    return qs._finish(list(map(_poly_trim, rows)), den, top)


def phi_at_minus_z(qorder, mode="formal"):
    """Phi(tau, -z) = (1+y) prod (1+y q^n)(1+y^{-1} q^n)/(1-q^n)^2.

    By the Jacobi triple product it is y sum_{n in Z} y^n q^(n(n+1)/2)
    over prod (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2): a series
    with two powers of y at each triangular exponent, times the inverse
    of a rational series.
    """
    qs = QSeriesRing(mode, qorder)
    y = qs.base.gen()
    theta, cube = [0] * (qorder + 1), [Fraction(0)] * (qorder + 1)
    for k in range(qorder + 1):
        t = k * (k + 1) // 2
        if t <= qorder:
            theta[t] = y ** (k + 1) + y ** -k
            cube[t] = Fraction((-1) ** k * (2 * k + 1))
    inverse = TruncatedSeries(QQ, 0, cube, qorder).inverse()
    return qs.series(theta) * qs.series(inverse.coeffs)


def phi_ell_q(qorder=DEFAULT_QORDER, xorder=DEFAULT_XORDER, mode="formal"):
    """The genus of the theta product, from its log coefficients l_k.

    mode: "formal" (coefficients in Q[y, 1/y, 1/(1+y)]) or an integer N
    (coefficients in the cyclotomic model where -y is a primitive N-th
    root of unity).  Each l_k is a q-series through q^qorder in
    QSeriesRing(mode, qorder); its q^0 term is log(x/(1-u)) +
    log(1 + y(u-1)/(1+y)) at x^k, and its q^e terms are the divisor sums
    of the module docstring.  The overall e^{kx} factor is dropped, so
    evaluation is only meaningful on SU classes.
    """
    qs = QSeriesRing(mode, qorder)
    ring = qs.base
    y = ring.gen()
    todd = classical_genus("todd", order=xorder).log_coeffs
    # log(1 + w (u - 1)) with w = y/(1+y) is sum_n (-1)^(n+1) w^n (u-1)^n / n,
    # and (u - 1)^n = n! sum_k S(k, n) (-x)^k / k! with the Stirling
    # numbers S(k, n) of the second kind
    w = [ring.one, y * (ring.one + y) ** (-1)]
    stirling = [1]
    powers = _y_powers(qs)
    logs = [qs.zero]
    for k in range(1, xorder + 1):
        w.append(w[-1] * w[1])
        stirling = [0] + [n * stirling[n] + stirling[n - 1]
                          for n in range(1, k)] + [1]
        unit = ring.dot((w[n], Fraction((-1) ** (n + 1 + k) * stirling[n]
                                        * factorial(n - 1), factorial(k)))
                        for n in range(1, k + 1))
        logs.append(_divisor_sums(qs, powers, lambda m, k=k: (
            Fraction((-1) ** (m + 1) * (-m) ** k, m * factorial(k)),
            Fraction((-1) ** (m + 1) * m ** k, m * factorial(k)),
            Fraction((-m) ** k + m ** k, m * factorial(k))),
            unit + todd[k]))
    return GenusSpec(qs, logs, name=f"phi_ell(q; {mode})")


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
    return evaluate(spec, X) * phi_at_minus_z(qorder) ** X.dim


def weierstrass_p(qorder=DEFAULT_QORDER):
    """The Weierstrass series: -y/(1+y)^2
    + sum_n q^n sum_{d|n} d((-y)^d + (-y)^{-d}) + (1/12)(1 - 24 sum sigma_1 q^n)."""
    qs = QSeriesRing("formal", qorder)
    ring = qs.base
    y = ring.gen()
    return _divisor_sums(qs, _y_powers(qs), lambda d: (
        (-1) ** d * d, (-1) ** d * d, -2 * d),
        -y * (ring.one + y) ** (-2) + ring.from_fraction(Fraction(1, 12)))


# ---------------------------------------------------------------------------
# recovering the quartic coefficients
# ---------------------------------------------------------------------------


def match_quartic(h):
    """q_1..q_4 with (h')^2 = h^4 + q_1 h^3 + ... + q_4 for h = f'/f.

    h is a Laurent series 1/x + O(1); extract_qi reads it off log Q,
    since h = 1/x - sum_k k l_k x^(k-1) for f = x/Q.  The coefficients of
    (h')^2 - h^4 at x^{-3}..x^0, which read h only through x^3, determine
    q_1..q_4 one after another.  The quartic closes when h is, over its
    whole window, the solution of (h')^2 = S(h) that
    elliptic_ode.solve_h builds: its coefficient at x^e is fixed by that
    of (h')^2 - S(h) at x^(e-3), which a change d of it moves by
    -(2e + 4) d.  Raises InconsistentSystem, naming that x^(e-3) and the
    residual, if the genus does not satisfy a quartic differential
    equation.
    """
    from .elliptic_ode import QuarticData, solve_h

    ring = h.ring
    head = h.truncate(3)
    h2 = head * head
    h3 = h2 * head
    hp = head.derivative()
    rem = hp * hp - h2 * h2
    qs = []
    for e in (-3, -2, -1, 0):
        # the coefficient of (h')^2 - S(h) at x^e fixes q_(e+4)
        qs.append(ring.dot([(rem.coeff(e), 1)] + [
            (q, -hk.coeff(e)) for q, hk in zip(qs, (h3, h2, head))]))
    quartic = QuarticData(*qs, ring=ring)
    solved = solve_h(quartic, h.order + 1)
    for e in range(h.low, h.order + 1):
        d = h.coeff(e) - solved.coeff(e)
        if not coeff_is_zero(d):
            raise InconsistentSystem(
                f"quartic does not close at x^{e - 3}: {d * -(2 * e + 4)}")
    return quartic


def extract_qi(mode="formal", qorder=DEFAULT_QORDER, xorder=DEFAULT_XORDER):
    """The q-expansions of q_1..q_4 (and of A, B, C, D).

    Returns (QuarticData, ABCDPoint) over QSeriesRing(mode, qorder),
    recovered from h = f'/f = 1/x - sum_k k l_k x^(k-1), read off the log
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
