"""Slow, plainly written oracles that the tests check the package against.

Dense polynomials in one variable over Q as coefficient lists, low ->
high (products, division with remainder, the gcd and the cyclotomic
polynomials by their divisor recursion), and a symbolic Sylvester
resultant of WeightedPoly values by fraction-free (Bareiss) elimination,
with the exact division it needs.  None of this runs in the package: it
computes on ints (jacobi_q's modulus and Euclidean steps, level_n's
subresultant at integer nodes) and is compared with these here.  Also
times_x, the shift by a power of x that the oracles of the elliptic ODE
in its power-series form H = x h use.
"""

from fractions import Fraction
from operator import floordiv

from ellgenus.algebra_kernel import TruncatedSeries, VariableNotPresent
from ellgenus.weighted_poly import WeightedPoly


class ExactDivisionError(ArithmeticError):
    pass


def times_x(s, k, order=None):
    """x^k s, a TruncatedSeries, through x^order (default: s's order)."""
    return TruncatedSeries(s.ring, [s.ring.zero] * k + s.coeffs,
                           s.order if order is None else order)


# ---------------------------------------------------------------------------
# dense polynomials in one variable over Q
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


def poly_divmod(a, b):
    """Quotient and remainder over Q, as Fraction lists."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
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


def poly_gcd(a, b):
    """The monic gcd over Q, [] for two zero polynomials."""
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = [x / a[-1] for x in a]
    return a


def cyclotomic_polynomial(n):
    """Phi_n as Fractions, from x^n - 1 = prod_{d | n} Phi_d(x)."""
    if n < 1:
        raise ValueError("n must be positive")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic_polynomial(d))
    q, r = poly_divmod(num, den)
    assert not r
    return q


# ---------------------------------------------------------------------------
# exact division, the Bareiss determinant and the Sylvester resultant
# ---------------------------------------------------------------------------


def as_univariate(p, name):
    """dict exponent of name -> WeightedPoly not involving name."""
    i = p.ring.names.index(name)
    out = {}
    for exps, c in p.terms.items():
        out.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
    return {k: WeightedPoly(p.ring, t) for k, t in out.items()}


def exact_div(a, b):
    """The quotient a / b of WeightedPoly values over QQ, by leading
    terms; ExactDivisionError if it is not exact."""
    o = a._coerce(b)
    if o is None or o.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    le, lc = o.leading()
    rem = a
    qterms = {}
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(x - y for x, y in zip(re, le))
        if any(k < 0 for k in qe):
            raise ExactDivisionError("not exactly divisible")
        qc = rc / lc
        qterms[qe] = qterms.get(qe, Fraction(0)) + qc
        rem = rem - WeightedPoly(a.ring, {qe: qc}) * o
    return WeightedPoly(a.ring, qterms)


def bareiss_determinant(rows, zero, one):
    """Fraction-free (Bareiss) determinant of a square list of lists over
    Z (int zero and one: every division an exact //) or over a ring of
    WeightedPoly values (every division an exact_div)."""
    n = len(rows)
    if n == 0:
        return one
    div = floordiv if type(zero) is int and type(one) is int else exact_div
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
    """Sylvester resultant of WeightedPoly values p and q of one ring with
    respect to var, as a symbolic Bareiss determinant."""
    if not isinstance(p, WeightedPoly) or not isinstance(q, WeightedPoly):
        raise TypeError("resultant_in expects WeightedPoly inputs")
    ring = p.ring
    if var not in ring.names:
        raise VariableNotPresent(var)
    pu = as_univariate(p, var)
    qu = as_univariate(q, var)
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
