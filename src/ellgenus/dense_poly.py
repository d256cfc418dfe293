"""Dense polynomials in one variable: coefficient lists, low -> high.

Products, division with remainder and the gcd over Q; cyclotomic
polynomials; and the two steps on integer lists that the coefficient
rings of jacobi_q are built on: synthetic division by a monic polynomial
over Z, and the cross-multiplied reduction step of the extended
Euclidean algorithm in Z[y].
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_kernel import _fr


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
    """a*x - b*t^k*y for int lists x, y and ints a, b, trimmed."""
    out = [a * c for c in x]
    out += [0] * (len(y) + k - len(out))
    for i, c in enumerate(y, k):
        out[i] -= b * c
    return _poly_trim(out)
