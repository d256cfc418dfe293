"""Level-N structure of the elliptic genus.

For each N >= 2 the function f of the universal genus satisfies a
first-order equation 1/f^N + d_2N f^N = P_N(f'/f) with P_N monic of
degree N.  Expanding that equation as a Laurent series determines the
coefficients d_1..d_N and d_2N triangularly and leaves constraints; the
Zolotarev condition d_{N-1} = 0 together with the first constraint give
the two relations R_{N-1} and R_{N+1} cutting out the level-N curve in
Q[A, B, C, D].

The two relations and their resultants eliminating A (or q1) are
weighted homogeneous, so each is fixed by its values on a slice where
one variable is 1, and there its support is a lower set of exponents.
One exact kernel, tensor Newton interpolation on a lower set, recovers
each from values at integer nodes: the relations from the ODE solved
on ints at the rescaled points (4, 16b, 64c, 256d), the eliminants
from Sylvester resultants of int coefficient lists by a subresultant
remainder sequence.  The module also provides weighted Poincare series
with their degree h_0, the C = D = 0 relation T_{N-1}, kernel
membership tests, and the two level-2 modular forms delta and epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, prod
from operator import mul

from .algebra_kernel import QQ, TruncatedSeries
from .genus_engine import classical_genus, evaluate
from .universal_elliptic import (
    ABCD_RING,
    Q_RING,
    QuarticData,
    phi_ell,
    q_to_abcd,
)
from .weighted_poly import PolyRing, WeightedPoly

AB_RING = PolyRing(("A", 1), ("B", 2))


class WrongPoleOrder(ArithmeticError):
    pass


def to_q_coords(poly):
    """Transport a polynomial in A, B, C, D to q1..q4 coordinates."""
    images = dict(zip(("A", "B", "C", "D"), q_to_abcd(QuarticData.generic())))
    return poly.substitute(images, ring=Q_RING)


class LevelNData:
    """The two relations for one level N.

    r_lower, r_upper: the normalized relations in A, B, C, D (weights
        N-1 and N+1)
    """

    def __init__(self, N, r_lower, r_upper):
        self.N = N
        self.r_lower = r_lower
        self.r_upper = r_upper

    def r_lower_q(self):
        return to_q_coords(self.r_lower)

    def r_upper_q(self):
        return to_q_coords(self.r_upper)

    def __repr__(self):
        return f"<LevelNData N={self.N}>"


def _zigzag(i):
    """The i-th interpolation node 0, -1, 1, -2, 2, ... on an axis."""
    return -(i + 1) // 2 if i % 2 else i // 2


def _lower_set(weights, w):
    """The index tuples e >= 0 with sum(weights * e) <= w, a lower set."""
    if not weights:
        return [()]
    return [(e,) + rest for e in range(w // weights[0] + 1)
            for rest in _lower_set(weights[1:], w - e * weights[0])]


def newton_interpolate(lower, nodes, values):
    """Exact interpolation on a lower set of node indices.

    lower: index tuples closed under lowering any entry; nodes[j][i]: the
    i-th node on axis j, all distinct; values: e -> the value at
    (nodes[0][e[0]], nodes[1][e[1]], ...).  Returns e -> the coefficient
    of prod_j x_j^e_j in the one polynomial on lower with these values
    (Gasca & Sauer, Adv. Comput. Math. 12, 2000).  Divided differences run
    along every axis, on lines that are prefixes 0..m of it, before any
    axis leaves the Newton basis prod_j prod_{i < e_j} (x_j - nodes[j][i]).
    """
    coef = {e: Fraction(values[e]) for e in lower}
    lines = []
    for j in range(len(nodes)):
        by_rest = {}
        for e in sorted(lower, key=lambda e: e[j]):
            by_rest.setdefault(e[:j] + e[j + 1:], []).append(e)
        lines.append(list(by_rest.values()))
    for x, axis_lines in zip(nodes, lines):
        for line in axis_lines:
            v = [coef[e] for e in line]
            for k in range(1, len(v)):
                for i in range(len(v) - 1, k - 1, -1):
                    v[i] = (v[i] - v[i - 1]) / (x[i] - x[i - k])
            coef.update(zip(line, v))
    for x, axis_lines in zip(nodes, lines):
        for line in axis_lines:
            v = [coef[e] for e in line]
            for k in range(len(v) - 2, -1, -1):
                for i in range(k, len(v) - 1):
                    v[i] -= x[k] * v[i + 1]
            coef.update(zip(line, v))
    return coef


def _square_at(a, i, lo):
    """sum a_j a_(i-j) over lo <= j <= i - lo, by symmetric halves."""
    s = 2 * sum(map(mul, a[lo:(i + 1) // 2], a[i - lo:i // 2:-1]))
    return s + a[i // 2] ** 2 if i % 2 == 0 and i >= 2 * lo else s


def _point_values(N, point):
    """d_{N-1} and the x^1 coefficient of P_N(h) - f^-N - sum d_i h^(N-i)
    at (A, B, C, D) = (1, b, c, d) for ints b, c, d, on ints.

    The d_i are the coefficients a_i of F = f^-N = sum_k a_k u^(k-N) in
    u = 1/h = x + ..., and the x^1 coefficient is -a_(N+1).  By Lagrange
    inversion a_(N+n) = [x^-1] F' h^n / n for n != 0, and F' = -N h F, so
    d_{N-1} = N [x^-1] F and -a_(N+1) = N [x^-1] h^2 F, which read h
    through c_(N+1) and need no power of h and no loop over the d_i.
    Both are weighted homogeneous (weights N -/+ 1), so they are taken at
    (4, 16b, 64c, 256d), where solve_h's depressed quartic is integral
    (s = 2, p2 = -4b, p3 = 256c, p4 = 4b^2 - 512d), and divided by 4^(N-1)
    and 4^(N+1).  solve_h's recurrence runs on x h0 = sum_i C_i
    (x/delta)^i with int C_i; delta grows, rescaling the node again, when
    a division by 2i + 2 is not exact.  F = x^-N exp(-N integral(h -
    1/x)) = x^-N sum_n psi_n (x/delta)^n / (N+1)!, as n phi_n = -N sum_k
    c_k phi_(n-k), and h^2 F shares these denominators.
    """
    b, c, d = point
    p2, p3, p4 = -4 * b, 256 * c, 4 * b * b - 512 * d
    top = N + 1
    C, G, delta = [1], [1], 1  # G = (x h0)^2
    for i in range(1, top + 1):
        G.append(_square_at(C, i, 1))  # at c_i = 0
        r = (_square_at([(j - 1) * x for j, x in enumerate(C)], i, 1)
             - _square_at(G, i, 0)
             - sum(pk * S[i - k] * delta ** k for k, pk, S in
                   ((2, p2, G), (3, p3, C), (4, p4, [1]))  # p4 at i = 4
                   if 0 <= i - k < len(S)))
        k = (2 * i + 2) // gcd(r, 2 * i + 2)
        if k > 1:
            delta, r = delta * k, r * k ** i
            C, G = ([x * k ** j for j, x in enumerate(s)] for s in (C, G))
        C.append(r // (2 * i + 2))
        G[i] += 2 * C[i]
    C[1] -= 2 * delta  # h = h0 - s
    psi = [factorial(top)]
    for n in range(1, top + 1):
        psi.append(-N * sum(map(mul, C[1:n + 1], psi[::-1])) // n)
    upper = sum(map(mul, (_square_at(C, i, 0) for i in range(top + 1)),
                    psi[::-1]))
    scale = 4 * delta
    return (Fraction(N * psi[N - 1], psi[0] * scale ** (N - 1)),
            Fraction(N * upper, psi[0] * scale ** top))


def _relation(w, nodes, values):
    """The weight-w polynomial in A, B, C, D whose values at (1, b, c, d)
    on the nodes of its support, the lower set 2b + 3c + 4d <= w, are
    values[(b, c, d)]."""
    coef = newton_interpolate(_lower_set((2, 3, 4), w), (nodes,) * 3,
                              values)
    return WeightedPoly(ABCD_RING, {(w - 2 * b - 3 * c - 4 * d, b, c, d): v
                                    for (b, c, d), v in coef.items()})


def compute_level_data(N):
    """The relations R_{N-1} and R_{N+1} of 1/f^N + d_2N f^N = P_N(f'/f),
    by evaluation at rational points and exact interpolation.

    Both relations are weighted homogeneous (weights N-1 and N+1), so
    their values on the slice A = 1 fix them, where their supports are
    the lower sets 2b + 3c + 4d <= N -/+ 1, one inside the other.  The
    ODE is solved on ints at each node (1, b, c, d) of the larger, with
    b, c, d among 0, -1, 1, -2, 2, ..., and newton_interpolate reads each
    relation off the values on its own lower set.  Each node reads its
    values through x^1 only, so it is solved through N + 1 (see
    _point_values).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    nodes = [_zigzag(i) for i in range((N + 1) // 2 + 1)]
    values = {e: _point_values(N, [nodes[i] for i in e])
              for e in _lower_set((2, 3, 4), N + 1)}

    # R_{N-1}: the Zolotarev condition d_{N-1} = 0, normalized so the
    # A^{N-1} coefficient is 1
    r_lower = _relation(N - 1, nodes, {e: v[0] for e, v in values.items()})
    alpha = r_lower.coeff((N - 1, 0, 0, 0))
    if alpha == 0:
        raise ArithmeticError("missing leading A power in R_{N-1}")
    r_lower = r_lower * (1 / alpha)

    # R_{N+1}: the first constraint, with the A^{N+1} and A^{N-1} B
    # monomials removed by subtracting multiples of R_{N-1}, then made
    # monic in the graded lexicographic order
    r_upper = _relation(N + 1, nodes, {e: v[1] for e, v in values.items()})
    if r_upper.is_zero():
        raise ArithmeticError("no weight-(N+1) constraint found")
    A, B, _, _ = ABCD_RING.gens()
    r_upper = r_upper - A * A * r_lower * r_upper.coeff((N + 1, 0, 0, 0))
    r_upper = r_upper - B * r_lower * r_upper.coeff((N - 1, 1, 0, 0))
    r_upper = r_upper.monic()
    return LevelNData(N, r_lower, r_upper)


def _integer_coeffs(p):
    """(L, rows) for L the common denominator of p, a polynomial over QQ:
    rows[k] lists the terms (integer, exponent of C, exponent of D) of
    the coefficient of A^(deg - k) in L p, for p's variables A, B, C, D."""
    exponents = p.ring.exponents
    terms = [(exponents(k), x) for k, x in p.num.items()]
    rows = [[] for _ in range(max(e[0] for e, _ in terms) + 1)]
    for (a, _, c, d), x in terms:
        rows[-1 - a].append((x, c, d))
    return p.den, rows


def _at(rows, c, d):
    """The values at (B, C, D) = (1, c, d) of the coefficients in rows."""
    return [sum(a * c ** i * d ** j for a, i, j in t) for t in rows]


def _resultant(p, q):
    """The determinant of the Sylvester matrix of int coefficient lists p
    and q, highest first, of the formal degrees len(p) - 1, len(q) - 1.

    A vanishing leading coefficient is expanded along the first column,
    which is zero if both vanish.  Otherwise the subresultant remainder
    sequence (Collins, J. ACM 14, 1967; Brown & Traub, J. ACM 18, 1971)
    takes O(mn) products, each division exact over Z.
    """
    m, n = len(p) - 1, len(q) - 1
    if m == 0 or n == 0:
        return p[0] ** n * q[0] ** m
    if p[0] == 0:
        return 0 if q[0] == 0 else (-1) ** n * q[0] * _resultant(p[1:], q)
    if q[0] == 0:
        return p[0] * _resultant(p, q[1:])
    if m < n:
        return (-1) ** (m * n) * _resultant(q, p)
    sign = g = h = 1
    while True:
        delta = m - n
        sign *= (-1) ** (m * n)
        r = p
        for _ in range(delta + 1):  # r = q[0]^(delta+1) p mod q
            r = [x * q[0] - r[0] * y
                 for x, y in zip_longest(r[1:], q[1:], fillvalue=0)]
        while r and r[0] == 0:
            del r[0]
        if not r:
            return 0
        p, q, m, n = q, [x // (g * h ** delta) for x in r], n, len(r) - 1
        g = p[0]
        h = g ** delta // h ** (delta - 1) if delta else h
        if n == 0:
            return sign * q[0] ** m // h ** (m - 1)


def eliminant(p, q):
    """res_A(p, q), the Sylvester resultant eliminating the first variable
    A of a ring with weights 1, 2, 3, 4 (A, B, C, D or q1..q4), for
    weighted homogeneous p and q.

    For degrees m, n in A it has weight W = n wt(p) + m wt(q) - m n, so
    on the slice B = 1 it is C^(W mod 2) S(C^2, D), with S supported on
    the lower set 3(W mod 2 + 2k) + 4l <= W of exponents of (C^2, D).  At
    each node c = 1, 2, ..., d = 0, -1, 1, ... the values, denominators
    cleared, are two int lists of the formal degrees m and n, and
    _resultant takes their Sylvester determinant over Z.
    """
    dp, dq = p.weight(), q.weight()
    if p.ring.weights != (1, 2, 3, 4) or None in (dp, dq):
        raise ValueError("eliminant needs weighted homogeneous polynomials "
                         "in variables of weights 1, 2, 3, 4")
    lp, pc = _integer_coeffs(p)
    lq, qc = _integer_coeffs(q)
    m, n = len(pc) - 1, len(qc) - 1
    W = n * dp + m * dq - m * n
    odd = W % 2
    top = W - 3 * odd
    lower = _lower_set((6, 4), top)
    cs = range(1, top // 6 + 2)
    ds = [_zigzag(j) for j in range(top // 4 + 1)]
    values = {}
    for k, j in lower:
        c, d = cs[k], ds[j]
        values[k, j] = Fraction(_resultant(_at(pc, c, d), _at(qc, c, d)),
                                c ** odd)
    coef = newton_interpolate(lower, ([c * c for c in cs], ds), values)
    scale = Fraction(1, lp ** n * lq ** m)
    return WeightedPoly(p.ring, {
        (0, (top - 6 * k - 4 * j) // 2, odd + 2 * k, j): s * scale
        for (k, j), s in coef.items()})


def eliminate(data):
    """res_A(R_{N-1}, R_{N+1}) in Q[B,C,D]; see eliminant, which the
    q-coordinate relations take directly, eliminating q1."""
    return eliminant(data.r_lower, data.r_upper)


# ---------------------------------------------------------------------------
# graded ideal bookkeeping: Poincare series and degree
# ---------------------------------------------------------------------------


class GradedIdealPresentation:
    """Ambient variable weights and the degrees of a regular sequence of
    generators of a graded ideal."""

    def __init__(self, weights, degrees):
        self.weights = tuple(int(w) for w in weights)
        self.degrees = tuple(int(r) for r in degrees)


def _times_one_minus_power(p, r):
    """p(t) (1 - t^r) for an int list p, low -> high, trimmed."""
    out = p + [0] * r
    for i, c in enumerate(p, r):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def poincare_series(pres):
    """P_I(t) = prod (1 - t^{r_j}) / prod (1 - t^{d_i}) as (num, den),
    two int coefficient lists, low -> high."""
    num, den = [1], [1]
    for r in pres.degrees:
        num = _times_one_minus_power(num, r)
    for w in pres.weights:
        den = _times_one_minus_power(den, w)
    return num, den


def _split_at_one(p):
    """(k, p / (t - 1)^k) for a nonzero int list p with a root of order k
    at t = 1, by synthetic division: p(1) = sum(p) is the remainder."""
    k = 0
    while not sum(p):
        acc, q = 0, []
        for c in reversed(p[1:]):
            acc += c
            q.append(acc)
        p, k = q[::-1], k + 1
    return k, p


def degree_h0(pres):
    """h_0 = Q~(1) with Q~(t) = P_I(t) (1-t)^kdim prod_i (1 + t + ... +
    t^{d_i - 1}); the multiplicity of the quotient ring.

    P_I must have a pole of order kdim at t = 1, which (1-t)^kdim cancels
    up to (-1)^kdim; the rest of P_I is regular at t = 1, where each
    1 + ... + t^{d_i - 1} is d_i.
    """
    num, den = poincare_series(pres)
    kdim = len(pres.weights) - len(pres.degrees)
    if num:
        zeros, num = _split_at_one(num)
        poles, den = _split_at_one(den)
    if not num or poles - zeros != kdim:
        raise WrongPoleOrder("pole order at t=1 does not match the Krull "
                             "dimension")
    return Fraction(sum(num), sum(den)) * (-1) ** kdim * prod(pres.weights)


# ---------------------------------------------------------------------------
# the C = D = 0 relation
# ---------------------------------------------------------------------------


def t_poly(N):
    """T_{N-1} in Q[A, B]: the product of (A^2 - 2(1/2 - k/N)^2 B) over
    k = 1..floor((N-1)/2), with an extra factor A when N is even."""
    if N < 2:
        raise ValueError("N must be >= 2")
    A, B = AB_RING.gens()
    out = AB_RING.one
    if N % 2 == 0:
        out = A
    for k in range(1, (N - 1) // 2 + 1):
        out = out * (A * A - B * (2 * (Fraction(1, 2) - Fraction(k, N)) ** 2))
    return out


# ---------------------------------------------------------------------------
# ideal membership by weight-graded linear algebra
# ---------------------------------------------------------------------------


def reduce_mod_ideal(v, gens):
    """Canonical normal form of v modulo the graded ideal spanned by gens.

    Works weight by weight: in each weight the ideal's span over monomial
    multipliers is row-reduced exactly over Q and v's coefficient vector
    is reduced against it.  v need not be homogeneous.
    """
    ring = v.ring
    by_weight = {}
    for exps, c in v.terms.items():
        w = v.term_weight(exps)
        by_weight.setdefault(w, {})[exps] = c
    out = ring.zero
    for w, part in by_weight.items():
        monoms = ring.monomials_of_weight(w)
        # graded-lex descending so normal forms drop leading monomials
        monoms.sort(key=lambda e: e, reverse=True)
        index = {e: i for i, e in enumerate(monoms)}
        rows = []
        for g in gens:
            gw = g.weight()
            if gw is None or gw > w:
                continue
            for me in ring.monomials_of_weight(w - gw):
                prod = g * ring.monomial(me)
                row = [Fraction(0)] * len(monoms)
                for e, c in prod.terms.items():
                    row[index[e]] = c
                rows.append(row)
        vec = [Fraction(0)] * len(monoms)
        for e, c in part.items():
            vec[index[e]] = c
        vec = _reduce_vector(rows, vec)
        for i, c in enumerate(vec):
            if c:
                out = out + ring.monomial(monoms[i], c)
    return out


def _echelon_insert(basis, vec):
    """Exact Gauss-Jordan step: add vec to basis, a reduced row echelon
    form kept as a list of (pivot column, row with 1 there).  Returns
    False, leaving basis as it was, if vec lies in its span."""
    vec = _reduce(basis, vec)
    c = next((i for i, x in enumerate(vec) if x != 0), None)
    if c is None:
        return False
    inv = Fraction(1) / vec[c]
    vec = [x * inv for x in vec]
    for k, (pc, row) in enumerate(basis):
        if row[c] != 0:
            fct = row[c]
            basis[k] = (pc, [a - fct * b for a, b in zip(row, vec)])
    basis.append((c, vec))
    return True


def _reduce(basis, vec):
    """vec minus the combination of basis rows that clears every pivot
    column: its canonical normal form modulo their span."""
    for c, row in basis:
        if vec[c] != 0:
            fct = vec[c]
            vec = [a - fct * b for a, b in zip(vec, row)]
    return vec


def _reduce_vector(rows, vec):
    """Reduce vec against the row space of rows (exact Gauss-Jordan)."""
    basis = []
    for row in rows:
        _echelon_insert(basis, row)
    return _reduce(basis, list(vec))


def in_ideal(v, gens):
    return reduce_mod_ideal(v, gens).is_zero()


# ---------------------------------------------------------------------------
# kernel membership for the level-N genera
# ---------------------------------------------------------------------------


def kernel_membership(name, models, N):
    """Which of the manifolds lie in the kernel of the level-N genus?

    name = "phi_tilde_N": reduce phi_ell(X) modulo <R_{N-1}, R_{N+1}>.
    name = "a_tilde_N": reduce the two-variable A-tilde value modulo
    <T_{N-1}> in Q[A, B].
    The genus, at the largest dimension among the models, and the ideal
    are built once.  Returns [(is_zero, reduced_value)], one per model.
    """
    order = max(1, *(X.dim for X in models))
    if name == "phi_tilde_N":
        spec = phi_ell(order)
        data = compute_level_data(N)
        gens = [data.r_lower, data.r_upper]
    elif name == "a_tilde_N":
        spec = classical_genus("a_tilde", order=order)
        gens = [t_poly(N)]
    else:
        raise ValueError(f"unknown kernel name {name!r}")
    reduced = [reduce_mod_ideal(evaluate(spec, X), gens) for X in models]
    return [(r.is_zero(), r) for r in reduced]


# ---------------------------------------------------------------------------
# the two level-2 modular forms
# ---------------------------------------------------------------------------


def level2_modular_forms(qorder):
    """(delta, epsilon) as exact q-expansions to the given order.

    delta = 1/4 + 6 sum_n (sum of odd divisors of n) q^n
    epsilon = (1/16) prod_n ((1 - q^n)/(1 + q^n))^8
            = (1/16) exp(-16 sum_e q^e sum_{m | e, m odd} 1/m),
    because log((1 - q^n)/(1 + q^n)) = -2 sum_{m odd} q^(nm)/m.
    """
    if qorder < 1:
        raise ValueError("qorder must be >= 1")

    def odd_divisors(n):
        return [d for d in range(1, n + 1, 2) if n % d == 0]

    delta = TruncatedSeries.from_function(
        QQ,
        lambda n: Fraction(6 * sum(odd_divisors(n))) if n else Fraction(1, 4),
        qorder,
    )
    log_eps = TruncatedSeries.from_function(
        QQ, lambda e: -16 * sum((Fraction(1, m) for m in odd_divisors(e)),
                                Fraction(0)),
        qorder,
    )
    return delta, log_eps.exp() * Fraction(1, 16)
