"""Level-N structure of the elliptic genus.

For each N >= 2 the function f of the universal genus satisfies a
first-order equation 1/f^N + d_2N f^N = P_N(f'/f) with P_N monic of
degree N.  Expanding that equation as a Laurent series determines the
coefficients d_1..d_N and d_2N triangularly and leaves constraints; the
Zolotarev condition d_{N-1} = 0 together with the first constraint give
the two relations R_{N-1} and R_{N+1} cutting out the level-N curve in
Q[A, B, C, D].  Both are weighted homogeneous, so the expansion runs over
QQ at rational points (1, b, c, d) and the relations are interpolated
exactly on their weighted monomial support.  The module also
provides the resultant eliminating A, weighted Poincare series with
their degree h_0, cusp points, the C = D = 0 relation T_{N-1}, kernel
membership tests, and the two level-2 modular forms delta and epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product
from math import prod

from .algebra_kernel import (
    Localization,
    PolyRing,
    QQ,
    TruncatedSeries,
    WeightedPoly,
    cyclotomic_polynomial,
    resultant_in,
)
from .genus_engine import classical_genus, evaluate
from .jacobi_q import y_model
from .universal_elliptic import (
    ABCD_RING,
    ABCDPoint,
    Q_RING,
    QuarticData,
    abcd_to_q,
    phi_ell,
    q_of_h,
    q_to_abcd,
    solve_h,
)

AB_RING = PolyRing(("A", 1), ("B", 2))


class InsufficientOrder(ValueError):
    pass


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
    order: the truncation order of the ODE solution they were read from
    """

    def __init__(self, N, order, r_lower, r_upper):
        self.N = N
        self.order = order
        self.r_lower = r_lower
        self.r_upper = r_upper

    def r_lower_q(self):
        return to_q_coords(self.r_lower)

    def r_upper_q(self):
        return to_q_coords(self.r_upper)

    def __repr__(self):
        return f"<LevelNData N={self.N}>"


def _slice_points():
    """Integer points (b, c, d) of growing height max(|b|, |c|, |d|)."""
    for height in count():
        for p in product(range(-height, height + 1), repeat=3):
            if max(map(abs, p)) == height:
                yield tuple(Fraction(x) for x in p)


def _slice_row(support, point):
    """The monomials A^a B^b C^c D^d of support evaluated at (1, b, c, d);
    on a support of one weight these are distinct monomials in b, c, d."""
    b, c, d = point
    return [b ** e[1] * c ** e[2] * d ** e[3] for e in support]


def _unisolvent_points(support, points):
    """The first points, in order, whose rows raise the rank over support,
    until the square system on support is nonsingular."""
    basis, kept = [], []
    for p in points:
        if _echelon_insert(basis, _slice_row(support, p)):
            kept.append(p)
            if len(kept) == len(support):
                return kept
    raise ArithmeticError("points exhausted before the support was fixed")


def _point_values(N, order, point):
    """d_{N-1} and the x^1 coefficient of P_N(h) - f^-N - sum d_i h^(N-i)
    at the rational point (A, B, C, D) = (1, b, c, d), solved over QQ.

    The Laurent coefficient at x^{-N+i} defines d_i because h^{N-i} =
    x^{-(N-i)} + ...; f^N = x^N + ... has no x^1 term for N >= 2, so the
    x^1 coefficient is the first constraint without d_2N.
    """
    h = solve_h(abcd_to_q(ABCDPoint(Fraction(1), *point)), order)
    f = q_of_h(h).f_series()
    hp = [TruncatedSeries.one_series(QQ, h.order)]
    for _ in range(N):
        hp.append(hp[-1] * h)
    acc = hp[N] - f.inverse() ** N
    for i in range(1, N + 1):
        di = -acc.coeff(i - N)
        if i == N - 1:
            d_lower = di
        acc = acc + hp[N - i] * di
    return d_lower, acc.coeff(1)


def _interpolate(support, points, values):
    """The polynomial on support that takes values at (1, b, c, d) for each
    point; the points must make the square system nonsingular."""
    rows = [_slice_row(support, p) for p in points]
    coeffs = _solve(rows, values)
    return WeightedPoly(ABCD_RING, dict(zip(support, coeffs)))


def compute_level_data(N, order=None):
    """The relations R_{N-1} and R_{N+1} of 1/f^N + d_2N f^N = P_N(f'/f),
    by evaluation at rational points and exact interpolation.

    Both relations are weighted homogeneous (weights N-1 and N+1), so
    their values on the slice A = 1 fix them over a support known in
    advance.  At each point (1, b, c, d) the ODE is solved to the given
    order over QQ and the equation expanded there; the points come from
    an unbounded enumeration, each kept only if it raises the rank, so
    the square systems are nonsingular and their solutions exact.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if order is None:
        order = 2 * N + 4
    if order < 2 * N + 2:
        raise InsufficientOrder(f"need order >= {2 * N + 2}, got {order}")
    # at A = 1 the lower support's monomials are among the upper's, so a
    # point that raises the rank on the lower support raises it on the
    # upper one: the points for R_{N-1} are among those for R_{N+1}
    support_lo = ABCD_RING.monomials_of_weight(N - 1)
    support_up = ABCD_RING.monomials_of_weight(N + 1)
    points_up = _unisolvent_points(support_up, _slice_points())
    points_lo = _unisolvent_points(support_lo, points_up)
    values = {p: _point_values(N, order, p) for p in points_up}

    # R_{N-1}: the Zolotarev condition d_{N-1} = 0, normalized so the
    # A^{N-1} coefficient is 1
    r_lower = _interpolate(support_lo, points_lo,
                           [values[p][0] for p in points_lo])
    alpha = r_lower.coeff((N - 1, 0, 0, 0))
    if alpha == 0:
        raise ArithmeticError("missing leading A power in R_{N-1}")
    r_lower = r_lower * (1 / alpha)

    # R_{N+1}: the first constraint, with the A^{N+1} and A^{N-1} B
    # monomials removed by subtracting multiples of R_{N-1}, then made
    # monic in the graded lexicographic order
    r_upper = _interpolate(support_up, points_up,
                           [values[p][1] for p in points_up])
    if r_upper.is_zero():
        raise ArithmeticError("no weight-(N+1) constraint found")
    A, B, _, _ = ABCD_RING.gens()
    r_upper = r_upper - A * A * r_lower * r_upper.coeff((N + 1, 0, 0, 0))
    r_upper = r_upper - B * r_lower * r_upper.coeff((N - 1, 1, 0, 0))
    r_upper = r_upper.monic()
    return LevelNData(N, order, r_lower, r_upper)


def eliminate(data, coords="abcd"):
    """res_A(R_{N-1}, R_{N+1}) in Q[B,C,D] (or the q-coordinate analogue,
    eliminating q1)."""
    if coords == "abcd":
        return resultant_in(data.r_lower, data.r_upper, "A")
    if coords == "q":
        return resultant_in(data.r_lower_q(), data.r_upper_q(), "q1")
    raise ValueError("coords must be 'abcd' or 'q'")


# ---------------------------------------------------------------------------
# graded ideal bookkeeping: Poincare series and degree
# ---------------------------------------------------------------------------


class GradedIdealPresentation:
    """Ambient variable weights and the degrees of a regular sequence of
    generators of a graded ideal."""

    def __init__(self, weights, degrees):
        self.weights = tuple(int(w) for w in weights)
        self.degrees = tuple(int(r) for r in degrees)


def poincare_series(pres):
    """P_I(t) = prod (1 - t^{r_j}) / prod (1 - t^{d_i}).

    It lives in Q[t] localised at Phi_d(t) for every d dividing a weight,
    where each 1 - t^{d_i} is a unit; Phi_1 = t - 1 comes first.
    """
    ds = sorted({d for w in pres.weights for d in range(1, w + 1)
                 if w % d == 0})
    t = Localization([cyclotomic_polynomial(d) for d in ds], "t").gen()
    out = t.ring.one
    for r in pres.degrees:
        out = out * (1 - t ** r)
    for w in pres.weights:
        out = out / (1 - t ** w)
    return out


def degree_h0(pres):
    """h_0 = Q~(1) with Q~(t) = P_I(t) (1-t)^kdim prod_i (1 + t + ... +
    t^{d_i - 1}); the multiplicity of the quotient ring.

    P_I must have a pole of order kdim at t = 1, its exponent of
    Phi_1 = t - 1, which (1-t)^kdim cancels up to (-1)^kdim; the rest of
    P_I is regular at t = 1, where each 1 + ... + t^{d_i - 1} is d_i.
    """
    p = poincare_series(pres)
    kdim = len(pres.weights) - len(pres.degrees)
    if p.exps[0] != kdim:
        raise WrongPoleOrder("pole order at t=1 does not match the Krull "
                             "dimension")
    rest = p.ring.element(p.num, (0,) + p.exps[1:])
    return rest.evaluate(1) * (-1) ** kdim * prod(pres.weights)


# ---------------------------------------------------------------------------
# cusps and the C = D = 0 relation
# ---------------------------------------------------------------------------


def cusp_points(N):
    """The two families of cusp values of (A, B, C, D) at level N.

    Type (i): A = 2(1/2 - k/N), B = 2, C = D = 0 for k = 1..N-1, over Q.
    Type (ii): A = (1-y)/(1+y), B = 2(y^2-10y+1)/(1+y)^2,
    C = y(y-1)/(1+y)^3, D = y(-y^2+4y-1)/(1+y)^4 with -y a primitive d-th
    root of unity, over Q[y] modulo the minimal polynomial of y, for each
    divisor d > 1 of N.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    points = []
    for k in range(1, N):
        A = 2 * (Fraction(1, 2) - Fraction(k, N))
        points.append(ABCDPoint(A, Fraction(2), Fraction(0), Fraction(0)))
    for dvs in range(2, N + 1):
        if N % dvs:
            continue
        ring, y = y_model(dvs)
        one = ring.one
        u = (one + y).inverse()
        A = (one - y) * u
        B = (y * y - 10 * y + one) * 2 * u * u
        C = y * (y - one) * u * u * u
        D = y * (-(y * y) + 4 * y - one) * u * u * u * u
        points.append(ABCDPoint(A, B, C, D, ring=ring))
    return points


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


def _solve(rows, values):
    """The unique x with rows x = values for a nonsingular square system,
    by Gauss-Jordan on the augmented rows."""
    n = len(rows)
    basis = []
    for row, v in zip(rows, values):
        _echelon_insert(basis, list(row) + [v])
    if sorted(c for c, _ in basis) != list(range(n)):
        raise ArithmeticError("singular interpolation system")
    return [row[-1] for _, row in sorted(basis, key=lambda cr: cr[0])]


def in_ideal(v, gens):
    return reduce_mod_ideal(v, gens).is_zero()


# ---------------------------------------------------------------------------
# kernel membership for the level-N genera
# ---------------------------------------------------------------------------

_phi_cache = {}
_level_cache = {}


def _phi(order):
    if order not in _phi_cache:
        _phi_cache[order] = phi_ell(order)
    return _phi_cache[order]


def _level(N):
    if N not in _level_cache:
        _level_cache[N] = compute_level_data(N)
    return _level_cache[N]


def kernel_membership(name, X, N, order=None):
    """Does X lie in the kernel of the level-N genus?

    name = "phi_tilde_N": reduce phi_ell(X) modulo <R_{N-1}, R_{N+1}>.
    name = "a_tilde_N": reduce the two-variable A-tilde value modulo
    <T_{N-1}> in Q[A, B].
    Returns (is_zero, reduced_value).
    """
    from .cohomology_models import chern_vector

    cv = chern_vector(X)
    if order is None:
        order = max(cv.dim, 4)
    if name == "phi_tilde_N":
        v = evaluate(_phi(order), cv)
        data = _level(N)
        reduced = reduce_mod_ideal(v, [data.r_lower, data.r_upper])
        return reduced.is_zero(), reduced
    if name == "a_tilde_N":
        spec = classical_genus("a_tilde", order=order)
        v = evaluate(spec, cv)
        reduced = reduce_mod_ideal(v, [t_poly(N)])
        return reduced.is_zero(), reduced
    raise ValueError(f"unknown kernel name {name!r}")


# ---------------------------------------------------------------------------
# the two level-2 modular forms
# ---------------------------------------------------------------------------


def level2_modular_forms(qorder):
    """(delta, epsilon) as exact q-expansions to the given order.

    delta = 1/4 + 6 sum_n (sum of odd divisors of n) q^n
    epsilon = (1/16) prod_n ((1 - q^n)/(1 + q^n))^8
    """
    if qorder < 1:
        raise ValueError("qorder must be >= 1")

    def odd_divisor_sum(n):
        return sum(d for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)

    delta = TruncatedSeries.from_function(
        QQ,
        lambda n: Fraction(1, 4) if n == 0 else Fraction(6 * odd_divisor_sum(n)),
        qorder,
    )
    eps = TruncatedSeries.one_series(QQ, qorder) * Fraction(1, 16)
    for n in range(1, qorder + 1):
        factor = TruncatedSeries.from_function(
            QQ,
            lambda e: Fraction(1) if e == 0 else
            (Fraction(-1) if e == n else Fraction(0)),
            qorder,
        )
        inv_factor = TruncatedSeries.from_function(
            QQ,
            lambda e: Fraction(1) if e == 0 else
            (Fraction(1) if e == n else Fraction(0)),
            qorder,
        ).inverse()
        eps = (eps * (factor * inv_factor) ** 8).truncate(qorder)
    return delta, eps
