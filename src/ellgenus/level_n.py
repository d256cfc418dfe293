"""Level-N structure of the elliptic genus.

For each N >= 2 the function f of the universal genus satisfies a
first-order equation 1/f^N + d_2N f^N = P_N(f'/f) with P_N monic of
degree N.  Expanding that equation as a Laurent series determines the
coefficients d_1..d_N and d_2N triangularly and leaves constraint
polynomials in q_1..q_4; the Zolotarev condition d_{N-1} = 0 together
with the first surviving constraint give the two relations R_{N-1} and
R_{N+1} cutting out the level-N curve in Q[A, B, C, D].  The module also
provides the resultant eliminating A, weighted Poincare series with
their degree h_0, cusp points, the C = D = 0 relation T_{N-1}, kernel
membership tests, and the two level-2 modular forms delta and epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra_kernel import (
    Localization,
    PolyRing,
    QQ,
    TruncatedSeries,
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


def to_abcd_coords(poly):
    """Transport a polynomial in q1..q4 to A, B, C, D coordinates."""
    images = dict(zip(Q_RING.names, abcd_to_q(ABCDPoint.generic())))
    return poly.substitute(images, ring=ABCD_RING)


def to_q_coords(poly):
    """Transport a polynomial in A, B, C, D to q1..q4 coordinates."""
    images = dict(zip(("A", "B", "C", "D"), q_to_abcd(QuarticData.generic())))
    return poly.substitute(images, ring=Q_RING)


class LevelNData:
    """P_N data and the two relations for one level N.

    d: dict i -> d_i (WeightedPoly in q1..q4, weight i), i = 1..N
    d2N: WeightedPoly of weight 2N
    constraints: list of (k, poly) — the Laurent coefficient of x^k of the
        expanded equation, for every k whose coefficient is not consumed
        as a definition; each poly has weight N + k
    r_lower, r_upper: the normalized relations in A, B, C, D (weights
        N-1 and N+1)
    """

    def __init__(self, N, order, d, d2N, constraints, r_lower, r_upper):
        self.N = N
        self.order = order
        self.d = d
        self.d2N = d2N
        self.constraints = constraints
        self.r_lower = r_lower
        self.r_upper = r_upper

    def r_lower_q(self):
        return to_q_coords(self.r_lower)

    def r_upper_q(self):
        return to_q_coords(self.r_upper)

    def __repr__(self):
        return f"<LevelNData N={self.N}>"


def compute_level_data(N, order=None):
    """Solve 1/f^N + d_2N f^N = P_N(f'/f) over Q[q1..q4] and extract
    the relations R_{N-1} and R_{N+1}.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if order is None:
        order = 2 * N + 4
    if order < 2 * N + 2:
        raise InsufficientOrder(f"need order >= {2 * N + 2}, got {order}")
    S = QuarticData.generic()
    h = solve_h(S, order)
    spec = q_of_h(h)
    f = spec.f_series()
    f_inv = f.inverse()
    fN = f ** N
    fmN = f_inv ** N
    hp = [None] * (N + 1)
    hp[0] = TruncatedSeries.one_series(Q_RING, h.order)
    for j in range(1, N + 1):
        hp[j] = hp[j - 1] * h

    # accumulate P_N(h) - f^{-N}; the Laurent coefficient at x^{-N+i}
    # defines d_i because h^{N-i} = x^{-(N-i)} + ...
    acc = hp[N] - fmN
    d = {}
    for i in range(1, N + 1):
        di = -acc.coeff(-N + i)
        d[i] = di
        acc = acc + hp[N - i] * di
    d2N = acc.coeff(N)
    E = acc - fN * d2N

    constraints = []
    for k in range(1, E.order + 1):
        if k == N:
            continue
        c = E.coeff(k)
        if not c.is_zero():
            constraints.append((k, c))

    # R_{N-1}: the Zolotarev condition d_{N-1} = 0, normalized so the
    # A^{N-1} coefficient is 1
    r_lower = to_abcd_coords(d[N - 1])
    lead_exp = (N - 1, 0, 0, 0)
    alpha = r_lower.coeff(lead_exp)
    if alpha == 0:
        raise ArithmeticError("missing leading A power in R_{N-1}")
    r_lower = r_lower * (1 / alpha)

    # R_{N+1}: first constraint, with the A^{N+1} and A^{N-1} B monomials
    # removed by subtracting multiples of R_{N-1}, then made monic in the
    # graded lexicographic order
    first = next((c for k, c in constraints if k == 1), None)
    if first is None:
        raise ArithmeticError("no weight-(N+1) constraint found")
    r_upper = to_abcd_coords(first)
    A, B, _, _ = ABCD_RING.gens()
    r_upper = r_upper - A * A * r_lower * r_upper.coeff((N + 1, 0, 0, 0))
    r_upper = r_upper - B * r_lower * r_upper.coeff((N - 1, 1, 0, 0))
    r_upper = r_upper.monic()
    return LevelNData(N, order, d, d2N, constraints, r_lower, r_upper)


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


def _reduce_vector(rows, vec):
    """Reduce vec against the row space of rows (exact Gauss-Jordan)."""
    work = [list(r) for r in rows]
    n = len(vec)
    vec = list(vec)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                fct = work[i][c]
                work[i] = [a - fct * b for a, b in zip(work[i], work[r])]
        if vec[c] != 0:
            fct = vec[c]
            vec = [a - fct * b for a, b in zip(vec, work[r])]
        r += 1
    return vec


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
