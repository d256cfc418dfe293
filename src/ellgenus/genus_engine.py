"""Genera as ring homomorphisms on complex cobordism.

A GenusSpec is a characteristic power series Q(x) = 1 + a_1 x + ...
over a coefficient ring, given and stored by its logarithm
log Q = sum_m l_m x^m.  Every value is read in power sums:
K(TX) = prod_i Q(x_i) = exp(sum_m l_m p_m), paired with the power-sum
numbers of X, or of a class u of X for <K(TX) u, [X]>.  The
multiplicative sequence K_0, K_1, ... (that exponential as a series
graded by Chern weight) serves criterion 1 and the tests' oracle of
those values, and the genus logarithm g gives the formal group law
F(u, v) = f(g(u) + g(v)).  The classical genera (Todd, twisted Todd,
signature, A-hat, Euler and the two-variable A-tilde) are given by
closed-form logarithms in b_n = B_n/n!, the coefficients of
x/(e^x - 1); chi_y by the log of Q(x) = x + u/(e^u - 1) with
u = (1 + y) x.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, prod

from .algebra_kernel import (
    BadValuation,
    QQ,
    TruncatedSeries,
    _fr,
    coeff_is_zero,
)

# chi_y specialization points; the Euler characteristic is chi_y at y = -1
# and the signature is chi_y at y = 1.
EULER_POINT = Fraction(-1)
SIGNATURE_POINT = Fraction(1)


class DimensionMismatch(ValueError):
    pass


class BadParams(ValueError):
    pass


class GenusSpec:
    """A genus given by its logarithm log Q(x) = sum_m l_m x^m, from
    log_coeffs = [0, l_1, ..., l_order] over the coefficient ring.

    Evaluation, the multiplicative sequence and every other reader of
    the genus take the l_m alone.  The characteristic series
    Q(x) = x / f(x), f_series = x/Q and its compositional inverse
    log_series, which the formal group law reads, are computed on first
    access.
    """

    def __init__(self, ring, log_coeffs, name="genus"):
        if not coeff_is_zero(log_coeffs[0]):
            raise BadValuation("log Q must have zero constant term")
        self.ring = ring
        self.log_coeffs = [ring.zero] + list(log_coeffs[1:])
        self.order = len(log_coeffs) - 1
        self.name = name

    @cached_property
    def q(self):
        """Q(x) = exp(l_1 x) exp(sum_{m>=2} l_m x^m): the first factor
        has the coefficients l_1^j / j!, so the exponential runs on l_2,
        l_3, ... alone, which for the universal genus are free of A."""
        ring, order, logs = self.ring, self.order, self.log_coeffs
        e = [ring.one]
        for j in range(1, order + 1):
            e.append(e[-1] * logs[1] * Fraction(1, j))
        tail = TruncatedSeries(ring, [ring.zero] * 2 + logs[2:], order).exp()
        return TruncatedSeries(ring, e, order) * tail

    # -- derived series -----------------------------------------------------

    @cached_property
    def f_series(self):
        """f(x) = x / Q(x), the inverse of the genus logarithm: 1/Q
        moved up one place."""
        return TruncatedSeries(self.ring, [self.ring.zero]
                               + self.q.inverse().coeffs, self.order)

    @cached_property
    def log_series(self):
        """The genus logarithm g(y) with f(g(y)) = y."""
        return self.f_series.compose_inverse()

    def __repr__(self):
        return f"<GenusSpec {self.name}, order {self.order}>"


def multiplicative_sequence(spec, n):
    """[K_0, ..., K_n] for the genus: K_m maps each partition of m (the
    monomial prod c_{p_i}) to its coefficient, and K_0 = 1.

    sum_i log Q(x_i) = sum_m L_m with L_m = l_m p_m(c) of Chern weight m,
    p_m the power sum in c_1..c_m; prod_i Q(x_i) = sum_m K_m(c_1..c_m)
    is its exponential, taken as a series graded by that weight in
    spec.ring[c_1..c_n], c_i of weight i.
    """
    if n > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, need {n}"
        )
    from .cohomology_models import power_sums_in_chern
    from .weighted_poly import PolyRing, WeightedPoly

    ring = PolyRing(*((f"c{i}", i) for i in range(1, n + 1)), base=spec.ring)
    logs = [ring.zero] + [
        WeightedPoly(ring, {tuple(part.count(i) for i in range(1, n + 1)):
                            lm * c for part, c in pm.items()})
        for lm, pm in zip(spec.log_coeffs[1:], power_sums_in_chern(n)[1:])]
    return [{tuple(i for i in range(n, 0, -1) for _ in range(e[i - 1])): c
             for e, c in km.terms.items()}
            for km in TruncatedSeries(ring, logs, n).exp().coeffs]


def evaluate(spec, x, u=None):
    """Genus value <K(TX) u, [X]> on a ChernVector or CohomologyModel,
    u a class of the model (default 1, the genus of X) with rational
    coefficients or coefficients in spec.ring, such as q-series: the
    sum over the degrees d of u and the partitions lambda of dim - d of
    l_lambda s_lambda / prod_j m_j!, with l_lambda = prod_i l_(lambda_i)
    over the parts with l_m != 0, s_lambda = <u_d p_lambda, [X]> the
    power-sum number and m_j the multiplicity of j.  Each
    l_(lambda_k, ...) is one product from l_(lambda_(k+1), ...), and the
    terms of one largest part lambda_1 are summed before l_(lambda_1)."""
    from .cohomology_models import power_sum_numbers

    if x.dim > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, manifold dim {x.dim}"
        )
    ring, logs = spec.ring, spec.log_coeffs
    numbers = power_sum_numbers(
        x, [m for m in range(1, x.dim + 1) if not coeff_is_zero(logs[m])],
        u)
    prods = {(): ring.one}  # a tail of lambda -> l_tail
    groups = {}  # (lambda_1,) -> [(l_(lambda_2, ...), s_lambda / prod m_j!)]
    for part, s in numbers.items():
        tail = part[1:]
        for j in range(len(tail) - 1, -1, -1):
            if tail[j:] not in prods:
                prods[tail[j:]] = logs[tail[j]] * prods[tail[j + 1:]]
        groups.setdefault(part[:1], []).append((prods[tail], s * Fraction(
            1, prod(factorial(part.count(m)) for m in set(part)))))
    return ring.dot((logs[top[0]] if top else ring.one, ring.dot(pairs))
                    for top, pairs in groups.items())


def formal_group_law(spec, order=None):
    """F(u, v) = f(g(u) + g(v)) in spec.ring[u, v], capped at total
    degree order."""
    from .weighted_poly import PolyRing, horner

    if order is None:
        order = spec.order
    if order > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, need {order}"
        )
    u, v = (x.truncate(order)
            for x in PolyRing("u", "v", base=spec.ring).gens())
    g, f = ([s.coeff(e) for e in range(s.order + 1)]
            for s in (spec.log_series, spec.f_series))
    return horner(f, horner(g, u) + horner(g, v))


# ---------------------------------------------------------------------------
# classical genera
# ---------------------------------------------------------------------------


def _bernoulli_over_factorial(order):
    """[b_0, ..., b_order] with x/(e^x - 1) = sum_n b_n x^n, b_n = B_n/n!."""
    return TruncatedSeries.from_function(
        QQ, lambda e: Fraction(1, factorial(e + 1)), order).inverse().coeffs


def _todd_type(name, order, l1=QQ.zero, scale=lambda _: -1, ring=QQ):
    """The genus with log Q(x) = l_1 x + sum_k scale(k) b_2k x^2k / (2k).

    With l_1 = 1/2 and scale -1 it is the Todd genus:
    log x/(1 - e^{-x}) = x/2 - sum_k b_2k x^2k / (2k).
    """
    b = _bernoulli_over_factorial(order)
    logs = [ring.zero] * (order + 1)
    if order >= 1:
        logs[1] = l1
    for m in range(2, order + 1, 2):
        logs[m] = scale(m // 2) * (b[m] / m)
    return GenusSpec(ring, logs, name)


def _chi_y_genus(ring, y, order, name):
    """The genus with Q(x) = x + u/(e^u - 1), u = (1 + y) x, for y in
    ring: a_0 = 1, a_1 = (1 - y)/2 and a_n = b_n (1 + y)^n; its log is
    taken once, here."""
    b = _bernoulli_over_factorial(order)
    one_plus_y = ring.one + y
    coeffs = [ring.one, (ring.one - y) * Fraction(1, 2)]
    power = one_plus_y
    for n in range(2, order + 1):
        power = power * one_plus_y
        coeffs.append(power * b[n])
    return GenusSpec(ring, TruncatedSeries(ring, coeffs, order).log().coeffs,
                     name)


def classical_genus(name, params=None, order=12):
    """A GenusSpec for a classical genus.

    Supported names: todd, signature, a_hat, euler, chi_y (optionally with
    params={"y": value} to specialize), chi_KkN (params k, N: the twisted
    Todd genus x/(1-e^{-x}) e^{-(k/N)x}), a_tilde (over Q[A, B]).
    """
    params = params or {}
    name = name.strip().lower()
    if name == "todd":
        return _todd_type("todd", order, Fraction(1, 2))
    if name == "chi_kkn":
        try:
            k = Fraction(params["k"])
            N = Fraction(params["N"])
        except KeyError as exc:
            raise BadParams("chi_KkN needs params k and N") from exc
        if N == 0:
            raise BadParams("N must be nonzero")
        # the Todd genus times e^{-(k/N) x}
        return _todd_type(f"chi(.,K^{k}/{N})", order, Fraction(1, 2) - k / N)
    if name == "signature":
        # x/tanh(x) = A-hat(2x)^2 / A-hat(4x)
        return _todd_type("signature", order,
                          scale=lambda k: 16 ** k - 2 * 4 ** k)
    if name == "a_hat":
        # (x/2)/sinh(x/2): the Todd genus times e^{-x/2}
        return _todd_type("a_hat", order)
    if name == "euler":
        # chi_y at y = EULER_POINT: Q(x) = 1 + x, K_n = c_n
        return GenusSpec(QQ, [QQ.zero] + [Fraction((-1) ** (m + 1), m)
                                          for m in range(1, order + 1)],
                         name="euler")
    if name == "chi_y":
        if "y" in params:
            yval = _fr(params["y"])
            return _chi_y_genus(QQ, yval, order, f"chi_y(y={yval})")
        from .weighted_poly import PolyRing

        ring = PolyRing(("y", 1))
        return _chi_y_genus(ring, ring.gen("y"), order, "chi_y")
    if name == "a_tilde":
        # e^{(A/2) x} w/sinh(w) with w = sqrt(B/2) x/2, so w^2 = B x^2/8
        from .weighted_poly import PolyRing

        ring = PolyRing(("A", 1), ("B", 2))
        A, B = ring.gens()
        return _todd_type("a_tilde", order, A * Fraction(1, 2),
                          lambda k: B ** k * Fraction(-1, 2 ** k), ring)
    from .cohomology_models import UnknownName

    raise UnknownName(name)
