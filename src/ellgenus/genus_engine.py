"""Genera as ring homomorphisms on complex cobordism.

A GenusSpec packages a characteristic power series Q(x) = 1 + a_1 x + ...
over a coefficient ring, given by Q itself or by log Q.  From it we
derive the genus logarithm g, the formal group law
F(u, v) = f(g(u) + g(v)), the multiplicative sequence
K_0, K_1, ... (via the power-sum route: sum_i log Q(x_i) = sum_m l_m p_m,
Newton's identities, then a graded exponential), and evaluation on Chern
vectors or cohomology models.  A catalog of classical genera (Todd,
signature, A-hat, chi_y, twisted Todd, and the two-variable A-tilde) is
provided in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial

from .algebra_kernel import (
    BadValuation,
    PolyRing,
    QQ,
    TruncatedSeries,
    _fr,
    coeff_is_zero,
    horner,
)
from .cohomology_models import (
    ChernVector,
    UnknownName,
    chern_vector,
    power_sum_in_chern,
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
    """A genus given by its characteristic series Q(x) = x / f(x).

    It is built from Q, whose constant term must be 1 (checked here), or
    by from_log_coeffs from log Q(x) = sum_m l_m x^m, whose exponential
    has constant term 1 by construction.  Whichever of q and log_coeffs
    was not given is computed once, on first access: log Q or exp of the
    log.  The multiplicative sequence reads only the log coefficients;
    f_series and the formal group law read Q.  Multiplicative sequences
    are cached on demand (pure data, safe to share).
    """

    def __init__(self, q_series, name="genus"):
        if q_series.low > 0 or q_series.coeff(0) != q_series.ring.one:
            raise BadValuation("characteristic series must start with 1")
        self.q = q_series
        self._init(q_series.ring, q_series.order, name)

    @classmethod
    def from_log_coeffs(cls, ring, log_coeffs, name="genus"):
        """The genus with log Q(x) = sum_m l_m x^m, from [0, l_1, ..., l_n]."""
        if not coeff_is_zero(log_coeffs[0]):
            raise BadValuation("log Q must have zero constant term")
        spec = cls.__new__(cls)
        spec.log_coeffs = [ring.zero] + list(log_coeffs[1:])
        spec._init(ring, len(log_coeffs) - 1, name)
        return spec

    def _init(self, ring, order, name):
        self.ring = ring
        self.order = order
        self.name = name
        self._ms_cache = {}

    @cached_property
    def q(self):
        """Q(x) = exp(sum_m l_m x^m)."""
        return TruncatedSeries(self.ring, 0, self.log_coeffs,
                               self.order).exp()

    @cached_property
    def log_coeffs(self):
        """[0, l_1, ..., l_order] with log Q(x) = sum_m l_m x^m."""
        logq = self.q.log()
        return [logq.coeff(m) if m >= 1 else self.ring.zero
                for m in range(self.order + 1)]

    # -- derived series -----------------------------------------------------

    def f_series(self):
        """f(x) = x / Q(x), the inverse of the genus logarithm."""
        x = TruncatedSeries.x_series(self.ring, self.order)
        return (x * self.q.inverse()).truncate(self.order)

    def log_series(self):
        """The genus logarithm g(y) with f(g(y)) = y."""
        return self.f_series().compose_inverse()

    def __repr__(self):
        return f"<GenusSpec {self.name}, order {self.order}>"


class MultiplicativeSequence:
    """K_0 = 1, K_1(c_1), ..., K_n(c_1..c_n) for a genus.

    Each K_m is a dict mapping a partition of m (a non-increasing tuple,
    standing for the monomial prod c_{p_i}) to its coefficient in the
    genus's coefficient ring.
    """

    def __init__(self, ring, ks):
        self.ring = ring
        self.ks = ks  # list of dicts, index = weight

    @property
    def n(self):
        return len(self.ks) - 1

    def evaluate(self, cv):
        """Pair K_dim against a ChernVector."""
        if cv.dim > self.n:
            raise DimensionMismatch(
                f"sequence computed to weight {self.n}, need {cv.dim}"
            )
        pairs = ((coeff, cv[part]) for part, coeff in self.ks[cv.dim].items())
        return self.ring.dot((c, v) for c, v in pairs if v)


def multiplicative_sequence(spec, n):
    """K_0..K_n for the genus, via log coefficients and Newton's identities.

    sum_i log Q(x_i) = sum_m L_m with L_m = l_m p_m(c) of Chern weight m;
    exponentiating in the ring graded by that weight gives
    prod_i Q(x_i) = sum_n K_n(c_1..c_n), by the graded exponential
    K_n = (1/n) sum_m m L_m K_{n-m}.
    """
    if n > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, need {n}"
        )
    if n in spec._ms_cache:
        return spec._ms_cache[n]
    ring = spec.ring
    # dlog[m] = m L_m as partition -> coefficient
    dlog = [None]
    for m in range(1, n + 1):
        lm = spec.log_coeffs[m]
        dlog.append({} if coeff_is_zero(lm) else
                    {part: lm * (m * c)
                     for part, c in power_sum_in_chern(m).items()})
    ks = [{(): ring.one}]
    for w in range(1, n + 1):
        buckets = {}
        for m in range(1, w + 1):
            for p1, c1 in dlog[m].items():
                for p2, c2 in ks[w - m].items():
                    p = tuple(sorted(p1 + p2, reverse=True))
                    buckets.setdefault(p, []).append((c1, c2))
        inv_w = Fraction(1, w)
        kw = {p: ring.dot(ps) * inv_w for p, ps in buckets.items()}
        ks.append({p: c for p, c in kw.items() if not coeff_is_zero(c)})
    ms = MultiplicativeSequence(ring, ks)
    spec._ms_cache[n] = ms
    return ms


def evaluate(spec, x):
    """Genus value on a ChernVector or CohomologyModel."""
    cv = chern_vector(x)
    if cv.dim > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, manifold dim {cv.dim}"
        )
    return multiplicative_sequence(spec, cv.dim).evaluate(cv)


def multiplicative_class(spec, model, chern_elt=None):
    """K(c) = sum_m K_m(c_1..c_m) as a model element (the total class).

    Computed directly from the log coefficients via Newton's identities
    applied to the model's Chern class (or any supplied total class c),
    so it works for arbitrary bundles, not just the tangent bundle.
    """
    c = model.chern if chern_elt is None else chern_elt
    top = min(model.dim, spec.order)
    cs = [model.degree_part(c, m) for m in range(top + 1)]
    # Newton: p_m = c_1 p_{m-1} - c_2 p_{m-2} + ... + (-1)^{m-1} m c_m
    ps = [model.zero_elt()]
    for m in range(1, top + 1):
        pm = model.scale(cs[m], Fraction((-1) ** (m - 1) * m))
        for i in range(1, m):
            t = model.mul(cs[i], ps[m - i])
            pm = model.add(pm, model.scale(t, Fraction((-1) ** (i - 1))))
        ps.append(pm)
    L = model.zero_elt()
    for m in range(1, top + 1):
        lm = spec.log_coeffs[m]
        if lm == spec.ring.zero:
            continue
        L = model.add(L, model.scale(ps[m], lm))
    K = model.one_elt()
    term = model.one_elt()
    for k in range(1, top + 1):
        term = model.mul(term, L)
        if not term:
            break
        K = model.add(K, model.scale(term, Fraction(1, factorial(k))))
    return K


def formal_group_law(spec, order=None):
    """F(u, v) = f(g(u) + g(v)) in spec.ring[u, v], capped at total
    degree order."""
    if order is None:
        order = spec.order
    if order > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, need {order}"
        )
    u, v = (x.truncate(order)
            for x in PolyRing("u", "v", base=spec.ring).gens())
    g, f = ([s.coeff(e) for e in range(s.order + 1)]
            for s in (spec.log_series(), spec.f_series()))
    return horner(f, horner(g, u) + horner(g, v))


# ---------------------------------------------------------------------------
# classical genera
# ---------------------------------------------------------------------------


def _todd_series(order, shift=Fraction(0)):
    """x/(1 - e^{-x}) * e^{shift * x} over Q."""
    x = TruncatedSeries.x_series(QQ, order + 1)
    expm = (-x).exp()  # e^{-x}
    one = TruncatedSeries.one_series(QQ, order + 1)
    denom = (one - expm).truncate(order + 1)  # valuation 1
    q = (x * denom.inverse()).truncate(order)
    if shift:
        sh = TruncatedSeries.from_function(
            QQ, lambda e: shift ** e / factorial(e), order
        )
        q = (q * sh).truncate(order)
    return q


def _z_over_sinh_z(order):
    """Coefficients of z/sinh(z) (even series) as a list up to z^order."""
    # sinh(z)/z = sum z^{2k} / (2k+1)!
    s = TruncatedSeries.from_function(
        QQ,
        lambda e: Fraction(1, factorial(e + 1)) if e % 2 == 0 else Fraction(0),
        order,
    )
    return s.inverse().truncate(order)


def _chi_y_series(order):
    """Q(x) for chi_y over Q[y], solved with exact division by (1 + y).

    Q(x) (1 - e^{-u}) = x (1 + y e^{-u}) with u = (1 + y) x; matching
    coefficients gives a triangular system whose pivot is (1 + y), and
    every division is exact in Q[y].
    """
    ring = PolyRing(("y", 1))
    y = ring.gen("y")
    one_plus_y = ring.one + y
    # coefficient of x^k in 1 - e^{-u}: (-1)^{k+1} (1+y)^k / k!  (k >= 1)
    lhs_c = [ring.zero] + [
        one_plus_y ** k * Fraction((-1) ** (k + 1), factorial(k))
        for k in range(1, order + 2)
    ]
    # coefficient of x^{n+1} in x (1 + y e^{-u})
    def rhs(n):
        if n == 0:
            return one_plus_y
        return y * ((-one_plus_y) ** n * Fraction(1, factorial(n)))

    a = [ring.one]
    for n in range(1, order + 1):
        # a_{n+1-k} lhs_k for k = 2..n+1
        acc = rhs(n) - ring.dot(zip(reversed(a), lhs_c[2:]))
        a.append(acc.exact_div(one_plus_y))
    return TruncatedSeries(ring, 0, a, order)


def _a_tilde_series(order):
    """Q(x) = e^{(A/2) x} * w/sinh(w), w = sqrt(B/2) x/2, over Q[A, B].

    w/sinh(w) is even in w, so only w^2 = B x^2 / 8 enters and the result
    is polynomial in A and B.
    """
    ring = PolyRing(("A", 1), ("B", 2))
    A, B = ring.gens()
    zs = _z_over_sinh_z(order)
    coeffs = []
    for e in range(order + 1):
        c = ring.zero
        # e^{(A/2)x} contributes (A/2)^j / j!, the even part (B/8)^k z-coeff
        for k in range(0, e // 2 + 1):
            j = e - 2 * k
            zc = zs.coeff(2 * k)
            if zc == 0:
                continue
            c = c + (A ** j) * (B ** k) * (
                Fraction(1, 2 ** j * factorial(j)) * zc * Fraction(1, 8 ** k)
            )
        coeffs.append(c)
    return TruncatedSeries(ring, 0, coeffs, order)


def classical_genus(name, params=None, order=12):
    """A GenusSpec for a classical genus.

    Supported names: todd, signature, a_hat, euler, chi_y (optionally with
    params={"y": value} to specialize), chi_KkN (params k, N: the twisted
    Todd genus x/(1-e^{-x}) e^{-(k/N)x}), a_tilde (over Q[A, B]).
    """
    params = params or {}
    name = name.strip().lower()
    if name == "todd":
        return GenusSpec(_todd_series(order), name="todd")
    if name == "chi_kkn":
        try:
            k = Fraction(params["k"])
            N = Fraction(params["N"])
        except KeyError as exc:
            raise BadParams("chi_KkN needs params k and N") from exc
        if N == 0:
            raise BadParams("N must be nonzero")
        return GenusSpec(_todd_series(order, shift=-k / N),
                         name=f"chi(.,K^{k}/{N})")
    if name == "signature":
        # x/tanh(x) = x cosh(x)/sinh(x)
        sinh_over_x = TruncatedSeries.from_function(
            QQ,
            lambda e: Fraction(1, factorial(e + 1)) if e % 2 == 0 else
            Fraction(0),
            order,
        )
        cosh = TruncatedSeries.from_function(
            QQ,
            lambda e: Fraction(1, factorial(e)) if e % 2 == 0 else Fraction(0),
            order,
        )
        return GenusSpec((cosh * sinh_over_x.inverse()).truncate(order),
                         name="signature")
    if name == "a_hat":
        # (x/2)/sinh(x/2): substitute z = x/2 in z/sinh(z)
        zs = _z_over_sinh_z(order)
        q = TruncatedSeries.from_function(
            QQ, lambda e: zs.coeff(e) / 2 ** e, order
        )
        return GenusSpec(q, name="a_hat")
    if name == "euler":
        # chi_y at y = EULER_POINT: Q(x) = 1 + x, K_n = c_n
        one = TruncatedSeries.one_series(QQ, order)
        x = TruncatedSeries.x_series(QQ, order)
        return GenusSpec(one + x, name="euler")
    if name == "chi_y":
        q = _chi_y_series(order)
        if "y" in params:
            yval = _fr(params["y"])
            coeffs = [c.substitute({"y": yval}) for c in q.coeffs]
            return GenusSpec(TruncatedSeries(QQ, 0, coeffs, order),
                             name=f"chi_y(y={yval})")
        return GenusSpec(q, name="chi_y")
    if name == "a_tilde":
        return GenusSpec(_a_tilde_series(order), name="a_tilde")
    raise UnknownName(name)
