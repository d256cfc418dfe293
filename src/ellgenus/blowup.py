"""Blow-up behavior of genera.

For a blow-up X~ -> X along a center Y of codimension q, the change of
the genus is supported on Y: with Q the characteristic series, x_i the
Chern roots of the normal bundle E, and v = x_1,

    phi(X~) - phi(X)
        = K_phi(TY) . p_* ( (Q(v) prod_{i>=2} Q(x_i - v)
                             - prod_i Q(x_i)) / v ) [Y],

where p_* is the pushforward from the projective bundle P(E).  Because
Q(0) = 1 the integrand is G(v) = Q(v) prod_{i=1..q} Q(x_i - v), which is
symmetric in all the roots, so the computation runs in the Chern classes
e_1..e_q of E and never forms the roots: log G is linear in the power
sums, G is its graded exponential, and p_* sends v^(q-1+k) to
(-1)^(q-1) h_k(E), a Segre class.  No model of the blown-up space is
ever built.  The module also verifies the two residue identities behind
level-N invariance: the rational identity
sum_i prod_{j != i} x_j/(x_j - x_i) = 1, and its elliptic analogue for
the level-N series when q = 1 mod N, which says that the same
pushforward vanishes identically.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra_kernel import TruncatedSeries, coeff_is_zero
from .cohomology_models import (
    chern_monomials,
    cp_model,
    point_model,
    power_sums_in_chern,
)
from .genus_engine import multiplicative_class
from .jacobi_q import phi_ell_q
from .weighted_poly import PolyRing, WeightedPoly


class DegenerateSample(ValueError):
    pass


class TruncationTooLow(ValueError):
    pass


class BlowupInput:
    """Center model, normal-bundle Chern roots, and the genus to apply.

    roots are degree-1 (complex degree) elements of the center's model;
    their number is the codimension q of the center.
    """

    def __init__(self, center, roots, spec):
        if not roots:
            raise ValueError("codimension must be >= 1")
        for r in roots:
            for label in r:
                if center.degree[label] != 1:
                    raise ValueError("normal-bundle roots must have degree 1")
        self.center = center
        self.roots = list(roots)
        self.spec = spec

    @property
    def codim(self):
        return len(self.roots)


# ---------------------------------------------------------------------------
# projective-bundle pushforward
# ---------------------------------------------------------------------------


def projective_pushforward(t, q):
    """Pushforward from the projective bundle P(E) of a rank-q bundle E.

    t is a polynomial in v, e_1..e_q (the first variable of its ring is
    v, the others the Chern classes of E), read as a class on P(E) with
    v = x_1.  The pushforward is linear over the e's, and

        p_*(v^(q-1+k)) = (-1)^(q-1) h_k(E),

    h_k the complete homogeneous function of the roots, so that
    h_k = (-1)^k s_k(E) with s(E) = 1/c(E) the Segre classes (Fulton,
    Intersection Theory, 3.1); lower powers of v push forward to 0.  The
    result is a polynomial in e_1..e_q over the same base.
    """
    ering = PolyRing(*t.ring.variables[1:], base=t.ring.base)
    by_power = {}
    for e, c in t.terms.items():
        if e[0] >= q - 1:
            by_power.setdefault(e[0] - q + 1, {})[e[1:]] = c
    # h_k = sum_{i=1..min(k,q)} (-1)^(i-1) e_i h_{k-i}
    es = ering.gens()
    hs = [ering.one]
    for k in range(1, max(by_power, default=0) + 1):
        hs.append(ering.dot((es[i - 1] * (-1) ** (i - 1), hs[k - i])
                            for i in range(1, min(k, q) + 1)))
    out = ering.dot((WeightedPoly(ering, terms), hs[k])
                    for k, terms in by_power.items())
    return -out if q % 2 == 0 else out


# The benchmark's tracer (bench/tracer.py) times the pushforward under
# this name.
flag_pushforward = projective_pushforward


# ---------------------------------------------------------------------------
# the defect formula
# ---------------------------------------------------------------------------


def _defect_cap(q, dim):
    """Weight through which the integrand G is needed.

    Dividing by v and pushing forward lower the weight by q in total; the
    result is needed through weight dim.
    """
    return dim + q


def pushed_defect(spec, q, dim):
    """p_*((G(v) - G(0)) / v) through weight dim, a polynomial over
    spec.ring in the Chern classes e_1..e_q of the normal bundle.

    G(v) = Q(v) prod_{i=1..q} Q(x_i - v) is the blow-up integrand, since
    Q(x_1 - v) = Q(0) = 1 at v = x_1, and G(0) = prod_i Q(x_i).  It is
    built in spec.ring[v, e_1..e_q], e_i of weight i, through weight
    dim + q as the exponential of log G: with p_j the power sums of the
    roots in the e's (p_0 = q),

        log G = sum_m l_m (v^m + sum_j C(m, j) (-v)^(m-j) p_j).

    The classes e_i with i > dim vanish on a centre of dimension dim and
    are set to 0 in the p_j; a term carrying one has weight above dim
    after the pushforward, so the result through weight dim is exact in
    e_1..e_q, and a point centre's integrand is a series in v alone.
    """
    cap = _defect_cap(q, dim)
    if spec.order < cap:
        raise TruncationTooLow(
            f"genus truncation {spec.order} < required {cap}"
        )
    ring = PolyRing("v", *((f"e{i}", i) for i in range(1, q + 1)),
                    base=spec.ring)
    zeros = (0,) * q
    powers = [{zeros: q}] + [
        {tuple(part.count(i) for i in range(1, q + 1)): c
         for part, c in pj.items()}
        for pj in power_sums_in_chern(cap, min(q, dim))[1:]]
    logs = [ring.zero]  # logs[m] = L_m, the weight-m part of log G
    for n in range(1, cap + 1):
        ints = {(n,) + zeros: 1}  # from log Q(v)
        for j in range(n + 1):
            k = comb(n, j) * (-1) ** (n - j)
            for a, c in powers[j].items():
                ints[(n - j,) + a] = ints.get((n - j,) + a, 0) + k * c
        l_n = spec.log_coeffs[n]
        logs.append(WeightedPoly(ring, {e: l_n * k for e, k in ints.items()}))
    graded = TruncatedSeries(ring, 0, logs, cap).exp().coeffs
    # (G - G(0)) / v: drop the v-free terms, lower the power of v
    over_v = {(e[0] - 1,) + e[1:]: c
              for gn in graded for e, c in gn.terms.items() if e[0]}
    return projective_pushforward(WeightedPoly(ring, over_v), q)


def genus_defect(inp):
    """phi(blow-up of X along the center) - phi(X), computed over the center.

    The pushed defect is a polynomial in the Chern classes of the normal
    bundle E; each monomial e_1^a_1...e_q^a_q is the Chern monomial of the
    partition with a_i parts i, evaluated at c(E) = prod_i (1 + x_i).
    """
    model = inp.center
    spec = inp.spec
    q = inp.codim
    pushed = pushed_defect(spec, q, model.dim)
    chern_e = model.one_elt()
    for r in inp.roots:
        chern_e = model.mul(chern_e, model.add(model.one_elt(), r))
    monomial = chern_monomials(model, chern_e, q)
    total = model.zero_elt()
    for expo, c in pushed.terms.items():
        part = tuple(i for i in range(q, 0, -1) for _ in range(expo[i - 1]))
        total = model.add(total, model.scale(monomial(part), c))

    kclass = multiplicative_class(spec, model)
    value = model.integrate(model.mul(kclass, total))
    if isinstance(value, (int, Fraction)):  # empty integrand
        value = spec.ring.from_fraction(Fraction(value))
    return value


# ---------------------------------------------------------------------------
# the residue identities
# ---------------------------------------------------------------------------


def verify_rational_identity(q, samples):
    """sum_i prod_{j != i} x_j / (x_j - x_i) == 1 for distinct samples."""
    xs = [Fraction(s) for s in samples]
    if len(xs) != q:
        raise DegenerateSample("need exactly q sample points")
    if len(set(xs)) != q:
        raise DegenerateSample("sample points must be pairwise distinct")
    total = Fraction(0)
    for i in range(q):
        prod = Fraction(1)
        for j in range(q):
            if j != i:
                prod *= xs[j] / (xs[j] - xs[i])
        total += prod
    return total == 1


def verify_elliptic_identity(N, q, qorder=2, xorder=4):
    """The elliptic residue identity for the level-N series.

    The identity, in formal roots x_1..x_q with level-N q-series
    coefficients, is

        sum_i (1/f(x_i)) prod_{j != i} 1/f(x_j - x_i)
            - prod_i 1/f(x_i) = 0.

    With 1/f(x) = Q(x)/x and Q(0) = 1 the first sum is p_* of
    (Q(v)/v) prod_j Q(x_j - v), whose pole part prod_i Q(x_i)/v pushes
    forward to prod_i 1/f(x_i); so the identity says that pushed_defect
    vanishes.  It is checked as a polynomial in e_1..e_q through weight
    xorder - 1, which is equivalent because the e's are algebraically
    independent; setting e_i = 0 for i > xorder - 1 leaves that range
    exact, since every term with such an e_i lies above it.  Returns
    (holds, witness); witness is None or the first nonzero term
    (e-exponents, q-power, value) — the identity genuinely fails when q
    is not 1 mod N, so the hypothesis is reported, not assumed.
    """
    dim = xorder - 1
    spec = phi_ell_q(qorder, _defect_cap(q, dim), N)
    pushed = pushed_defect(spec, q, dim)
    for e in sorted(pushed.terms,
                    key=lambda t: (pushed.term_weight(t), t)):
        lowest = _first_nonzero(pushed.terms[e])
        if lowest is not None:
            return False, (e, *lowest)
    return True, None


def _first_nonzero(series):
    """(q-power, coefficient) of the lowest nonzero term, or None."""
    for n in range(series.low, series.order + 1):
        c = series.coeff(n)
        if not coeff_is_zero(c):
            return n, c
    return None


# ---------------------------------------------------------------------------
# level-N invariance report
# ---------------------------------------------------------------------------


def default_cases(N):
    """(label, center, normal-bundle roots, hypothesis met)."""
    point = point_model()
    if N == 2:
        # a line and a plane in CP4: normal bundles O(1)^3 and O(1)^2
        line, plane = cp_model(1), cp_model(2)
        h1 = line.scale(line.chern_class(1), Fraction(1, 2))
        h2 = plane.scale(plane.chern_class(1), Fraction(1, 3))
        return [
            ("point center, codim 3", point, [point.zero_elt()] * 3, True),
            ("CP1 center in CP4, codim 3", line, [h1] * 3, True),
            ("CP2 center in CP4, codim 2 (violates codim = 1 mod N)",
             plane, [h2] * 2, False),
        ]
    return [
        (f"point center, codim {N + 1}", point,
         [point.zero_elt()] * (N + 1), True),
    ]


def verify_blowup_invariance(N, qorder=2):
    """Defect of the level-N q-series genus on blow-up centers.

    The cases of default_cases cover codim = 1 mod N plus a
    violated-hypothesis negative control.  Each report entry carries the
    first nonzero q-coefficient as a witness when the defect does not
    vanish.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    report = []
    for label, center, roots, expect_zero in default_cases(N):
        q = len(roots)
        spec = phi_ell_q(qorder, max(_defect_cap(q, center.dim), 4), N)
        defect = genus_defect(BlowupInput(center, roots, spec))
        is_zero = defect.is_zero()
        lowest = None if is_zero else _first_nonzero(defect)
        witness = None if lowest is None else (lowest[0], repr(lowest[1]))
        report.append({
            "level": N,
            "case": label,
            "codim": q,
            "hypothesis_met": expect_zero,
            "defect_zero": is_zero,
            "ok": is_zero == expect_zero,
            "witness": witness,
        })
    return report
