"""Blow-up behavior of genera.

For a blow-up X~ -> X along a center Y of codimension q, the change of
the genus is supported on Y: with Q the characteristic series, x_i the
Chern roots of the normal bundle, and v = x_1,

    phi(X~) - phi(X)
        = K_phi(TY) . p_* ( (Q(v) prod_{i>=2} Q(x_i - v)
                             - prod_i Q(x_i)) / v ) [Y],

where p_* is the pushforward from the projective bundle of the normal
bundle, p_*(g(v)) = sum_i g(x_i) / prod_{j != i} (x_j - x_i), computed
by q - 1 exact divided differences.  No model of the blown-up space is
ever built.  The module also verifies the two residue identities behind
level-N invariance: the rational identity
sum_i prod_{j != i} x_j/(x_j - x_i) = 1, and its elliptic analogue for
the level-N series when q = 1 mod N, which says that the same
pushforward vanishes identically in the roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra_kernel import PolyRing, WeightedPoly, coeff_is_zero, horner
from .cohomology_models import cp_model, point_model
from .genus_engine import multiplicative_class
from .jacobi_q import _product_spec


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
    """Pushforward from the projective bundle of a rank-q bundle.

    t is a polynomial in the roots x_1..x_q, symmetric in x_2..x_q, read
    as a class on P(E) with v = x_1.  The result is the symmetric

        sum_i t|_{x_1 <-> x_i} / prod_{j != i} (x_j - x_i)
            = (-1)^(q-1) d_{q-1} ... d_1 t,

    d_k f = (f - s_k f) / (x_k - x_{k+1}), s_k swapping x_k and x_{k+1}.
    Every division is exact and checked; a capped t loses one degree of
    cap per step.
    """
    out = t
    for k in range(q - 1):
        swap = list(range(q))
        swap[k], swap[k + 1] = k + 1, k
        out = (out - out.permute(swap)).divide_linear(k, k + 1)
    return -out if q % 2 == 0 else out


# The benchmark's tracer (bench/tracer.py) times the pushforward under
# this name.
flag_pushforward = projective_pushforward


def symmetric_to_elementary(sym):
    """Symmetric polynomial -> dict {(m_1..m_q): coeff} over e_1..e_q.

    Gauss reduction on the lex-leading monomial; each leading exponent
    vector of a symmetric polynomial is a partition lambda, killed by
    c * e_1^{l1-l2} e_2^{l2-l3} ... e_q^{lq}.  Each lambda leads once,
    so each coefficient is set once.
    """
    ring = sym.ring
    q = ring.nvars
    elems = [_elementary(ring, k) for k in range(1, q + 1)]
    work = WeightedPoly(ring, sym.terms)
    out = {}
    while work.terms:
        lam = max(work.terms)  # lex order; leading exponent is a partition
        c = work.terms[lam]
        if list(lam) != sorted(lam, reverse=True):
            raise ValueError("polynomial is not symmetric")
        expo = [lam[k] - (lam[k + 1] if k + 1 < q else 0) for k in range(q)]
        mono = ring.one
        for k, m in enumerate(expo):
            if m:
                mono = mono * elems[k] ** m
        out[tuple(expo)] = c
        work = work - mono * c
    return out


def _elementary(ring, k):
    n = ring.nvars
    terms = {}
    for sub in combinations(range(n), k):
        terms[tuple(1 if i in sub else 0 for i in range(n))] = ring.base.one
    return WeightedPoly(ring, terms)


# ---------------------------------------------------------------------------
# the defect formula
# ---------------------------------------------------------------------------


def _divide_by_var(p, i):
    """Exact division by x_i; every term must contain x_i."""
    terms = {}
    for e, c in p.terms.items():
        if e[i] < 1:
            raise ArithmeticError("expression not divisible by the root")
        ne = list(e)
        ne[i] -= 1
        terms[tuple(ne)] = c
    cap = None if p.cap is None else p.cap - 1
    return WeightedPoly(p.ring, terms, cap)


def _defect_cap(q, dim):
    """x-degree through which the pushforward numerator is needed.

    Dividing by v and the q - 1 divided differences lower the degree by q
    in total; the result is needed through degree dim.
    """
    return dim + q


def pushed_defect(spec, q, dim):
    """p_*((Q(v) prod_{i>=2} Q(x_i - v) - prod_i Q(x_i)) / v) through degree dim.

    A symmetric polynomial in the q normal-bundle roots x1..xq over
    spec.ring.
    """
    cap = _defect_cap(q, dim)
    if spec.order < cap:
        raise TruncationTooLow(
            f"genus truncation {spec.order} < required {cap}"
        )
    ring = PolyRing(*(f"x{i + 1}" for i in range(q)), base=spec.ring)
    qc = [spec.q.coeff(k) for k in range(cap + 1)]
    xs = [x.truncate(cap) for x in ring.gens()]
    v = xs[0]
    first = horner(qc, v)
    for xi in xs[1:]:
        first = first * horner(qc, xi - v)
    second = ring.one
    for xi in xs:
        second = second * horner(qc, xi)
    return projective_pushforward(_divide_by_var(first - second, 0), q)


def genus_defect(inp):
    """phi(blow-up of X along the center) - phi(X), computed over the center."""
    model = inp.center
    spec = inp.spec
    edict = symmetric_to_elementary(
        pushed_defect(spec, inp.codim, model.dim))

    # elementary symmetric functions of the normal-bundle roots
    e_classes = [model.one_elt()]
    for r in inp.roots:
        new = [e_classes[0]]
        for k in range(1, len(e_classes) + 1):
            prev = e_classes[k] if k < len(e_classes) else model.zero_elt()
            new.append(model.add(prev, model.mul(e_classes[k - 1], r)))
        e_classes = new

    total = model.zero_elt()
    for expo, c in edict.items():
        term = model.one_elt()
        for k, m in enumerate(expo):
            for _ in range(m):
                term = model.mul(term, e_classes[k + 1])
        total = model.add(total, model.scale(term, c))

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

    Checks, as an identity of truncated polynomials in formal x_1..x_q
    with level-N q-series coefficients, that

        sum_i (1/f(x_i)) prod_{j != i} 1/f(x_j - x_i)
            - prod_i 1/f(x_i) = 0.

    With 1/f(x) = Q(x)/x and Q(0) = 1 the first sum is p_* of
    (Q(v)/v) prod_j Q(x_j - v), whose pole part prod_i Q(x_i)/v pushes
    forward to prod_i 1/f(x_i); so the identity says that pushed_defect
    vanishes, and it is checked through degree xorder - 1.  Returns
    (holds, witness); witness is None or the first nonzero term
    (exponents, q-power, value) — the identity genuinely fails when q is
    not 1 mod N, so the hypothesis is reported, not assumed.
    """
    dim = xorder - 1
    spec = _product_spec(qorder, _defect_cap(q, dim), N)
    pushed = pushed_defect(spec, q, dim)
    for e in sorted(pushed.terms, key=lambda t: (sum(t), t)):
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


def _cp1_in_cp4_input(spec):
    """A line in CP4: normal bundle O(1)^3 over CP1."""
    m = cp_model(1)
    g = m.scale(m.chern_class(1), Fraction(1, 2))
    return BlowupInput(m, [g, g, g], spec)


def _cp2_in_cp4_input(spec):
    """A plane in CP4: normal bundle O(1)^2 over CP2."""
    m = cp_model(2)
    g = m.scale(m.chern_class(1), Fraction(1, 3))
    return BlowupInput(m, [g, g], spec)


def _point_input(spec, q):
    m = point_model()
    zero = m.zero_elt()
    return BlowupInput(m, [zero] * q, spec)


def default_cases(N):
    """(label, input-builder, codim, center dim, hypothesis-met)."""
    if N == 2:
        return [
            ("point center, codim 3",
             lambda s: _point_input(s, 3), 3, 0, True),
            ("CP1 center in CP4, codim 3", _cp1_in_cp4_input, 3, 1, True),
            ("CP2 center in CP4, codim 2 (violates codim = 1 mod N)",
             _cp2_in_cp4_input, 2, 2, False),
        ]
    return [
        (f"point center, codim {N + 1}",
         lambda s: _point_input(s, N + 1), N + 1, 0, True),
    ]


def verify_blowup_invariance(N, examples=None, qorder=2):
    """Defect of the level-N q-series genus on blow-up centers.

    examples: list of (label, input-builder, codim, center dim,
    expect_zero); defaults cover codim = 1 mod N cases plus a
    violated-hypothesis negative control.  Each report entry carries the
    first nonzero q-coefficient as a witness when the defect does not
    vanish.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    cases = examples if examples is not None else default_cases(N)
    report = []
    for label, build, q, dim, expect_zero in cases:
        spec = _product_spec(qorder, max(_defect_cap(q, dim), 4), N)
        defect = genus_defect(build(spec))
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
