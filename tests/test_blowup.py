from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import QQ, TruncatedSeries
from ellgenus.blowup import (
    BlowupInput,
    DegenerateSample,
    TruncationTooLow,
    default_cases,
    genus_defect,
    projective_pushforward,
    pushed_defect,
    verify_blowup_invariance,
    verify_elliptic_identity,
    verify_rational_identity,
)
from ellgenus.cohomology_models import (
    cp_model,
    point_model,
    product_model,
)
from ellgenus.genus_engine import GenusSpec, classical_genus, evaluate
from ellgenus.jacobi_q import phi_ell_q
from ellgenus.twisted_bundles import twisted_proj_bundle_model
from ellgenus.weighted_poly import PolyRing, WeightedPoly, horner

from _oracles import ExactDivisionError, as_univariate

F = Fraction


def _roots(q):
    """The ring Q[x1..xq] of the normal-bundle roots."""
    return PolyRing(*(f"x{i + 1}" for i in range(q)))


def _chern(q, base=QQ):
    """The ring base[v, e1..eq] of a class on the projective bundle."""
    return PolyRing("v", *((f"e{i}", i) for i in range(1, q + 1)), base=base)


def _point_input(spec, q):
    m = point_model()
    return BlowupInput(m, [m.zero_elt()] * q, spec)


def _cp_center(spec, n, q):
    m = cp_model(n)
    g = m.scale(m.chern_class(1), F(1, n + 1))
    return BlowupInput(m, [g] * q, spec)


# ---------------------------------------------------------------------------
# oracle helpers in the roots: relabelling, exact division by x_i - x_j,
# the divided-difference pushforward and the change to the e-basis
# ---------------------------------------------------------------------------


def _permute(p, perm):
    """Relabel variables: variable perm[i] receives the exponent of
    variable i."""
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * len(e)
        for i, k in enumerate(e):
            ne[perm[i]] = k
        terms[tuple(ne)] = c
    return WeightedPoly(p.ring, terms, p.cap)


def _divide_linear(p, i, j):
    """Exact division by (x_i - x_j), by synthetic division in x_i;
    raises ExactDivisionError if a remainder survives.  A capped dividend
    gives a quotient whose cap is one lower."""
    parts = as_univariate(p, p.ring.names[i])
    zero = p.ring.zero
    xj = p.ring.gen(p.ring.names[j]).truncate(p.cap)
    quotient = {}
    carry = zero
    for k in range(max(parts, default=0), 0, -1):
        qk = parts.get(k, zero) + carry
        for e, c in qk.terms.items():
            quotient[e[:i] + (k - 1,) + e[i + 1:]] = c
        carry = xj * qk
    if not (parts.get(0, zero) + carry).is_zero():
        raise ExactDivisionError("not divisible by (x_i - x_j)")
    return WeightedPoly(p.ring, quotient,
                        None if p.cap is None else p.cap - 1)


def test_multipoly_vandermonde_division():
    # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
    x1, x2 = _roots(2).gens()
    assert _divide_linear(x1 * x1 - x2 * x2, 0, 1) == x1 + x2


def test_multipoly_division_not_exact():
    x1, x2 = _roots(2).gens()
    with pytest.raises(ExactDivisionError):
        _divide_linear(x1 * x1 + x2, 0, 1)


def _divided_difference_pushforward(t, q):
    """p_* from P(E) of t, a polynomial in the roots x_1..x_q symmetric in
    x_2..x_q, read as a class on P(E) with v = x_1:

        sum_i t|_{x_1 <-> x_i} / prod_{j != i} (x_j - x_i)
            = (-1)^(q-1) d_{q-1} ... d_1 t,

    d_k f = (f - s_k f) / (x_k - x_{k+1}), s_k swapping x_k and x_{k+1}.
    """
    out = t
    for k in range(q - 1):
        swap = list(range(q))
        swap[k], swap[k + 1] = k + 1, k
        out = _divide_linear(out - _permute(out, swap), k, k + 1)
    return -out if q % 2 == 0 else out


def _elementary(ring, k):
    n = ring.nvars
    terms = {}
    for sub in combinations(range(n), k):
        terms[tuple(1 if i in sub else 0 for i in range(n))] = ring.base.one
    return WeightedPoly(ring, terms)


def _symmetric_to_elementary(sym):
    """Symmetric polynomial -> dict {(m_1..m_q): coeff} over e_1..e_q.

    Gauss reduction on the lex-leading monomial; each leading exponent
    vector of a symmetric polynomial is a partition lambda, killed by
    c * e_1^{l1-l2} e_2^{l2-l3} ... e_q^{lq}.
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


def _root_defect(spec, q, dim):
    """The blow-up defect in the roots, converted to the e's:
    p_*((Q(v) prod_{i>=2} Q(x_i - v) - prod_i Q(x_i)) / v), v = x_1,
    by divided differences."""
    cap = dim + q
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
    over_v = {}
    for e, c in (first - second).terms.items():
        assert e[0] >= 1, "integrand not divisible by v"
        over_v[(e[0] - 1,) + e[1:]] = c
    return _symmetric_to_elementary(_divided_difference_pushforward(
        WeightedPoly(ring, over_v, cap - 1), q))


def test_symmetric_to_elementary_round_trip():
    # p2 = e1^2 - 2 e2 in three variables
    ring = _roots(3)
    p2 = sum((x ** 2 for x in ring.gens()), ring.zero)
    out = _symmetric_to_elementary(p2)
    assert out == {(2, 0, 0): F(1), (0, 1, 0): F(-2)}
    with pytest.raises(ValueError):
        _symmetric_to_elementary(_roots(2).gen("x1"))


# ---------------------------------------------------------------------------
# brute-force oracle: the full flag bundle, by antisymmetrization
# ---------------------------------------------------------------------------


def _sign(perm):
    sgn = 1
    for i in range(len(perm)):
        for j in range(i):
            if perm[j] > perm[i]:
                sgn = -sgn
    return sgn


def _antisymmetrize(p):
    """sum over sigma of sign(sigma) * sigma(p)."""
    total = p.ring.zero
    for perm in permutations(range(p.ring.nvars)):
        total = total + _permute(p, perm) * _sign(perm)
    return total


def _vandermonde(q, lowest=0):
    """prod_{i > j >= lowest} (x_i - x_j)."""
    xs = _roots(q).gens()
    out = _roots(q).one
    for i in range(lowest, q):
        for j in range(lowest, i):
            out = out * (xs[i] - xs[j])
    return out


def _oracle_pushforward(t, q):
    """Lift t to the flag bundle with the sub-Vandermonde in x_2..x_q,
    push forward by antisymmetrizing and dividing by the Vandermonde, and
    divide by (q-1)!, the fiber integral of the sub-Vandermonde."""
    out = _antisymmetrize(t * _vandermonde(q, lowest=1))
    for i in range(q):
        for j in range(i):
            out = _divide_linear(out, i, j)
    return out * F(1, factorial(q - 1))


def test_antisymmetrize_oracle():
    x1, x2 = _roots(2).gens()
    assert _antisymmetrize(x1 * x1) == x1 * x1 - x2 * x2
    # symmetric input antisymmetrizes to zero
    assert _antisymmetrize(x1 * x2).is_zero()


@st.composite
def _symmetric_in_tail(draw):
    """(t, q): a polynomial over Q in x_1..x_q, symmetric in x_2..x_q."""
    q = draw(st.integers(min_value=1, max_value=3))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * q),
        st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4),
        max_size=4,
    ))
    p = WeightedPoly(_roots(q), terms)
    t = p.ring.zero
    for tail in permutations(range(1, q)):
        t = t + _permute(p, (0,) + tail)
    return t, q


@settings(max_examples=40, deadline=None)
@seed(20261017)
@given(_symmetric_in_tail())
def test_pushforward_matches_oracle(case):
    # the two root oracles agree: divided differences and the flag bundle
    t, q = case
    assert _divided_difference_pushforward(t, q) == _oracle_pushforward(t, q)


# ---------------------------------------------------------------------------
# projective-bundle pushforward in the Chern classes
# ---------------------------------------------------------------------------


def test_pushforward_of_low_degree_is_zero():
    # the fiber has dimension q-1: anything of lower degree in v pushes
    # to zero
    for q in (2, 3):
        assert projective_pushforward(_chern(q).one, q).is_zero()
        assert projective_pushforward(_chern(q).gen("e1"), q).is_zero()
    assert projective_pushforward(_chern(3).gen("v"), 3).is_zero()


def test_pushforward_top_normalization():
    # q = 2: x1 / (x2 - x1) + x2 / (x1 - x2) = -1
    out = projective_pushforward(_chern(2).gen("v"), 2)
    assert out.terms == {(0, 0): F(-1)}


def test_projective_bundle_chain_oracle():
    # the Segre-class formula against divided differences in the roots:
    # v^k e_j pushes forward to e_j (-1)^{q-1} h_{k-q+1} (zero below
    # k = q-1); the e-exponents of the result are the oracle's
    for q in range(1, 6):
        for k in range(q + 3):
            for j in range(q + 1):
                t = _chern(q).gen("v") ** k
                roots = _roots(q).gen("x1") ** k * _elementary(_roots(q), j)
                if j:
                    t = t * _chern(q).gen(f"e{j}")
                want = _symmetric_to_elementary(
                    _divided_difference_pushforward(roots, q))
                assert projective_pushforward(t, q).terms == want, (q, k, j)


@pytest.mark.parametrize("which", ["todd", "signature", "euler", "a_hat",
                                   2, 3, "formal"])
def test_pushed_defect_truncation_sound(which):
    # the result through weight dim does not depend on how far past dim
    # it was computed, nor on the terms of e-weight above dim left out
    # of the integrand
    if isinstance(which, int) or which == "formal":
        spec = phi_ell_q(2, 12, which)
    else:
        spec = classical_genus(which, order=10)
    for q in range(1, 5):
        for dim in range(4):
            low = pushed_defect(spec, q, dim)
            high = pushed_defect(spec, q, dim + 2)
            assert low.terms == high.truncate(dim).terms, (q, dim)
            assert all(high.term_weight(e) <= dim + 2
                       for e in high.terms), (q, dim)


@pytest.mark.parametrize("which", ["todd", "signature", "euler", "a_hat",
                                   "chi_y", 2, 3, "formal"])
def test_pushed_defect_matches_root_oracle(which):
    # the five classical genera, and the level-N series for N = 2, 3 and
    # formal y
    if isinstance(which, int) or which == "formal":
        spec = phi_ell_q(2, 10, which)
    else:
        spec = classical_genus(which, order=8)
    for q in range(1, 6):
        for dim in range(4):
            assert pushed_defect(spec, q, dim).terms == \
                _root_defect(spec, q, dim), (q, dim)


@settings(max_examples=25, deadline=None)
@seed(20261021)
@given(st.lists(st.fractions(min_value=F(-3), max_value=F(3),
                             max_denominator=5),
                min_size=7, max_size=7),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3))
def test_pushed_defect_matches_root_oracle_random_series(tail, q, dim):
    series = TruncatedSeries(QQ, [F(1)] + tail, 7)
    spec = GenusSpec(series.ring, series.log().coeffs)
    assert pushed_defect(spec, q, dim).terms == _root_defect(spec, q, dim)


@pytest.mark.parametrize("which", ["todd", "signature", 3, 13])
def test_pushed_defect_point_center_oracle(which):
    # over a point every e_i vanishes and every root is 0, so G(v) =
    # Q(v) Q(-v)^q and p_* keeps (-1)^(q-1) times its v^q coefficient
    if which == 3:
        spec = phi_ell_q(2, 5, 3)
    elif which == 13:
        spec = phi_ell_q(2, 15, 13)
    else:
        spec = classical_genus(which, order=12)
    qv = spec.q
    q_minus = TruncatedSeries(spec.ring, [
        c if k % 2 == 0 else -c for k, c in enumerate(qv.coeffs)], qv.order)
    for q in range(1, spec.order + 1):
        want = (-1) ** (q - 1) * (qv * q_minus ** q).coeff(q)
        # the pushforward lives in base[e1..eq], without v
        e_ring = PolyRing(*_chern(q).variables[1:], base=spec.ring)
        expected = WeightedPoly(e_ring, {(0,) * q: want})
        assert pushed_defect(spec, q, 0).terms == expected.terms, q


# ---------------------------------------------------------------------------
# the defect formula against classical facts
# ---------------------------------------------------------------------------


def test_todd_defect_always_vanishes():
    todd = classical_genus("todd", order=14)
    cases = [
        _point_input(todd, 2),
        _point_input(todd, 3),
        _point_input(todd, 4),
        _cp_center(todd, 1, 3),
        _cp_center(todd, 2, 2),
        _cp_center(todd, 2, 3),
    ]
    for inp in cases:
        assert genus_defect(inp) == 0


def test_signature_defect_even_codim_is_minus_signature():
    sig = classical_genus("signature", order=16)
    assert genus_defect(_cp_center(sig, 2, 2)) == -1
    assert genus_defect(_cp_center(sig, 2, 4)) == -1


def test_signature_defect_odd_codim_vanishes():
    sig = classical_genus("signature", order=12)
    assert genus_defect(_cp_center(sig, 1, 3)) == 0
    assert genus_defect(_point_input(sig, 3)) == 0


def test_euler_defect_point_center():
    # blowing up a point replaces it by CP^{q-1}: defect chi(CP^{q-1}) - 1
    euler = classical_genus("euler", order=12)
    for q in (2, 3, 4):
        assert genus_defect(_point_input(euler, q)) == q - 1


def test_defect_independent_of_root_order():
    sig = classical_genus("signature", order=12)
    m = product_model(cp_model(1), cp_model(1))
    g1 = {(1, 0): F(1)}
    g2 = {(0, 1): F(1)}
    a = genus_defect(BlowupInput(m, [g1, g2], sig))
    b = genus_defect(BlowupInput(m, [g2, g1], sig))
    assert a == b


@pytest.mark.parametrize("n, k", [(3, 0), (4, 0), (4, 1), (4, 2), (5, 1),
                                  (5, 2)])
def test_defect_of_a_linear_center_matches_the_blown_up_space(n, k):
    # the blow-up of CP^n along a linear CP^k is the projective bundle
    # P(O^(k+1) + O(-1)) over CP^(n-k-1); a genus with odd terms makes the
    # pushed defect carry e-monomials, so their Chern evaluation is tested
    q = TruncatedSeries(QQ, [
        F(1), F(2, 3), F(-1, 5), F(3, 7), F(1, 2), F(-2, 3), F(5, 4),
        F(1, 9)], 7)
    spec = GenusSpec(q.ring, q.log().coeffs)
    base = cp_model(n - k - 1)
    h = base.scale(base.chern_class(1), F(-1, n - k))
    blown_up = twisted_proj_bundle_model(base, e_lines=[h], e_trivial=k + 1)
    center = cp_model(k)
    g = center.scale(center.chern_class(1), F(1, k + 1))
    defect = genus_defect(BlowupInput(center, [g] * (n - k), spec))
    assert evaluate(spec, blown_up) == evaluate(spec, cp_model(n)) + defect


def test_input_validation():
    sig = classical_genus("signature", order=12)
    with pytest.raises(ValueError):
        BlowupInput(cp_model(2), [], sig)
    m = cp_model(2)
    g = m.scale(m.chern_class(1), F(1, 3))
    gg = m.mul(g, g)
    with pytest.raises(ValueError):
        BlowupInput(m, [gg], sig)


def test_truncation_guard():
    sig = classical_genus("signature", order=3)
    with pytest.raises(TruncationTooLow):
        genus_defect(_cp_center(sig, 2, 2))


# ---------------------------------------------------------------------------
# residue identities
# ---------------------------------------------------------------------------


def test_rational_identity_small():
    assert verify_rational_identity(1, [F(5)])
    assert verify_rational_identity(2, [1, 3])
    assert verify_rational_identity(4, [1, 3, F(1, 2), -2])


@settings(max_examples=30, deadline=None)
@seed(20240824)
@given(
    st.lists(
        st.fractions(min_value=F(-9), max_value=F(9), max_denominator=7),
        min_size=4, max_size=4, unique=True,
    )
)
def test_rational_identity_random_samples(xs):
    assert verify_rational_identity(4, xs)


def test_rational_identity_rejects_degenerate():
    with pytest.raises(DegenerateSample):
        verify_rational_identity(3, [1, 1, 2])
    with pytest.raises(DegenerateSample):
        verify_rational_identity(3, [1, 2])


def test_elliptic_identity_level2():
    ok, witness = verify_elliptic_identity(2, 3, qorder=2, xorder=4)
    assert ok and witness is None


def test_elliptic_identity_level3():
    ok, witness = verify_elliptic_identity(3, 4, qorder=2, xorder=3)
    assert ok and witness is None


def test_elliptic_identity_negative_control():
    # q = 2 is not 1 mod 2: the identity must fail, with a reported witness
    ok, witness = verify_elliptic_identity(2, 2, qorder=2, xorder=4)
    assert not ok
    exps, qpow, value = witness
    assert not value == 0


def test_elliptic_identity_larger_cases():
    # 5 = 1 mod 2 and 5 = 1 mod 4; 3 = 0 mod 3 fails with a witness
    assert verify_elliptic_identity(2, 5) == (True, None)
    assert verify_elliptic_identity(4, 5) == (True, None)
    ok, witness = verify_elliptic_identity(3, 3)
    assert not ok
    exps, qpow, value = witness
    assert len(exps) == 3 and not value.is_zero()


# ---------------------------------------------------------------------------
# level-N invariance
# ---------------------------------------------------------------------------


def test_blowup_invariance_level2():
    report = verify_blowup_invariance(2)
    assert len(report) == len(default_cases(2))
    for entry in report:
        assert entry["ok"], entry
    # the negative control really did produce a nonzero defect
    assert any(not e["defect_zero"] for e in report)


def test_blowup_invariance_level3():
    report = verify_blowup_invariance(3)
    for entry in report:
        assert entry["ok"], entry
        assert entry["defect_zero"]
