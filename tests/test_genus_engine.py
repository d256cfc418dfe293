import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus import criteria
from ellgenus.algebra_kernel import (
    BadValuation,
    QQ,
    TruncatedSeries,
    coeff_is_zero,
)
from ellgenus.cohomology_models import (
    ChernVector,
    catalog,
    chern_vector,
    cp_model,
    hypersurface_model,
    partitions,
    point_model,
    power_sum_numbers,
    product_model,
    quartic_surface,
)
from ellgenus.genus_engine import (
    BadParams,
    DimensionMismatch,
    EULER_POINT,
    SIGNATURE_POINT,
    GenusSpec,
    classical_genus,
    evaluate,
    formal_group_law,
    multiplicative_sequence,
)
from ellgenus.jacobi_q import phi_ell_q
from ellgenus.manifold_json import model_from_json
from ellgenus.universal_elliptic import phi_ell
from ellgenus.weighted_poly import PolyRing, horner

from _oracles import exact_div

F = Fraction


# ---------------------------------------------------------------------------
# classical genera against independent oracles
# ---------------------------------------------------------------------------


def test_todd_of_projective_spaces():
    todd = classical_genus("todd", order=8)
    for n in range(1, 7):
        assert evaluate(todd, cp_model(n)) == 1


def test_todd_multiplicative_sequence_low_terms():
    todd = classical_genus("todd", order=4)
    ks = multiplicative_sequence(todd, 3)
    assert ks[1] == {(1,): F(1, 2)}
    assert ks[2] == {(1, 1): F(1, 12), (2,): F(1, 12)}
    assert ks[3] == {(2, 1): F(1, 24)}


def test_signature_values():
    sig = classical_genus("signature", order=8)
    assert evaluate(sig, cp_model(2)) == 1
    assert evaluate(sig, cp_model(4)) == 1
    assert evaluate(sig, product_model(cp_model(1), cp_model(1))) == 0
    assert evaluate(sig, quartic_surface()) == -16
    assert evaluate(sig, catalog("W4")) == 2


def test_a_hat_values():
    ah = classical_genus("a_hat", order=8)
    assert evaluate(ah, quartic_surface()) == 2
    assert evaluate(ah, cp_model(2)) == F(-1, 8)
    assert evaluate(ah, catalog("W4")) == 0


def test_euler_genus_counts_top_chern():
    eu = classical_genus("euler", order=8)
    assert evaluate(eu, cp_model(3)) == 4
    assert evaluate(eu, quartic_surface()) == 24
    assert evaluate(eu, product_model(cp_model(1), cp_model(1))) == 4


def test_chi_y_on_projective_spaces():
    # chi_y(CP_{N-1}) = 1 + (-y) + ... + (-y)^{N-1}
    spec = classical_genus("chi_y", order=8)
    ring = spec.ring
    y = ring.gen("y")
    for N in range(2, 6):
        expected = ring.zero
        for i in range(N):
            expected = expected + (-y) ** i
        assert evaluate(spec, cp_model(N - 1)) == expected


def test_chi_y_of_quartic_surface():
    spec = classical_genus("chi_y", order=6)
    ring = spec.ring
    y = ring.gen("y")
    # (1/12)(1+y)^2 c1^2 + (1/12)(1 - 10y + y^2) c2 with c1^2 = 0, c2 = 24
    assert evaluate(spec, quartic_surface()) == (
        (ring.one - y * 10 + y * y) * 2
    )


def test_chi_y_of_w3():
    spec = classical_genus("chi_y", order=6)
    y = spec.ring.gen("y")
    assert evaluate(spec, catalog("W3")) == y * y - y


def test_chi_y_specialization_points():
    # y = 0 -> Todd, y = SIGNATURE_POINT -> signature, y = EULER_POINT -> Euler
    manifolds = [cp_model(2), cp_model(3), quartic_surface(),
                 product_model(cp_model(1), cp_model(2))]
    at0 = classical_genus("chi_y", params={"y": 0}, order=8)
    at1 = classical_genus("chi_y", params={"y": SIGNATURE_POINT}, order=8)
    atm1 = classical_genus("chi_y", params={"y": EULER_POINT}, order=8)
    todd = classical_genus("todd", order=8)
    sig = classical_genus("signature", order=8)
    eu = classical_genus("euler", order=8)
    for m in manifolds:
        assert evaluate(at0, m) == evaluate(todd, m)
        assert evaluate(at1, m) == evaluate(sig, m)
        assert evaluate(atm1, m) == evaluate(eu, m)


def test_chi_y_integrality_on_catalog():
    spec = classical_genus("chi_y", order=6)
    for name in ("W1", "W2", "W3", "W4", "W5", "W6", "CP3", "TwCP(2,2)"):
        val = evaluate(spec, catalog(name))
        for c in val.terms.values():
            assert c.denominator == 1


def test_twisted_todd_genus():
    # chi(., K^{1/2}) equals A-hat on the quartic surface (c1 = 0 there)
    spec = classical_genus("chi_KkN", params={"k": 1, "N": 2}, order=8)
    assert evaluate(spec, quartic_surface()) == 2
    # k = 0 recovers Todd
    spec0 = classical_genus("chi_KkN", params={"k": 0, "N": 1}, order=8)
    todd = classical_genus("todd", order=8)
    for n in range(1, 5):
        assert evaluate(spec0, cp_model(n)) == evaluate(todd, cp_model(n))
    with pytest.raises(BadParams):
        classical_genus("chi_KkN", params={"k": 1})


def test_a_tilde_on_projective_spaces():
    # at B = 0 the value on CP_{N-1} is ((A/2) N)^{N-1} / (N-1)!
    spec = classical_genus("a_tilde", order=8)
    ring = spec.ring
    A = ring.gen("A")
    for N in range(2, 6):
        val = evaluate(spec, cp_model(N - 1))
        at_b0 = val.substitute({"A": A, "B": F(0)}, ring=ring)
        expected = (A * F(N, 2)) ** (N - 1) * F(1, factorial(N - 1))
        assert at_b0 == expected


# ---------------------------------------------------------------------------
# the closed forms against Q(x) built by series division
# ---------------------------------------------------------------------------


def _todd_series(order, shift=F(0)):
    """Oracle: x/(1 - e^{-x}) * e^{shift * x} over Q."""
    x = TruncatedSeries.x_series(QQ, order + 1)
    expm = (-x).exp()  # e^{-x}
    one = TruncatedSeries.one_series(QQ, order + 1)
    denom = (one - expm).truncate(order + 1)  # valuation 1
    q = TruncatedSeries(QQ, denom.coeffs[1:], order).inverse()  # x/denom
    if shift:
        sh = TruncatedSeries.from_function(
            QQ, lambda e: shift ** e / factorial(e), order
        )
        q = (q * sh).truncate(order)
    return q


def _z_over_sinh_z(order):
    """Oracle: z/sinh(z), the inverse of sinh(z)/z = sum z^2k / (2k+1)!."""
    s = TruncatedSeries.from_function(
        QQ, lambda e: F(1, factorial(e + 1)) if e % 2 == 0 else F(0), order
    )
    return s.inverse().truncate(order)


def _signature_series(order):
    """Oracle: x/tanh(x) = x cosh(x)/sinh(x)."""
    sinh_over_x = TruncatedSeries.from_function(
        QQ, lambda e: F(1, factorial(e + 1)) if e % 2 == 0 else F(0), order
    )
    cosh = TruncatedSeries.from_function(
        QQ, lambda e: F(1, factorial(e)) if e % 2 == 0 else F(0), order
    )
    return (cosh * sinh_over_x.inverse()).truncate(order)


def _a_hat_series(order):
    """Oracle: (x/2)/sinh(x/2), z = x/2 substituted in z/sinh(z)."""
    zs = _z_over_sinh_z(order)
    return TruncatedSeries.from_function(
        QQ, lambda e: zs.coeff(e) / 2 ** e, order
    )


def _chi_y_series_by_division(order):
    """Oracle: Q(x) for chi_y over Q[y], solved with exact division.

    Q(x) (1 - e^{-u}) = x (1 + y e^{-u}) with u = (1 + y) x; matching
    coefficients gives a triangular system whose pivot is (1 + y), and
    every division is exact in Q[y].
    """
    ring = PolyRing(("y", 1))
    y = ring.gen("y")
    one_plus_y = ring.one + y
    # coefficient of x^k in 1 - e^{-u}: (-1)^{k+1} (1+y)^k / k!  (k >= 1)
    lhs_c = [ring.zero] + [
        one_plus_y ** k * F((-1) ** (k + 1), factorial(k))
        for k in range(1, order + 2)
    ]

    # coefficient of x^{n+1} in x (1 + y e^{-u})
    def rhs(n):
        if n == 0:
            return one_plus_y
        return y * ((-one_plus_y) ** n * F(1, factorial(n)))

    a = [ring.one]
    for n in range(1, order + 1):
        # a_{n+1-k} lhs_k for k = 2..n+1
        acc = rhs(n) - ring.dot(zip(reversed(a), lhs_c[2:]))
        a.append(exact_div(acc, one_plus_y))
    return TruncatedSeries(ring, a, order)


def _a_tilde_series(order):
    """Oracle: e^{(A/2) x} * w/sinh(w), w = sqrt(B/2) x/2, over Q[A, B].

    w/sinh(w) is even in w, so only w^2 = B x^2 / 8 enters.
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
                F(1, 2 ** j * factorial(j)) * zc * F(1, 8 ** k)
            )
        coeffs.append(c)
    return TruncatedSeries(ring, coeffs, order)


def _q_oracle(name, params, order):
    """Q(x) of a classical genus by series division."""
    if name == "todd":
        return _todd_series(order)
    if name == "chi_KkN":
        return _todd_series(order, shift=-F(params["k"]) / F(params["N"]))
    if name == "signature":
        return _signature_series(order)
    if name == "a_hat":
        return _a_hat_series(order)
    if name == "euler":
        return TruncatedSeries(QQ, [F(1), F(1)], order)
    if name == "chi_y":
        q = _chi_y_series_by_division(order)
        if params:
            return TruncatedSeries(QQ, [c.substitute({"y": params["y"]})
                                        for c in q.coeffs], order)
        return q
    return _a_tilde_series(order)


CLASSICAL = [
    ("todd", None), ("chi_KkN", {"k": 1, "N": 2}),
    ("chi_KkN", {"k": 0, "N": 1}), ("signature", None), ("a_hat", None),
    ("euler", None), ("chi_y", None),
    ("chi_y", {"y": 0}), ("chi_y", {"y": 1}), ("chi_y", {"y": -1}),
    ("chi_y", {"y": F(2, 3)}), ("a_tilde", None),
]
CLASSICAL_IDS = [name + "".join(f"-{k}={v}" for k, v in (params or {}).items())
                 for name, params in CLASSICAL]


@pytest.mark.parametrize("name, params", CLASSICAL, ids=CLASSICAL_IDS)
def test_classical_genus_matches_series_oracle(name, params):
    oracle = _q_oracle(name, params, 30)
    oracle_log = oracle.log()
    for order in range(31):
        spec = classical_genus(name, params, order)
        assert (spec.order, spec.q.order) == (order, order)
        assert spec.q.coeffs == oracle.coeffs[:order + 1]
        assert spec.log_coeffs == [spec.ring.zero] + [
            oracle_log.coeff(m) for m in range(1, order + 1)]


@pytest.mark.parametrize("name, params", CLASSICAL, ids=CLASSICAL_IDS)
def test_classical_genus_truncation_is_sound(name, params):
    # every coefficient at order n equals the one at order n + 3
    for n in (0, 1, 2, 5, 12, 27):
        low, high = (classical_genus(name, params, k) for k in (n, n + 3))
        assert low.q.coeffs == high.q.coeffs[:n + 1]
        assert low.log_coeffs == high.log_coeffs[:n + 1]


# ---------------------------------------------------------------------------
# structural laws
# ---------------------------------------------------------------------------


def test_ring_homomorphism_on_products():
    specs = [classical_genus("todd", order=7),
             classical_genus("signature", order=7),
             classical_genus("chi_y", order=7)]
    pairs = [(cp_model(1), cp_model(2)), (cp_model(2), quartic_surface()),
             (cp_model(1), cp_model(1))]
    for spec in specs:
        for x, y in pairs:
            lhs = evaluate(spec, product_model(x, y))
            rhs = evaluate(spec, x) * evaluate(spec, y)
            assert lhs == rhs


def test_scaling_action():
    # replacing Q(x) by Q(sx) multiplies the value in dimension n by s^n
    todd = classical_genus("todd", order=6)
    ring = PolyRing(("s", 1))
    s = ring.gen("s")
    q = TruncatedSeries(
        ring, [ring.from_fraction(todd.q.coeff(e)) * s ** e
               for e in range(7)], 6)
    scaled = GenusSpec(q.ring, q.log().coeffs)
    for m in (cp_model(2), cp_model(3), quartic_surface()):
        assert evaluate(scaled, m) == s ** m.dim * evaluate(todd, m)


def test_su_insensitivity():
    # Q(x) vs e^{a x} Q(x) agree on classes without c1-numbers
    todd = classical_genus("todd", order=8)
    a = F(1, 3)
    ex = TruncatedSeries.from_function(
        QQ, lambda e: a ** e / factorial(e), 8
    )
    q = (todd.q * ex).truncate(8)
    twisted = GenusSpec(q.ring, q.log().coeffs)
    for name in ("W2", "W4", "W5", "W6"):
        m = catalog(name)
        assert chern_vector(m).is_su()
        assert evaluate(twisted, m) == evaluate(todd, m)
    # and they genuinely differ on CP2 (c1-numbers present)
    assert evaluate(twisted, cp_model(2)) != evaluate(todd, cp_model(2))


def test_dimension_mismatch_raises():
    todd = classical_genus("todd", order=2)
    for x in (cp_model(3), chern_vector(cp_model(3))):
        with pytest.raises(DimensionMismatch) as exc:
            evaluate(todd, x)
        assert str(exc.value) == "series truncated at order 2, manifold dim 3"


def test_trivial_genus():
    one = TruncatedSeries.one_series(QQ, 6)
    spec = GenusSpec(one.ring, one.log().coeffs)
    ks = multiplicative_sequence(spec, 4)
    for m in range(1, 5):
        assert ks[m] == {}
    assert evaluate(spec, cp_model(3)) == 0


# ---------------------------------------------------------------------------
# a genus from its log coefficients, and Q from them on first use
# ---------------------------------------------------------------------------


def test_bad_constant_term_raises_at_construction():
    for q in (TruncatedSeries(QQ, [F(2), F(1)], 4),
              TruncatedSeries(QQ, [F(0), F(1)], 4),
              TruncatedSeries(QQ, [], 4)):
        with pytest.raises(BadValuation):
            GenusSpec(q.ring, q.log().coeffs)


@pytest.mark.parametrize("name", ["todd", "signature", "a_hat", "chi_y"])
def test_log_coeffs_match_series_log(name):
    # a genus built from log Q of a classical Q gives back that Q
    q = classical_genus(name, order=7).q
    logq = q.log()
    spec = GenusSpec(q.ring, logq.coeffs, name=name)
    assert spec.log_coeffs == [spec.ring.zero] + [
        logq.coeff(m) for m in range(1, 8)]
    assert spec.q == q


def _elementary_symmetric(xs, k):
    """e_k of the polynomials xs."""
    ring = xs[0].ring
    total = [ring.one] + [ring.zero] * k
    for x in xs:
        for j in range(k, 0, -1):
            total[j] = total[j] + total[j - 1] * x
    return total[k]


@pytest.mark.parametrize("name", ["todd", "signature", "a_hat", "chi_y",
                                  "phi_ell", "phi_ell_q"])
def test_multiplicative_sequence_is_product_of_q(name):
    # sum_m K_m(e_1..e_m) = prod_i Q(x_i) through degree n, in n variables;
    # phi_ell is over Q[A, B, C, D] and phi_ell_q over Q(zeta_3)[[q]]
    n = 4
    spec = (phi_ell(n) if name == "phi_ell" else
            phi_ell_q(2, n, 3) if name == "phi_ell_q" else
            classical_genus(name, order=n))
    ks = multiplicative_sequence(spec, n)
    ring = PolyRing(*(f"x{i + 1}" for i in range(n)), base=spec.ring)
    xs = [x.truncate(n) for x in ring.gens()]
    qc = [spec.q.coeff(e) for e in range(n + 1)]
    prod = ring.one
    for x in xs:
        prod = prod * horner(qc, x)
    es = [None] + [_elementary_symmetric(xs, k) for k in range(1, n + 1)]
    total = ring.zero
    for m in range(n + 1):
        for part, c in ks[m].items():
            term = ring.constant(c)
            for k in part:
                term = term * es[k]
            total = total + term
    assert total == prod


@pytest.mark.parametrize("name", ["todd", "signature", "a_hat", "chi_y"])
def test_log_route_builds_the_same_genus(name):
    # the genus keeps log Q and forms Q = exp on first access
    ref = classical_genus(name, order=7)
    spec = GenusSpec(ref.ring, ref.log_coeffs, name=name)
    assert "q" not in vars(spec)
    assert spec.order == 7
    assert spec.q == ref.q
    assert spec.q is spec.q
    assert multiplicative_sequence(spec, 5) == multiplicative_sequence(ref, 5)


def test_log_route_rejects_a_constant_term():
    with pytest.raises(BadValuation):
        GenusSpec(QQ, [F(1), F(1, 2)])


# ---------------------------------------------------------------------------
# logarithm and formal group law
# ---------------------------------------------------------------------------


def genus_from_log(g, name="genus"):
    """Oracle: GenusSpec with logarithm g, Q(x) = x / f(x) for f the
    compositional inverse of g."""
    if g.valuation() != 1:
        raise BadValuation("genus logarithm needs valuation exactly 1")
    f = g.compose_inverse()
    q = TruncatedSeries(f.ring, f.coeffs[1:], f.order - 1).inverse()
    return GenusSpec(q.ring, q.log().coeffs, name=name)


def test_genus_from_log_identity():
    g = TruncatedSeries.x_series(QQ, 6)
    spec = genus_from_log(g)
    assert spec.q == TruncatedSeries.one_series(QQ, spec.order)


def test_genus_from_log_todd():
    # g(y) = sum y^{n+1}/(n+1) = -log(1-y) gives the Todd genus
    g = TruncatedSeries.from_function(
        QQ, lambda e: F(1, e) if e >= 1 else F(0), 8
    )
    spec = genus_from_log(g)
    todd = classical_genus("todd", order=spec.order)
    assert spec.q == todd.q.truncate(spec.order)


def test_genus_from_log_signature():
    # g(y) = artanh(y) gives x/tanh(x)
    g = TruncatedSeries.from_function(
        QQ, lambda e: F(1, e) if e % 2 == 1 else F(0), 9
    )
    spec = genus_from_log(g)
    sig = classical_genus("signature", order=spec.order)
    assert spec.q == sig.q.truncate(spec.order)


def test_log_series_roundtrip():
    todd = classical_genus("todd", order=8)
    g = todd.log_series
    # g(CP_n-integrals): coefficient of y^{n+1} is phi(CP_n)/(n+1) = 1/(n+1)
    for n in range(0, 7):
        assert g.coeff(n + 1) == F(1, n + 1)


def test_formal_group_law_trivial_and_todd():
    one = TruncatedSeries.one_series(QQ, 6)
    Fuv = formal_group_law(GenusSpec(one.ring, one.log().coeffs), 6)
    u = {(1, 0): F(1)}
    assert Fuv.terms == {(1, 0): F(1), (0, 1): F(1)}
    todd = classical_genus("todd", order=6)
    Ftodd = formal_group_law(todd, 6)
    assert Ftodd.terms == {(1, 0): F(1), (0, 1): F(1), (1, 1): F(-1)}


def test_formal_group_law_axioms():
    sig = classical_genus("signature", order=6)
    Fuv = formal_group_law(sig, 6)
    # commutativity
    u, v = Fuv.ring.gens()
    assert Fuv.substitute({"u": v, "v": u}, Fuv.ring) == Fuv
    # F(u, 0) = u: the terms without v are exactly u
    u_only = {e: c for e, c in Fuv.terms.items() if e[1] == 0}
    assert u_only == {(1, 0): F(1)}


def _formal_group_law_rebuilt(spec, order):
    """formal_group_law with f = x/Q and its inverse rebuilt from Q."""
    x = TruncatedSeries.x_series(spec.ring, spec.order)
    f = (x * spec.q.inverse()).truncate(spec.order)
    g = f.compose_inverse()
    u, v = (w.truncate(order)
            for w in PolyRing("u", "v", base=spec.ring).gens())
    f, g = ([s.coeff(e) for e in range(s.order + 1)] for s in (f, g))
    return horner(f, horner(g, u) + horner(g, v))


@pytest.mark.parametrize("build", [
    lambda: phi_ell(6),
    lambda: classical_genus("todd", order=6),
], ids=["phi_ell", "todd"])
def test_formal_group_law_matches_rebuilt_series(build):
    ours, oracle = formal_group_law(build(), 6), \
        _formal_group_law_rebuilt(build(), 6)
    assert (ours.terms, ours.cap) == (oracle.terms, oracle.cap)


@pytest.mark.parametrize("build", [
    *(lambda n=name, p=params: classical_genus(n, p, 8)
      for name, params in CLASSICAL),
    lambda: phi_ell(8),
    lambda: phi_ell_q(3, 8, "formal"),
    lambda: phi_ell_q(3, 8, 3),
], ids=[*CLASSICAL_IDS, "phi_ell", "phi_ell_q-formal", "phi_ell_q-zeta3"])
def test_f_series_is_x_times_the_inverse_of_q(build):
    # f = x/Q is built as 1/Q moved up one place, not as a product by x
    spec = build()
    f = spec.f_series
    oracle = (TruncatedSeries.x_series(spec.ring, spec.order)
              * spec.q.inverse()).truncate(spec.order)
    assert f.order == oracle.order == spec.order
    assert f.coeffs == oracle.coeffs
    assert list(map(repr, f.coeffs)) == list(map(repr, oracle.coeffs))


def test_criterion_10_inverts_f_once(monkeypatch):
    calls = []
    compose_inverse = TruncatedSeries.compose_inverse

    def counted(self):
        calls.append(self.order)
        return compose_inverse(self)

    monkeypatch.setattr(TruncatedSeries, "compose_inverse", counted)
    ok, _ = criteria.criterion_10()
    assert ok
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# evaluation against a class u: <K(TX) u, [X]>
# ---------------------------------------------------------------------------


def _multiplicative_class_by_newton(spec, model):
    """Oracle: K(c) = exp(sum_m l_m p_m) in the model, with the power sums
    p_m of c = c(TX) from Newton's identities."""
    c = model.chern
    top = min(model.dim, spec.order)
    cs = [model.degree_part(c, m) for m in range(top + 1)]
    # Newton: p_m = c_1 p_{m-1} - c_2 p_{m-2} + ... + (-1)^{m-1} m c_m
    ps = [model.zero_elt()]
    for m in range(1, top + 1):
        pm = model.scale(cs[m], F((-1) ** (m - 1) * m))
        for i in range(1, m):
            t = model.mul(cs[i], ps[m - i])
            pm = model.add(pm, model.scale(t, F((-1) ** (i - 1))))
        ps.append(pm)
    L = model.zero_elt()
    for m in range(1, top + 1):
        L = model.add(L, model.scale(ps[m], spec.log_coeffs[m]))
    K = model.one_elt()
    term = model.one_elt()
    for k in range(1, top + 1):
        term = model.mul(term, L)
        K = model.add(K, model.scale(term, F(1, factorial(k))))
    return K


def _class_models():
    return [point_model(), cp_model(2), cp_model(3), quartic_surface(),
            product_model(cp_model(2), cp_model(1)), catalog("W5")]


# the classical genera, and one with coefficients in Q(zeta_3)[[q]]
_CLASS_GENERA = ["todd", "signature", "a_hat", "euler", "chi_y", "a_tilde",
                 "theta"]


@lru_cache(maxsize=None)
def _class_spec(name):
    if name == "theta":
        return phi_ell_q(2, 6, 3)
    return classical_genus(name, order=8)


def _integral_against(spec, m, u):
    """Oracle: <K u, [X]> as an element of spec.ring, K by Newton."""
    K = _multiplicative_class_by_newton(spec, m)
    return spec.ring.dot([(spec.ring.one, m.integrate(m.mul(K, u)))])


@pytest.mark.parametrize("name", _CLASS_GENERA)
def test_evaluate_against_one_and_a_full_class(name):
    # u = 1 is the genus, the top-degree part of K; u with every basis
    # coefficient nonzero reads every degree of K
    spec = _class_spec(name)
    for m in _class_models():
        one = evaluate(spec, m, m.one_elt())
        assert one == evaluate(spec, m) == _integral_against(
            spec, m, m.one_elt())
        full = {l: F(i + 1, 2) for i, l in enumerate(m.labels)}
        assert evaluate(spec, m, full) == _integral_against(spec, m, full)


def test_evaluate_against_powers_of_g_reads_the_todd_class_of_cp2():
    # K(T CP2) = 1 + (3/2) g + g^2, and <K g^(2-j), [CP2]> is its g^j term
    todd, m = classical_genus("todd", order=4), cp_model(2)
    assert [evaluate(todd, m, {2 - j: 1}) for j in range(3)] == [
        1, F(3, 2), 1]
    assert evaluate(todd, m, {0: 1, 1: 1, 2: 1}) == F(7, 2)
    # a walk that dropped the degree-1 part of u would give 2
    assert evaluate(todd, m, {0: 1, 2: 1}) == 2


@st.composite
def _classes(draw, spec, m):
    """A class on m whose coefficients are small rationals, each times 1
    or times a log coefficient of the genus (an element of its ring)."""
    scales = [spec.ring.one] + spec.log_coeffs[1:]
    u = {}
    for label in m.labels:
        c = draw(st.just(0) | _small_fractions)
        if c:
            u[label] = draw(st.sampled_from(scales)) * c
    return u


@settings(max_examples=80, deadline=None)
@seed(20261025)
@given(name=st.sampled_from(_CLASS_GENERA),
       index=st.integers(0, len(_class_models()) - 1), data=st.data())
def test_evaluate_against_a_class_matches_the_newton_oracle(name, index, data):
    spec, m = _class_spec(name), _class_models()[index]
    u = data.draw(_classes(spec, m))
    want = _integral_against(spec, m, u)
    assert evaluate(spec, m, u) == want
    # negative control: without a homogeneous part that contributes, the
    # value changes
    for d in range(m.dim + 1):
        if not coeff_is_zero(_integral_against(spec, m, m.degree_part(u, d))):
            rest = {l: c for l, c in u.items() if m.degree[l] != d}
            assert evaluate(spec, m, rest) != want


# ---------------------------------------------------------------------------
# evaluation in power sums against the multiplicative sequence
# ---------------------------------------------------------------------------


def _sequence_value(spec, x):
    """Oracle: K_dim of the multiplicative sequence paired with all the
    Chern numbers of x."""
    cv = chern_vector(x)
    if cv.dim > spec.order:
        raise DimensionMismatch(
            f"series truncated at order {spec.order}, manifold dim {cv.dim}")
    ks = multiplicative_sequence(spec, cv.dim)[cv.dim]
    return spec.ring.dot((c, cv[part]) for part, c in ks.items() if cv[part])


def _power_sum_value(spec, x, drop=None):
    """The sum over lambda of prod l_(lambda_i) s_lambda / prod_j m_j!,
    term by term; drop names a part whose m_j! is left out (a deliberately
    wrong formula, for the negative control)."""
    logs = spec.log_coeffs
    numbers = power_sum_numbers(x, range(1, x.dim + 1))
    return spec.ring.dot(
        (prod((logs[k] for k in part), start=spec.ring.one),
         Fraction(s, prod(factorial(part.count(j)) for j in set(part)
                          if j != drop)))
        for part, s in numbers.items())


@lru_cache(maxsize=None)
def _spec(name, order):
    # one spec per order, so the oracle's sequences are cached on it
    if name == "phi_ell":
        return phi_ell(order)
    if name == "phi_ell_q formal":
        return phi_ell_q(2, order, "formal")
    if name == "phi_ell_q 3":
        return phi_ell_q(2, order, 3)
    return classical_genus(name, order=order)


_GENERA = ["todd", "signature", "a_hat", "chi_y", "a_tilde", "phi_ell",
           "phi_ell_q formal", "phi_ell_q 3"]

_TWISTED_JSON = (
    '{"type":"twisted_bundle","base":{"type":"cp","n":2},'
    '"E":{"trivial":1,"lines":[[2],["3/2"]]},"F":{"trivial":1,"lines":[[-1]]}}',
    '{"type":"twisted_bundle","base":{"type":"product","factors":'
    '[{"type":"cp","n":1},{"type":"cp","n":1}]},'
    '"E":{"lines":[[1,0],[0,-2]]},"F":{"trivial":1}}',
)

_MODELS = {
    **{f"CP{n}": (lambda n=n: cp_model(n)) for n in range(7)},
    "CP1xCP2": lambda: product_model(cp_model(1), cp_model(2)),
    "CP2xW2": lambda: product_model(cp_model(2), quartic_surface()),
    "CP1^3": lambda: product_model(product_model(cp_model(1), cp_model(1)),
                                   cp_model(1)),
    "cubic3": lambda: hypersurface_model(cp_model(4), {1: 3}),
    "quadric4": lambda: hypersurface_model(cp_model(5), {1: 2}),
    "H(1,2)": lambda: hypersurface_model(
        product_model(cp_model(1), cp_model(2)), {(1, 0): 1, (0, 1): 2}),
    **{f"W{k}": (lambda k=k: catalog(f"W{k}")) for k in range(1, 11)},
    **{f"TwCP({p},{q})": (lambda p=p, q=q: catalog(f"TwCP({p},{q})"))
       for p, q in ((1, 1), (2, 1), (3, 2), (1, 4))},
    **{f"json{i}": (lambda t=t: model_from_json(json.loads(t)))
       for i, t in enumerate(_TWISTED_JSON)},
}


def _assert_same(*values):
    # equal, and printed alike (a series prints its truncation order)
    assert all(v == values[0] for v in values[1:])
    assert len({str(v) for v in values}) == 1


@settings(max_examples=60, deadline=None)
@seed(20261023)
@given(name=st.sampled_from(_GENERA), model=st.sampled_from(sorted(_MODELS)),
       extra=st.integers(0, 2))
def test_evaluate_matches_the_sequence_on_models(name, model, extra):
    x = _MODELS[model]()
    spec = _spec(name, max(x.dim, 1) + extra)
    _assert_same(evaluate(spec, x), evaluate(spec, chern_vector(x)),
                 _sequence_value(spec, x))


_small_fractions = st.fractions(min_value=-20, max_value=20,
                                max_denominator=6)


@st.composite
def _chern_vectors(draw):
    dim = draw(st.integers(0, 8))
    numbers = {p: draw(st.just(0) | _small_fractions)
               for p in partitions(dim)}
    cv = ChernVector(dim, numbers)
    return cv + cv if draw(st.booleans()) else cv


@settings(max_examples=60, deadline=None)
@seed(20261024)
@given(name=st.sampled_from(_GENERA), cv=_chern_vectors())
def test_evaluate_matches_the_sequence_on_chern_vectors(name, cv):
    spec = _spec(name, max(cv.dim, 1))
    _assert_same(evaluate(spec, cv), _sequence_value(spec, cv))


@pytest.mark.parametrize("name", _GENERA)
def test_evaluate_on_a_point_and_on_zero(name):
    spec = _spec(name, 4)
    three = ChernVector(0, {(): 3})
    _assert_same(evaluate(spec, three), _sequence_value(spec, three),
                 spec.ring.dot([(spec.ring.one, 3)]))
    _assert_same(evaluate(spec, point_model()),
                 _sequence_value(spec, point_model()), spec.ring.one)
    for dim in (0, 1, 4):
        zero = ChernVector(dim)
        _assert_same(evaluate(spec, zero), _sequence_value(spec, zero),
                     spec.ring.zero)


def test_evaluate_reads_only_the_parts_with_nonzero_l():
    # l_m = 0 for odd m: odd dimensions give 0, and no odd part is read
    spec = GenusSpec(
        QQ, [F(0), F(0), F(1, 3), F(0), F(-2, 5), F(0), F(1, 7)])
    for x in (cp_model(3), cp_model(4), product_model(cp_model(2),
                                                      quartic_surface()),
              catalog("W5"), catalog("W4")):
        _assert_same(evaluate(spec, x), _sequence_value(spec, x))
        assert all(k % 2 == 0 for part in power_sum_numbers(x, [2, 4, 6])
                   for k in part)
    assert evaluate(spec, cp_model(5)) == 0


@pytest.mark.parametrize("x, drop", [
    (cp_model(2), 1), (cp_model(4), 1), (cp_model(4), 2),
    (product_model(cp_model(1), cp_model(2)), 1),
    # SU: p_1 = 0, so only a repeated larger part can tell
    (catalog("W6"), 2)], ids=["CP2", "CP4", "CP4-m2", "CP1xCP2", "W6"])
def test_negative_control_dropped_multiplicity_factorial(x, drop):
    # the term-by-term formula is the oracle's; without 1/m_drop! it is not
    spec = _spec("todd", x.dim)
    assert _power_sum_value(spec, x) == _sequence_value(spec, x)
    assert _power_sum_value(spec, x, drop=drop) != _sequence_value(spec, x)


def test_power_sum_numbers_of_projective_space():
    # p_m(CP^n) = (n + 1) g^m, so s_lambda = (n + 1)^len(lambda)
    for n in range(6):
        numbers = power_sum_numbers(cp_model(n), range(1, n + 1))
        assert numbers == {p: (n + 1) ** len(p) for p in partitions(n)}
        assert power_sum_numbers(chern_vector(cp_model(n)),
                                 range(1, n + 1)) == numbers
