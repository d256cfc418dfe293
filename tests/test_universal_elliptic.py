import random
from fractions import Fraction
from math import factorial

import pytest

from ellgenus.algebra_kernel import QQ, TruncatedSeries
from ellgenus.cohomology_models import catalog, cp_model
from ellgenus.genus_engine import (
    classical_genus,
    evaluate,
    multiplicative_sequence,
)
from ellgenus.universal_elliptic import (
    ABCD_RING,
    ABCDPoint,
    Q_RING,
    QuarticData,
    abcd_to_q,
    phi_ell,
    q_of_h,
    q_to_abcd,
    solve_h,
    specialize,
)
from ellgenus.universal_elliptic import test_vectors_Q3_Q4 as fiber_vectors
from ellgenus.weighted_poly import PolyRing

from _oracles import times_x

F = Fraction

A, B, C, D = ABCD_RING.gens()
q1, q2, q3, q4 = Q_RING.gens()


def universal_in_q(order):
    """phi_ell as a GenusSpec over Q[q1..q4]: the ODE solved in the quartic
    coordinates, an oracle for phi_ell's route through A, B, C, D."""
    return q_of_h(solve_h(QuarticData.generic(), order), name="phi_ell(q)")


def discriminant(p):
    """g2^3 - 27 g3^2 of the Weierstrass form of the quartic at p."""
    g2 = p.B ** 2 * F(1, 48) - 2 * p.D
    g3 = -(p.B ** 3) * F(1, 1728) + p.B * p.D * F(1, 12) - p.C ** 2
    return g2 ** 3 - 27 * g3 ** 2


# ---------------------------------------------------------------------------
# the ODE solution
# ---------------------------------------------------------------------------


def ode_residual(H, S):
    """x^4 ((h')^2 - S(h)) for h = H/x, through the order of H: with
    P = x H' - H = x^2 h', it is
    P^2 - H^4 - q1 x H^3 - q2 x^2 H^2 - q3 x^3 H - q4 x^4."""
    q1, q2, q3, q4 = S
    n = H.order
    P = times_x(H.derivative(), 1, n) - H
    H2 = H * H
    rhs = (H2 * H2 + times_x(H2 * H * q1, 1) + times_x(H2 * q2, 2)
           + times_x(H * q3, 3) + times_x(TruncatedSeries(H.ring, [q4], n), 4))
    return P * P - rhs


def _solve_h_by_residual(S, order):
    """Oracle for solve_h: rebuild the whole residual for each coefficient.

    The coefficient c_i of H = x h (trial value 0) is the residual at x^i
    divided by 2i + 2.
    """
    ring = S.ring
    coeffs = [ring.one] + [ring.zero] * order  # c_0 .. c_order
    for i in range(1, order + 1):
        r = ode_residual(TruncatedSeries(ring, coeffs), S).coeff(i)
        coeffs[i] = r * F(1, 2 * i + 2)
    return TruncatedSeries(ring, coeffs)


def _seeded_points(seed, count):
    rng = random.Random(seed)
    return [ABCDPoint(*(F(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9)) for _ in range(4)))
            for _ in range(count)]


def _same_series(a, b):
    return (a.order, a.coeffs) == (b.order, b.coeffs)


@pytest.mark.parametrize("order", range(1, 13))
def test_recurrence_matches_residual_oracle_generic(order):
    S = QuarticData.generic()
    assert _same_series(solve_h(S, order), _solve_h_by_residual(S, order))


@pytest.mark.parametrize("point", _seeded_points(20201, 3),
                         ids=["p0", "p1", "p2"])
def test_recurrence_matches_residual_oracle_at_points(point):
    S = abcd_to_q(point)
    for order in range(1, 21):
        assert _same_series(solve_h(S, order), _solve_h_by_residual(S, order))


def test_recurrence_matches_residual_oracle_trivial():
    S = QuarticData(F(0), F(0), F(0), F(0))
    for order in (1, 4, 10):
        assert _same_series(solve_h(S, order), _solve_h_by_residual(S, order))


def test_order_below_one_raises():
    with pytest.raises(ValueError):
        solve_h(QuarticData.generic(), 0)


_POINT = _seeded_points(7, 1)[0]
_SOUNDNESS_QUARTICS = [QuarticData.generic(), abcd_to_q(_POINT)]


@pytest.mark.parametrize("S", _SOUNDNESS_QUARTICS, ids=["generic", "point"])
def test_solve_h_truncation_soundness(S):
    for n in (1, 2, 5, 9):
        H, longer = solve_h(S, n), solve_h(S, n + 3)
        assert _same_series(H, longer.truncate(H.order))


@pytest.mark.parametrize("build", [
    phi_ell,
    lambda n: q_of_h(solve_h(abcd_to_q(_POINT), n)),
], ids=["generic", "point"])
def test_phi_ell_truncation_soundness(build):
    for n in (2, 5, 8):
        short, longer = build(n), build(n + 2)
        assert short.order == n
        assert short.q.coeffs == longer.q.coeffs[: n + 1]


def test_phi_ell_equals_substituted_q_genus():
    # solving in A, B, C, D agrees with solving in q1..q4 and substituting
    images = dict(zip(Q_RING.names, abcd_to_q(ABCDPoint.generic())))
    spec_q = universal_in_q(10)
    spec = phi_ell(10)
    assert spec.order == spec_q.order == 10
    assert spec.q.coeffs == [c.substitute(images, ring=ABCD_RING)
                             for c in spec_q.q.coeffs]


@pytest.mark.parametrize("n", range(1, 15))
def test_phi_ell_q_equals_exp_of_full_log(n):
    # Q built as exp((A/2) x) exp(sum_{k>=2} l_k x^k) equals the
    # exponential of the whole log over Q[A, B, C, D]
    spec = phi_ell(n)
    oracle = TruncatedSeries(ABCD_RING, spec.log_coeffs, n).exp()
    assert _same_series(spec.q, oracle)


def test_phi_ell_log_coefficients_beyond_first_avoid_A():
    spec = phi_ell(14)
    assert spec.log_coeffs[1] == A * F(1, 2)
    for k in range(2, 15):
        assert spec.log_coeffs[k].degree_in("A") == 0


def test_first_coefficient():
    H = solve_h(QuarticData.generic(), 6)
    assert H.coeff(0) == Q_RING.one
    assert H.coeff(1) == -q1 * F(1, 4)


def test_trivial_quartic_gives_1_over_x():
    S = QuarticData(F(0), F(0), F(0), F(0))
    H = solve_h(S, 10)
    assert H.coeff(0) == 1
    for i in range(1, 11):
        assert H.coeff(i) == 0


def test_ode_residual_vanishes():
    S = QuarticData.generic()
    res = ode_residual(solve_h(S, 10), S)
    assert res.order == 10
    for c in res.coeffs:
        assert c.is_zero()


def test_coefficients_are_homogeneous():
    H = solve_h(QuarticData.generic(), 8)
    for n in range(1, 9):
        c = H.coeff(n)
        if not c.is_zero():
            assert c.is_homogeneous(n)


def test_q_of_h_defining_relation():
    # f'/f = h = H/x, that is x f' = H f
    H = solve_h(QuarticData.generic(), 8)
    f = q_of_h(H).f_series
    x_fp = times_x(f.derivative(), 1, f.order)
    assert f.order == 8
    assert x_fp == H * f


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def test_roundtrip_on_generators():
    p = ABCDPoint.generic()
    back = q_to_abcd(abcd_to_q(p))
    assert list(back) == list(p)
    q = QuarticData.generic()
    back_q = abcd_to_q(q_to_abcd(q))
    assert list(back_q) == list(q)


def test_quartic_in_shifted_form():
    # y^4 + q1 y^3 + ... equals (y+A/2)^4 - B/4 (y+A/2)^2 + 4C (y+A/2)
    # + B^2/64 - 2D after the coordinate change
    big = PolyRing(("y", 1), ("A", 1), ("B", 2), ("C", 3), ("D", 4))
    y, bA, bB, bC, bD = big.gens()
    lift = {"A": bA, "B": bB, "C": bC, "D": bD}
    s = y + bA * F(1, 2)
    shifted = (
        s ** 4 - bB * F(1, 4) * s ** 2 + 4 * (bC * s)
        + bB ** 2 * F(1, 64) - 2 * bD
    )
    qs = [qi.substitute(lift, ring=big) for qi in abcd_to_q(ABCDPoint.generic())]
    plain = y ** 4 + qs[0] * y ** 3 + qs[1] * y ** 2 + qs[2] * y + qs[3]
    assert shifted == plain


def test_level2_point_in_q_coordinates():
    # A=0, B=-16 d, C=0, D=2 e -> S(y) = y^4 + 4 d y^2 + 4(d^2 - e)
    ring = PolyRing(("d", 2), ("e", 4))
    d, e = ring.gens()
    p = ABCDPoint(ring.zero, -16 * d, ring.zero, 2 * e, ring=ring)
    q = abcd_to_q(p)
    assert list(q) == [ring.zero, 4 * d, ring.zero, 4 * (d * d - e)]


def test_chi_y_point_in_q_coordinates():
    ring = PolyRing(("y", 1))
    y = ring.gen("y")
    p = QuarticData(2 * (ring.one - y), (ring.one + y) ** 2, ring.zero,
                    ring.zero, ring=ring)
    a = q_to_abcd(p)
    assert a.A == ring.one - y


def test_discriminant_identity():
    # g2^3 - 27 g3^2 as the printed quintic in B, C, D
    p = ABCDPoint.generic()
    expected = (
        -F(1, 32) * B ** 3 * C ** 2
        + F(9, 2) * (B * C ** 2 * D)
        + F(1, 16) * B ** 2 * D ** 2
        - 27 * C ** 4
        - 8 * D ** 3
    )
    assert discriminant(p) == expected


# ---------------------------------------------------------------------------
# the universal genus: printed coefficient lists
# ---------------------------------------------------------------------------


def test_q_coefficients_a1_to_a5():
    spec = phi_ell(6)
    a = spec.q.coeffs
    assert a[1] == A * F(1, 2)
    assert a[2] == (6 * A ** 2 - B) * F(1, 48)
    assert a[3] == (2 * A ** 3 - A * B + 16 * C) * F(1, 96)
    assert a[4] == (
        60 * A ** 4 - 60 * (A ** 2 * B) + 1920 * (A * C) + 7 * B ** 2
        - 1152 * D
    ) * F(1, 2 ** 9 * 3 ** 2 * 5)
    assert a[5] == (
        12 * A ** 5 - 20 * (A ** 3 * B) + 960 * (A ** 2 * C)
        + 7 * (A * B ** 2) - 1152 * (A * D) + 32 * (C * B)
    ) * F(1, 2 ** 10 * 3 ** 2 * 5)


def test_multiplicative_sequence_K1_to_K5():
    spec = phi_ell(6)
    ks = multiplicative_sequence(spec, 5)
    assert ks[1] == {(1,): A * F(1, 2)}
    assert ks[2] == {
        (2,): 2 * B * F(1, 48),
        (1, 1): (6 * A ** 2 - B) * F(1, 48),
    }
    assert ks[3] == {
        (3,): 48 * C * F(1, 96),
        (2, 1): (2 * (A * B) - 48 * C) * F(1, 96),
        (1, 1, 1): (2 * A ** 3 - A * B + 16 * C) * F(1, 96),
    }
    s4 = F(1, 2 ** 9 * 3 ** 2 * 5)
    assert ks[4] == {
        (4,): (-8 * B ** 2 + 4608 * D) * s4,
        (3, 1): (5760 * (A * C) + 8 * B ** 2 - 4608 * D) * s4,
        (2, 2): (24 * B ** 2 - 2304 * D) * s4,
        (2, 1, 1): (
            120 * (A ** 2 * B) - 5760 * (A * C) - 28 * B ** 2 + 4608 * D
        ) * s4,
        (1, 1, 1, 1): (
            60 * A ** 4 - 60 * (A ** 2 * B) + 1920 * (A * C) + 7 * B ** 2
            - 1152 * D
        ) * s4,
    }
    s5 = F(1, 2 ** 10 * 3 ** 2 * 5)
    assert ks[5] == {
        (5,): 960 * (B * C) * s5,
        (4, 1): (-8 * (A * B ** 2) + 4608 * (A * D) - 960 * (B * C)) * s5,
        (3, 1, 1): (
            8 * (A * B ** 2) + 2880 * (A ** 2 * C) - 4608 * (A * D)
            + 480 * (B * C)
        ) * s5,
        (2, 2, 1): (24 * (A * B ** 2) - 2304 * (A * D)) * s5,
        (2, 1, 1, 1): (
            40 * (A ** 3 * B) - 2880 * (A ** 2 * C) - 28 * (A * B ** 2)
            + 4608 * (A * D) - 160 * (B * C)
        ) * s5,
        (1, 1, 1, 1, 1): (
            12 * A ** 5 - 20 * (A ** 3 * B) + 960 * (A ** 2 * C)
            + 7 * (A * B ** 2) - 1152 * (A * D) + 32 * (B * C)
        ) * s5,
    }


def test_generator_manifold_values():
    spec = phi_ell(8)
    assert evaluate(spec, catalog("W1")) == A
    assert evaluate(spec, catalog("W2")) == B
    assert evaluate(spec, catalog("W3")) == C
    assert evaluate(spec, catalog("W4")) == D
    assert evaluate(spec, catalog("W5")).is_zero()
    assert evaluate(spec, catalog("W6")).is_zero()


def test_value_on_cp2():
    spec = phi_ell(4)
    assert evaluate(spec, cp_model(2)) == F(9, 8) * A ** 2 - F(1, 16) * B


def test_values_are_homogeneous():
    spec = phi_ell(6)
    for name in ("W2", "W3", "W4", "CP3", "CP5"):
        m = catalog(name)
        v = evaluate(spec, m)
        if not v.is_zero():
            assert v.is_homogeneous(m.dim if hasattr(m, "dim") else None)


def test_su_values_avoid_A():
    spec = phi_ell(6)
    for name in ("W2", "W4", "W5", "W6"):
        v = evaluate(spec, catalog(name))
        if not v.is_zero():
            assert v.degree_in("A") == 0


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


def test_specialize_signature():
    spec = phi_ell(8)
    sig = specialize(spec, ABCDPoint(F(0), F(-16), F(0), F(2)))
    classical = classical_genus("signature", order=8)
    for name in ("W2", "W3", "W4", "W5", "W6", "CP2", "CP4"):
        m = catalog(name)
        assert evaluate(sig, m) == evaluate(classical, m)


def test_specialize_a_hat():
    spec = phi_ell(8)
    ah = specialize(spec, ABCDPoint(F(0), F(2), F(0), F(0)))
    classical = classical_genus("a_hat", order=8)
    for name in ("W2", "W4", "CP2", "CP4"):
        assert evaluate(ah, catalog(name)) == evaluate(classical, catalog(name))
    assert evaluate(ah, catalog("W4")) == 0


def test_specialize_todd():
    spec = phi_ell(8)
    todd = specialize(spec, ABCDPoint(F(1), F(2), F(0), F(0)))
    for n in range(1, 7):
        assert evaluate(todd, cp_model(n)) == 1


def test_specialize_phi_A():
    # (A,B,C,D) = (2,0,0,0): value on CP_n is (n+1)^n / n!
    spec = phi_ell(8)
    phiA = specialize(spec, ABCDPoint(F(2), F(0), F(0), F(0)))
    for n in range(1, 7):
        assert evaluate(phiA, cp_model(n)) == F((n + 1) ** n, factorial(n))


@pytest.mark.parametrize("point", _seeded_points(20251, 4),
                         ids=["p0", "p1", "p2", "p3"])
def test_specialize_matches_q_substitution_and_ode_at_points(point):
    # the point goes into log Q; Q's own coefficients substituted, and the
    # ODE solved at the point, are two independent routes to the same Q
    spec = phi_ell(8)
    images = dict(zip(("A", "B", "C", "D"), point))
    got = specialize(spec, point)
    assert got.order == 8
    assert got.q.coeffs == [c.substitute(images, ring=QQ)
                            for c in spec.q.coeffs]
    at_point = q_of_h(solve_h(abcd_to_q(point), 8))
    assert got.log_coeffs == at_point.log_coeffs
    assert got.q.coeffs == at_point.q.coeffs


def test_specialize_chi_y_via_quartic():
    # q-point (2(1-y), (1+y)^2, 0, 0) reproduces chi_y coefficient-wise
    ring = PolyRing(("y", 1))
    y = ring.gen("y")
    point = QuarticData(2 * (ring.one - y), (ring.one + y) ** 2, ring.zero,
                        ring.zero, ring=ring)
    spec = specialize(universal_in_q(8), point)
    classical = classical_genus("chi_y", order=8)
    assert spec.q.coeffs == classical.q.coeffs


# ---------------------------------------------------------------------------
# the fiber-defect test vectors
# ---------------------------------------------------------------------------


def test_q3_q4_vectors():
    v3, v4 = fiber_vectors(6)
    assert v3 == q3 * F(3, 4)
    assert v4 == q1 * q3 * F(9, 16) + q4 * F(9, 8)
    kill = {"q1": q1, "q2": q2, "q3": Q_RING.zero, "q4": Q_RING.zero}
    assert v3.substitute(kill, ring=Q_RING).is_zero()
    assert v4.substitute(kill, ring=Q_RING).is_zero()
