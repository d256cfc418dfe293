from fractions import Fraction
from functools import lru_cache
from itertools import count, product, zip_longest
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ellgenus import cohomology_models, criteria, genus_engine, level_n
from ellgenus.algebra_kernel import QQ, TruncatedSeries
from ellgenus.cohomology_models import catalog, cp_model
from ellgenus.genus_engine import classical_genus, evaluate
from ellgenus.jacobi_q import y_model
from ellgenus.level_n import (
    AB_RING,
    GradedIdealPresentation,
    WrongPoleOrder,
    _echelon_insert,
    _lower_set,
    _point_values,
    _resultant,
    _zigzag,
    compute_level_data,
    degree_h0,
    eliminant,
    eliminate,
    in_ideal,
    kernel_membership,
    level2_modular_forms,
    newton_interpolate,
    poincare_series,
    reduce_mod_ideal,
    t_poly,
    to_q_coords,
)
from ellgenus.universal_elliptic import (
    ABCD_RING,
    ABCDPoint,
    Q_RING,
    QuarticData,
    abcd_to_q,
    q_of_h,
    solve_h,
)
from ellgenus.weighted_poly import WeightedPoly

from _oracles import bareiss_determinant, poly_mul, resultant_in, times_x

F = Fraction
A, B, C, D = ABCD_RING.gens()
q1, q2, q3, q4 = Q_RING.gens()


# ---------------------------------------------------------------------------
# oracle: the relations by symbolic expansion over Q[q1..q4]
# ---------------------------------------------------------------------------


def _to_abcd_coords(poly):
    images = dict(zip(Q_RING.names, abcd_to_q(ABCDPoint.generic())))
    return poly.substitute(images, ring=ABCD_RING)


@lru_cache(maxsize=None)
def _level_data_symbolic(N, order):
    """Solve 1/f^N + d_2N f^N = P_N(f'/f) over Q[q1..q4].

    Times x^N, with H = x f'/f and Q = x/f, the equation reads
    H^N + sum_i d_i x^i H^(N-i) = Q^N + d_2N x^N f^N.
    d: dict i -> d_i (weight i), i = 1..N; d2N of weight 2N;
    constraints: (k, poly) for the coefficient of the equation at every
    x^k, k != N, that is not zero, each of weight N + k; r_lower, r_upper
    normalized as in compute_level_data.
    """
    H = solve_h(QuarticData.generic(), order)
    spec = q_of_h(H)
    Hp = [TruncatedSeries.one_series(Q_RING, H.order)]
    for _ in range(N):
        Hp.append(Hp[-1] * H)
    acc = Hp[N] - spec.q ** N
    d = {}
    for i in range(1, N + 1):
        d[i] = -acc.coeff(i)
        acc = acc + times_x(Hp[N - i] * d[i], i)
    d2N = acc.coeff(2 * N)
    E = acc - times_x(spec.f_series ** N, N) * d2N
    constraints = [(k, E.coeff(N + k)) for k in range(1, E.order - N + 1)
                   if k != N and not E.coeff(N + k).is_zero()]

    r_lower = _to_abcd_coords(d[N - 1])
    r_lower = r_lower * (1 / r_lower.coeff((N - 1, 0, 0, 0)))
    first = next(c for k, c in constraints if k == 1)
    r_upper = _to_abcd_coords(first)
    r_upper = r_upper - A * A * r_lower * r_upper.coeff((N + 1, 0, 0, 0))
    r_upper = r_upper - B * r_lower * r_upper.coeff((N - 1, 1, 0, 0))
    return SimpleNamespace(d=d, d2N=d2N, constraints=constraints,
                           r_lower=r_lower, r_upper=r_upper.monic())


# ---------------------------------------------------------------------------
# the relations R_{N-1}, R_{N+1}
# ---------------------------------------------------------------------------


def test_relations_are_homogeneous():
    for N in (2, 3, 4, 5):
        data = compute_level_data(N)
        assert data.r_lower.is_homogeneous(N - 1)
        assert data.r_upper.is_homogeneous(N + 1)
        # leading A-power normalized to 1
        assert data.r_lower.coeff((N - 1, 0, 0, 0)) == 1


def test_level2_relations():
    data = compute_level_data(2)
    assert data.r_lower == A
    # the variety of (R_1, R_3) contains the line A = C = 0
    val = data.r_upper.substitute(
        {"A": F(0), "B": B, "C": F(0), "D": D}, ring=ABCD_RING
    )
    assert val.is_zero()


def test_level3_relations_match_known_ideal():
    data = compute_level_data(3)
    assert data.r_lower == A * A - B * F(1, 18)
    assert data.r_upper == A * C - D * F(1, 3)
    # in q-coordinates the ideal is <q2 + 3/4 q1^2, q4 + 1/2 q1 q3>
    g1 = q2 + q1 * q1 * F(3, 4)
    g2 = q4 + q1 * q3 * F(1, 2)
    ours = [data.r_lower_q(), data.r_upper_q()]
    assert in_ideal(g1, ours) and in_ideal(g2, ours)
    assert in_ideal(ours[0], [g1, g2]) and in_ideal(ours[1], [g1, g2])


def test_zolotarev_condition_consumed():
    # d_{N-1} itself is the lower relation (up to normalization)
    for N in (2, 3, 4):
        data = compute_level_data(N)
        dq = _level_data_symbolic(N, 2 * N + 4).d[N - 1]
        assert in_ideal(to_q_coords(data.r_lower), [dq])


def test_higher_constraints_lie_in_the_ideal():
    # every further constraint should reduce to zero modulo the two
    # relations (checked, not assumed, for small N)
    for N in (2, 3):
        data = compute_level_data(N)
        gens = [data.r_lower_q(), data.r_upper_q()]
        for _, c in _level_data_symbolic(N, 2 * N + 6).constraints:
            assert in_ideal(c, gens)


@pytest.mark.parametrize("N", range(2, 8))
def test_relations_match_symbolic_oracle(N):
    data = compute_level_data(N)
    oracle = _level_data_symbolic(N, 2 * N + 4)
    assert data.r_lower == oracle.r_lower
    assert data.r_upper == oracle.r_upper


def test_relations_truncation_sound(monkeypatch):
    # every node solved to the least ODE order N + 1 against every node
    # solved to the whole order 2N + 8
    minimal = {N: compute_level_data(N) for N in (2, 3, 4, 5)}
    monkeypatch.setattr(level_n, "_point_values", lambda N, point:
                        _point_values_full_window(N, 2 * N + 8, point))
    for N, data in minimal.items():
        deeper = compute_level_data(N)
        assert (data.r_lower, data.r_upper) == (deeper.r_lower,
                                                deeper.r_upper)


# ---------------------------------------------------------------------------
# oracle: the relations by Gauss-Jordan on points chosen by a rank test
# ---------------------------------------------------------------------------


def _slice_points():
    """Integer points (b, c, d) of growing height max(|b|, |c|, |d|)."""
    for height in count():
        for p in product(range(-height, height + 1), repeat=3):
            if max(map(abs, p)) == height:
                yield p


def _slice_row(support, point):
    """The monomials A^a B^b C^c D^d of support evaluated at (1, b, c, d)."""
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


def _solve(rows, values):
    """The unique x with rows x = values, by Gauss-Jordan on the augmented
    rows of a nonsingular square system."""
    basis = []
    for row, v in zip(rows, values):
        _echelon_insert(basis, list(row) + [v])
    assert sorted(c for c, _ in basis) == list(range(len(rows)))
    return [row[-1] for _, row in sorted(basis, key=lambda cr: cr[0])]


@lru_cache(maxsize=None)
def _level_data_gauss_jordan(N):
    """compute_level_data before the lower-set kernel: the supports'
    square systems at points kept only if they raise the rank."""
    support_lo = ABCD_RING.monomials_of_weight(N - 1)
    support_up = ABCD_RING.monomials_of_weight(N + 1)
    points_up = _unisolvent_points(support_up, _slice_points())
    points_lo = _unisolvent_points(support_lo, points_up)
    values = {p: _point_values(N, p) for p in points_up}

    def interpolate(support, points, which):
        coeffs = _solve([_slice_row(support, p) for p in points],
                        [values[p][which] for p in points])
        return WeightedPoly(ABCD_RING, dict(zip(support, coeffs)))

    r_lower = interpolate(support_lo, points_lo, 0)
    r_lower = r_lower * (1 / r_lower.coeff((N - 1, 0, 0, 0)))
    r_upper = interpolate(support_up, points_up, 1)
    r_upper = r_upper - A * A * r_lower * r_upper.coeff((N + 1, 0, 0, 0))
    r_upper = r_upper - B * r_lower * r_upper.coeff((N - 1, 1, 0, 0))
    return r_lower, r_upper.monic()


def _point_values_full_window(N, order, point, lam=1):
    """_point_values with the ODE solved through the whole order given, by
    the triangular d_i loop over QQ, at (A, B, C, D) = (lam, lam^2 b,
    lam^3 c, lam^4 d) for point = (b, c, d)."""
    b, c, d = point
    H = solve_h(abcd_to_q(ABCDPoint(F(lam), F(lam ** 2 * b),
                                    F(lam ** 3 * c), F(lam ** 4 * d))), order)
    log_q = q_of_h(H).log_coeffs
    q_to_n = TruncatedSeries(QQ, [c * N for c in log_q]).exp()  # x^N / f^N
    Hp = [TruncatedSeries.one_series(QQ, H.order)]
    for _ in range(N):
        Hp.append(Hp[-1] * H)
    # x^N times the equation of _level_data_symbolic
    acc = Hp[N] - q_to_n
    for i in range(1, N + 1):
        di = -acc.coeff(i)
        if i == N - 1:
            d_lower = di
        acc = acc + times_x(Hp[N - i] * di, i)
    return d_lower, acc.coeff(N + 1)


@pytest.mark.parametrize("N", range(2, 11))
def test_point_values_match_full_window(N):
    # the values read through x^1 do not depend on solving further
    nodes = [_zigzag(i) for i in range((N + 1) // 2 + 1)]
    for e in _lower_set((2, 3, 4), N + 1):
        point = [nodes[i] for i in e]
        assert _point_values(N, point) == \
            _point_values_full_window(N, 2 * N + 4, point)
        # N + 1 is the least order that reaches x^1
        with pytest.raises(IndexError):
            _point_values_full_window(N, N, point)


@pytest.mark.parametrize("N", range(2, 9))
def test_point_values_scale_with_the_weights(N):
    # the values are weighted homogeneous of weights N - 1 and N + 1, which
    # lets _point_values take them at lam = 4, where the quartic is integral
    nodes = [_zigzag(i) for i in range((N + 1) // 2 + 1)]
    for e in _lower_set((2, 3, 4), N + 1):
        point = [nodes[i] for i in e]
        lower, upper = _point_values_full_window(N, 2 * N + 4, point)
        for lam in (2, 3, 4):
            assert _point_values_full_window(N, 2 * N + 4, point, lam) == (
                lam ** (N - 1) * lower, lam ** (N + 1) * upper)


@lru_cache(maxsize=None)
def _data(N):
    return compute_level_data(N)


@pytest.mark.parametrize("N", range(2, 9))
def test_relations_match_gauss_jordan_route(N):
    data = _data(N)
    assert (data.r_lower, data.r_upper) == _level_data_gauss_jordan(N)


# ---------------------------------------------------------------------------
# the lower-set Newton kernel
# ---------------------------------------------------------------------------


def test_zigzag_nodes():
    assert [_zigzag(i) for i in range(7)] == [0, -1, 1, -2, 2, -3, 3]


@st.composite
def _lower_sets(draw):
    """A random lower set in 1..3 dimensions, as the downward closure of a
    few random index tuples."""
    dims = draw(st.integers(1, 3))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dims),
                         min_size=1, max_size=4))
    return sorted({e for t in tops
                   for e in product(*(range(k + 1) for k in t))})


@settings(max_examples=60, deadline=None)
@seed(20261018)
@given(lower=_lower_sets(), data=st.data())
def test_newton_interpolate_recovers_a_random_polynomial(lower, data):
    dims = len(lower[0])
    squares = data.draw(st.booleans())
    nodes = [[(i + 1) ** 2 if squares else _zigzag(i) for i in range(5)]
             for _ in range(dims)]
    fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    poly = {e: data.draw(fracs) for e in lower}

    def value(e):
        point = [x[i] for x, i in zip(nodes, e)]
        total = F(0)
        for m, c in poly.items():
            term = c
            for x, k in zip(point, m):
                term *= F(x) ** k
            total += term
        return total

    coef = newton_interpolate(lower, nodes, {e: value(e) for e in lower})
    assert coef == poly


def _sylvester_determinant(p, q):
    """The determinant of the (m + n)-square Sylvester matrix of p and q,
    of the formal degrees m and n, by fraction-free Bareiss elimination."""
    m, n = len(p) - 1, len(q) - 1
    rows = [[0] * r + p + [0] * (n - 1 - r) for r in range(n)]
    rows += [[0] * r + q + [0] * (m - 1 - r) for r in range(m)]
    return bareiss_determinant(rows, 0, 1)


@st.composite
def _int_polys(draw):
    """An int coefficient list, highest first, of formal degree 0..16, whose
    first few coefficients (at times all of them) are zero."""
    deg = draw(st.integers(0, 16))
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=deg + 1,
                           max_size=deg + 1))
    zeros = draw(st.sampled_from([0, 0, 1, 2, deg + 1]))
    return [0] * zeros + coeffs[zeros:]


@settings(max_examples=300, deadline=None)
@seed(20261020)
@given(p=_int_polys(), q=_int_polys())
@example(p=[0, 3, 1], q=[0, 0, 2, 5])  # both leading coefficients vanish
@example(p=[0, 0, 0], q=[1, 2, 3, 4])  # a zero polynomial
@example(p=[0, 0], q=[0])
@example(p=[7], q=[2, 0, 1])  # degree 0
@example(p=[0], q=[5])
@example(p=[0, 5], q=[3, 1, 4])  # p's leading coefficient vanishes
@example(p=[2, 1, 1, 3], q=[0, 0, 4])  # q's leading coefficients vanish
def test_resultant_equals_bareiss_on_the_sylvester_matrix(p, q):
    assert _resultant(p, q) == _sylvester_determinant(p, q)


def test_eliminant_level3():
    data = compute_level_data(3)
    res = eliminate(data)
    assert res.monic() == (B * C * C - 2 * (D * D)).monic()
    res_q = eliminant(data.r_lower_q(), data.r_upper_q())
    assert res_q.monic() == (q2 * q3 * q3 + 3 * (q4 * q4)).monic()


def test_eliminant_weights():
    for N in (2, 3, 4):
        res = eliminate(compute_level_data(N))
        assert res.is_homogeneous(N * N - 1)
        assert res.degree_in("A") == -1 or res.degree_in("A") == 0


def test_eliminant_level2_vanishes_at_classical_points():
    res = eliminate(compute_level_data(2))
    for b, c, d in ((F(-16), F(0), F(2)), (F(2), F(0), F(0))):
        v = res.substitute({"A": F(0), "B": b, "C": c, "D": d})
        assert v == 0


@pytest.mark.parametrize("N", range(2, 8))
def test_eliminant_equals_sylvester_resultant(N):
    # the symbolic Bareiss over Q[B, C, D] (or Q[q2, q3, q4]) is the oracle
    data = _data(N)
    assert eliminate(data) == resultant_in(data.r_lower, data.r_upper, "A")
    assert eliminant(data.r_lower_q(), data.r_upper_q()) == resultant_in(
        data.r_lower_q(), data.r_upper_q(), "q1")


def test_eliminant_keeps_the_formal_degrees():
    # both leading coefficients in A vanish at the node B = 1, D = 1, where
    # the Sylvester matrix has a zero first column; the resultant with the
    # degrees of the values there would be a nonzero constant instead
    p = (D - B * B) * A + B * C
    q = (D - B * B) * A * A + C * C - B * D * 3
    res = eliminant(p, q)
    assert res == resultant_in(p, q, "A")
    assert res.is_homogeneous(2 * 5 + 6 - 2)
    at_node = res.substitute({"A": F(0), "B": F(1), "C": F(2), "D": F(1)})
    assert at_node == 0
    # and in the q-coordinates, eliminating q1
    pq, qq = to_q_coords(p), to_q_coords(q)
    assert eliminant(pq, qq) == resultant_in(pq, qq, "q1")


def test_eliminant_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        eliminant(A + B, A * C)


# ---------------------------------------------------------------------------
# cusps
# ---------------------------------------------------------------------------


def cusp_points(N):
    """The two families of cusp values of (A, B, C, D) at level N.

    Type (i): A = 2(1/2 - k/N), B = 2, C = D = 0 for k = 1..N-1, over Q.
    Type (ii): A = (1-y)/(1+y), B = 2(y^2-10y+1)/(1+y)^2,
    C = y(y-1)/(1+y)^3, D = y(-y^2+4y-1)/(1+y)^4 with -y a primitive d-th
    root of unity, over Q[y] modulo the minimal polynomial of y, for each
    divisor d > 1 of N.
    """
    points = []
    for k in range(1, N):
        A = 2 * (F(1, 2) - F(k, N))
        points.append(ABCDPoint(A, F(2), F(0), F(0)))
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



def test_cusp_points_level2():
    pts = cusp_points(2)
    rational = [tuple(p) for p in pts if p.ring is QQ]
    assert (F(0), F(2), F(0), F(0)) in rational
    # type (ii) with y = 1 collapses to a rational point (0, -4, 0, 1/8)
    others = [p for p in pts if p.ring is not QQ]
    assert len(others) == 1
    p = others[0]
    vals = [x.coeffs[0] for x in p]
    assert vals == [F(0), F(-4), F(0), F(1, 8)]


def test_cusp_points_satisfy_relations():
    # the cusps come from closed formulas, independent of both routes to
    # the relations
    for N in range(2, 9):
        data = compute_level_data(N)
        for p in cusp_points(N):
            images = dict(zip(("A", "B", "C", "D"), p))
            for rel in (data.r_lower, data.r_upper):
                v = rel.substitute(images, ring=p.ring)
                if isinstance(v, Fraction):
                    assert v == 0
                else:
                    assert v.is_zero()


# ---------------------------------------------------------------------------
# T_{N-1}
# ---------------------------------------------------------------------------


def test_t_poly_small_cases():
    tA, tB = AB_RING.gens()
    assert t_poly(2) == tA
    assert t_poly(3) == tA * tA - tB * F(1, 18)
    for N in range(2, 8):
        assert t_poly(N).is_homogeneous(N - 1)


def test_a_tilde_of_cp_is_multiple_of_t_poly():
    spec = classical_genus("a_tilde", order=8)
    for N in range(2, 6):
        v = evaluate(spec, cp_model(N - 1))
        t = t_poly(N)
        assert not v.is_zero()
        lead_e, lead_c = t.leading()
        ratio = v.coeff(lead_e) / lead_c
        assert ratio != 0
        assert v == t * ratio


# ---------------------------------------------------------------------------
# Poincare series and h0
# ---------------------------------------------------------------------------


def _an_presentation(N):
    return GradedIdealPresentation((1, 2, 3, 4), (N - 1, N + 1))


def _one_minus_t_power(r):
    return [1] + [0] * (r - 1) + [-1]


def _product(*ps):
    out = [1]
    for p in ps:
        out = poly_mul(out, p)
    return out


def test_poincare_series_an():
    num, den = poincare_series(_an_presentation(3))
    assert num == _product(_one_minus_t_power(2), _one_minus_t_power(4))
    assert den == _product(*map(_one_minus_t_power, (1, 2, 3, 4)))


def test_poincare_series_footnote_identity():
    # (1-t^2)(1-t^4)/prod = (1-t^8)/((1-t^2)(1-t^3)(1-t^4))
    #                       + t (1-t^3)(1-t^4)/((1-t^2)(1-t^3)(1-t^4)),
    # cross-multiplied
    num, den = poincare_series(_an_presentation(3))
    t34 = _product(_one_minus_t_power(3), _one_minus_t_power(4))
    d = poly_mul(_one_minus_t_power(2), t34)
    rhs = [a + b for a, b in zip_longest(_one_minus_t_power(8), [0] + t34,
                                         fillvalue=0)]
    assert poly_mul(num, d) == poly_mul(rhs, den)


def test_poincare_series_zero_ideal():
    num, den = poincare_series(GradedIdealPresentation((1, 2, 3, 4), ()))
    assert num == [1]
    assert den == _product(*map(_one_minus_t_power, (1, 2, 3, 4)))


def test_poincare_bookkeeping_product():
    # adding a degree-r nonzerodivisor multiplies the series by (1 - t^r)
    base = GradedIdealPresentation((1, 2, 3, 4), (2,))
    bigger = GradedIdealPresentation((1, 2, 3, 4), (2, 5))
    (num, den), (base_num, base_den) = (poincare_series(bigger),
                                        poincare_series(base))
    assert den == base_den
    assert num == poly_mul(base_num, _one_minus_t_power(5))


def test_degree_h0_values():
    for N in range(2, 7):
        assert degree_h0(_an_presentation(N)) == N * N - 1
        res_pres = GradedIdealPresentation((2, 3, 4), (N * N - 1,))
        assert degree_h0(res_pres) == N * N - 1
    assert degree_h0(GradedIdealPresentation((1, 2, 3, 4), ())) == 1
    with pytest.raises(WrongPoleOrder):  # a degree-0 generator: P_I = 0
        degree_h0(GradedIdealPresentation((1, 2), (0,)))


# ---------------------------------------------------------------------------
# kernel membership
# ---------------------------------------------------------------------------


def test_reduce_mod_ideal_basics():
    # modulo <A> every multiple of A dies, nothing else does
    red = reduce_mod_ideal(A * B + C, [A])
    assert red == C
    assert in_ideal(A * A * B - A * D, [A])
    assert not in_ideal(B * B, [A])


def test_phi_tilde_kernel_cp():
    for N in (2, 3, 4, 5):
        [(zero, _)] = kernel_membership("phi_tilde_N", [cp_model(N - 1)], N)
        assert zero
    # and CP_N is not in the kernel
    for N in (2, 3):
        [(zero, red)] = kernel_membership("phi_tilde_N", [cp_model(N)], N)
        assert not zero and not red.is_zero()


def test_phi_tilde_kernel_twisted_cp():
    for N in (2, 3, 4):
        m = catalog(f"TwCP({N + 1},1)")
        [(zero, _)] = kernel_membership("phi_tilde_N", [m], N)
        assert zero


def test_phi_tilde_kernel_w5():
    [(zero, _)] = kernel_membership("phi_tilde_N", [catalog("W5")], 2)
    assert zero


def test_a_tilde_kernel():
    for N in (2, 3, 4):
        models = [catalog("W3"), cp_model(N - 1), cp_model(N)]
        zeros = [z for z, _ in kernel_membership("a_tilde_N", models, N)]
        assert zeros == [True, True, False]


def test_kernel_membership_batch_matches_one_at_a_time():
    # the genus is built at the largest dimension among the models, and
    # the answers do not depend on which other models share the call
    models = [cp_model(1), cp_model(2), catalog("TwCP(4,1)"), cp_model(3),
              catalog("W5")]
    for name in ("phi_tilde_N", "a_tilde_N"):
        batch = kernel_membership(name, models, 3)
        assert batch == [kernel_membership(name, [m], 3)[0] for m in models]
    assert [z for z, _ in kernel_membership("phi_tilde_N", models, 3)] == [
        False, True, True, False, True]


def test_kernel_membership_unknown_name():
    with pytest.raises(ValueError, match="unknown kernel name"):
        kernel_membership("phi_N", [cp_model(1)], 2)


def test_criterion_5_builds_each_level_once(monkeypatch):
    # one question per N about CP_{N-1} and TwCP(N+1,1): one level data
    # and one phi_ell for each of N = 2, 3, 4
    levels, orders = [], []
    real_level, real_phi = level_n.compute_level_data, level_n.phi_ell

    def counted_level(N):
        levels.append(N)
        return real_level(N)

    def counted_phi(order):
        orders.append(order)
        return real_phi(order)

    monkeypatch.setattr(level_n, "compute_level_data", counted_level)
    monkeypatch.setattr(level_n, "phi_ell", counted_phi)
    assert criteria.criterion_5() == (
        True, "kernel memberships and T_{N-1} proportionality hold")
    assert levels == [2, 3, 4]
    assert len(orders) == 3


@pytest.mark.parametrize("module", [level_n, genus_engine,
                                    cohomology_models])
def test_no_module_level_containers(module):
    # results depend on the arguments alone: no table carried between
    # calls at module level
    assert not [name for name, v in vars(module).items()
                if isinstance(v, (dict, list, set))
                and not name.startswith("__")]


# ---------------------------------------------------------------------------
# level-2 modular forms
# ---------------------------------------------------------------------------


def test_delta_expansion():
    delta, _ = level2_modular_forms(6)
    # 1/4 + 6 q + 6 q^2 + 24 q^3 + 6 q^4 + 36 q^5 + 24 q^6
    assert delta.coeff(0) == F(1, 4)
    assert [delta.coeff(n) for n in range(1, 7)] == [6, 6, 24, 6, 36, 24]


def test_epsilon_equals_theta4_power():
    # independent oracle: prod ((1-q^n)/(1+q^n))^8 = theta_4(q)^8 with
    # theta_4 = 1 + 2 sum (-1)^n q^{n^2} (Jacobi triple product)
    qorder = 12
    _, eps = level2_modular_forms(qorder)

    def theta4_coeff(e):
        for n in range(0, qorder + 1):
            if n * n == e:
                return F(2 * (-1) ** n) if n else F(1)
        return F(0)

    theta4 = TruncatedSeries.from_function(QQ, theta4_coeff, qorder)
    expected = (theta4 ** 8) * F(1, 16)
    assert eps == expected.truncate(eps.order)


def test_epsilon_cusp_value():
    delta, eps = level2_modular_forms(4)
    # at the cusp q = 0: epsilon = delta^2 (the signature relation)
    assert eps.coeff(0) == delta.coeff(0) ** 2
