import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, seed
from hypothesis import strategies as st

from ellgenus.cohomology_models import (
    ChernVector,
    CohomologyModel,
    StructureTable,
    UnknownName,
    catalog,
    chern_vector,
    cp_model,
    hypersurface_model,
    milnor_number,
    partitions,
    point_model,
    power_sums_in_chern,
    product_model,
    quartic_surface,
)
from ellgenus.manifold_json import BadManifold, model_from_json
from ellgenus.twisted_bundles import (
    tw_cp,
    twisted_proj_bundle_model,
    w_even,
    w_odd,
)

from _oracles import (
    cp_chern,
    hypersurface_chern,
    newton_power_sums,
    product_chern,
    twisted_bundle_chern,
)

F = Fraction


# ---------------------------------------------------------------------------
# projective spaces
# ---------------------------------------------------------------------------


def test_point_model():
    pt = point_model()
    assert pt.dim == 0
    assert pt.integrate(pt.one_elt()) == 1
    assert chern_vector(pt).numbers == {(): F(0)} or True
    assert milnor_number(pt) == 1


def test_cp2_chern_numbers():
    m = cp_model(2)
    cv = chern_vector(m)
    assert cv[(1, 1)] == 9
    assert cv[(2,)] == 3


def test_cp_milnor_numbers():
    for n in range(1, 7):
        assert milnor_number(cp_model(n)) == n + 1


def test_product_cp1_cp1():
    m = product_model(cp_model(1), cp_model(1))
    cv = chern_vector(m)
    assert cv[(1, 1)] == 8
    assert cv[(2,)] == 4
    assert milnor_number(m) == 0


def test_product_with_point_is_identity():
    m = product_model(cp_model(2), point_model())
    assert chern_vector(m).numbers == chern_vector(cp_model(2)).numbers


def test_product_chern_convolution():
    # chern numbers of CP1 x CP2 from the two factors' vectors
    m = product_model(cp_model(1), cp_model(2))
    cv = chern_vector(m)
    # c(CP1xCP2) = (1+2g1)(1+3g2+3g2^2); c_3 = c1(X)c2(Y) term = 2g1*3g2^2
    assert cv[(3,)] == 6
    # c1^3 = (2g1+3g2)^3 integrates 3*(2g1)(3g2)^2 = 54
    assert cv[(1, 1, 1)] == 54


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------


def test_quartic_surface_is_k3():
    m = quartic_surface()
    cv = chern_vector(m)
    assert cv[(1, 1)] == 0
    assert cv[(2,)] == 24
    assert milnor_number(m) == -48


def test_linear_hypersurface_is_cp_nminus1():
    amb = cp_model(3)
    h = hypersurface_model(amb, {1: F(1)})
    assert chern_vector(h).numbers == chern_vector(cp_model(2)).numbers


def test_degree_d_curve_genus_data():
    # degree-3 curve in CP2 (elliptic): c1 = (3-3)g = 0
    amb = cp_model(2)
    h = hypersurface_model(amb, {1: F(3)})
    assert chern_vector(h)[(1,)] == 0


# ---------------------------------------------------------------------------
# twisted projective bundles
# ---------------------------------------------------------------------------


def test_tw_cp22():
    m = tw_cp(2, 2)
    # c = (1+t)^2 (1-t)^2 = 1 - 2t^2; with d = -t: c2*d = 2, d^3 = -1
    c2 = m.chern_class(2)
    t = {(0, 1): F(1)}
    d = m.scale(t, F(-1))
    assert m.integrate(m.mul(c2, d)) == 2
    assert m.integrate(m.power(d, 3)) == -1
    assert m.chern_class(1) == {}
    assert m.chern_class(3) == {}


def test_tw_cp_n1_chern_class():
    # C~P_{N+1,1} has c = (1+t)^{N+1} (1-t) and orientation -1
    for N in (2, 3, 4):
        m = tw_cp(N + 1, 1)
        assert m.dim == N + 1
        for i in range(0, N + 2):
            expected = F(comb(N + 1, i) - comb(N + 1, i - 1)) if i >= 1 else F(1)
            got = m.chern_class(i)
            coeff = got.get((0, i), F(0))
            assert coeff == expected
        # integral of t^{dim} is (-1)^q = -1
        t = {(0, 1): F(1)}
        assert m.integrate(m.power(t, N + 1)) == -1


def test_tw_cp_nn_all_chern_numbers_vanish():
    # C~P_{n,n} has c = (1-t^2)^n, and every Chern number vanishes
    for n in (2, 3):
        m = tw_cp(n, n)
        cv = chern_vector(m)
        assert all(v == 0 for v in cv.numbers.values())


def test_w5_chern_numbers():
    m = w_odd(2)
    cv = chern_vector(m)
    assert m.dim == 5
    assert cv[(3, 2)] == -256
    assert cv[(5,)] == 0
    assert cv.is_su()
    assert milnor_number(m) == 1280


def test_w6_chern_numbers():
    m = w_even(2)
    cv = chern_vector(m)
    assert m.dim == 6
    assert cv[(2, 2, 2)] == 192
    assert cv[(4, 2)] == 192
    assert cv[(3, 3)] == 192
    assert cv[(6,)] == 0
    assert cv.is_su()
    assert milnor_number(m) == 1344


def test_is_su_in_low_dimensions():
    # the point has no Chern number involving c_1, so it is SU; CP1 has
    # c_1 = 2 and CP2 has c_1^2 = 9, so neither is
    assert chern_vector(point_model()).is_su()
    assert not chern_vector(cp_model(1)).is_su()
    assert not chern_vector(cp_model(2)).is_su()
    assert ChernVector(1).is_su()
    assert ChernVector(2, {(2,): 24}).is_su()
    assert not ChernVector(2, {(1, 1): 1}).is_su()


def test_chern_vector_refuses_a_part_below_1():
    # (3, -1) sums to 2 but is no partition; it was stored and ignored
    for part in ((3, -1), (2, 0), (-1, 3)):
        with pytest.raises(ValueError, match="has a part below 1"):
            ChernVector(2, {part: 5})
    with pytest.raises(ValueError, match="does not sum to 2"):
        ChernVector(2, {(3,): 5})
    assert ChernVector(0, {(): 1})[()] == 1


@pytest.mark.parametrize("keys", [("2,1", "1,2"), ("1,2", "2,1"),
                                  ("1,1,1", "1, 1,1")])
def test_chern_numbers_naming_one_partition_twice_are_refused(keys):
    # the value kept depended on the order of the keys
    first, second = keys
    obj = {"type": "chern_numbers", "dim": 3,
           "numbers": {first: "24", second: "0"}}
    with pytest.raises(BadManifold) as err:
        model_from_json(obj)
    assert str(err.value) == (f"manifold JSON: Chern numbers {first!r} and "
                              f"{second!r} name one partition")


def test_w_family_milnor_numbers():
    # s(W_{2n+1}) = (-1)^n 128 n (2n+1), s(W_{2n+2}) = (-1)^n 192 (n-1)(2n-3)(2n+3)
    for n in (2, 3):
        assert milnor_number(w_odd(n)) == (-1) ** n * 128 * n * (2 * n + 1)
        assert milnor_number(w_even(n)) == (
            (-1) ** n * 192 * (n - 1) * (2 * n - 3) * (2 * n + 3)
        )


def test_twisted_first_chern_class():
    # c1 = c1(B) + c1(E) + c1(F) + (p - q) t
    base = cp_model(2)
    g = {1: F(1)}
    m = twisted_proj_bundle_model(
        base, e_lines=[base.scale(g, 2)], e_trivial=1,
        f_lines=[base.scale(g, -3)], f_trivial=0,
    )
    c1 = m.chern_class(1)
    # c1(B) = 3g, c1(E) = 2g, c1(F) = -3g, (p-q) t = t
    assert c1.get((1, 0), F(0)) == 3 + 2 - 3
    assert c1.get((0, 1), F(0)) == 1


# ---------------------------------------------------------------------------
# closed-form Milnor oracles for twisted bundles (independently coded)
# ---------------------------------------------------------------------------


def _milnor_oracle_base2(base, e_lines, e_trivial, f_lines, f_trivial):
    """Closed form for a 2-dimensional base; total space of odd dimension."""
    p = len(e_lines) + e_trivial
    q = len(f_lines) + f_trivial
    d = p + q + 1
    c1E = base.zero_elt()
    for x in e_lines:
        c1E = base.add(c1E, x)
    c1F = base.zero_elt()
    for y in f_lines:
        c1F = base.add(c1F, y)
    # V = E + F-bar
    v_roots = (
        list(e_lines) + [base.zero_elt()] * e_trivial
        + [base.scale(y, F(-1)) for y in f_lines] + [base.zero_elt()] * f_trivial
    )
    cv = base.one_elt()
    for x in v_roots:
        cv = base.mul(cv, base.add(base.one_elt(), x))
    c1V = base.degree_part(cv, 1)
    c2V = base.degree_part(cv, 2)
    # c1(E)^2 - 2 c2(E) = sum of squares of E roots; same for F
    sqE = base.zero_elt()
    for x in e_lines:
        sqE = base.add(sqE, base.mul(x, x))
    sqF = base.zero_elt()
    for y in f_lines:
        sqF = base.add(sqF, base.mul(y, y))
    term = base.add(
        base.scale(base.add(base.mul(c1V, c1V), base.scale(c2V, F(-1))),
                   F(p - q)),
        base.scale(base.mul(c1V, base.add(c1E, c1F)), F(-d)),
    )
    term = base.add(term, base.scale(base.add(sqE, base.scale(sqF, F(-1))),
                                     F(comb(d, 2))))
    return F((-1) ** q) * base.integrate(term)


def _milnor_oracle_base3(base, e_lines, e_trivial, f_lines, f_trivial):
    """Closed form for a 3-dimensional base; total space of even dimension."""
    p = len(e_lines) + e_trivial
    q = len(f_lines) + f_trivial
    d = p + q + 2
    v_roots = (
        list(e_lines) + [base.zero_elt()] * e_trivial
        + [base.scale(y, F(-1)) for y in f_lines] + [base.zero_elt()] * f_trivial
    )
    cv = base.one_elt()
    for x in v_roots:
        cv = base.mul(cv, base.add(base.one_elt(), x))
    c1 = base.degree_part(cv, 1)
    c2 = base.degree_part(cv, 2)
    c3 = base.degree_part(cv, 3)
    c1c2 = base.mul(c1, c2)
    c13 = base.power(c1, 3)
    total = base.zero_elt()
    total = base.add(total, base.scale(
        base.add(base.add(base.scale(c3, F(-1)), base.scale(c1c2, F(2))),
                 base.scale(c13, F(-1))), F(d - 2)))
    total = base.add(total, base.scale(
        base.mul(c1, base.add(base.mul(c1, c1), base.scale(c2, F(-1)))), F(d)))
    total = base.add(total, base.scale(
        base.mul(c1, base.add(base.scale(base.mul(c1, c1), F(-1)),
                              base.scale(c2, F(2)))), F(comb(d, 2))))
    total = base.add(total, base.scale(
        base.add(base.add(c13, base.scale(c1c2, F(-3))),
                 base.scale(c3, F(3))), F(comb(d, 3))))
    return F((-1) ** q) * base.integrate(total)


@seed(20240821)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=2),
       st.integers(min_value=0, max_value=2),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=2),
       st.integers(min_value=0, max_value=2))
def test_milnor_closed_form_base2(e_c1s, e_triv, f_c1s, f_triv):
    base = cp_model(2)
    g = {1: F(1)}
    e_lines = [base.scale(g, c) for c in e_c1s]
    f_lines = [base.scale(g, c) for c in f_c1s]
    # the closed form needs an even total fiber rank (odd-dimensional total space)
    total = len(e_lines) + e_triv + len(f_lines) + f_triv
    if total % 2 == 1 or total == 0:
        e_triv += 2 - (total % 2)
    m = twisted_proj_bundle_model(base, e_lines, e_triv, f_lines, f_triv)
    oracle = _milnor_oracle_base2(base, e_lines, e_triv, f_lines, f_triv)
    assert milnor_number(m) == oracle


@seed(20240822)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=0, max_size=2),
       st.integers(min_value=0, max_value=2),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=0, max_size=2),
       st.integers(min_value=0, max_value=2))
def test_milnor_closed_form_base3(e_c1s, e_triv, f_c1s, f_triv):
    base = cp_model(3)
    g = {1: F(1)}
    e_lines = [base.scale(g, c) for c in e_c1s]
    f_lines = [base.scale(g, c) for c in f_c1s]
    # the closed form needs an even total fiber rank (even-dimensional total space)
    total = len(e_lines) + e_triv + len(f_lines) + f_triv
    if total % 2 == 1 or total == 0:
        e_triv += 2 - (total % 2)
    m = twisted_proj_bundle_model(base, e_lines, e_triv, f_lines, f_triv)
    oracle = _milnor_oracle_base3(base, e_lines, e_triv, f_lines, f_triv)
    assert milnor_number(m) == oracle


# ---------------------------------------------------------------------------
# on-demand structure constants against full-table constructions
# ---------------------------------------------------------------------------


def _bundle_table_by_reduction(base, e_lines, e_trivial, f_lines, f_trivial):
    """Every structure constant of the twisted bundle, each product
    (b1, j1)(b2, j2) = (b1 b2) t^(j1 + j2) reduced term by term with
    t^j = -sum_k c_k(V) t^(j-k) until every power of t is below r."""
    r = len(e_lines) + e_trivial + len(f_lines) + f_trivial
    cv_total = base.one_elt()
    for x in list(e_lines) + [base.scale(y, F(-1)) for y in f_lines]:
        cv_total = base.mul(cv_total, base.add(base.one_elt(), x))
    cV = [base.degree_part(cv_total, k) for k in range(r + 1)]

    def reduce_elt(raw):
        out = {}
        pending = dict(raw)
        while pending:
            (bl, j), c = pending.popitem()
            if c == 0:
                continue
            if j < r:
                out[(bl, j)] = out.get((bl, j), F(0)) + c
                continue
            for k in range(1, r + 1):
                for bl2, c2 in base.mul({bl: c}, cV[k]).items():
                    key = (bl2, j - k)
                    pending[key] = pending.get(key, F(0)) - c2
        return {l: c for l, c in out.items() if c != 0}

    labels = [(bl, j) for bl in base.labels for j in range(r)]
    table = {}
    for bl1, j1 in labels:
        for bl2, j2 in labels:
            b = base.mul({bl1: F(1)}, {bl2: F(1)})
            table[(bl1, j1), (bl2, j2)] = reduce_elt(
                {(bl3, j1 + j2): s for bl3, s in b.items()})
    return table


def _forced_table(m):
    return {(l1, l2): m.mul_table[l1, l2] for l1 in m.labels
            for l2 in m.labels}


def _random_line(rng, base):
    # a rational class on the degree-2 basis, as the JSON schema allows
    return {l: F(rng.randint(-4, 4), rng.randint(1, 3))
            for l in base.labels if base.degree[l] == 1}


BASES = {
    "CP0": lambda: cp_model(0),
    "CP1": lambda: cp_model(1),
    "CP2": lambda: cp_model(2),
    "CP3": lambda: cp_model(3),
    "quartic": quartic_surface,
    "CP1xCP1": lambda: product_model(cp_model(1), cp_model(1)),
}


@pytest.mark.parametrize("name", list(BASES))
def test_bundle_table_matches_reduction(name):
    rng = random.Random(f"bundle-table-{name}")
    base = BASES[name]()
    # rank 1 from E, rank 1 from F, an F-only bundle, then random ones
    shapes = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1)] + [
        tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(6)]
    for ne, et, nf, ft in shapes:
        if ne + et + nf + ft == 0:
            et = 1
        e_lines = [_random_line(rng, base) for _ in range(ne)]
        f_lines = [_random_line(rng, base) for _ in range(nf)]
        m = twisted_proj_bundle_model(base, e_lines, et, f_lines, ft)
        assert _forced_table(m) == _bundle_table_by_reduction(
            base, e_lines, et, f_lines, ft)


def test_product_table_matches_tensor_product():
    x, y = cp_model(2), tw_cp(2, 1)
    m = product_model(x, y)
    expected = {}
    for a1, b1 in m.labels:
        for a2, b2 in m.labels:
            out = {}
            for a3, s1 in x.mul({a1: F(1)}, {a2: F(1)}).items():
                for b3, s2 in y.mul({b1: F(1)}, {b2: F(1)}).items():
                    out[(a3, b3)] = s1 * s2
            expected[(a1, b1), (a2, b2)] = out
    assert _forced_table(m) == expected


def _chern_number(m, part):
    u = m.one_elt()
    for p in part:
        u = m.mul(u, m.chern_class(p))
    return m.integrate(u)


@pytest.mark.parametrize("name", ["CP0", "CP4", "W1", "W2", "W5", "W6", "W7",
                                  "W8", "TwCP(3,2)"])
def test_chern_vector_matches_per_partition_products(name):
    m = catalog(name)
    assert chern_vector(m).numbers == {
        p: _chern_number(m, p) for p in partitions(m.dim)}


def test_chern_vector_of_products_and_bundles():
    rng = random.Random(20261018)
    base = product_model(cp_model(1), cp_model(1))
    models = [product_model(cp_model(2), catalog("W2")),
              twisted_proj_bundle_model(
                  base, [_random_line(rng, base)], 1,
                  [_random_line(rng, base)], 1)]
    for m in models:
        assert chern_vector(m).numbers == {
            p: _chern_number(m, p) for p in partitions(m.dim)}


def _model_data(m):
    """Every structure constant, root and Chern-class coefficient and
    integral."""
    for l1 in m.labels:
        for l2 in m.labels:
            yield from m.mul_table[l1, l2].values()
    for x, _ in m.roots:
        yield from x.values()
    yield from m.chern.values()
    yield from m.integral.values()


def _integral_line(rng, base):
    return {l: rng.randint(-4, 4) * F(1)
            for l in base.labels if base.degree[l] == 1}


def test_integral_models_store_ints():
    rng = random.Random(20261019)
    models = [cp_model(n) for n in range(5)] + [
        product_model(cp_model(2), catalog("W2")),
        product_model(cp_model(1), tw_cp(2, 1))]
    for n in (2, 3):
        base = cp_model(n)
        models.append(twisted_proj_bundle_model(
            base, [_integral_line(rng, base)], 1,
            [_integral_line(rng, base) for _ in range(2)], 1))
    # W3 and W4 are given by their Chern numbers, not by a model
    models += [catalog(f"W{k}") for k in range(1, 22) if k not in (3, 4)]
    for m in models:
        for v in _model_data(m):
            assert type(v) is int, (m.name, v)


def _fraction_copy(m):
    """The same model with every structure constant, root coefficient
    and integral a Fraction."""
    def entry(l1, l2):
        return {l: F(c) for l, c in m.mul_table[l1, l2].items()}

    return CohomologyModel(
        m.dim, m.labels, m.degree, m.unit, StructureTable(entry),
        {l: F(c) for l, c in m.integral.items()},
        [({l: F(c) for l, c in x.items()}, k) for x, k in m.roots],
        name=m.name)


@pytest.mark.parametrize("n", [2, 3])
def test_int_data_give_the_chern_numbers_of_fraction_data(n):
    rng = random.Random(f"int-data-{n}")
    base = cp_model(n)
    for trial in range(6):
        # integral lines, then half-integral ones
        den = 1 if trial < 3 else 2
        lines = [{1: F(rng.randint(-5, 5), den)} for _ in range(3)]
        m = twisted_proj_bundle_model(base, lines[:1], trial % 2,
                                      lines[1:], 1)
        cv = chern_vector(m)
        assert cv == chern_vector(_fraction_copy(m)), (n, trial)
        assert all(type(v) is Fraction for v in cv.numbers.values())


def test_chern_numbers_fill_part_of_the_table():
    # structure constants are computed on first use, and the Chern numbers
    # of W5 and of CP2 x W2 read only part of their tables
    for m in (catalog("W5"), product_model(cp_model(2), catalog("W2"))):
        chern_vector(m)
        assert 0 < len(m.mul_table) < len(m.labels) ** 2


def test_is_su_agrees_with_the_chern_numbers():
    # is_su reads the power-sum numbers when c_1 is nonzero in the ring
    rng = random.Random(20261020)
    models = [catalog(name) for name in (
        "CP0", "CP1", "CP2", "CP3", "W1", "W2", "W5", "W6", "W7",
        "TwCP(1,1)", "TwCP(2,1)", "TwCP(2,2)", "TwCP(3,1)")]
    models += [product_model(cp_model(1), cp_model(1)),
               product_model(catalog("K3"), catalog("K3")),
               product_model(cp_model(1), catalog("K3")),
               product_model(tw_cp(1, 1), cp_model(2))]
    cp1xcp2 = product_model(cp_model(1), cp_model(2))
    models += [hypersurface_model(cp_model(4), {1: 5}),
               hypersurface_model(cp_model(3), {1: 2}),
               # L trivial: every number is 0 though c_1 = 4g is not
               hypersurface_model(cp_model(3), {}),
               # c_1 = h_1 with h_1^2 = 0, so SU though nonzero
               hypersurface_model(cp1xcp2, {(1, 0): 1, (0, 1): 3}),
               hypersurface_model(cp1xcp2, {(1, 0): 2, (0, 1): 1})]
    for name in ("CP1", "CP2", "quartic", "CP1xCP1"):
        base = BASES[name]()
        for _ in range(3):
            ne, et, nf, ft = (rng.randint(0, 2) for _ in range(4))
            models.append(twisted_proj_bundle_model(
                base, [_random_line(rng, base) for _ in range(ne)],
                et or not (ne or nf or ft),
                [_random_line(rng, base) for _ in range(nf)], ft))
    su = [m.is_su() for m in models]
    assert su == [chern_vector(m).is_su() for m in models]
    assert True in su and False in su
    # the power-sum route decides both ways
    assert {m.is_su() for m in models if any(m.chern_class(1).values())} \
        == {True, False}


# ---------------------------------------------------------------------------
# the splitting principle: c(TX) and the power sums from the roots
# ---------------------------------------------------------------------------


# Each helper below gives a model and c(TX) by its constructor's formula.


def _cp(n):
    return cp_model(n), cp_chern(n)


def _product(a, b):
    (x, cx), (y, cy) = a, b
    return product_model(x, y), product_chern(cx, cy)


def _hypersurface(a, c1_L):
    ambient, c = a
    return (hypersurface_model(ambient, c1_L),
            hypersurface_chern(ambient, c, c1_L))


def _bundle(a, e_lines, e_trivial, f_lines, f_trivial):
    base, c = a
    m = twisted_proj_bundle_model(base, e_lines, e_trivial, f_lines,
                                  f_trivial)
    return m, twisted_bundle_chern(m, base, c, e_lines, e_trivial, f_lines,
                                   f_trivial)


def _w(k):
    """W_k (k != 3, 4) by the constructors' formulas, as in the catalog."""
    if k == 1:
        return _cp(1)
    k3 = _hypersurface(_cp(3), {1: 4})
    if k == 2:
        return k3
    n = (k - 1) // 2 if k % 2 else (k - 2) // 2
    if k % 2:
        return _bundle(k3, [{1: 8}], n - 1, [{1: -4}, {1: -4}], n - 2)
    return _bundle(_cp(3), [{1: 4}], n - 1, [{1: -8}], n - 1)


def _lines(rng, base, count, den):
    return [{l: F(rng.randint(-4, 4), den) for l in base.labels
             if base.degree[l] == 1} for _ in range(count)]


def _root_models():
    """(model, c(TX) by its constructor's formula) for every kind of
    model: projective spaces, products, hypersurfaces in CP_n and in
    products, seeded random twisted bundles with integral and
    half-integral lines, the catalog's W1..W21 and JSON models."""
    out = [_cp(n) for n in range(6)]
    cp1xcp2 = _product(_cp(1), _cp(2))
    out += [cp1xcp2, _product(_cp(2), _cp(0)),
            _product(_product(_cp(1), _cp(1)), _cp(1)),
            _product(_cp(2), _hypersurface(_cp(3), {1: 4}))]
    out += [_hypersurface(_cp(4), {1: 5}), _hypersurface(_cp(3), {1: 2}),
            _hypersurface(_cp(3), {}), _hypersurface(_cp(1), {1: 3}),
            _hypersurface(cp1xcp2, {(1, 0): 1, (0, 1): 3}),
            _hypersurface(cp1xcp2, {(1, 0): F(1, 2), (0, 1): -1}),
            _hypersurface(_hypersurface(_cp(4), {1: 2}), {1: 3})]
    rng = random.Random(20261021)
    bases = [_cp(1), _cp(2), _hypersurface(_cp(3), {1: 4}),
             _product(_cp(1), _cp(1))]
    for trial in range(12):
        base = bases[trial % len(bases)]
        den = 1 if trial < 6 else 2
        ne, et, nf, ft = (rng.randint(0, 2) for _ in range(4))
        out.append(_bundle(base, _lines(rng, base[0], ne, den),
                           et or not (ne or nf or ft),
                           _lines(rng, base[0], nf, den), ft))
    out += [(catalog(f"W{k}"), _w(k)[1]) for k in range(1, 22)
            if k not in (3, 4)]
    json_models = [
        ({"type": "cp", "n": 3}, _cp(3)),
        ({"type": "product", "factors": [{"type": "cp", "n": 1},
                                         {"type": "catalog", "name": "K3"}]},
         _product(_cp(1), _w(2))),
        ({"type": "hypersurface", "c1": [1, 2], "ambient": {
            "type": "product", "factors": [{"type": "cp", "n": 1},
                                           {"type": "cp", "n": 2}]}},
         # the degree-1 basis of CP1 x CP2 is h_2, h_1
         _hypersurface(cp1xcp2, {(0, 1): 1, (1, 0): 2})),
        ({"type": "twisted_bundle", "base": {"type": "cp", "n": 2},
          "E": {"trivial": 1, "lines": [["1/2"]]},
          "F": {"lines": [[-1], [3]]}},
         _bundle(_cp(2), [{1: F(1, 2)}], 1, [{1: -1}, {1: 3}], 0)),
    ]
    return out + [(model_from_json(obj), c) for obj, (_, c) in json_models]


def test_chern_class_from_the_roots_matches_the_constructor_formulas():
    for m, c in _root_models():
        assert m.chern == c, m.name


def test_root_power_sums_match_newton():
    for m, c in _root_models():
        roots = m.power_sums(m.dim)
        newton = newton_power_sums(m, c, m.dim)
        assert roots[1:] == newton[1:], m.name
        # c_1 = p_1 is read off the roots, without c(TX)
        assert m.chern_class(1) == (roots[1] if m.dim else {}), m.name


def test_hypersurface_products_drop_the_classes_above_its_dimension():
    # g^3 restricts to 0 on a surface in CP3, so products over the K3
    # surface carry no such class; integration still reads CP3
    ambient = cp_model(3)
    k3 = hypersurface_model(ambient, {1: 4})
    assert ambient.mul({1: 1}, {2: 1}) == {3: 1}
    assert k3.mul({1: 1}, {2: 1}) == {} and k3.mul({1: 1}, {1: 1}) == {2: 1}
    assert k3.integral == {2: 4}
    m = product_model(cp_model(1), k3)
    assert m.mul({(0, 1): 1}, {(1, 2): 1}) == {}
    assert m.power_sums(3)[3] == {}


def test_dropping_the_hypersurface_root_changes_a_chern_number():
    # negative control: the root (c_1 L, -1) is what makes W2 a K3 surface;
    # without it the model has c(CP3) restricted, and c_1^2 = 64, c_2 = 24
    def cut(m):
        return CohomologyModel(m.dim, m.labels, m.degree, m.unit, m.mul_table,
                               m.integral, m.roots[:-1], name=m.name)

    k3 = hypersurface_model(cp_model(3), {1: 4})
    assert k3.roots[-1] == ({1: 4}, -1)
    assert chern_vector(k3).numbers == {(2,): 24, (1, 1): 0}
    assert chern_vector(cut(k3)).numbers == {(2,): 24, (1, 1): 64}
    m = hypersurface_model(cp_model(4), {1: 5})
    assert chern_vector(cut(m)) != chern_vector(m)
    assert milnor_number(cut(m)) != milnor_number(m)


# ---------------------------------------------------------------------------
# catalog and JSON schema
# ---------------------------------------------------------------------------


def test_catalog_w1_w4():
    assert chern_vector(catalog("W1"))[(1,)] == 2
    assert milnor_number(catalog("W1")) == 2
    assert chern_vector(catalog("W2"))[(2,)] == 24
    w3 = catalog("W3")
    assert w3[(3,)] == 2 and w3[(1, 1, 1)] == 0
    assert milnor_number(w3) == 6
    w4 = catalog("W4")
    assert w4[(2, 2)] == 2 and w4[(4,)] == 6
    assert milnor_number(w4) == -20


def test_catalog_unknown():
    # str.isdigit accepts the superscript digits, which int() refuses
    for name in ("nonsense", "CP²", "W²", "CP1²"):
        with pytest.raises(UnknownName):
            catalog(name)
    # and int() the digits of every script: Arabic-Indic, Devanagari and
    # fullwidth ones are no catalog name
    for name in ("CP\u0663", "W\u0665", "TwCP(\u0663,1)", "TwCP(1,\u0968)",
                 "CP\uff13"):
        with pytest.raises(UnknownName):
            catalog(name)


def test_library_calls_have_no_size_bound():
    # only a command passes max_dim; without it nothing is bounded
    assert catalog("CP60").dim == 60
    assert catalog("W45").dim == 45
    assert catalog("TwCP(30,20)").dim == 49
    assert model_from_json({"type": "cp", "n": 100}).dim == 100
    big = model_from_json({"type": "product", "factors": [
        {"type": "cp", "n": 200}, {"type": "cp", "n": 200}]})
    assert (big.dim, len(big.labels)) == (400, 201 ** 2)
    assert model_from_json({"type": "hypersurface", "c1": [1], "ambient": {
        "type": "cp", "n": 50}}).dim == 49
    assert model_from_json({"type": "twisted_bundle", "base": {
        "type": "cp", "n": 1}, "E": {"trivial": 50}}).dim == 50
    assert model_from_json({"type": "chern_numbers", "dim": 34}).dim == 34


def test_model_from_json_roundtrip():
    m = model_from_json({"type": "catalog", "name": "W2"})
    assert chern_vector(m)[(2,)] == 24
    m2 = model_from_json({
        "type": "hypersurface",
        "ambient": {"type": "cp", "n": 3},
        "c1": [4],
    })
    assert chern_vector(m2).numbers == chern_vector(m).numbers
    m3 = model_from_json({
        "type": "product",
        "factors": [{"type": "cp", "n": 1}, {"type": "cp", "n": 1}],
    })
    assert chern_vector(m3)[(2,)] == 4
    cv = model_from_json({
        "type": "chern_numbers", "dim": 4,
        "numbers": {"2,2": "2", "4": "6"},
    })
    assert cv == catalog("W4")
    m5 = model_from_json({
        "type": "twisted_bundle",
        "base": {"type": "cp", "n": 0},
        "E": {"trivial": 2}, "F": {"trivial": 2},
    })
    assert all(v == 0 for v in chern_vector(m5).numbers.values())


# ---------------------------------------------------------------------------
# misc structure
# ---------------------------------------------------------------------------


def test_partitions_count():
    assert [len(partitions(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_power_sums():
    expected = [
        {(1,): 1},
        {(1, 1): 1, (2,): -2},
        {(1, 1, 1): 1, (2, 1): -3, (3,): 3},
        {(1, 1, 1, 1): 1, (2, 1, 1): -4, (2, 2): 2, (3, 1): 4, (4,): -4},
    ]
    ps = power_sums_in_chern(4)
    assert ps[1:] == expected
    # each call builds its own table: changing one leaves the next intact
    ps[2][(2,)] = 0
    ps.append({})
    assert power_sums_in_chern(4)[1:] == expected
    assert power_sums_in_chern(7)[2] == {(1, 1): 1, (2,): -2}


def test_milnor_vanishes_on_products():
    m = product_model(cp_model(2), cp_model(1))
    assert milnor_number(m) == 0
