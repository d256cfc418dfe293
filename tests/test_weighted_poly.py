"""WeightedPoly over QQ, stored as int numerators over one denominator
and keyed by packed exponent vectors, against an oracle on plain
{exponent tuple: Fraction} dicts.

The oracle's product is the route Q-polynomials took before the int
storage: the coefficient pairs of every product monomial are collected
in buckets, then each bucket is summed by one FractionRing.dot.  Its
other operations are the plain term-by-term definitions.  An oracle
value is a pair (terms, cap).

A ring over Q[A, B] stores its elements flat; it is checked against a
nested oracle, {outer exponents: {inner exponents: Fraction}}.
"""

from fractions import Fraction
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import QQ, ExactDivisionError, VariableNotPresent
from ellgenus.jacobi_q import y_model
from ellgenus.weighted_poly import (EXPONENT_BOUND, ExponentOverflow,
                                   PolyRing, WeightedPoly)

F = Fraction

WXYZ = PolyRing(("x", 1), ("y", 2), ("z", 3))
ST = PolyRing("s", "t")


def _mincap(a, b):
    return b if a is None else a if b is None else min(a, b)


def _weight(e):
    return sum(map(mul, e, WXYZ.weights))


def _clip(terms, cap):
    """terms without zeros and, under a cap, without the terms above it."""
    return {e: c for e, c in terms.items()
            if c and (cap is None or _weight(e) <= cap)}


def _oracle_dot(pairs):
    buckets, cap = {}, None
    for (ta, cap_a), (tb, cap_b) in pairs:
        pair_cap = _mincap(cap_a, cap_b)
        cap = _mincap(cap, pair_cap)
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = tuple(map(add, e1, e2))
                if pair_cap is None or _weight(e) <= pair_cap:
                    buckets.setdefault(e, []).append((c1, c2))
    return _clip({e: QQ.dot(cs) for e, cs in buckets.items()}, cap), cap


def _oracle_add(a, b):
    terms = dict(a[0])
    for e, c in b[0].items():
        terms[e] = terms.get(e, 0) + c
    cap = _mincap(a[1], b[1])
    return _clip(terms, cap), cap


def _oracle_scale(a, c):
    return _clip({e: x * c for e, x in a[0].items()}, a[1]), a[1]


def _oracle_pow(a, n):
    out = ({(0, 0, 0): F(1)}, None)
    for _ in range(n):
        out = _oracle_dot([(out, a)])
    return out


def _grlex(e):
    return _weight(e), e


def _oracle_exact_div(a, b):
    """The quotient a / b of uncapped oracle values by leading terms."""
    le = max(b, key=_grlex)
    rem, quotient = a, {}
    while rem:
        re = max(rem, key=_grlex)
        qe = tuple(map(sub, re, le))
        if min(qe) < 0:
            raise ExactDivisionError("not exactly divisible")
        qc = rem[re] / b[le]
        quotient[qe] = quotient.get(qe, 0) + qc
        rem = _oracle_add((rem, None),
                          _oracle_dot([(({qe: -qc}, None), (b, None))]))[0]
    return quotient


def _plain(p):
    return dict(p.terms), p.cap


def _decoded(p):
    """p's numerators keyed by exponent tuples."""
    return {p.ring.exponents(k): c for k, c in p.num.items()}


def _check_keys(p):
    """p's keys are ints that decode to its terms' exponents and encode
    back, and none is above the cap."""
    ring = p.ring
    assert all(type(k) is int and k >= 0 for k in p.num)
    assert list(_decoded(p)) == list(p.terms)
    for k in p.num:
        e = ring.exponents(k)
        assert ring.key(e) == k
        assert p.cap is None or p.term_weight(e) <= p.cap


def _check_normal_form(p):
    """p stores num / den with den > 0 sharing no factor with the
    content and no zero numerator, shows Fractions, and hashes like the
    same terms rebuilt."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    _check_keys(p)
    for e, c in p.terms.items():
        assert type(c) is Fraction and c == F(p.num[p.ring.key(e)], p.den)
    again = WeightedPoly(p.ring, dict(p.terms), p.cap)
    assert (again.num, again.den) == (p.num, p.den)
    assert again == p and hash(again) == hash(p)


def _same(p, want):
    _check_normal_form(p)
    assert _plain(p) == want


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=12)
caps = st.sampled_from([None, None, 0, 2, 4, 6])


def _polys(cap_choices=caps):
    return st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coefficients,
                        max_size=6),
        cap_choices,
    ).map(lambda t: WeightedPoly(WXYZ, t[0], t[1]))


# a capped zero lowers the cap of every sum it enters
polys = st.one_of(_polys(), st.just(WXYZ.zero.truncate(0)),
                  st.just(WXYZ.zero))
scalars = st.one_of(coefficients, st.integers(-3, 3))


@seed(20261301)
@settings(max_examples=80, deadline=None)
@given(polys, polys, scalars, st.integers(0, 3), caps)
def test_ops_match_oracle(p, q, c, n, cap):
    a, b = _plain(p), _plain(q)
    _same(p * q, _oracle_dot([(a, b)]))
    _same(p + q, _oracle_add(a, b))
    _same(p - q, _oracle_add(a, _oracle_scale(b, -1)))
    _same(-p, _oracle_scale(a, -1))
    _same(p * c, _oracle_scale(a, F(c)))
    _same(c * p, _oracle_scale(a, F(c)))
    _same(p + c, _oracle_add(a, ({(0, 0, 0): F(c)}, None)))
    _same(p ** n, _oracle_pow(a, n))
    _same(p.truncate(cap), (_clip(a[0], _mincap(a[1], cap)),
                            _mincap(a[1], cap)))
    # cancellation to zero leaves den 1 and keeps the cap
    _same(p - p, ({}, p.cap))
    _same(p * q - q * p, ({}, _mincap(p.cap, q.cap)))
    assert (p == q) == (_plain(p)[0] == _plain(q)[0])


@seed(20261302)
@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.one_of(polys, scalars),
                          st.one_of(polys, scalars)), max_size=5),
       st.booleans())
def test_dot_matches_oracle(pairs, cancel):
    if cancel and pairs:
        # the negated first pair cancels it term by term
        a, b = pairs[0]
        pairs.append((a * -1, b))

    def plain(x):
        return _plain(x) if isinstance(x, WeightedPoly) else (
            _clip({(0, 0, 0): F(x)}, None), None)

    want = _oracle_dot([(plain(a), plain(b)) for a, b in pairs])
    _same(WXYZ.dot(pairs), want)
    _same(WXYZ.dot(iter(pairs)), want)


def test_capped_zero_operand_drops_terms_above_its_cap():
    # the zero capped at 0 makes the sum's cap 0, so z, of weight 3, goes
    z = WXYZ.gen("z")
    for pairs in ([(WXYZ.zero.truncate(0), 0), (z, 1)],
                  [(z, 1), (WXYZ.zero.truncate(0), 0)]):
        s = WXYZ.dot(pairs)
        _same(s, ({}, 0))
    _same(WXYZ.dot([(z * F(1, 2), F(2, 3)), (WXYZ.one.truncate(3), F(1, 7))]),
          ({(0, 0, 1): F(1, 3), (0, 0, 0): F(1, 7)}, 3))


def _oracle_substitute_qq(terms, values):
    return sum((c * F(values[0]) ** e[0] * F(values[1]) ** e[1]
                * F(values[2]) ** e[2] for e, c in terms.items()), F(0))


@seed(20261303)
@settings(max_examples=60, deadline=None)
@given(_polys(st.just(None)), st.tuples(scalars, scalars, scalars),
       st.lists(st.dictionaries(st.tuples(st.integers(0, 2),
                                          st.integers(0, 2)),
                                coefficients, max_size=3),
                min_size=3, max_size=3))
def test_substitute_matches_oracle(p, values, images):
    mapping = dict(zip(WXYZ.names, values))
    got = p.substitute(mapping)
    assert type(got) is Fraction
    assert got == _oracle_substitute_qq(p.terms, values)
    # into another polynomial ring: the fold of one product per term
    targets = [WeightedPoly(ST, t) for t in images]
    want = ST.zero
    for e, c in p.terms.items():
        term = ST.one
        for image, k in zip(targets, e):
            for _ in range(k):
                term = term * image
        want = want + term * c
    got = p.substitute(dict(zip(WXYZ.names, targets)), ring=ST)
    _check_normal_form(got)
    assert got == want


def test_substitute_needs_every_present_variable():
    x, y, _ = WXYZ.gens()
    p = x * y + 3
    assert p.substitute({"x": 2, "y": F(1, 2)}) == F(4)
    assert (x - x + 5).substitute({}) == F(5)
    assert WXYZ.zero.substitute({}, ring=ST) == ST.zero
    with pytest.raises(VariableNotPresent):
        p.substitute({"x": 1})


@seed(20261304)
@settings(max_examples=60, deadline=None)
@given(_polys(st.just(None)), _polys(st.just(None)))
def test_exact_div_matches_oracle(p, q):
    if q.is_zero():
        with pytest.raises(ExactDivisionError):
            p.exact_div(q)
        return
    product = p * q
    got = product.exact_div(q)
    _same(got, (_oracle_exact_div(product.terms, q.terms), None))
    assert got == p
    # adding a term below q's leading term in every variable leaves a
    # remainder that cannot be divided
    if q.weight() and len(q.terms) == 1:
        with pytest.raises(ExactDivisionError):
            (product + 1).exact_div(q)
        with pytest.raises(ExactDivisionError):
            _oracle_exact_div(_plain(product + 1)[0], q.terms)


def _oracle_str(p):
    """The text of the printer that formatted one Fraction per term."""
    parts = []
    for e in sorted(p.terms, key=p._grlex_key, reverse=True):
        c = p.terms[e]
        mon = "*".join(n if k == 1 else f"{n}^{k}"
                       for n, k in zip(p.ring.names, e) if k)
        body = str(abs(c)) if not mon else (
            mon if abs(c) == 1 else f"{abs(c)}*{mon}")
        parts.append((c < 0, body))
    if not parts:
        return "0"
    return ("-" if parts[0][0] else "") + parts[0][1] + "".join(
        (" - " if neg else " + ") + body for neg, body in parts[1:])


@seed(20261305)
@settings(max_examples=80, deadline=None)
@given(polys, scalars)
def test_str_matches_fraction_formatting(p, c):
    # scaling by c gives contents and denominators that do not cancel
    for q in (p, p * c, p + c):
        assert str(q) == _oracle_str(q)


def test_str_over_a_polynomial_base():
    ring = PolyRing(("u", 1), ("v", 2), base=ST)
    s, t = ST.gens()
    u, v = ring.gens()
    p = u * (s + t) - v * s * F(1, 2) + ring.constant(s * 3) + u * u
    assert str(p) == "(1)*u^2 + (-1/2*s)*v + (s + t)*u + (3*s)"
    assert str(ring.zero) == "0"
    assert str(-s + t * F(-1, 2)) == "-s - 1/2*t"


def test_normal_form_of_fixed_values():
    x, y, z = WXYZ.gens()
    p = x * F(2, 3) + y * F(4, 9) - z * F(1, 6)
    assert (_decoded(p), p.den) == ({(1, 0, 0): 12, (0, 1, 0): 8,
                                     (0, 0, 1): -3}, 18)
    q = p * 18 - x * 12
    assert (_decoded(q), q.den) == ({(0, 1, 0): 8, (0, 0, 1): -3}, 1)
    assert (p * F(9, 4)).den == 8
    monic = (p * F(-5, 7)).monic()
    assert monic.leading() == ((0, 0, 1), F(1))
    assert monic == p * -6
    _check_normal_form(monic)
    assert str(p) == "-1/6*z + 4/9*y + 2/3*x"
    assert p.coeff((0, 1, 0)) == F(4, 9) and p.coeff((1, 1, 0)) == 0
    assert len({p, p + 0, p * 1, WeightedPoly(WXYZ, dict(p.terms))}) == 1


# ---------------------------------------------------------------------------
# the flat form: a ring over Q[A, B] against a nested oracle
# ---------------------------------------------------------------------------

AB = PolyRing("A", ("B", 2))
FLAT = PolyRing(("x", 1), ("y", 2), base=AB)
ST_AB = PolyRing("s", "t", base=AB)


def _inner_add(c1, c2):
    out = dict(c1)
    for e, c in c2.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _inner_mul(c1, c2):
    out = {}
    for e1, a in c1.items():
        for e2, b in c2.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _nested_clip(ring, terms, cap):
    return {e: c for e, c in terms.items() if c and (
        cap is None or sum(map(mul, e, ring.weights)) <= cap)}


def _nested_dot(ring, pairs):
    """The sum of the products of nested values over ring, each pair
    under its smaller cap and the sum under the smallest."""
    acc, cap = {}, None
    for (ta, cap_a), (tb, cap_b) in pairs:
        pair_cap = _mincap(cap_a, cap_b)
        cap = _mincap(cap, pair_cap)
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = tuple(map(add, e1, e2))
                if pair_cap is None or sum(map(mul, e, ring.weights)) <= (
                        pair_cap):
                    acc[e] = _inner_add(acc.get(e, {}), _inner_mul(c1, c2))
    return _nested_clip(ring, acc, cap), cap


def _nested_add(ring, a, b):
    terms = dict(a[0])
    for e, c in b[0].items():
        terms[e] = _inner_add(terms.get(e, {}), c)
    cap = _mincap(a[1], b[1])
    return _nested_clip(ring, terms, cap), cap


def _nested(p):
    """p as a nested value: its coefficients as {exponents: Fraction}."""
    return {e: dict(c.terms) for e, c in p.terms.items()}, p.cap


def _check_flat(p):
    """p stores num / den in normal form; each key is the key of its
    outer exponents plus the key of a base monomial, and the terms
    rebuild the base coefficients in their own normal form."""
    ring, base = p.ring, p.ring.base
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    rebuilt = {}
    for k, c in p.num.items():
        e = ring.exponents(k)
        inner = k - ring.key(e)
        assert 0 <= inner and base.key(base.exponents(inner)) == inner
        assert p.cap is None or p.term_weight(e) <= p.cap
        rebuilt.setdefault(e, {})[base.exponents(inner)] = F(c, p.den)
    assert rebuilt == _nested(p)[0]
    for c in p.terms.values():
        assert c.ring is base and c.cap is None
        _check_normal_form(c)
    again = WeightedPoly(ring, dict(p.terms), p.cap)
    assert (again.num, again.den) == (p.num, p.den)
    assert again == p and hash(again) == hash(p)


def _flat_same(p, want):
    _check_flat(p)
    assert _nested(p) == want


inner_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              coefficients, max_size=3)


def _nested_polys(ring, cap_choices):
    return st.tuples(
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        inner_terms, max_size=4),
        cap_choices,
    ).map(lambda t: WeightedPoly(ring, {e: WeightedPoly(AB, c)
                                        for e, c in t[0].items()}, t[1]))


flat_caps = st.sampled_from([None, None, 0, 2, 4])


@seed(20262701)
@settings(max_examples=60, deadline=None)
@given(_nested_polys(FLAT, flat_caps), _nested_polys(FLAT, flat_caps),
       inner_terms, flat_caps,
       st.lists(_nested_polys(ST_AB, st.sampled_from([None, 2, 3])),
                min_size=2, max_size=2))
def test_flat_form_matches_nested_oracle(p, q, c, cap, images):
    a, b = _nested(p), _nested(q)
    product = _nested_dot(FLAT, [(a, b)])
    _flat_same(p * q, product)
    _flat_same(p + q, _nested_add(FLAT, a, b))
    _flat_same(p.truncate(cap),
               (_nested_clip(FLAT, a[0], _mincap(a[1], cap)),
                _mincap(a[1], cap)))
    scalar = WeightedPoly(AB, c)
    _flat_same(p * scalar, _nested_dot(FLAT, [(a, ({(0, 0): c}, None))]))
    _flat_same(FLAT.dot([(p, q), (q, scalar), (p, F(1, 3))]),
               _nested_dot(FLAT, [(a, b), (b, ({(0, 0): c}, None)),
                                  (a, ({(0, 0): {(0, 0): F(1, 3)}}, None))]))
    # x and y go to elements of another flat ring, the coefficients
    # multiply them as constants
    x_img, y_img = (_nested(i) for i in images)
    one = ({(0, 0): {(0, 0): F(1)}}, None)
    want = ({}, None)
    for (i, j), coeff in a[0].items():
        term = ({(0, 0): coeff}, None)
        for image, k in ((x_img, i), (y_img, j)):
            power = one
            for _ in range(k):
                power = _nested_dot(ST_AB, [(power, image)])
            term = _nested_dot(ST_AB, [(term, power)])
        want = _nested_add(ST_AB, want, term)
    got = p.substitute(dict(zip(FLAT.names, images)), ring=ST_AB)
    _flat_same(got, want)
    # negative control: a changed coefficient of the oracle is told apart
    if product[0]:
        e, inner = next(iter(product[0].items()))
        f = next(iter(inner))
        changed = {**product[0], e: {**inner, f: inner[f] + 1}}
        assert _nested(p * q) != (changed, product[1])


def test_flat_form_prints_like_the_nested_ring():
    A, B = AB.gens()
    x, y = FLAT.gens()
    p = x * (A + B) - y * A * F(1, 2) + FLAT.constant(A * 3) + x * x
    assert str(p) == "(1)*x^2 + (-1/2*A)*y + (B + A)*x + (3*A)"
    assert p.leading() == ((2, 0), AB.one)
    assert p.coeff((1, 0)) == A + B and p.coeff((0, 0)) == A * 3
    assert p.coeff((3, 0)) == AB.zero


# ---------------------------------------------------------------------------
# exponent tuples and the bound of a key's fields
# ---------------------------------------------------------------------------


def test_malformed_exponent_tuples_are_rejected():
    ring = PolyRing("v", ("e1", 1), ("e2", 2))
    for r in (ring, PolyRing("v", ("e1", 1), ("e2", 2), base=AB)):
        for exps in ((0, 0), (0, 0, 0, 0), (0, -1, 0), ()):
            with pytest.raises(ValueError):
                WeightedPoly(r, {exps: F(3)})
            with pytest.raises(ValueError):
                r.monomial(exps, 3)
    p = WeightedPoly(ring, {(0, 0, 0): F(3)})
    assert p.constant_term() == 3 and p == 3
    assert p.coeff((0, 0)) == 0


def test_exponent_reaching_the_field_bound_raises():
    assert issubclass(ExponentOverflow, ValueError)
    x, y, _ = WXYZ.gens()
    top = x ** (EXPONENT_BOUND - 1)
    assert top.terms == {(EXPONENT_BOUND - 1, 0, 0): 1}
    assert top == WXYZ.monomial((EXPONENT_BOUND - 1, 0, 0))
    for reach in (lambda: top * x, lambda: x ** EXPONENT_BOUND,
                  lambda: WXYZ.dot([(top, y), (top, x)]),
                  lambda: WXYZ.monomial((EXPONENT_BOUND, 0, 0)),
                  lambda: WeightedPoly(WXYZ, {(0, EXPONENT_BOUND, 0): 1})):
        with pytest.raises(ExponentOverflow):
            reach()
    # in the flat form the base's weight has a field of its own: B^k has
    # exponent k but weight 2k
    half = AB.gen("B") ** (EXPONENT_BOUND // 4)
    c = FLAT.constant(half)
    assert c.constant_term() == half
    for reach in (lambda: c * c, lambda: FLAT.constant(half * half),
                  lambda: WeightedPoly(FLAT, {(1, 0): half * half})):
        with pytest.raises(ExponentOverflow):
            reach()
    # and over a base that is not a polynomial ring, Q(zeta_3)
    nested = PolyRing("x", base=y_model(3)[0])
    u = nested.gen("x") ** (EXPONENT_BOUND - 1)
    with pytest.raises(ExponentOverflow):
        u * nested.gen("x")
