from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.algebra_kernel import PolyRing, WeightedPoly
from ellgenus.blowup import (
    BlowupInput,
    DegenerateSample,
    TruncationTooLow,
    default_cases,
    genus_defect,
    projective_pushforward,
    pushed_defect,
    symmetric_to_elementary,
    verify_blowup_invariance,
    verify_elliptic_identity,
    verify_rational_identity,
)
from ellgenus.cohomology_models import cp_model, point_model, product_model
from ellgenus.genus_engine import classical_genus

F = Fraction


def _roots(q):
    """The ring Q[x1..xq] of the normal-bundle roots."""
    return PolyRing(*(f"x{i + 1}" for i in range(q)))


def _point_input(spec, q):
    m = point_model()
    return BlowupInput(m, [m.zero_elt()] * q, spec)


def _cp_center(spec, n, q):
    m = cp_model(n)
    g = m.scale(m.chern_class(1), F(1, n + 1))
    return BlowupInput(m, [g] * q, spec)


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
        total = total + p.permute(perm) * _sign(perm)
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
            out = out.divide_linear(i, j)
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
        t = t + p.permute((0,) + tail)
    return t, q


@settings(max_examples=40, deadline=None)
@seed(20261017)
@given(_symmetric_in_tail())
def test_pushforward_matches_oracle(case):
    t, q = case
    assert projective_pushforward(t, q) == _oracle_pushforward(t, q)


# ---------------------------------------------------------------------------
# projective-bundle pushforward
# ---------------------------------------------------------------------------


def test_pushforward_of_low_degree_is_zero():
    # the fiber has dimension q-1: anything of lower degree pushes to zero
    for q in (2, 3):
        assert projective_pushforward(_roots(q).one, q).is_zero()
    assert projective_pushforward(_roots(3).gen("x1"), 3).is_zero()


def test_pushforward_top_normalization():
    # q = 2: x1 / (x2 - x1) + x2 / (x1 - x2) = -1
    out = projective_pushforward(_roots(2).gen("x1"), 2)
    assert out == _roots(2).from_fraction(-1)


def _complete_homogeneous(q, m):
    terms = {}
    for combo in combinations_with_replacement(range(q), m):
        e = [0] * q
        for i in combo:
            e[i] += 1
        key = tuple(e)
        terms[key] = terms.get(key, F(0)) + 1
    return WeightedPoly(_roots(q), terms)


def test_projective_bundle_chain_oracle():
    # the Segre-class formula: the pushforward of x1^k from the projective
    # bundle is the complete homogeneous function h_{k-q+1} (zero below
    # degree q-1), here with the orientation sign (-1)^{q-1}
    for q in range(1, 6):
        sign = (-1) ** (q - 1)
        for k in range(q + 3):
            t = _roots(q).gen("x1") ** k
            want = (_complete_homogeneous(q, k - q + 1) * sign
                    if k >= q - 1 else _roots(q).zero)
            assert projective_pushforward(t, q) == want, (q, k)


def test_pushed_defect_truncation_sound():
    # the result through degree dim does not depend on how far past dim
    # it was computed
    for name in ("todd", "signature", "euler", "a_hat"):
        spec = classical_genus(name, order=10)
        for q in range(1, 5):
            for dim in range(4):
                low = pushed_defect(spec, q, dim)
                high = pushed_defect(spec, q, dim + 2)
                assert low.terms == {e: c for e, c in high.terms.items()
                                     if sum(e) <= dim}, (name, q, dim)


def test_symmetric_to_elementary_round_trip():
    # p2 = e1^2 - 2 e2 in three variables
    ring = _roots(3)
    p2 = sum((x ** 2 for x in ring.gens()), ring.zero)
    out = symmetric_to_elementary(p2)
    assert out == {(2, 0, 0): F(1), (0, 1, 0): F(-2)}
    with pytest.raises(ValueError):
        symmetric_to_elementary(_roots(2).gen("x1"))


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
