"""The verification suite: the paper's ten acceptance criteria.

`ellgenus verify all` runs `CRITERIA` and prints one pass/fail line per
criterion; tests/test_acceptance.py runs the same list.  Each criterion is
a function of no arguments returning (ok, detail).  The command line
executes this module only for `verify all`.  It imports nothing from
`ellgenus.cli`: under `python -m ellgenus.cli` that import would execute a
second copy of the command line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import comb

from .algebra_kernel import TruncatedSeries
from .blowup import (
    BlowupInput,
    genus_defect,
    verify_blowup_invariance,
    verify_elliptic_identity,
    verify_rational_identity,
)
from .cohomology_models import (
    catalog,
    chern_vector,
    cp_model,
    milnor_number,
    point_model,
    product_model,
)
from .genus_engine import (
    classical_genus,
    evaluate,
    formal_group_law,
    multiplicative_sequence,
)
from .jacobi_q import (
    as_y_laurent,
    chi_y_loop,
    extract_qi,
    integrality_check,
    phi_at_minus_z,
    poly_mul,
    weierstrass_p,
    y_model,
)
from .level_n import (
    GradedIdealPresentation,
    compute_level_data,
    degree_h0,
    eliminant,
    in_ideal,
    kernel_membership,
    level2_modular_forms,
    poincare_series,
    t_poly,
)
from .twisted_bundles import twisted_proj_bundle_model
from .universal_elliptic import ABCD_RING, Q_RING, phi_ell
from .universal_elliptic import test_vectors_Q3_Q4 as _fiber_vectors
from .weighted_poly import PolyRing

F = Fraction


def _expected_a_coeffs():
    A, B, C, D = ABCD_RING.gens()
    return {
        1: A * F(1, 2),
        2: (6 * A ** 2 - B) * F(1, 48),
        3: (2 * A ** 3 - A * B + 16 * C) * F(1, 96),
        4: (60 * A ** 4 - 60 * (A ** 2 * B) + 1920 * (A * C) + 7 * B ** 2
            - 1152 * D) * F(1, 2 ** 9 * 3 ** 2 * 5),
        5: (12 * A ** 5 - 20 * (A ** 3 * B) + 960 * (A ** 2 * C)
            + 7 * (A * B ** 2) - 1152 * (A * D) + 32 * (C * B))
        * F(1, 2 ** 10 * 3 ** 2 * 5),
    }


def _expected_k_polys():
    A, B, C, D = ABCD_RING.gens()
    s4 = F(1, 2 ** 9 * 3 ** 2 * 5)
    s5 = F(1, 2 ** 10 * 3 ** 2 * 5)
    return {
        1: {(1,): A * F(1, 2)},
        2: {(2,): 2 * B * F(1, 48), (1, 1): (6 * A ** 2 - B) * F(1, 48)},
        3: {
            (3,): 48 * C * F(1, 96),
            (2, 1): (2 * (A * B) - 48 * C) * F(1, 96),
            (1, 1, 1): (2 * A ** 3 - A * B + 16 * C) * F(1, 96),
        },
        4: {
            (4,): (-8 * B ** 2 + 4608 * D) * s4,
            (3, 1): (5760 * (A * C) + 8 * B ** 2 - 4608 * D) * s4,
            (2, 2): (24 * B ** 2 - 2304 * D) * s4,
            (2, 1, 1): (120 * (A ** 2 * B) - 5760 * (A * C) - 28 * B ** 2
                        + 4608 * D) * s4,
            (1, 1, 1, 1): (60 * A ** 4 - 60 * (A ** 2 * B) + 1920 * (A * C)
                           + 7 * B ** 2 - 1152 * D) * s4,
        },
        5: {
            (5,): 960 * (B * C) * s5,
            (4, 1): (-8 * (A * B ** 2) + 4608 * (A * D) - 960 * (B * C)) * s5,
            (3, 1, 1): (8 * (A * B ** 2) + 2880 * (A ** 2 * C)
                        - 4608 * (A * D) + 480 * (B * C)) * s5,
            (2, 2, 1): (24 * (A * B ** 2) - 2304 * (A * D)) * s5,
            (2, 1, 1, 1): (40 * (A ** 3 * B) - 2880 * (A ** 2 * C)
                           - 28 * (A * B ** 2) + 4608 * (A * D)
                           - 160 * (B * C)) * s5,
            (1, 1, 1, 1, 1): (12 * A ** 5 - 20 * (A ** 3 * B)
                              + 960 * (A ** 2 * C) + 7 * (A * B ** 2)
                              - 1152 * (A * D) + 32 * (B * C)) * s5,
        },
    }


def criterion_1():
    """universal coefficients a1..a5 and K1..K5"""
    spec = phi_ell(6)
    for k, exp in _expected_a_coeffs().items():
        if not spec.q.coeff(k) == exp:
            return False, f"a{k} mismatch"
    ks = multiplicative_sequence(spec, 5)
    for n, exp in _expected_k_polys().items():
        if ks[n] != exp:
            return False, f"K{n} mismatch"
    return True, "a1..a5 and K1..K5 match"


def criterion_2():
    """basis values phi_ell(W1..W6) = A, B, C, D, 0, 0"""
    spec = phi_ell(8)
    A, B, C, D = ABCD_RING.gens()
    expected = {"W1": A, "W2": B, "W3": C, "W4": D}
    for name, exp in expected.items():
        if not evaluate(spec, catalog(name)) == exp:
            return False, f"phi_ell({name}) != {exp}"
    for name in ("W5", "W6"):
        if not evaluate(spec, catalog(name)).is_zero():
            return False, f"phi_ell({name}) != 0"
    return True, "W1..W4 -> A,B,C,D; W5, W6 -> 0"


_CHERN_TABLE = {
    "W1": {(1,): 2},
    "W2": {(1, 1): 0, (2,): 24},
    "W3": {(3,): 2, (1, 1, 1): 0, (2, 1): 0},
    "W4": {(2, 2): 2, (4,): 6},
    "W5": {(3, 2): -256, (5,): 0},
    "W6": {(2, 2, 2): 192, (4, 2): 192, (3, 3): 192, (6,): 0},
}

_MILNOR_TABLE = {"W1": 2, "W2": -48, "W3": 6, "W4": -20, "W5": 1280,
                 "W6": 1344}


def _milnor_closed_form_base2(base, e_lines, e_triv, f_lines, f_triv):
    p = len(e_lines) + e_triv
    q = len(f_lines) + f_triv
    d = p + q + 1
    c1E = base.zero_elt()
    for x in e_lines:
        c1E = base.add(c1E, x)
    c1F = base.zero_elt()
    for y in f_lines:
        c1F = base.add(c1F, y)
    roots = (list(e_lines) + [base.zero_elt()] * e_triv
             + [base.scale(y, F(-1)) for y in f_lines]
             + [base.zero_elt()] * f_triv)
    cv = base.one_elt()
    for x in roots:
        cv = base.mul(cv, base.add(base.one_elt(), x))
    c1V = base.degree_part(cv, 1)
    c2V = base.degree_part(cv, 2)
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


def _milnor_closed_form_base3(base, e_lines, e_triv, f_lines, f_triv):
    p = len(e_lines) + e_triv
    q = len(f_lines) + f_triv
    d = p + q + 2
    roots = (list(e_lines) + [base.zero_elt()] * e_triv
             + [base.scale(y, F(-1)) for y in f_lines]
             + [base.zero_elt()] * f_triv)
    cv = base.one_elt()
    for x in roots:
        cv = base.mul(cv, base.add(base.one_elt(), x))
    c1 = base.degree_part(cv, 1)
    c2 = base.degree_part(cv, 2)
    c3 = base.degree_part(cv, 3)
    c1c2 = base.mul(c1, c2)
    c13 = base.power(c1, 3)
    total = base.scale(
        base.add(base.add(base.scale(c3, F(-1)), base.scale(c1c2, F(2))),
                 base.scale(c13, F(-1))), F(d - 2))
    total = base.add(total, base.scale(
        base.mul(c1, base.add(base.mul(c1, c1), base.scale(c2, F(-1)))),
        F(d)))
    total = base.add(total, base.scale(
        base.mul(c1, base.add(base.scale(base.mul(c1, c1), F(-1)),
                              base.scale(c2, F(2)))), F(comb(d, 2))))
    total = base.add(total, base.scale(
        base.add(base.add(c13, base.scale(c1c2, F(-3))),
                 base.scale(c3, F(3))), F(comb(d, 3))))
    return F((-1) ** q) * base.integrate(total)


def criterion_3():
    """Chern/Milnor tables for W1..W6 plus randomized closed-form checks"""
    for name, numbers in _CHERN_TABLE.items():
        cv = chern_vector(catalog(name))
        for part, val in numbers.items():
            if cv[part] != val:
                return False, f"{name} c_{part} != {val}"
        if milnor_number(cv) != _MILNOR_TABLE[name]:
            return False, f"s({name}) mismatch"
    rng = random.Random(20240825)
    for trial in range(20):
        base_dim = 2 if trial % 2 == 0 else 3
        base = cp_model(base_dim)
        g = {1: F(1)}
        e_lines = [base.scale(g, rng.randint(-3, 3))
                   for _ in range(rng.randint(0, 2))]
        f_lines = [base.scale(g, rng.randint(-3, 3))
                   for _ in range(rng.randint(0, 2))]
        e_triv, f_triv = rng.randint(0, 2), rng.randint(0, 2)
        total = len(e_lines) + e_triv + len(f_lines) + f_triv
        if total % 2 == 1 or total == 0:
            e_triv += 2 - (total % 2)
        m = twisted_proj_bundle_model(base, e_lines, e_triv, f_lines, f_triv)
        oracle = (_milnor_closed_form_base2 if base_dim == 2
                  else _milnor_closed_form_base3)(
            base, e_lines, e_triv, f_lines, f_triv)
        if milnor_number(m) != oracle:
            return False, f"closed-form Milnor mismatch in trial {trial}"
    return True, "tables and 20 randomized closed-form instances match"


def criterion_4():
    """level-3 ideal, eliminant, h0 = N^2-1, Poincare footnote identity"""
    q1, q2, q3, q4 = Q_RING.gens()
    data = compute_level_data(3)
    footnote = [q2 + q1 * q1 * F(3, 4), q4 + q1 * q3 * F(1, 2)]
    ours = [data.r_lower_q(), data.r_upper_q()]
    for g in footnote:
        if not in_ideal(g, ours):
            return False, "footnote generator not in computed ideal"
    for g in ours:
        if not in_ideal(g, footnote):
            return False, "computed generator not in footnote ideal"
    res_q = eliminant(*ours)
    if res_q.monic() != (q2 * q3 * q3 + 3 * (q4 * q4)).monic():
        return False, "eliminant mismatch"
    for N in range(2, 7):
        pres = GradedIdealPresentation((1, 2, 3, 4), (N - 1, N + 1))
        if degree_h0(pres) != N * N - 1:
            return False, f"h0 mismatch at N={N}"
    num, den = poincare_series(GradedIdealPresentation((1, 2, 3, 4), (2, 4)))
    # the footnote's (1 - t^8)/d + t (1 - t^3)(1 - t^4)/d with
    # d = (1 - t^2)(1 - t^3)(1 - t^4), cross-multiplied
    t34 = poly_mul([1, 0, 0, -1], [1, 0, 0, 0, -1])
    rhs = [a + b for a, b in zip_longest([1] + [0] * 7 + [-1], [0] + t34,
                                         fillvalue=0)]
    if poly_mul(num, poly_mul([1, 0, -1], t34)) != poly_mul(rhs, den):
        return False, "Poincare footnote identity fails"
    return True, "ideal equality, eliminant, h0 and Poincare identity hold"


def criterion_5():
    """level-N kernel theorems on CP_{N-1}, twisted CP, and a_tilde"""
    for N in (2, 3, 4):
        names = (f"CP_{N - 1}", f"TwCP({N + 1},1)")
        models = (cp_model(N - 1), catalog(names[1]))
        for name, (zero, _) in zip(
                names, kernel_membership("phi_tilde_N", models, N)):
            if not zero:
                return False, f"phi_tilde_{N}({name}) != 0"
    a_tilde = classical_genus("a_tilde", order=8)
    for N in (2, 3, 4, 5):
        if not kernel_membership("a_tilde_N", [cp_model(N - 1)], N)[0][0]:
            return False, f"a_tilde_{N}(CP_{N - 1}) != 0"
        v = evaluate(a_tilde, cp_model(N - 1))
        tp = t_poly(N)
        lead_e, lead_c = tp.leading()
        alpha = v.coeff(lead_e) / lead_c
        if alpha == 0 or not v == tp * alpha:
            return False, f"a_tilde(CP_{N - 1}) not a multiple of T_{N - 1}"
    return True, "kernel memberships and T_{N-1} proportionality hold"


def criterion_6():
    """q-expansion of chi_y(q, L W2): displays, 24 wp identity, integrality"""
    qorder = 5
    v = chi_y_loop(catalog("W2"), qorder)
    displays = {
        0: {0: F(2), 1: F(-20), 2: F(2)},
        1: {-1: F(-20), 0: F(-128), 1: F(-216), 2: F(-128), 3: F(-20)},
        2: {-2: F(2), -1: F(-216), 0: F(-1026), 1: F(-1616), 2: F(-1026),
            3: F(-216), 4: F(2)},
    }
    for n, exp in displays.items():
        if as_y_laurent(v.coeff(n)) != exp:
            return False, f"q^{n} display mismatch"
    norm = phi_at_minus_z(qorder)
    if not v == weierstrass_p(qorder) * 24 * norm * norm:
        return False, "24 wp * Phi(tau,-z)^2 identity fails"
    for name in ("W2", "W4", "W5"):
        series = v if name == "W2" else chi_y_loop(catalog(name), qorder)
        ok, violation = integrality_check(series)
        if not ok:
            return False, f"integrality fails for {name}: {violation}"
    return True, "displays, Weierstrass identity and integrality hold"


def criterion_7():
    """extraction cross-validation: N=2 point and relation vanishing"""
    qorder = 4
    quartic2, abcd2 = extract_qi(2, qorder, 10)
    if not (abcd2.A.is_zero() and abcd2.C.is_zero()):
        return False, "A or C nonzero at level 2"
    delta, eps = level2_modular_forms(qorder)
    ring2, _ = y_model(2)
    for n in range(qorder + 1):
        if not abcd2.B.coeff(n) == ring2.from_fraction(-16 * delta.coeff(n)):
            return False, f"B != -16 delta at q^{n}"
        if not abcd2.D.coeff(n) == ring2.from_fraction(2 * eps.coeff(n)):
            return False, f"D != 2 epsilon at q^{n}"
    for N in (2, 3):
        # the level-2 extraction is the one above: xorder 2 * 2 + 6 = 10
        quartic = quartic2 if N == 2 else extract_qi(N, qorder, 2 * N + 6)[0]
        data = compute_level_data(N)
        images = dict(zip(("q1", "q2", "q3", "q4"), quartic))
        for rel in (data.r_lower_q(), data.r_upper_q()):
            if not rel.substitute(images, ring=quartic.ring).is_zero():
                return False, f"relation does not vanish at level {N}"
    return True, "(0,-16d,0,2e) reproduced; relations vanish for N=2,3"


def criterion_8():
    """characterization vectors phi_ell([Q3]), phi_ell([Q4])"""
    q1, q2, q3, q4 = Q_RING.gens()
    v3, v4 = _fiber_vectors(order=6)
    if not v3 == q3 * F(3, 4):
        return False, f"phi_ell([Q3]) = {v3}"
    if not v4 == q1 * q3 * F(9, 16) + q4 * F(9, 8):
        return False, f"phi_ell([Q4]) = {v4}"
    return True, "3/4 q3 and 9/16 q1 q3 + 9/8 q4 reproduced"


def criterion_9():
    """blow-up: residue identities and defect behavior"""
    rng = random.Random(20240826)
    for trial in range(50):
        q = rng.randint(1, 5)
        xs = set()
        while len(xs) < q:
            xs.add(F(rng.randint(-40, 40), rng.randint(1, 8)))
        if not verify_rational_identity(q, sorted(xs)):
            return False, f"rational identity fails on trial {trial}"
    for N, q, xo in ((2, 3, 4), (3, 4, 3)):
        ok, _ = verify_elliptic_identity(N, q, qorder=2, xorder=xo)
        if not ok:
            return False, f"elliptic identity fails for N={N}, q={q}"
    ok, witness = verify_elliptic_identity(2, 2, qorder=2, xorder=4)
    if ok:
        return False, "negative control (2,2) unexpectedly vanishes"
    todd = classical_genus("todd", order=14)
    sig = classical_genus("signature", order=16)
    pt = point_model()
    cp2 = cp_model(2)
    g2 = cp2.scale(cp2.chern_class(1), F(1, 3))
    cp1 = cp_model(1)
    g1 = cp1.scale(cp1.chern_class(1), F(1, 2))
    centers = [
        BlowupInput(pt, [pt.zero_elt()] * 2, todd),
        BlowupInput(pt, [pt.zero_elt()] * 3, todd),
        BlowupInput(cp1, [g1] * 3, todd),
        BlowupInput(cp2, [g2] * 2, todd),
    ]
    for inp in centers:
        if genus_defect(inp) != 0:
            return False, "Todd defect nonzero"
    if genus_defect(BlowupInput(cp2, [g2] * 2, sig)) != -1:
        return False, "signature defect != -sign(CP2)"
    if genus_defect(BlowupInput(cp2, [g2] * 4, sig)) != -1:
        return False, "codim-4 signature defect != -sign(CP2)"
    for N in (2, 3):
        for entry in verify_blowup_invariance(N):
            if not entry["ok"]:
                return False, f"invariance case failed: {entry['case']}"
    return True, "identities, classical defects and level-N invariance hold"


def criterion_10():
    """property suite: ring hom, homogeneity, SU A-independence, FGL, round-trips"""
    spec = phi_ell(6)
    w2 = catalog("W2")
    cv = chern_vector(w2)
    v = evaluate(spec, cv + cv)
    if not v == evaluate(spec, w2) * 2:
        return False, "additivity fails"
    m = product_model(cp_model(2), w2)
    lhs = evaluate(spec, m)
    rhs = evaluate(spec, cp_model(2)) * evaluate(spec, w2)
    if not lhs == rhs:
        return False, "ring-homomorphism law fails on CP2 x W2"
    for name in ("W2", "W3", "W4", "CP3", "CP5"):
        mod = catalog(name)
        val = evaluate(spec, mod)
        if not val.is_zero() and not val.is_homogeneous(mod.dim):
            return False, f"value on {name} not homogeneous"
    for name in ("W2", "W4", "W5", "W6"):
        val = evaluate(spec, catalog(name))
        if not val.is_zero() and val.degree_in("A") > 0:
            return False, f"SU value on {name} involves A"
    cap = 6
    fgl = formal_group_law(spec, cap)
    uwz = PolyRing("u", "w", "z", base=spec.ring)
    u, w, z = (x.truncate(cap) for x in uwz.gens())

    def fgl_at(a, b):
        return fgl.substitute({"u": a, "v": b}, ring=uwz)

    left = fgl_at(fgl_at(u, w), z)
    right = fgl_at(u, fgl_at(w, z))
    if not left == right:
        return False, "formal group law not associative to order 6"
    f = spec.f_series
    g = spec.log_series
    x = TruncatedSeries.x_series(spec.ring, g.order)
    if not f.compose(g) == x:
        return False, "f(g(y)) != y"
    if not g.exp().log() == g:
        return False, "log(exp) round-trip fails"
    return True, "algebraic laws and series round-trips hold"


CRITERIA = [
    (1, "universal coefficients a1..a5 and K1..K5", criterion_1),
    (2, "basis manifold values A, B, C, D, 0, 0", criterion_2),
    (3, "Chern and Milnor number tables", criterion_3),
    (4, "level-3 relation ideal, eliminant, h0, Poincare identity",
     criterion_4),
    (5, "level-N kernel theorems", criterion_5),
    (6, "q-expansion displays, Weierstrass identity, integrality",
     criterion_6),
    (7, "level-N q-expansion extraction cross-validation", criterion_7),
    (8, "characterization vectors", criterion_8),
    (9, "blow-up identities and defects", criterion_9),
    (10, "algebraic property suite", criterion_10),
]
