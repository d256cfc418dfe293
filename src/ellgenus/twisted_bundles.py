"""Twisted projective bundles and the catalog manifolds built from them.

The twisted projectivization of a sum E + F of line bundles over a base
model; the catalog manifolds W_k for k >= 5, such bundles over the
quartic surface and over CP3; and the twisted projective spaces
TwCP(p,q), bundles over a point.  A bundle's ring is H*(B)[t]/(t^r +
c_1(V) t^(r-1) + ... + c_r(V)); its model reduces t^r .. t^(2r-2) to the
basis once, so a structure constant, filled on first use, is a base
product times a stored power of t.  The catalog and the JSON schema
import this module only for these manifolds.
"""

from __future__ import annotations

from .cohomology_models import (
    CohomologyModel,
    StructureTable,
    _integral_elt,
    cp_model,
    point_model,
    quartic_surface,
)


class RankZeroTotal(ValueError):
    pass


def twisted_proj_bundle_model(base, e_lines=(), e_trivial=0,
                              f_lines=(), f_trivial=0, name=None):
    """Twisted projectivization of E + F over a base model.

    E and F are sums of line bundles (given by their first Chern classes,
    elements of the base model) and trivial summands.  F empty gives the
    ordinary projective bundle of E.  The stable complex structure twists
    the F-part, which shows up in three places: the bundle V = E + F-bar
    entering the ring relation, the Chern factors (1 - t + y_j), and the
    orientation sign (-1)^q in the integration rule
    t^{p+q-1} * pi^*(alpha) -> (-1)^q alpha[B].
    """
    e_lines = [_integral_elt(x) for x in e_lines]
    f_lines = [_integral_elt(y) for y in f_lines]
    p = len(e_lines) + e_trivial
    q = len(f_lines) + f_trivial
    r = p + q
    if r == 0:
        raise RankZeroTotal("E + F must have positive rank")
    dim = base.dim + r - 1

    # V = E + F-bar; roots: E roots and negated F roots (trivial -> 0)
    v_roots = (
        e_lines
        + [base.zero_elt()] * e_trivial
        + [base.scale(y, -1) for y in f_lines]
        + [base.zero_elt()] * f_trivial
    )
    # elementary symmetric functions of the roots via prod (1 + x_i)
    cv_total = base.one_elt()
    for x in v_roots:
        cv_total = base.mul(cv_total, base.add(base.one_elt(), x))
    cV = [base.degree_part(cv_total, k) for k in range(r + 1)]

    labels = [(bl, j) for bl in base.labels for j in range(r)]
    degree = {(bl, j): base.degree[bl] + j for bl, j in labels}
    unit = (base.unit, 0)

    # tpow[j - r][i] is the base coefficient of t^i in t^j, for
    # r <= j <= 2r - 2: t^r = -sum_k c_k(V) t^(r-k), and t^(j+1) = t * t^j
    # with only the leading coefficient reduced again
    tpow = [[base.scale(cV[r - i], -1) for i in range(r)]]
    for _ in range(r - 2):
        prev = tpow[-1]
        tpow.append([
            base.add(prev[i - 1] if i else {},
                     base.scale(base.mul(prev[-1], cV[r - i]), -1))
            for i in range(r)
        ])

    def entry(l1, l2):
        (bl1, j1), (bl2, j2) = l1, l2
        b, j = base.mul_table[bl1, bl2], j1 + j2
        if j < r:
            return {(bl3, j): s for bl3, s in b.items()}
        return {(bl3, i): s
                for i, coeff in enumerate(tpow[j - r])
                for bl3, s in base.mul(b, coeff).items()}

    mul = StructureTable(entry)

    sign = (-1) ** q
    integral = {}
    for bl in base.labels:
        v = base.integral.get(bl, 0)
        if v != 0:
            integral[(bl, r - 1)] = sign * v

    model = CohomologyModel(dim, labels, degree, unit, mul, integral, {},
                            name=name or f"TwP({base.name};{p},{q})")

    def lift(u):
        return {(bl, 0): c for bl, c in u.items()}

    t = {(base.unit, 1): 1}
    one_t = model.add(model.one_elt(), t)
    one_mt = model.add(model.one_elt(), model.scale(t, -1))
    chern = lift(base.chern)
    for factor in ([model.add(one_t, lift(x)) for x in e_lines]
                   + [one_t] * e_trivial
                   + [model.add(one_mt, lift(y)) for y in f_lines]
                   + [one_mt] * f_trivial):
        chern = model.mul(chern, factor)
    model.chern = {l: c for l, c in chern.items() if model.degree[l] <= dim}
    return model


def w_odd(n):
    """W_{2n+1}: twisted projective bundle over the quartic surface.

    E = trivial^(n-1) + nu^2, F = trivial^(n-2) + nu^{-1} + nu^{-1},
    where nu has c_1 = 4g (restricted from the ambient CP3).
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    base = quartic_surface()
    g = {1: 1}
    nu2 = base.scale(g, 8)
    nu_inv = base.scale(g, -4)
    m = twisted_proj_bundle_model(
        base,
        e_lines=[nu2], e_trivial=n - 1,
        f_lines=[nu_inv, nu_inv], f_trivial=n - 2,
        name=f"W{2 * n + 1}",
    )
    return m


def w_even(n):
    """W_{2n+2}: twisted projective bundle over CP3.

    E = trivial^(n-1) + K, F = trivial^(n-1) + K^{-2}, c_1(K) = 4g.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    base = cp_model(3)
    g = {1: 1}
    K = base.scale(g, 4)
    K_m2 = base.scale(g, -8)
    m = twisted_proj_bundle_model(
        base,
        e_lines=[K], e_trivial=n - 1,
        f_lines=[K_m2], f_trivial=n - 1,
        name=f"W{2 * n + 2}",
    )
    return m


def tw_cp(p, q):
    """C~P_{p,q}: twisted projective space (bundle over a point)."""
    return twisted_proj_bundle_model(
        point_model(), e_trivial=p, f_trivial=q, name=f"TwCP({p},{q})"
    )
