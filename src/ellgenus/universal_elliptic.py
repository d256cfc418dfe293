"""The universal complex elliptic genus over Q[A, B, C, D].

The genus is the solution of the elliptic differential equation (see
elliptic_ode) for the generic quartic: its coefficients live in
Q[q_1..q_4] (q_i of weight i) or, after the standard coordinate change,
in Q[A, B, C, D] (weights 1..4).  As the ODE is solved with the quartic
depressed by q_1/4 = A/2, log Q is (A/2) x plus a series over Q[B, C, D].
This module holds those two rings, the universal genus phi_ell over them,
its specialization at a point and the fiber-defect test vectors; it
re-exports the ring-generic ODE names of elliptic_ode, which a genus at
one rational point uses without building either ring.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_kernel import QQ
# the ODE names are re-exported: callers read them here as well
from .elliptic_ode import (
    ABCDPoint,
    QuarticData,
    abcd_to_q,
    q_of_h,
    q_to_abcd,
    solve_h,
)
from .genus_engine import GenusSpec, evaluate
from .weighted_poly import PolyRing

Q_RING = PolyRing(("q1", 1), ("q2", 2), ("q3", 3), ("q4", 4))
ABCD_RING = PolyRing(("A", 1), ("B", 2), ("C", 3), ("D", 4))

DEFAULT_ORDER = 12


def phi_ell(order=DEFAULT_ORDER):
    """The universal elliptic genus as a GenusSpec over Q[A, B, C, D].

    The ODE is solved with the quartic written in A, B, C, D, so no
    coordinate substitution follows.  As solve_h depresses the quartic,
    log Q = (A/2) x + sum_{k>=2} l_k x^k with the l_k free of A, so
    GenusSpec.q runs its exponential over Q[B, C, D].
    """
    h = solve_h(abcd_to_q(ABCDPoint.generic()), order)
    return q_of_h(h, name="phi_ell")


def specialize(spec, point, name=None):
    """Substitute a coefficient point into a symbolic GenusSpec.

    spec must be over a PolyRing whose variable names match the point's
    components: (A,B,C,D) for an ABCDPoint, (q1..q4) for a QuarticData.
    For one rational point, q_of_h(solve_h(abcd_to_q(point), order))
    gives the same series without building the symbolic genus first.
    """
    ring = spec.ring
    if isinstance(point, ABCDPoint):
        images = dict(zip(("A", "B", "C", "D"), point))
    elif isinstance(point, QuarticData):
        images = dict(zip(("q1", "q2", "q3", "q4"), point))
    else:
        images = dict(point)
    target = getattr(point, "ring", QQ)
    return GenusSpec(target, [c.substitute(images, ring=target)
                              for c in spec.log_coeffs],
                     name=name or f"{spec.name}|point")


# ---------------------------------------------------------------------------
# test vectors from fibered quotients
# ---------------------------------------------------------------------------


def test_vectors_Q3_Q4(order=6):
    """phi_ell of the two fiber-defect classes over CP2, in q-coordinates.

    xi_3 = P(K + K^2) and xi_4 = P(K + 1 + 1) over CP2, with K the
    determinant of the tangent bundle (c_1 = 3g); the classes are
    [E(xi)] - [CP2] * [fiber], so each value is the genus of the bundle's
    model less that of the product's.  The values generate the relations
    that force chi_y-type multiplicativity.
    """
    from .cohomology_models import cp_model, product_model
    from .twisted_bundles import twisted_proj_bundle_model

    base = cp_model(2)
    g = {1: Fraction(1)}
    K = base.scale(g, 3)
    K2 = base.scale(g, 6)
    spec = phi_ell(order)

    xi3 = twisted_proj_bundle_model(base, e_lines=[K, K2])
    xi4 = twisted_proj_bundle_model(base, e_lines=[K], e_trivial=2)
    images = dict(zip(("A", "B", "C", "D"), q_to_abcd(QuarticData.generic())))
    return tuple(
        (evaluate(spec, bundle) - evaluate(
            spec, product_model(base, cp_model(r)))).substitute(
                images, ring=Q_RING)
        for bundle, r in ((xi3, 1), (xi4, 2)))
