"""Finite exact models of cohomology rings with Chern class and integration.

A CohomologyModel is a finite graded commutative Q-algebra given by a basis,
structure constants, a distinguished total Chern class and a top-degree
integration functional.  Elements are dicts mapping basis labels to
coefficients.  The data of a model (structure constants, Chern class,
integrals) are ints where they are integral, as for H*(X; Z), and
Fractions only where a class is truly rational, such as c_1/3 on CP2:
each integral Fraction is made an int where it enters a model, so
products of integral classes never pay for a gcd.  An element's
coefficients may also lie in any commutative ring that multiplies with
ints (weighted polynomials, q-series, ...), which is what lets
genus-valued characteristic classes live in the same machinery.

Constructors cover complex projective spaces, products, smooth hypersurfaces,
and (twisted) projective bundles of sums of line bundles; the catalog exposes
the standard generator manifolds used throughout.  Structure constants are
filled on first use: each model's table computes an entry when a product
first asks for it.  A bundle's ring is H*(B)[t]/(t^r + c_1(V) t^(r-1) + ...
+ c_r(V)); its model reduces t^r .. t^(2r-2) to the basis once, so an entry
is a base product times a stored power of t.  Chern numbers share the
monomials c_{p_1}...c_{p_k} of common prefixes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra_kernel import QQ, _fr, coeff_is_zero


def _integral(c):
    """c as an int if it is an integral Fraction; any other value as is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _integral_elt(u):
    """An element with its integral Fraction coefficients made ints."""
    return {l: _integral(c) for l, c in u.items()}


class UnknownName(KeyError):
    pass


class BadManifold(ValueError):
    """A JSON manifold with a missing or malformed field."""


class RankZeroTotal(ValueError):
    pass


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def partitions(n):
    """All partitions of n as non-increasing tuples, in a fixed order."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


def partition_key(part):
    """Serialization key, e.g. (2, 1, 1) -> "2,1,1"."""
    return ",".join(str(p) for p in part)


class ChernVector:
    """All Chern numbers of an n-dimensional class: partition -> Fraction."""

    __slots__ = ("dim", "numbers")

    def __init__(self, dim, numbers=None):
        self.dim = dim
        self.numbers = {p: Fraction(0) for p in partitions(dim)}
        if numbers:
            for p, v in numbers.items():
                key = tuple(sorted(p, reverse=True))
                if sum(key) != dim:
                    raise ValueError(f"partition {p} does not sum to {dim}")
                self.numbers[key] = _fr(v)

    def __getitem__(self, part):
        return self.numbers[tuple(sorted(part, reverse=True))]

    def __eq__(self, other):
        return (
            isinstance(other, ChernVector)
            and self.dim == other.dim
            and self.numbers == other.numbers
        )

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ChernVector(
            self.dim,
            {p: self.numbers[p] + other.numbers[p] for p in self.numbers},
        )

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, scalar):
        s = _fr(scalar)
        return ChernVector(self.dim, {p: v * s for p, v in self.numbers.items()})

    __rmul__ = __mul__

    def is_su(self):
        """True if every Chern number involving c_1 vanishes."""
        return all(v == 0 for p, v in self.numbers.items() if 1 in p)

    def __repr__(self):
        nz = {partition_key(p): str(v) for p, v in self.numbers.items() if v != 0}
        return f"ChernVector(dim={self.dim}, {nz})"


# ---------------------------------------------------------------------------
# the model class
# ---------------------------------------------------------------------------


class StructureTable(dict):
    """Structure constants (label, label) -> element, each computed by
    entry(l1, l2) when first read and stored for the model's lifetime."""

    def __init__(self, entry):
        self.entry = entry

    def __missing__(self, key):
        value = self[key] = self.entry(*key)
        return value


class CohomologyModel:
    """Finite graded commutative algebra with Chern class and integration.

    Parameters
    ----------
    dim : complex dimension of the underlying manifold (class).
    labels : basis labels (hashable), including the unit label.
    degree : dict label -> complex degree.
    unit : the degree-0 basis label.
    mul_table : StructureTable (label, label) -> dict label -> rational.
    integral : dict label -> rational (value of the integration functional).
    chern : element dict (total Chern class, rational coefficients).
    name : display name.

    The constructors below store each integral rational as an int.
    """

    def __init__(self, dim, labels, degree, unit, mul_table, integral, chern,
                 name="X"):
        self.dim = dim
        self.labels = list(labels)
        self.degree = dict(degree)
        self.unit = unit
        self.mul_table = mul_table
        self.integral = dict(integral)
        self.chern = dict(chern)
        self.name = name

    # -- element algebra (generic coefficients) ------------------------------

    def zero_elt(self):
        return {}

    def one_elt(self):
        return {self.unit: 1}

    def add(self, u, v):
        out = dict(u)
        for l, c in v.items():
            if l in out:
                out[l] = out[l] + c
            else:
                out[l] = c
        return {l: c for l, c in out.items() if not coeff_is_zero(c)}

    def scale(self, u, c):
        c = _integral(c)
        return {l: v * c for l, v in u.items()}

    def mul(self, u, v):
        out = {}
        for l1, c1 in u.items():
            for l2, c2 in v.items():
                prod = c1 * c2
                for l3, s in self.mul_table[l1, l2].items():
                    add = prod * s
                    if l3 in out:
                        out[l3] = out[l3] + add
                    else:
                        out[l3] = add
        return {l: c for l, c in out.items() if not coeff_is_zero(c)}

    def power(self, u, n):
        r = self.one_elt()
        for _ in range(n):
            r = self.mul(r, u)
        return r

    def degree_part(self, u, d):
        return {l: c for l, c in u.items() if self.degree[l] == d}

    def integrate(self, u):
        """Evaluate on the fundamental class; generic coefficients allowed."""
        total = None
        for l, c in u.items():
            w = self.integral.get(l, 0)
            if w == 0:
                continue
            term = c * w
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    # -- Chern data ----------------------------------------------------------

    def chern_class(self, i):
        return self.degree_part(self.chern, i)

    def __repr__(self):
        return f"<CohomologyModel {self.name}, dim {self.dim}>"


def chern_monomials(model, chern_elt=None, top=None):
    """part -> c_{p_1}...c_{p_k} (parts <= top, default the dimension) of
    model.chern or any total class; each monomial is its prefix's monomial
    times c_{p_k}, so common prefixes are multiplied once."""
    c = model.chern if chern_elt is None else chern_elt
    top = model.dim if top is None else top
    cs = [model.degree_part(c, m) for m in range(top + 1)]
    monomials = {(): model.one_elt()}

    def monomial(part):
        if part not in monomials:
            monomials[part] = model.mul(monomial(part[:-1]), cs[part[-1]])
        return monomials[part]

    return monomial


def chern_vector(m):
    """All Chern numbers of a model (or pass a ChernVector through)."""
    if isinstance(m, ChernVector):
        return m
    monomial = chern_monomials(m)
    return ChernVector(
        m.dim, {p: m.integrate(monomial(p)) for p in partitions(m.dim)}
    )


# ---------------------------------------------------------------------------
# Milnor numbers
# ---------------------------------------------------------------------------


def power_sum_in_chern(n):
    """The power sum p_n as a polynomial in c_1..c_n: partition -> integer.

    Newton's identities: p_k = c_1 p_{k-1} - c_2 p_{k-2} + ...
    + (-1)^{k-1} k c_k.
    """
    ps = [None, {(1,): 1}]
    for k in range(2, n + 1):
        acc = {}
        for i in range(1, k):
            sign = (-1) ** (i - 1)
            for part, coeff in ps[k - i].items():
                newp = tuple(sorted(part + (i,), reverse=True))
                acc[newp] = acc.get(newp, 0) + sign * coeff
        ek = (k,)
        acc[ek] = acc.get(ek, 0) + (-1) ** (k - 1) * k
        ps.append(acc)
    return ps[n]


def milnor_number(m):
    """s(X) = p_n[X], the power-sum characteristic number."""
    cv = chern_vector(m)
    if cv.dim == 0:
        return Fraction(1)
    total = Fraction(0)
    for part, coeff in power_sum_in_chern(cv.dim).items():
        total += coeff * cv[part]
    return total


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cp_model(n):
    """CP_n: Z[g]/(g^{n+1}), c = (1+g)^{n+1}, integral of g^n is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    labels = list(range(n + 1))
    degree = {i: i for i in labels}
    mul = StructureTable(lambda i, j: {i + j: 1} if i + j <= n else {})
    integral = {n: 1}
    chern = {i: comb(n + 1, i) for i in labels}
    return CohomologyModel(n, labels, degree, 0, mul, integral, chern,
                           name=f"CP{n}")


def point_model():
    return cp_model(0)


def product_model(x, y):
    """X x Y with tensor basis and product Chern class / integration."""
    labels = [(a, b) for a in x.labels for b in y.labels]
    degree = {(a, b): x.degree[a] + y.degree[b] for a, b in labels}

    def entry(l1, l2):
        (a1, b1), (a2, b2) = l1, l2
        ys = y.mul_table[b1, b2].items()
        return {(a3, b3): s1 * s2
                for a3, s1 in x.mul_table[a1, a2].items() for b3, s2 in ys}

    mul = StructureTable(entry)
    integral = {}
    for a, b in labels:
        v = x.integral.get(a, 0) * y.integral.get(b, 0)
        if v != 0:
            integral[(a, b)] = v
    chern = {}
    for a, ca in x.chern.items():
        for b, cb in y.chern.items():
            chern[(a, b)] = chern.get((a, b), 0) + ca * cb
    chern = {l: c for l, c in chern.items() if c != 0}
    m = CohomologyModel(x.dim + y.dim, labels, degree, (x.unit, y.unit), mul,
                        integral, chern, name=f"{x.name}x{y.name}")
    return m


def hypersurface_model(ambient, c1_L):
    """Smooth divisor dual to a line bundle L inside an ambient model.

    The model reuses the ambient ring (restricted classes); integration is
    u -> integral_ambient(u * c1(L)) and c = c(ambient)/(1 + c1(L)).
    """
    if ambient.dim < 1:
        raise ValueError("ambient must have positive dimension")
    n = ambient.dim - 1
    c1_L = _integral_elt(c1_L)
    # c(H) = c(ambient) * (1 + c1L)^{-1}; the inverse is a finite geometric
    # series because c1L is nilpotent.
    inv = ambient.one_elt()
    term = ambient.one_elt()
    for _ in range(ambient.dim):
        term = ambient.scale(ambient.mul(term, c1_L), -1)
        inv = ambient.add(inv, term)
    chern = ambient.mul(ambient.chern, inv)
    chern = {l: c for l, c in chern.items() if ambient.degree[l] <= n}
    integral = {}
    for l in ambient.labels:
        v = ambient.integrate(ambient.mul({l: 1}, c1_L))
        if v != 0:
            integral[l] = v
    return CohomologyModel(n, ambient.labels, ambient.degree, ambient.unit,
                           ambient.mul_table, integral, chern,
                           name=f"H({ambient.name})")


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


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def quartic_surface():
    """Degree-4 surface in CP3 (a K3 surface): c_1^2 = 0, c_2 = 24."""
    amb = cp_model(3)
    c1_L = {1: 4}  # c1(O(4)) = 4g
    m = hypersurface_model(amb, c1_L)
    m.name = "W2"
    return m


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


def catalog(name):
    """Look up a manifold (model or Chern-number vector) by name.

    Supported: W1, W2, ... (all n), CPn, TwCP(p,q), K3.
    """
    name = name.strip()
    if name == "W1":
        m = cp_model(1)
        m.name = "W1"
        return m
    if name in ("W2", "K3"):
        return quartic_surface()
    if name == "W3":
        return ChernVector(3, {(3,): Fraction(2)})
    if name == "W4":
        return ChernVector(4, {(2, 2): Fraction(2), (4,): Fraction(6)})
    if name.startswith("W") and name[1:].isdigit():
        k = int(name[1:])
        if k >= 5:
            if k % 2 == 1:
                return w_odd((k - 1) // 2)
            return w_even((k - 2) // 2)
    if name.startswith("CP") and name[2:].isdigit():
        return cp_model(int(name[2:]))
    if name.startswith("TwCP(") and name.endswith(")"):
        inner = name[5:-1]
        p, q = (int(s) for s in inner.split(","))
        return tw_cp(p, q)
    raise UnknownName(name)


# ---------------------------------------------------------------------------
# JSON manifold schema
# ---------------------------------------------------------------------------


MANIFOLD_TYPES = ("cp", "catalog", "product", "hypersurface",
                  "twisted_bundle", "chern_numbers")
_KIND_NAMES = {int: "a nonnegative integer", str: "a string", list: "a list",
               dict: "an object"}


def _json_text(v):
    """v as JSON, for the messages about a manifold read from JSON (which
    has loaded json already)."""
    import json
    return json.dumps(v)


def _field(obj, key, kind, default=None):
    """obj[key], which must be a kind (int, str, list or dict); default,
    if given, stands in for a missing field.  The int fields are counts:
    a nonnegative integer or integral float, never a boolean."""
    if key not in obj:
        if default is None:
            raise BadManifold(f"manifold JSON: missing field {key!r}")
        return default
    v = obj[key]
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, kind) or (
            kind is int and (isinstance(v, bool) or v < 0)):
        raise BadManifold(f"manifold JSON: field {key!r} must be "
                          f"{_KIND_NAMES[kind]}, got {_json_text(v)}")
    return v


def model_from_json(obj):
    """Build a manifold from the JSON schema used by the CLI.

    {"type":"cp","n":...}
    {"type":"hypersurface","ambient":...,"c1":[...]}
    {"type":"twisted_bundle","base":...,
     "E":{"trivial":k,"lines":[[...], ...]},"F":{...}}
    {"type":"product","factors":[...]}
    {"type":"chern_numbers","dim":n,"numbers":{"1,1":"2",...}}
    {"type":"catalog","name":"W5"}

    A missing or malformed field raises BadManifold naming it.
    """
    if not isinstance(obj, dict):
        raise BadManifold(f"manifold JSON: expected an object, got "
                          f"{_json_text(obj)}")
    if "type" not in obj:
        raise BadManifold("manifold JSON: missing field 'type'")
    t = obj["type"]
    if t not in MANIFOLD_TYPES:
        raise BadManifold(f"manifold JSON: field 'type' must be one of "
                          f"{', '.join(MANIFOLD_TYPES)}, got {_json_text(t)}")
    if t == "cp":
        return cp_model(_field(obj, "n", int))
    if t == "catalog":
        return catalog(_field(obj, "name", str))
    if t == "product":
        factors = [model_from_json(f) for f in _field(obj, "factors", list)]
        if not factors:
            return point_model()
        m = factors[0]
        for f in factors[1:]:
            m = product_model(m, f)
        return m
    if t == "hypersurface":
        amb = model_from_json(_field(obj, "ambient", dict))
        c1 = _element_from_list(amb, _field(obj, "c1", list))
        return hypersurface_model(amb, c1)
    if t == "twisted_bundle":
        base = model_from_json(_field(obj, "base", dict))
        e = _field(obj, "E", dict, {})
        f = _field(obj, "F", dict, {})
        e_lines = [_element_from_list(base, v)
                   for v in _field(e, "lines", list, [])]
        f_lines = [_element_from_list(base, v)
                   for v in _field(f, "lines", list, [])]
        return twisted_proj_bundle_model(
            base,
            e_lines=e_lines, e_trivial=_field(e, "trivial", int, 0),
            f_lines=f_lines, f_trivial=_field(f, "trivial", int, 0),
        )
    # the one type left: chern_numbers
    dim = _field(obj, "dim", int)
    numbers = {}
    for key, val in _field(obj, "numbers", dict, {}).items():
        try:
            numbers[tuple(int(s) for s in key.split(","))] = Fraction(val)
        except (TypeError, ValueError, ZeroDivisionError):
            raise BadManifold(f"manifold JSON: bad Chern number "
                              f"{key!r}: {_json_text(val)}") from None
    return ChernVector(dim, numbers)


def _element_from_list(model, coeffs):
    """Integer vector over the degree-2 (complex degree 1) basis."""
    deg1 = [l for l in model.labels if model.degree[l] == 1]
    if not isinstance(coeffs, list) or len(coeffs) != len(deg1):
        raise BadManifold(
            f"expected {len(deg1)} coefficients for the degree-2 basis"
        )
    out = {}
    for l, c in zip(deg1, coeffs):
        try:
            c = Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise BadManifold(f"manifold JSON: bad coefficient "
                              f"{_json_text(c)}") from None
        if c != 0:
            out[l] = c
    return out
