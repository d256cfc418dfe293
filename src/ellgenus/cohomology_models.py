"""Finite exact models of cohomology rings with Chern roots and integration.

A CohomologyModel is a finite graded commutative Q-algebra given by a
basis, structure constants, the Chern roots of its tangent bundle and a
top-degree integration functional.  Elements are dicts mapping basis
labels to coefficients.  The data of a model (structure constants, roots,
integrals) are ints where they are integral, as for H*(X; Z), and
Fractions only where a class is truly rational, such as c_1/3 on CP2:
each integral Fraction is made an int where it enters a model, so
products of integral classes never pay for a gcd.  An element's
coefficients may also lie in any commutative ring that multiplies with
ints (weighted polynomials, q-series, ...), which is what lets
genus-valued characteristic classes live in the same machinery.

By the splitting principle each constructor states TX as a sum of line
bundles, the roots (x, k) with multiplicity k: CP_n has (g, n+1), and a
hypersurface adds (c_1 L, -1) to its ambient's.  The power sums p_m =
sum k x^m are root powers; c(TX) = prod (1 + x)^k is formed only when
read.  Constructors here cover complex projective spaces, products and
smooth hypersurfaces, and the catalog the standard generator manifolds;
check_size holds the size bounds of a manifold built for a command,
which the catalog and manifold_json apply before they build.  Structure
constants are filled on first use, and Chern numbers share the monomials
c_{p_1}...c_{p_k} of common prefixes.  The twisted projective bundles
(catalog W5, W6, ... and TwCP(p,q)) are in twisted_bundles and manifolds
read from JSON in manifold_json; each is imported only where such a
manifold is named.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebra_kernel import _fr, coeff_is_zero, parse_int


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
                if key and key[-1] < 1:
                    raise ValueError(f"partition {p} has a part below 1")
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
    """Finite graded commutative algebra with Chern roots and integration.

    Parameters
    ----------
    dim : complex dimension of the underlying manifold (class).
    labels : basis labels (hashable), including the unit label.
    degree : dict label -> complex degree.
    unit : the degree-0 basis label.
    mul_table : StructureTable (label, label) -> dict label -> rational.
    integral : dict label -> rational (value of the integration functional).
    roots : list of (x, k), x a degree-1 element and k an integer: TX is
        stably the sum of the line bundles of first Chern class x, each
        k times (k < 0 subtracts it).
    name : display name.

    The constructors below store each integral rational as an int.
    """

    def __init__(self, dim, labels, degree, unit, mul_table, integral, roots,
                 name="X"):
        self.dim = dim
        self.labels = list(labels)
        self.degree = dict(degree)
        self.unit = unit
        self.mul_table = mul_table
        self.integral = dict(integral)
        self.roots = list(roots)
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

    @cached_property
    def chern(self):
        """c(TX), the total Chern class, formed from the roots when read."""
        return total_chern(self, self.roots)

    def chern_class(self, i):
        """c_i(TX); c_1 = p_1, the sum of the roots, needs no c(TX)."""
        if i == 1 and self.dim:
            return self.power_sums(1)[1]
        return self.degree_part(self.chern, i)

    def power_sums(self, top):
        """[None, p_1, ..., p_top], p_m = sum k x^m over the roots."""
        ps = [None] + [{} for _ in range(top)]
        for x, k in self.roots:
            power = x
            for m in range(1, top + 1):
                ps[m] = self.add(ps[m], self.scale(power, k))
                power = self.mul(power, x) if m < top else {}
                if not power:
                    break
        return ps

    def is_su(self):
        """True if every Chern number involving c_1 vanishes; c_1 = 0 in
        the ring answers without the Chern numbers.  Otherwise, as c_1 =
        p_1, exactly when every power-sum number with a part 1 vanishes:
        power_sum_numbers gives only the nonzero ones, and follows no
        zero class, where the Chern numbers would all be formed."""
        if not any(self.chern_class(1).values()):
            return True
        numbers = power_sum_numbers(self, range(1, self.dim + 1))
        return not any(1 in part for part in numbers)

    def __repr__(self):
        return f"<CohomologyModel {self.name}, dim {self.dim}>"


def total_chern(model, roots):
    """prod (1 + x)^k over the roots (x, k), through degree model.dim:
    (1 + x)^k = sum_j binom(k, j) x^j, k < 0 too, and x is nilpotent."""
    c = model.one_elt()
    for x, k in roots:
        rest, power, b = model.scale(x, k), x, k  # rest = (1 + x)^k - 1
        for j in range(2, model.dim + 1):
            b = b * (k - j + 1) // j  # exact: j binom(k, j)
            power = model.mul(power, x) if b else {}
            if not power:
                break
            rest = model.add(rest, model.scale(power, b))
        c = model.add(c, model.mul(c, rest))
    return {l: v for l, v in c.items() if model.degree[l] <= model.dim}


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
# power sums and Milnor numbers
# ---------------------------------------------------------------------------


def power_sums_in_chern(n, top=None):
    """[None, p_1, ..., p_n], each power sum p_k as a polynomial in
    c_1..c_k (partition -> integer), by Newton's identities
    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k,
    with c_i = 0 for i > top (default n): only the partitions with parts
    at most top are formed.

    Each call builds a new table, which the caller may change.
    """
    top = n if top is None else top
    ps = [None]
    for k in range(1, n + 1):
        acc = {(k,): (-1) ** (k - 1) * k} if k <= top else {}
        for i in range(1, min(k, top + 1)):
            sign = (-1) ** (i - 1)
            for part, coeff in ps[k - i].items():
                newp = tuple(sorted(part + (i,), reverse=True))
                acc[newp] = acc.get(newp, 0) + sign * coeff
        ps.append(acc)
    return ps


def _model_caps(model, top, u):
    """The starts and the step of power_sum_numbers on a model: the class
    u_d p_{lambda_1}...p_{lambda_k}, from each homogeneous part u_d of u
    with dim - d left, times p_m(TX) from the root powers."""
    ps = model.power_sums(top)
    starts = [(model.degree_part(u, d), model.dim - d)
              for d in range(model.dim + 1)]
    return starts, lambda v, m, rest: model.mul(v, ps[m]), model.integrate


def _vector_caps(cv, top):
    """The start and the step of power_sum_numbers on Chern numbers: F,
    with F[mu] = <c_mu p_{lambda_1}...p_{lambda_k}, [X]>, capped by p_m
    as mu -> sum_nu c_nu F[mu + nu] over the terms c_nu c^nu of p_m."""
    table = power_sums_in_chern(top)
    # (m, rest) -> [(mu, [(c_nu, mu + nu) for the terms of p_m]) for the
    # partitions mu of rest], shared by every tail that takes that step
    merged = {}

    def cap(f, m, rest):
        if (m, rest) not in merged:
            merged[m, rest] = [
                (mu, [(c, tuple(sorted(mu + nu, reverse=True)))
                      for nu, c in table[m].items()])
                for mu in partitions(rest)]
        out = {}
        for mu, terms in merged[m, rest]:
            v = sum(c * f.get(p, 0) for c, p in terms)
            if v:
                out[mu] = v
        return out

    # the numbers as int numerators over one denominator
    den = lcm(*(v.denominator for v in cv.numbers.values()))
    return ([({p: v.numerator * (den // v.denominator)
              for p, v in cv.numbers.items() if v}, cv.dim)], cap,
            lambda f: Fraction(f.get((), 0), den))


def power_sum_numbers(x, parts, u=None):
    """The nonzero power-sum numbers s_lambda =
    <u_d p_{lambda_1}...p_{lambda_k}, [X]> of a model or ChernVector,
    for the partitions lambda of dim - d into the given parts: a dict
    lambda -> coefficient, lambda a non-increasing tuple.  u_d is the
    degree-d part of u, a class of the model whose coefficients may lie
    in any ring; without u, u = 1 and the s_lambda are the power-sum
    Chern numbers, rationals.  A partition's size gives its d.

    lambda is built from its smallest part up, and each tail
    (lambda_j, ..., lambda_k) is one step from the next shorter one: a
    product by p_(lambda_j) in the model's ring, or a cap of the Chern
    numbers by it.  A tail whose class is zero, or whose remainder is no
    sum of parts at least lambda_j, takes no further step.
    """
    n = x.dim
    parts = sorted({m for m in parts if 1 <= m <= n})
    top = parts[-1] if parts else 0
    starts, cap, value = (
        _vector_caps(x, top) if isinstance(x, ChernVector)
        else _model_caps(x, top, x.one_elt() if u is None else u))
    # fits[t][r]: r is a sum of the parts, each at least t
    fits = [None] * (n + 1) + [[r == 0 for r in range(n + 1)]]
    for t in range(n, 0, -1):
        fits[t] = row = list(fits[t + 1])
        if t in parts:
            for r in range(t, n + 1):
                row[r] = row[r] or row[r - t]
    steps = {}  # (t, r) -> the parts m >= t with r - m a sum of parts >= m
    out = {}
    stack = [((), v, rest) for v, rest in starts if v and fits[1][rest]]
    while stack:
        tail, v, rest = stack.pop()
        if rest == 0:
            s = value(v)
            if not coeff_is_zero(s):
                out[tail] = s
            continue
        key = tail[0] if tail else 1, rest
        if key not in steps:
            steps[key] = [m for m in parts
                          if key[0] <= m <= rest and fits[m][rest - m]]
        for m in steps[key]:
            w = cap(v, m, rest - m)
            if w:
                stack.append(((m,) + tail, w, rest - m))
    return out


def milnor_number(m):
    """s(X) = p_n[X], the power-sum characteristic number."""
    if m.dim == 0:
        return Fraction(1)
    return Fraction(power_sum_numbers(m, [m.dim]).get((m.dim,), 0))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


# The size of a manifold built for a command, which passes its own
# dimension limit as max_dim; a library caller passes none and gets no
# bound.  A part (a product factor, a hypersurface's ambient or a bundle's
# base) has dimension at most PART_MAX_DIM, above every command's limit,
# as the ambient of a complete intersection must be.  Chern numbers, one
# per partition of the dimension, go up to CHERN_NUMBERS_MAX_DIM, where
# chi_y on dense ones takes about 10 s cold (BENCH_pr23.json).  A
# product's or a bundle's rank, its number of basis classes, is at most
# MAX_RANK: chi_y, the slowest command, took at most 6.5 s cold at it on
# products of CP1, CP2 or CP3 and on bundles of trivial lines over
# CP1^10, and 11 to 13 s on CP1^15 and on 20 lines over CP1^10, just
# above it (BENCH_pr28.json).
PART_MAX_DIM = 42
CHERN_NUMBERS_MAX_DIM = 32
MAX_RANK = 2 ** 14


def check_size(what, dim, max_dim, rank=1):
    """Refuse a manifold, called what, before it is built: ValueError if
    its dimension is above max_dim or its rank above MAX_RANK.  No bound
    if max_dim is None."""
    if max_dim is None:
        return
    if dim > max_dim:
        raise ValueError(f"{what}'s dimension must be at most {max_dim}, "
                         f"got {dim}")
    if rank > MAX_RANK:
        raise ValueError(f"{what}'s cohomology rank must be at most "
                         f"{MAX_RANK}, got {rank}")


def cp_model(n, name=None):
    """CP_n: Z[g]/(g^{n+1}), root g n+1 times, integral of g^n is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    labels = list(range(n + 1))
    degree = {i: i for i in labels}
    mul = StructureTable(lambda i, j: {i + j: 1} if i + j <= n else {})
    roots = [({1: 1}, n + 1)] if n else []
    return CohomologyModel(n, labels, degree, 0, mul, {n: 1}, roots,
                           name=name or f"CP{n}")


def point_model():
    return cp_model(0)


def product_model(x, y):
    """X x Y with tensor basis, both factors' roots and product
    integration."""
    labels = [(a, b) for a in x.labels for b in y.labels]
    degree = {(a, b): x.degree[a] + y.degree[b] for a, b in labels}

    def entry(l1, l2):
        (a1, b1), (a2, b2) = l1, l2
        ys = y.mul_table[b1, b2].items()
        return {(a3, b3): s1 * s2
                for a3, s1 in x.mul_table[a1, a2].items() for b3, s2 in ys}

    integral = {(a, b): u * v for a, u in x.integral.items()
                for b, v in y.integral.items() if u * v}
    roots = ([({(a, y.unit): c for a, c in r.items()}, k) for r, k in x.roots]
             + [({(x.unit, b): c for b, c in r.items()}, k)
                for r, k in y.roots])
    return CohomologyModel(x.dim + y.dim, labels, degree, (x.unit, y.unit),
                           StructureTable(entry), integral, roots,
                           name=f"{x.name}x{y.name}")


def hypersurface_model(ambient, c1_L, name=None):
    """Smooth divisor dual to a line bundle L inside an ambient model.

    The model keeps the ambient basis classes of degree at most dim H
    (restricted classes; those above restrict to 0) and their products;
    integration is u -> integral_ambient(u * c1(L)), and TX = T(ambient)
    - L adds the root (c1(L), -1).  In dimension 0 the degree-1 classes
    are gone and the point has no roots.
    """
    if ambient.dim < 1:
        raise ValueError("ambient must have positive dimension")
    n = ambient.dim - 1
    c1_L = _integral_elt(c1_L)
    labels = [l for l in ambient.labels if ambient.degree[l] <= n]
    integral = {l: v for l in labels
                if (v := ambient.integrate(ambient.mul({l: 1}, c1_L)))}
    mul = StructureTable(lambda l1, l2: {
        l: c for l, c in ambient.mul_table[l1, l2].items()
        if ambient.degree[l] <= n})
    return CohomologyModel(n, labels, {l: ambient.degree[l] for l in labels},
                           ambient.unit, mul, integral,
                           ambient.roots + [(c1_L, -1)] if n else [],
                           name=name or f"H({ambient.name})")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def quartic_surface():
    """Degree-4 surface in CP3 (a K3 surface): c_1^2 = 0, c_2 = 24."""
    return hypersurface_model(cp_model(3), {1: 4}, "W2")  # c1(O(4)) = 4g


def catalog(name, max_dim=None, what="the manifold"):
    """Look up a manifold (model or Chern-number vector) by name.

    Supported: Wn, CPn, TwCP(p,q) and K3 (Wn and CPn have dimension n,
    TwCP(p,q) p + q - 1).  A command passes its dimension limit as
    max_dim: check_size then refuses a larger name, called what, before
    any model is built.  Without max_dim the catalog has no bound.
    """
    dim, build = _catalog_entry(name.strip())
    check_size(what, dim, max_dim)
    return build()


def _catalog_entry(name):
    """The dimension and the constructor a catalog name names.  The n of
    CPn and Wn is ASCII digits; p and q are read by parse_int.
    UnknownName for a name not in the catalog, ValueError for a TwCP(p,q)
    that is not two integers p, q >= 0 with p + q >= 1."""
    if name == "W1":
        return 1, lambda: cp_model(1, "W1")
    if name in ("W2", "K3"):
        return 2, quartic_surface
    if name == "W3":
        return 3, lambda: ChernVector(3, {(3,): 2})
    if name == "W4":
        return 4, lambda: ChernVector(4, {(2, 2): 2, (4,): 6})
    if name.startswith("TwCP(") and name.endswith(")"):
        try:
            p, q = map(parse_int, name[5:-1].split(","))
        except ValueError:
            raise ValueError(f"TwCP(p,q) needs two integers p, q >= 0, "
                             f"got {name}") from None
        if p < 0 or q < 0:
            raise ValueError(f"TwCP(p,q) needs p, q >= 0, got {name}")
        if p + q < 1:
            raise ValueError(f"TwCP(p,q) needs p + q >= 1, got {name}")
        from .twisted_bundles import tw_cp
        return p + q - 1, lambda: tw_cp(p, q)
    head = name.rstrip("0123456789")
    if head in ("CP", "W") and head != name:
        n = parse_int(name[len(head):])
        if head == "CP":
            return n, lambda: cp_model(n)
        if n >= 5:
            from .twisted_bundles import w_even, w_odd
            return n, lambda: w_odd(n // 2) if n % 2 else w_even(n // 2 - 1)
    raise UnknownName(name)
