"""Manifolds read from JSON, the schema of the command line's --manifold.

A JSON object names a model type and its fields; model_from_json builds
the model from the constructors of cohomology_models (and of
twisted_bundles for a twisted bundle), checking every field it reads,
and, for a command, the size of each model with check_size before the
model is built.  Only a manifold given as JSON imports this module.
"""

from __future__ import annotations

import json
from math import prod

from .algebra_kernel import parse_int, parse_rational
from .cohomology_models import (
    CHERN_NUMBERS_MAX_DIM,
    PART_MAX_DIM,
    ChernVector,
    catalog,
    check_size,
    cp_model,
    hypersurface_model,
    point_model,
    product_model,
)


class BadManifold(ValueError):
    """A JSON manifold with a missing or malformed field."""


MANIFOLD_TYPES = ("cp", "catalog", "product", "hypersurface",
                  "twisted_bundle", "chern_numbers")
_KIND_NAMES = {int: "a nonnegative integer", str: "a string", list: "a list",
               dict: "an object"}


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
                          f"{_KIND_NAMES[kind]}, got {json.dumps(v)}")
    return v


def model_from_json(obj, max_dim=None):
    """Build a manifold from the JSON schema used by the CLI.

    {"type":"cp","n":...}
    {"type":"hypersurface","ambient":...,"c1":[...]}
    {"type":"twisted_bundle","base":...,
     "E":{"trivial":k,"lines":[[...], ...]},"F":{...}}
    {"type":"product","factors":[...]}
    {"type":"chern_numbers","dim":n,"numbers":{"1,1":"2",...}}
    {"type":"catalog","name":"W5"}

    A command passes its dimension limit as max_dim.  Before anything
    is built, check_size holds the manifold to it, each part (a product
    factor, a hypersurface's ambient, a bundle's base) to PART_MAX_DIM,
    Chern numbers to CHERN_NUMBERS_MAX_DIM and a product's or bundle's
    rank to MAX_RANK.  Without max_dim nothing is bounded.

    A missing or malformed field raises BadManifold naming it, and so
    does a part given as Chern numbers.
    """
    return _model(obj, max_dim, "the manifold")


def _bound(max_dim, limit):
    """limit if the manifold is bounded (max_dim given), else None."""
    return None if max_dim is None else limit


def _part(obj, max_dim, what):
    """A product factor, a hypersurface's ambient or a bundle's base: a
    cohomology model of dimension at most PART_MAX_DIM."""
    m = _model(obj, _bound(max_dim, PART_MAX_DIM), what)
    if isinstance(m, ChernVector):
        raise BadManifold(f"manifold JSON: {what} must be a cohomology "
                          "model, not Chern numbers")
    return m


def _model(obj, max_dim, what):
    """model_from_json for a manifold called what, bounded by max_dim."""
    if not isinstance(obj, dict):
        raise BadManifold(f"manifold JSON: expected an object, got "
                          f"{json.dumps(obj)}")
    if "type" not in obj:
        raise BadManifold("manifold JSON: missing field 'type'")
    t = obj["type"]
    if t not in MANIFOLD_TYPES:
        raise BadManifold(f"manifold JSON: field 'type' must be one of "
                          f"{', '.join(MANIFOLD_TYPES)}, got {json.dumps(t)}")
    if t == "cp":
        n = _field(obj, "n", int)
        check_size(what, n, max_dim)
        return cp_model(n)
    if t == "catalog":
        return catalog(_field(obj, "name", str), max_dim, what)
    if t == "product":
        objs = _field(obj, "factors", list)
        if len(objs) < 2:  # no factor is a point, one is itself
            return _model(objs[0], max_dim, what) if objs else point_model()
        factors = [_part(f, max_dim, "a product factor") for f in objs]
        check_size(what, sum(f.dim for f in factors), max_dim,
                   prod(len(f.labels) for f in factors))
        m = factors[0]
        for f in factors[1:]:
            m = product_model(m, f)
        return m
    if t == "hypersurface":
        amb = _part(_field(obj, "ambient", dict), max_dim,
                    "a hypersurface ambient")
        check_size(what, amb.dim - 1, max_dim)
        c1 = _element_from_list(amb, _field(obj, "c1", list))
        return hypersurface_model(amb, c1)
    if t == "twisted_bundle":
        from .twisted_bundles import twisted_proj_bundle_model
        base_obj = _field(obj, "base", dict)
        e = _field(obj, "E", dict, {})
        f = _field(obj, "F", dict, {})
        e_trivial = _field(e, "trivial", int, 0)
        f_trivial = _field(f, "trivial", int, 0)
        e_lines = _field(e, "lines", list, [])
        f_lines = _field(f, "lines", list, [])
        base = _part(base_obj, max_dim, "a bundle base")
        r = len(e_lines) + e_trivial + len(f_lines) + f_trivial
        check_size(what, base.dim + r - 1, max_dim, len(base.labels) * r)
        return twisted_proj_bundle_model(
            base, e_lines=[_element_from_list(base, v) for v in e_lines],
            e_trivial=e_trivial,
            f_lines=[_element_from_list(base, v) for v in f_lines],
            f_trivial=f_trivial,
        )
    # the one type left: chern_numbers
    dim = _field(obj, "dim", int)
    check_size(what, dim, max_dim)
    check_size("a Chern-number vector", dim,
               _bound(max_dim, CHERN_NUMBERS_MAX_DIM))
    numbers, keys = {}, {}
    for key, val in _field(obj, "numbers", dict, {}).items():
        try:
            part = tuple(sorted(map(parse_int, key.split(",")), reverse=True))
            numbers[part] = parse_rational(val)
        except (TypeError, ValueError, ZeroDivisionError):
            raise BadManifold(f"manifold JSON: bad Chern number "
                              f"{key!r}: {json.dumps(val)}") from None
        if part in keys:
            raise BadManifold(f"manifold JSON: Chern numbers {keys[part]!r} "
                              f"and {key!r} name one partition")
        keys[part] = key
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
            c = parse_rational(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise BadManifold(f"manifold JSON: bad coefficient "
                              f"{json.dumps(c)}") from None
        if c != 0:
            out[l] = c
    return out
