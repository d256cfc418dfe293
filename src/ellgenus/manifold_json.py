"""Manifolds read from JSON, the schema of the command line's --manifold.

A JSON object names a model type and its fields; model_from_json builds
the model from the constructors of cohomology_models (and of
twisted_bundles for a twisted bundle), checking every field it reads.
Only a manifold given as JSON imports this module.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cohomology_models import (
    ChernVector,
    catalog,
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
                          f"{json.dumps(obj)}")
    if "type" not in obj:
        raise BadManifold("manifold JSON: missing field 'type'")
    t = obj["type"]
    if t not in MANIFOLD_TYPES:
        raise BadManifold(f"manifold JSON: field 'type' must be one of "
                          f"{', '.join(MANIFOLD_TYPES)}, got {json.dumps(t)}")
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
        from .twisted_bundles import twisted_proj_bundle_model
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
                              f"{key!r}: {json.dumps(val)}") from None
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
                              f"{json.dumps(c)}") from None
        if c != 0:
            out[l] = c
    return out
