import hashlib
import io
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ellgenus.cli import (
    BLOWUP_MAX_N,
    BLOWUP_MAX_WORK,
    GENUS_MAX_DIM,
    GENUS_POINT_MAX_WORK,
    LEVELN_MAX_N,
    QEXPAND_MAX_DIM,
    QEXPAND_MAX_WORK,
    UNIVERSAL_MAX_ORDER,
    Opt,
    UsageError,
    _parse_options,
    main,
)
from ellgenus.cohomology_models import catalog
from ellgenus.genus_engine import evaluate
from ellgenus import (blowup, cli, cohomology_models, jacobi_q, level_n,
                      manifold_json, twisted_bundles, universal_elliptic)
from ellgenus.manifold_json import MANIFOLD_TYPES
from ellgenus.universal_elliptic import ABCDPoint, phi_ell, specialize

F = Fraction


def run(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


def test_universal_coeffs_text():
    rc, text = run("universal", "coeffs", "--order", "3")
    assert rc == 0
    assert text.splitlines() == [
        "a1 = 1/2*A",
        "a2 = 1/8*A^2 - 1/48*B",
        "a3 = 1/48*A^3 - 1/96*A*B + 1/6*C",
    ]


def test_universal_coeffs_json():
    rc, text = run("universal", "coeffs", "--order", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["coefficients"]["a1"] == [["A", "1/2"]]
    assert obj["coefficients"]["a2"] == [["A^2", "1/8"], ["B", "-1/48"]]


def test_genus_eval_basis_manifolds():
    for name, expected in (("W1", "A"), ("W2", "B"), ("W3", "C"),
                           ("W4", "D")):
        rc, text = run("genus", "eval", "--genus", "phi_ell",
                       "--manifold", f"catalog:{name}")
        assert rc == 0
        assert text.strip().endswith(f"= {expected}")


def test_genus_eval_classical_json():
    rc, text = run("genus", "eval", "--genus", "todd",
                   "--manifold", "catalog:CP3", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["value"] == "1"
    assert obj["dim"] == 3


def test_genus_eval_explicit_point():
    # the signature point (0, -16, 0, 2) on the quartic surface
    rc, text = run("genus", "eval", "--genus", "0,-16,0,2",
                   "--manifold", "catalog:W2")
    assert rc == 0
    assert text.strip().endswith("= -16")


def _fr_str(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=None)
def _symbolic_phi_ell(order):
    return phi_ell(order)


def _seeded_point(seed):
    rng = random.Random(seed)
    return [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(4)]


@pytest.mark.parametrize("manifold,seed", [("CP2", 11), ("CP6", 12),
                                           ("K3", 13), ("W4", 14)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genus_eval_point_matches_specialized_phi_ell(manifold, seed, fmt):
    # the CLI solves the ODE at the point; specialising the symbolic
    # genus must give the same exact value and the same genus name
    point = _seeded_point(seed)
    sel = ",".join(_fr_str(x) for x in point)
    order = 12  # the genus eval default
    spec = specialize(_symbolic_phi_ell(order), ABCDPoint(*point),
                      name=f"phi_ell|({sel})")
    value = evaluate(spec, catalog(manifold))
    argv = ["genus", "eval", f"--genus={sel}",
            "--manifold", f"catalog:{manifold}"]
    if fmt == "json":
        rc, text = run(*argv, "--format", "json")
        obj = json.loads(text)
        assert (obj["genus"], obj["value"]) == (spec.name, _fr_str(value))
    else:
        rc, text = run(*argv)
        assert text.startswith(f"{spec.name}(")
        assert text.endswith(f") = {_fr_str(value)}\n")
    assert rc == 0


def test_genus_eval_inline_json_manifold():
    inline = json.dumps({
        "type": "chern_numbers", "dim": 2,
        "numbers": {"1,1": 9, "2": 3},
    })
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold", inline)
    assert rc == 0
    assert text.strip().endswith("= 1")


def test_leveln_relations_text():
    rc, text = run("leveln", "relations", "--N", "3")
    assert rc == 0
    assert "R_2 = A^2 - 1/18*B" in text
    assert "R_4 = A*C - 1/3*D" in text
    assert "h0 = 8" in text


def test_leveln_relations_json():
    rc, text = run("leveln", "relations", "--N", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["h0"] == "3"
    assert obj["relations_abcd"]["R1"] == [["A", "1"]]


LEVELN_DIGESTS = json.loads(
    (Path(__file__).parent / "leveln_relations_sha256.json").read_text())

BLOWUP_DIGESTS = json.loads(
    (Path(__file__).parent / "blowup_verify_sha256.json").read_text())

# command line (without --format) -> format -> digest
CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "cli_stdout_sha256.json").read_text())


def _assert_golden_stdout(argv, fmt, digest):
    # SHA-256 of the recorded stdout; a change to this output must
    # re-record the digest file and say why
    rc, text = run(*argv, "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("N", sorted(LEVELN_DIGESTS, key=int))
def test_leveln_relations_golden_stdout(N, fmt):
    # digests in tests/leveln_relations_sha256.json
    _assert_golden_stdout(("leveln", "relations", "--N", N), fmt,
                          LEVELN_DIGESTS[N][fmt])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("N", sorted(BLOWUP_DIGESTS, key=int))
def test_blowup_verify_golden_stdout(N, fmt):
    # digests in tests/blowup_verify_sha256.json, recorded from the
    # divided-difference kernel in the roots (N = 2..7), from the
    # multiplied-out theta product (N = 8, 9) and from the integrand in
    # all of e_1..e_q (N = 10..13)
    _assert_golden_stdout(("blowup", "verify", "--N", N), fmt,
                          BLOWUP_DIGESTS[N][fmt])


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command, formats in CLI_DIGESTS.items()
    for fmt in sorted(formats)])
def test_cli_golden_stdout(command, fmt):
    # digests in tests/cli_stdout_sha256.json, recorded before the
    # products were moved onto ring.dot; the qexpand entries at qorder 6
    # and 14..30 were recorded from the multiplied-out theta product,
    # universal coeffs --order 40 from the ODE solved over all of
    # Q[A, B, C, D] with Q the exponential of the whole log, and
    # universal coeffs --order 60 (text only) from polynomials over QQ
    # with a Fraction per coefficient
    _assert_golden_stdout(command.split(), fmt, CLI_DIGESTS[command][fmt])


def test_qexpand_text():
    rc, text = run("qexpand", "--manifold", "catalog:W2", "--qorder", "1")
    assert rc == 0
    lines = text.splitlines()
    assert lines[1].strip() == "q^0: 2 - 20*y + 2*y^2"
    assert lines[2].strip() == (
        "q^1: -20*y^-1 - 128 - 216*y - 128*y^2 - 20*y^3"
    )


def test_qexpand_json():
    rc, text = run("qexpand", "--manifold", "catalog:K3", "--qorder", "1",
                   "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["chi_y_loop"]["0"] == [[0, "2"], [1, "-20"], [2, "2"]]


def test_blowup_verify():
    rc, text = run("blowup", "verify", "--N", "2")
    assert rc == 0
    assert "[PASS]" in text and "[FAIL]" not in text


def test_blowup_verify_json():
    rc, text = run("blowup", "verify", "--N", "3", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["ok"] and all(c["ok"] for c in obj["cases"])


def test_blowup_verify_level_1_exits_2():
    rc, text = run("blowup", "verify", "--N", "1")
    assert rc == 2
    assert text == "error: N must be >= 2\n"
    rc, text = run("blowup", "verify", "--N", "1", "--format", "json")
    assert rc == 2
    assert json.loads(text) == {"error": "N must be >= 2"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, limit, module, name", [
    (("leveln", "relations", "--N", "40"), LEVELN_MAX_N, level_n,
     "compute_level_data"),
    (("blowup", "verify", "--N", "1000"), BLOWUP_MAX_N, blowup,
     "verify_blowup_invariance"),
    (("universal", "coeffs", "--order", "100000"), UNIVERSAL_MAX_ORDER,
     universal_elliptic, "phi_ell"),
], ids=["leveln", "blowup", "universal"])
def test_level_over_its_limit_exits_2_at_once(argv, limit, module, name,
                                              fmt, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the algebra ran")

    monkeypatch.setattr(module, name, ran)
    rc, text = run(*argv, "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    error = (json.loads(text)["error"] if fmt == "json"
             else text.removeprefix("error: ").rstrip("\n"))
    assert error == f"{argv[-2]} must be at most {limit}, got {argv[-1]}"


CP30_SQUARED = json.dumps({"type": "product", "factors": [
    {"type": "cp", "n": 30}, {"type": "cp", "n": 30}]})


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, error, module, name", [
    (("qexpand", "--manifold", "catalog:K3", "--qorder", "100000"),
     f"--qorder in dimension 2 must be at most {QEXPAND_MAX_WORK // 2}, "
     "got 100000", jacobi_q, "chi_y_loop"),
    (("qexpand", "--manifold", "catalog:W32", "--qorder", "16"),
     "--qorder in dimension 32 must be at most 15, got 16", jacobi_q,
     "chi_y_loop"),
    (("qexpand", "--manifold", "catalog:W33", "--qorder", "1"),
     f"the manifold's dimension must be at most {QEXPAND_MAX_DIM}, got 33",
     jacobi_q, "chi_y_loop"),
    (("blowup", "verify", "--N", "2", "--qorder", "100000"),
     f"--qorder at level 2 must be at most {BLOWUP_MAX_WORK - 1}, "
     "got 100000", blowup, "verify_blowup_invariance"),
    (("blowup", "verify", "--N", "61", "--qorder", "3"),
     "--qorder at level 61 must be at most 2, got 3", blowup,
     "verify_blowup_invariance"),
    (("genus", "eval", "--genus", "chi_y", "--manifold", "catalog:CP60"),
     f"the manifold's dimension must be at most {GENUS_MAX_DIM}, got 60",
     cli, "evaluate"),
    (("genus", "eval", "--genus", "chi_y", "--manifold", CP30_SQUARED),
     f"the manifold's dimension must be at most {GENUS_MAX_DIM}, got 60",
     cli, "evaluate"),
], ids=["qexpand-k3", "qexpand-w32", "qexpand-dim", "blowup-n2",
        "blowup-n61", "genus-cp60", "genus-product"])
def test_work_over_its_limit_exits_2_at_once(argv, error, module, name, fmt,
                                             monkeypatch):
    # each limit is checked on the built manifold or the level before any
    # algebra runs, and one less than the rejected value is admitted
    def ran(*args, **kwargs):
        raise AssertionError("the algebra ran")

    monkeypatch.setattr(module, name, ran)
    rc, text = run(*argv, "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    assert (json.loads(text)["error"] if fmt == "json"
            else text.removeprefix("error: ").rstrip("\n")) == error
    if error.startswith("--qorder"):
        limit = int(error.split("at most ")[1].split(",")[0])
        with pytest.raises(AssertionError, match="the algebra ran"):
            main([*argv[:-1], str(limit)], out=io.StringIO())


def _product(*factors):
    return {"type": "product", "factors": list(factors)}


CP1, CP40 = {"type": "cp", "n": 1}, {"type": "cp", "n": 40}
K3 = {"type": "catalog", "name": "K3"}


def _manifold_error(dim):
    return lambda limit: (f"the manifold's dimension must be at most "
                          f"{limit}, got {dim}")


def _chern_numbers_error(limit):
    # a command limit above 32 leaves the Chern-number bound to refuse
    if limit < 33:
        return _manifold_error(33)(limit)
    return "a Chern-number vector's dimension must be at most 32, got 33"


# Each form is over a size bound for both commands: (--manifold, the
# error line for a command of dimension limit L, the constructors that
# may build its parts).
OVER_LIMIT = {
    "catalog-CP41": ("catalog:CP41", _manifold_error(41), ()),
    "catalog-CP100000": ("catalog:CP100000", _manifold_error(100000), ()),
    "catalog-W41": ("catalog:W41", _manifold_error(41), ()),
    "catalog-W100000": ("catalog:W100000", _manifold_error(100000), ()),
    "catalog-TwCP": ("catalog:TwCP(21,21)", _manifold_error(41), ()),
    "catalog-TwCP-huge": ("catalog:TwCP(60000,1)", _manifold_error(60000),
                          ()),
    "cp-41": ({"type": "cp", "n": 41}, _manifold_error(41), ()),
    "cp-42": ({"type": "cp", "n": 42}, _manifold_error(42), ()),
    "cp-43": ({"type": "cp", "n": 43}, _manifold_error(43), ()),
    "cp-100000": ({"type": "cp", "n": 100000}, _manifold_error(100000), ()),
    "CP40^5": (_product(*[CP40] * 5), _manifold_error(200), ("cp_model",)),
    "bundle-over-CP40^3": (
        {"type": "twisted_bundle", "base": _product(*[CP40] * 3),
         "E": {"trivial": 43}},
        lambda limit: "a bundle base's dimension must be at most 42, got 120",
        ("cp_model",)),
    "bundle-huge-rank": (
        {"type": "twisted_bundle", "base": CP1, "F": {"trivial": 10 ** 6}},
        _manifold_error(10 ** 6), ("cp_model",)),
    "chern-numbers-33": ({"type": "chern_numbers", "dim": 33},
                         _chern_numbers_error, ()),
    "factor-43": (
        _product({"type": "cp", "n": 43}, CP1),
        lambda limit: "a product factor's dimension must be at most 42, "
                      "got 43", ()),
    "ambient-43": (
        {"type": "hypersurface", "ambient": {"type": "cp", "n": 43},
         "c1": [1]},
        lambda limit: "a hypersurface ambient's dimension must be at most "
                      "42, got 43", ()),
    "CP1^15": (_product(*[CP1] * 15),
               lambda limit: "the manifold's cohomology rank must be at most "
                             "16384, got 32768", ("cp_model",)),
    "bundle-over-CP1^10": (
        {"type": "twisted_bundle", "base": _product(*[CP1] * 10),
         "E": {"trivial": 20}},
        lambda limit: "the manifold's cohomology rank must be at most "
                      "16384, got 20480", ("cp_model", "product_model")),
}


def _constructors():
    # where each constructor the catalog and the JSON schema call is bound
    return {
        "cp_model": [(cohomology_models, "cp_model"),
                     (manifold_json, "cp_model")],
        "product_model": [(manifold_json, "product_model")],
        "hypersurface_model": [(manifold_json, "hypersurface_model")],
        "twisted_proj_bundle_model": [
            (twisted_bundles, "twisted_proj_bundle_model")],
        "ChernVector": [(cohomology_models.ChernVector, "__init__")],
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, limit", [
    (("genus", "eval", "--genus", "chi_y"), GENUS_MAX_DIM),
    (("qexpand", "--qorder", "1"), QEXPAND_MAX_DIM),
], ids=["genus", "qexpand"])
@pytest.mark.parametrize("form", list(OVER_LIMIT))
def test_over_limit_manifold_exits_2_before_it_is_built(form, command, limit,
                                                        fmt, monkeypatch):
    # the size is checked before the constructor runs, and the line names
    # the bound exceeded: for the manifold itself, the command's own
    manifold, error, allowed = OVER_LIMIT[form]

    def built(*args, **kwargs):
        raise AssertionError("a model was built")

    for name, places in _constructors().items():
        if name not in allowed:
            for owner, attr in places:
                monkeypatch.setattr(owner, attr, built)
    if not isinstance(manifold, str):
        manifold = json.dumps(manifold)
    start = time.perf_counter()
    rc, text = run(*command, "--manifold", manifold, "--format", fmt)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert text.count("\n") == 1
    assert (json.loads(text)["error"] if fmt == "json"
            else text.removeprefix("error: ").rstrip("\n")) == error(limit)


@pytest.mark.parametrize("command, manifold, dim, module, name", [
    (("genus", "eval", "--genus", "todd"),
     {"type": "hypersurface", "c1": [1], "ambient": {
         "type": "hypersurface", "ambient": {"type": "cp", "n": 42},
         "c1": [1]}}, 40, cli, "evaluate"),
    (("genus", "eval", "--genus", "todd"),
     {"type": "twisted_bundle", "base": CP1, "E": {"trivial": 40}}, 40, cli,
     "evaluate"),
    (("genus", "eval", "--genus", "todd"), _product(*[CP1] * 14), 14, cli,
     "evaluate"),
    (("qexpand", "--qorder", "1"), "catalog:CP32", 32, jacobi_q,
     "chi_y_loop"),
    (("qexpand", "--qorder", "1"), {"type": "cp", "n": 32}, 32, jacobi_q,
     "chi_y_loop"),
    (("qexpand", "--qorder", "1"), _product(*[K3] * 7), 14, jacobi_q,
     "chi_y_loop"),
], ids=["H(H(CP42))", "bundle-of-40-lines", "CP1^14", "catalog-CP32",
        "cp-32", "K3^7"])
def test_manifold_at_its_limits_reaches_the_algebra(command, manifold, dim,
                                                    module, name,
                                                    monkeypatch):
    def ran(*args):
        dim, = (a.dim for a in args if hasattr(a, "dim"))
        raise AssertionError(f"the algebra ran in dimension {dim}")

    monkeypatch.setattr(module, name, ran)
    if not isinstance(manifold, str):
        manifold = json.dumps(manifold)
    with pytest.raises(AssertionError, match=f"ran in dimension {dim}$"):
        main([*command, "--manifold", manifold], out=io.StringIO())


W3, W4 = {"type": "catalog", "name": "W3"}, {"type": "catalog", "name": "W4"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, manifold, what", [
    (("genus", "eval", "--genus", "todd"), _product(CP1, W3),
     "a product factor"),
    (("qexpand",), _product(K3, W4), "a product factor"),
    (("genus", "eval", "--genus", "todd"),
     _product({"type": "chern_numbers", "dim": 2}, CP1), "a product factor"),
    (("genus", "eval", "--genus", "todd"),
     {"type": "hypersurface", "ambient": W3, "c1": []},
     "a hypersurface ambient"),
    (("qexpand",), {"type": "twisted_bundle", "base": W4,
                    "E": {"trivial": 2}}, "a bundle base"),
], ids=["factor-W3", "factor-W4", "factor-chern-numbers", "ambient-W3",
        "base-W4"])
def test_chern_numbers_as_a_part_exit_2(command, manifold, what, fmt):
    rc, text = run(*command, "--manifold", json.dumps(manifold),
                   "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    assert (json.loads(text)["error"] if fmt == "json"
            else text.removeprefix("error: ").rstrip("\n")) == (
        f"manifold JSON: {what} must be a cohomology model, not Chern "
        "numbers")


def test_product_of_one_factor_is_that_factor():
    assert manifold_json.model_from_json(_product(W3)) == catalog("W3")
    rc, text = run("genus", "eval", "--genus", "euler", "--manifold",
                   json.dumps(_product(W3)))
    assert rc == 0 and text.endswith(" = 2\n")


def test_qexpand_refuses_a_product_of_twelve_cp1_quickly():
    # c_1 is nonzero in the ring, so the SU test reads the power-sum
    # numbers, where only p_1^12 is nonzero
    start = time.perf_counter()
    rc, text = run("qexpand", "--qorder", "1", "--manifold",
                   json.dumps(_product(*[CP1] * 12)))
    assert time.perf_counter() - start < 10
    assert (rc, text) == (2, "error: chi_y(q, LX) needs an SU class\n")


def test_negative_twisted_projective_space_exits_2():
    rc, text = run("genus", "eval", "--genus", "todd",
                   "--manifold", "catalog:TwCP(-1,3)")
    assert rc == 2
    assert text == "error: TwCP(p,q) needs p, q >= 0, got TwCP(-1,3)\n"


@pytest.mark.parametrize("source", ["catalog", "json"])
@pytest.mark.parametrize("name", ["TwCP(a,b)", "TwCP(1,2,3)", "TwCP(1,x)",
                                  "TwCP(3)", "TwCP()", "TwCP(1,)",
                                  "TwCP(0,0)"])
def test_malformed_twisted_projective_space_exits_2(name, source):
    manifold = (f"catalog:{name}" if source == "catalog" else
                json.dumps({"type": "catalog", "name": name}))
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold", manifold)
    need = ("p + q >= 1" if name == "TwCP(0,0)" else
            "two integers p, q >= 0")
    assert (rc, text) == (2, f"error: TwCP(p,q) needs {need}, got {name}\n")


def test_unknown_genus_exits_2():
    rc, text = run("genus", "eval", "--genus", "nope",
                   "--manifold", "catalog:W2")
    assert rc == 2
    assert "error" in text


def test_unknown_manifold_exits_2_json():
    rc, text = run("genus", "eval", "--genus", "todd",
                   "--manifold", "catalog:NOPE", "--format", "json")
    assert rc == 2
    assert "error" in json.loads(text)


def test_bad_point_exits_2():
    rc, _ = run("genus", "eval", "--genus", "1,2,3",
                "--manifold", "catalog:W2")
    assert rc == 2


def _one_line_error(text, fmt):
    assert text.count("\n") == 1
    return (json.loads(text)["error"] if fmt == "json"
            else text.removeprefix("error: ").rstrip("\n"))


# Fraction("1e99999999") runs for minutes; Fraction(float("inf")) raises
# OverflowError.  Each is refused with one line, at once.
_LONG_LITERALS = ["1e99999999", "-1e-99999999", "1.5E+99999999",
                  "1e" + "9" * 5000, "1" * 4301, "1/" + "1" * 4301]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("literal", _LONG_LITERALS)
def test_genus_point_component_too_long_exits_2(literal, fmt):
    point = f"1,{literal},1,1"
    start = time.perf_counter()
    rc, text = run("genus", "eval", f"--genus={point}", "--manifold",
                   "catalog:CP2", "--format", fmt)
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert _one_line_error(text, fmt) == (
        f"bad genus point {point!r}: {literal!r} has more than 4300 digits "
        "written out")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value", [json.dumps(v) for v in _LONG_LITERALS]
                         + ["1e400", "-1e400", "Infinity", "-Infinity",
                            "NaN"])
def test_chern_number_too_long_or_not_finite_exits_2(value, fmt):
    manifold = ('{"type": "chern_numbers", "dim": 2, "numbers": {"2": '
                + value + '}}')
    start = time.perf_counter()
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                   manifold, "--format", fmt)
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert _one_line_error(text, fmt) == (
        f"manifold JSON: bad Chern number '2': "
        f"{json.dumps(json.loads(value))}")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value", [json.dumps(v) for v in _LONG_LITERALS]
                         + ["1e400", "-Infinity", "NaN"])
@pytest.mark.parametrize("where", ["c1", "lines"])
def test_line_coefficient_too_long_or_not_finite_exits_2(where, value, fmt):
    base = '{"type": "cp", "n": 3}'
    manifold = (
        f'{{"type": "hypersurface", "ambient": {base}, "c1": [{value}]}}'
        if where == "c1" else
        f'{{"type": "twisted_bundle", "base": {base}, '
        f'"E": {{"trivial": 1, "lines": [[{value}]]}}}}')
    start = time.perf_counter()
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                   manifold, "--format", fmt)
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert _one_line_error(text, fmt) == (
        f"manifold JSON: bad coefficient {json.dumps(json.loads(value))}")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("manifold, order", [
    ("catalog:CP40", 40), ("catalog:CP3", 3), ("catalog:W2", 2),
    ("catalog:CP1", 1), ("catalog:CP0", 1)])
def test_genus_point_digits_times_the_order_is_bounded(manifold, order, fmt):
    # the digits of the largest component times the order the genus is
    # built at (the dimension, at least 1) is at most GENUS_POINT_MAX_WORK
    digits = GENUS_POINT_MAX_WORK // order
    at_limit = ",".join(["7" * digits, "-1", "1/3", "2"])
    over = ",".join(["2", "1e" + str(digits), "1", "1"])
    start = time.perf_counter()
    rc, text = run("genus", "eval", "--genus", over, "--manifold", manifold,
                   "--format", fmt)
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert _one_line_error(text, fmt) == (
        f"--genus digits per component at order {order} must be at most "
        f"{digits}, got {digits + 1}")
    if order < 40:  # the value at the limit prints; CP40 takes a second
        rc, text = run("genus", "eval", "--genus", at_limit, "--manifold",
                       manifold, "--format", fmt)
        assert rc == 0


# a point within GENUS_POINT_MAX_WORK on CP3 whose value has more digits
# than Python converts to a str
_LONG_VALUE_POINT = ",".join(["7" * 1333, "-1", "1/" + "3" * 1332, "2"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genus_value_too_long_to_print_exits_2(fmt):
    start = time.perf_counter()
    rc, text = run("genus", "eval", "--genus", _LONG_VALUE_POINT,
                   "--manifold", "catalog:CP3", "--format", fmt)
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert _one_line_error(text, fmt) == (
        "the value has more than 4300 digits to print")


def test_bad_subcommand_exits_2(capsys):
    rc, _ = run("bogus")
    assert rc == 2


def test_negative_order_exits_2():
    rc, _ = run("universal", "coeffs", "--order", "-1")
    assert rc == 2


# ---------------------------------------------------------------------------
# the command-line parser
# ---------------------------------------------------------------------------

EVAL = ("genus", "eval", "--genus", "todd", "--manifold", "catalog:W2")


@pytest.mark.parametrize("argv,message", [
    ((), "missing command"),
    (("bogus",), "unknown command 'bogus'"),
    (("genus",), "genus: missing command"),
    (("genus", "bogus"), "genus: unknown command 'bogus'"),
    (("--format", "json"), "unknown command '--format'"),
    (EVAL + ("--bogus", "1"), "unrecognized option '--bogus'"),
    (EVAL + ("--bogus=1",), "unrecognized option '--bogus'"),
    (EVAL + ("-x",), "unexpected argument '-x'"),
    (("blowup", "verify", "--N", "2", "--x", "1"),
     "blowup verify: unrecognized option '--x'"),
    (("blowup", "verify", "--N", "2", "--q"),
     "argument --qorder: expected a value"),
    (("genus", "eval", "--genus", "todd"),
     "missing required option --manifold"),
    (("genus", "eval"), "missing required options --genus, --manifold"),
    (("leveln", "relations"), "missing required option --N"),
    (("leveln", "relations", "--N", "x"),
     "argument --N: invalid int value 'x'"),
    (("leveln", "relations", "--N", "2.0"),
     "argument --N: invalid int value '2.0'"),
    (("universal", "coeffs", "--order="), "argument --order: invalid int"),
    (("universal", "coeffs", "-ox"), "argument --order: invalid int"),
    (EVAL + ("--format", "xml"),
     "argument --format: invalid choice 'xml' (choose from text, json)"),
    (EVAL + ("--format",), "argument --format: expected a value"),
    (("genus", "eval", "--genus", "--manifold", "catalog:W2"),
     "argument --genus: expected a value"),
    (EVAL + ("stray",), "unexpected argument 'stray'"),
    (("verify", "all", "extra"), "unexpected argument 'extra'"),
    (("qexpand", "--manifold", "catalog:K3", "--"),
     "unexpected argument '--'"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_bad_argument_exits_2_with_one_stderr_line(argv, message, capsys):
    rc, text = run(*argv)
    err = capsys.readouterr().err
    assert (rc, text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n") and message in err
    assert "usage" not in err


def test_ambiguous_prefix_is_an_error():
    # no two options of one command share a prefix today, so the check
    # runs on options of its own
    opts = (Opt("--alpha", ""), Opt("--alps", ""), Opt("--al", ""))
    with pytest.raises(UsageError, match="ambiguous option '--alp' could "
                       "match --alpha, --alps"):
        _parse_options("x", "", opts, ["--alp", "1"])
    # an exact name is never ambiguous
    assert _parse_options("x", "", opts, ["--al", "1"])["al"] == "1"


COMMAND_LINES = [("genus", "eval"), ("universal", "coeffs"),
                 ("leveln", "relations"), ("qexpand",), ("blowup", "verify"),
                 ("verify", "all")]


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he",),
                                  ("genus", "-h"), ("verify", "--help")],
                         ids=" ".join)
def test_help_lists_the_commands(argv, capsys):
    rc, text = run(*argv)
    assert (rc, capsys.readouterr().err) == (0, "")
    assert text.startswith("usage: ellgenus ") and "commands:" in text


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", COMMAND_LINES, ids=" ".join)
def test_help_of_each_command(command, flag, capsys):
    rc, text = run(*command, flag)
    assert (rc, capsys.readouterr().err) == (0, "")
    assert text.startswith(f"usage: ellgenus {' '.join(command)} [-h] ")
    assert "-h, --help" in text and "--format {text,json}" in text


def test_help_wins_over_missing_and_later_options(capsys):
    rc, text = run("genus", "eval", "--genus", "todd", "-h", "--bogus")
    assert (rc, capsys.readouterr().err) == (0, "")
    assert text.startswith("usage: ellgenus genus eval ")


def test_help_lists_defaults():
    _, text = run("genus", "eval", "-h")
    assert "-o, --order ORDER" in text and "(default: 12)" in text
    assert "(default: 5)" in run("universal", "coeffs", "-h")[1]
    assert "(default: 3)" in run("qexpand", "-h")[1]
    assert "(default: 2)" in run("blowup", "verify", "-h")[1]
    _, top = run("-h")
    for command in ("genus eval", "universal coeffs", "leveln relations",
                    "qexpand", "blowup verify", "verify all"):
        assert f"  {command} " in top


@pytest.mark.parametrize("argv", [
    ("genus", "eval", "--genus", "todd", "--man", "catalog:W2"),
    ("genus", "eval", "--genus", "todd", "--man=catalog:W2"),
    ("genus", "eval", "--gen=todd", "--manifold", "catalog:W2", "--ord", "3"),
    ("genus", "eval", "--genus", "todd", "--manifold", "catalog:W2",
     "-o", "3", "--order=4", "-o5", "--fo", "text"),
    # a repeated option: the last one wins
    ("genus", "eval", "--genus", "phi_ell", "--manifold", "catalog:W2",
     "--genus", "todd"),
    ("genus", "eval", "--manifold", "catalog:W2", "--genus", "todd"),
], ids=" ".join)
def test_option_forms_parse(argv):
    assert run(*argv) == (0, "todd(W2) = 2\n")


def test_genus_point_starting_with_minus_parses():
    for argv in (("--genus=-1/2,3,4,5",), ("--genus", "-1/2,3,4,5")):
        rc, text = run("genus", "eval", *argv, "--manifold", "catalog:W2")
        assert (rc, text) == (0, "phi_ell|(-1/2,3,4,5)(W2) = 3\n")


def test_defaults_and_formats():
    assert run("universal", "coeffs") == run("universal", "coeffs",
                                             "--order", "5")
    assert run("qexpand", "--manifold", "catalog:W2") == run(
        "qexpand", "--manifold", "catalog:W2", "--qorder", "3")
    assert run("blowup", "verify", "--N", "2") == run(
        "blowup", "verify", "--N", "2", "--qorder", "2")
    rc, text = run("universal", "coeffs", "-o", "1", "--format=json")
    assert (rc, json.loads(text)) == (0, {"coefficients": {"a1": [["A", "1/2"]]}})


@pytest.mark.parametrize("manifold", ["W2", "CP3", "W5"])
@pytest.mark.parametrize("genus", ["todd", "phi_ell", "chi_y", "1,2,3,4"])
def test_genus_eval_reads_order_only_up_to_the_dimension(genus, manifold):
    argv = ("genus", "eval", "--genus", genus, "--manifold",
            f"catalog:{manifold}")
    low, high = run(*argv, "--order", "1"), run(*argv, "--order", "14")
    assert low[0] == 0 and low == high
    assert low == run(*argv, "--order", "100000")


def test_output_is_deterministic():
    a = run("leveln", "relations", "--N", "4", "--format", "json")
    b = run("leveln", "relations", "--N", "4", "--format", "json")
    assert a == b


# A Chern-number key with a part below 1 was stored and ignored, and of two
# keys that name one partition the later won; each now exits 2 with one line.
MALFORMED_CHERN_KEYS = [
    pytest.param(2, {"3,-1": "5", "1,1": "8", "2": "4"},
                 "partition (3, -1) has a part below 1", id="negative-part"),
    pytest.param(2, {"2,0": "1"}, "partition (2, 0) has a part below 1",
                 id="zero-part"),
    pytest.param(3, {"2,1": "24", "1,2": "0"},
                 "manifold JSON: Chern numbers '2,1' and '1,2' name one "
                 "partition", id="one-partition-twice"),
    pytest.param(3, {"1,2": "0", "2,1": "24"},
                 "manifold JSON: Chern numbers '1,2' and '2,1' name one "
                 "partition", id="one-partition-twice-reversed"),
    # int() reads the digits of every script, so the key was read as (3,)
    pytest.param(3, {"\u0663": "2"},
                 "manifold JSON: bad Chern number '\u0663': \"2\"",
                 id="arabic-indic-digit"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("dim, numbers, message", MALFORMED_CHERN_KEYS)
def test_malformed_chern_number_keys_exit_2(dim, numbers, message, fmt):
    manifold = json.dumps({"type": "chern_numbers", "dim": dim,
                           "numbers": numbers})
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                   manifold, "--format", fmt)
    assert rc == 2
    assert _one_line_error(text, fmt) == message


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["CP²", "W²", "CP¹2"])
def test_superscript_digits_name_no_catalog_manifold(name, fmt):
    # str.isdigit accepts superscripts, which int() then refuses
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                   f"catalog:{name}", "--format", fmt)
    assert rc == 2
    assert _one_line_error(text, fmt) == f"unknown catalog manifold {name!r}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["CP\u0663", "W\u0665", "CP1\u0662",
                                  "TwCP(\u0663,1)", "TwCP(1,\u0968)",
                                  "CP\uff13"])
def test_digits_of_other_scripts_name_no_catalog_manifold(name, fmt):
    # str.isdecimal and int() take the digits of every script: CP3 in
    # Arabic-Indic digits printed todd(CP3) = 1 and exited 0
    for manifold in (f"catalog:{name}",
                     json.dumps({"type": "catalog", "name": name})):
        rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                       manifold, "--format", fmt)
        assert rc == 2
        assert _one_line_error(text, fmt) == (
            f"unknown catalog manifold {name!r}")


# One case per fault of the inline-manifold reader: each exits 2 with one
# line that names the missing or bad field, in text and in json.
BAD_MANIFOLDS = [
    (("qexpand",), "{}", "missing field 'type'"),
    (("genus", "eval", "--genus", "todd"), '{"type":"cp"}',
     "missing field 'n'"),
    (("genus", "eval", "--genus", "todd"), '{"type":3}',
     "field 'type' must be one of"),
    (("genus", "eval", "--genus", "todd"), '{"type":"cp","n":2.5}',
     "field 'n' must be a nonnegative integer, got 2.5"),
    (("genus", "eval", "--genus", "todd"), '{"type":"cp","n":true}',
     "field 'n' must be a nonnegative integer, got true"),
    (("genus", "eval", "--genus", "todd"),
     '{"type":"chern_numbers","dim":4.5}',
     "field 'dim' must be a nonnegative integer, got 4.5"),
    (("genus", "eval", "--genus", "todd"),
     '{"type":"chern_numbers","dim":-1}',
     "field 'dim' must be a nonnegative integer, got -1"),
    (("genus", "eval", "--genus", "todd"),
     '{"type":"twisted_bundle","base":{"type":"cp","n":1},'
     '"E":{"trivial":false}}',
     "field 'trivial' must be a nonnegative integer, got false"),
    (("genus", "eval", "--genus", "todd"), "[1]", "expected an object"),
    # Fraction(True) is 1: a JSON boolean is no rational at any parse site
    (("genus", "eval", "--genus", "todd"),
     '{"type":"chern_numbers","dim":1,"numbers":{"1":true}}',
     "bad Chern number '1': true"),
    (("genus", "eval", "--genus", "todd"),
     '{"type":"hypersurface","ambient":{"type":"cp","n":2},"c1":[true]}',
     "bad coefficient true"),
    (("genus", "eval", "--genus", "todd"),
     '{"type":"twisted_bundle","base":{"type":"cp","n":1},'
     '"E":{"lines":[[false]]}}',
     "bad coefficient false"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command,manifold,message", BAD_MANIFOLDS)
def test_bad_manifold_json_exits_2(command, manifold, message, fmt):
    rc, text = run(*command, "--manifold", manifold, "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    if fmt == "json":
        error = json.loads(text)["error"]
    else:
        assert text.startswith("error: ")
        error = text[len("error: "):]
    assert error.startswith("manifold JSON: ")
    assert message in error


def test_integral_float_count_is_accepted():
    rc, text = run("genus", "eval", "--genus", "todd",
                   "--manifold", '{"type":"cp","n":2.0}')
    assert (rc, text) == (0, "todd(CP2) = 1\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("source", ["inline", "file"])
def test_deeply_nested_manifold_json_exits_2(source, fmt, tmp_path):
    # deeper than the JSON decoder's recursion limit
    deep = "[" * 5000 + "]" * 5000
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_text(deep)
        sel, where = str(path), f"manifold JSON in {str(path)!r}"
    else:
        sel, where = deep, "inline manifold JSON"
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold", sel,
                   "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    error = (json.loads(text)["error"] if fmt == "json"
             else text.removeprefix("error: ").rstrip("\n"))
    assert error == f"bad {where}: nested too deeply"


# ---------------------------------------------------------------------------
# fuzzing the command line: every request exits 0, 1 or 2 without raising
# ---------------------------------------------------------------------------

_CATALOG_NAMES = ["W1", "W2", "W3", "W4", "W5", "W6", "K3", "CP0", "CP1",
                  "CP3", "CP-1", "CP", "TwCP(0,0)", "TwCP(2,1)", "TwCP(1,x)",
                  "TwCP(3)", "W0", "Wx", "", " CP2", "X", "CP60", "W60",
                  "CP²", "W²"]
_JSON_KEYS = ["type", "n", "name", "factors", "ambient", "c1", "base", "E",
              "F", "lines", "trivial", "dim", "numbers", "1,1", "2", "0,x"]
# small leaves only, so no drawn manifold is expensive
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2)
    | st.sampled_from([0.5, 2.0, -1.0, "", "cp", "W2", "1/0", "3/2",
                       "1e99999999", float("inf")]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=3),
    max_leaves=6)


@st.composite
def _manifold_args(draw):
    kind = draw(st.sampled_from(
        ["catalog", "catalog", "cp", "object", "json", "broken"]))
    if kind == "catalog":
        return "catalog:" + draw(st.sampled_from(_CATALOG_NAMES))
    if kind == "cp":
        return json.dumps({"type": "cp", "n": draw(st.integers(-1, 3))})
    if kind == "object":
        obj = draw(st.dictionaries(st.sampled_from(_JSON_KEYS), _JSON,
                                   max_size=4))
        obj["type"] = draw(st.sampled_from(MANIFOLD_TYPES + ("bogus",)))
        text = json.dumps(obj)
    else:
        text = "[" + json.dumps(draw(_JSON))
        if kind == "json":
            text += "]"
        else:
            text = text[:draw(st.integers(1, len(text)))]
    return text


# values far over every limit, which must exit 2 before any algebra runs
_HUGE = st.integers(1000, 10 ** 6)


@st.composite
def _argvs(draw):
    size = st.one_of(st.integers(-1, 4), _HUGE).map(str)
    command = draw(st.sampled_from(
        ["genus", "universal", "leveln", "qexpand", "blowup"]))
    if command == "genus":
        genus = draw(st.sampled_from(
            ["todd", "phi_ell", "chi_y", "a_tilde", "euler", "0,-16,0,2",
             "1,2", "1/0,0,0,0", "x,1,2,3", "nope", "1e99999999,1,1,1",
             "1,2,3," + "9" * 4299]))
        argv = ["genus", "eval", "--genus", genus,
                "--manifold", draw(_manifold_args()), "--order", draw(size)]
    elif command == "universal":
        argv = ["universal", "coeffs", "--order",
                draw(st.one_of(st.integers(-2, 8), _HUGE).map(str))]
    elif command == "leveln":
        argv = ["leveln", "relations", "--N", draw(size)]
    elif command == "qexpand":
        argv = ["qexpand", "--manifold", draw(_manifold_args()),
                "--qorder", draw(st.one_of(st.integers(-1, 2), _HUGE)
                                 .map(str))]
    else:
        argv = ["blowup", "verify",
                "--N", draw(st.one_of(st.integers(-1, 3), _HUGE).map(str)),
                "--qorder", draw(st.one_of(st.integers(-1, 2), _HUGE)
                                 .map(str))]
    return argv + draw(st.sampled_from(
        [[], [], ["--format", "json"], ["--format", "xml"]]))


def _genus_eval(genus, manifold):
    return ["genus", "eval", "--genus", genus, "--manifold", manifold]


@settings(max_examples=80, deadline=None)
@seed(20261018)
@given(argv=_argvs())
# the literals at each site where a rational is parsed
@example(argv=_genus_eval("1e99999999,1,1,1", "catalog:CP2"))
@example(argv=_genus_eval("1,2,3," + "9" * 4299, "catalog:CP3"))
@example(argv=_genus_eval(_LONG_VALUE_POINT, "catalog:CP3"))
@example(argv=_genus_eval("todd", json.dumps(
    {"type": "chern_numbers", "dim": 2, "numbers": {"2": "1e99999999"}})))
@example(argv=_genus_eval("todd", json.dumps(
    {"type": "chern_numbers", "dim": 2, "numbers": {"1,1": float("inf")}})))
@example(argv=_genus_eval("todd", json.dumps(
    {"type": "hypersurface", "ambient": {"type": "cp", "n": 3},
     "c1": ["1e99999999"]})))
@example(argv=_genus_eval("todd", json.dumps(
    {"type": "twisted_bundle", "base": {"type": "cp", "n": 1},
     "E": {"lines": [[float("inf")]]}})))
def test_cli_fuzz_exits_0_1_or_2(argv):
    out = io.StringIO()
    start = time.perf_counter()
    status = main(argv, out=out)
    assert status in (0, 1, 2)
    # a value over its limit (genus eval reads --order only up to the
    # dimension, so it has none) is rejected at once
    values = [int(v) for opt, v in zip(argv, argv[1:])
              if opt in ("--N", "--order", "--qorder")
              and v.lstrip("-").isdigit()]
    if argv[0] != "genus" and max(values) >= 1000:
        assert status == 2
        assert time.perf_counter() - start < 5
    # so is a rational too long to parse, to evaluate or to print, or not
    # finite
    # (json.dumps writes float("inf") as Infinity)
    if any(big in arg for arg in argv
           for big in ("1e99999999", "9" * 4299, "Infinity",
                       _LONG_VALUE_POINT)):
        assert time.perf_counter() - start < 5
