import hashlib
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ellgenus.cli import main
from ellgenus.cohomology_models import MANIFOLD_TYPES, catalog
from ellgenus.genus_engine import evaluate
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
    # divided-difference kernel in the roots (N = 2..7) and from the
    # multiplied-out theta product (N = 8, 9)
    _assert_golden_stdout(("blowup", "verify", "--N", N), fmt,
                          BLOWUP_DIGESTS[N][fmt])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_cli_golden_stdout(command, fmt):
    # digests in tests/cli_stdout_sha256.json, recorded before the
    # products were moved onto ring.dot; the qexpand entries at qorder 6
    # and 14..30 were recorded from the multiplied-out theta product
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


def test_bad_subcommand_exits_2(capsys):
    rc, _ = run("bogus")
    assert rc == 2


def test_negative_order_exits_2():
    rc, _ = run("universal", "coeffs", "--order", "-1")
    assert rc == 2


def test_output_is_deterministic():
    a = run("leveln", "relations", "--N", "4", "--format", "json")
    b = run("leveln", "relations", "--N", "4", "--format", "json")
    assert a == b


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


# ---------------------------------------------------------------------------
# fuzzing the command line: every request exits 0, 1 or 2 without raising
# ---------------------------------------------------------------------------

_CATALOG_NAMES = ["W1", "W2", "W3", "W4", "W5", "W6", "K3", "CP0", "CP1",
                  "CP3", "CP-1", "CP", "TwCP(0,0)", "TwCP(2,1)", "TwCP(1,x)",
                  "TwCP(3)", "W0", "Wx", "", " CP2", "X"]
_JSON_KEYS = ["type", "n", "name", "factors", "ambient", "c1", "base", "E",
              "F", "lines", "trivial", "dim", "numbers", "1,1", "2", "0,x"]
# small leaves only, so no drawn manifold is expensive
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2)
    | st.sampled_from([0.5, 2.0, -1.0, "", "cp", "W2", "1/0", "3/2"]),
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


@st.composite
def _argvs(draw):
    size = st.integers(-1, 4).map(str)
    command = draw(st.sampled_from(
        ["genus", "universal", "leveln", "qexpand", "blowup"]))
    if command == "genus":
        genus = draw(st.sampled_from(
            ["todd", "phi_ell", "chi_y", "a_tilde", "euler", "0,-16,0,2",
             "1,2", "1/0,0,0,0", "x,1,2,3", "nope"]))
        argv = ["genus", "eval", "--genus", genus,
                "--manifold", draw(_manifold_args()), "--order", draw(size)]
    elif command == "universal":
        argv = ["universal", "coeffs", "--order",
                draw(st.integers(-2, 8).map(str))]
    elif command == "leveln":
        argv = ["leveln", "relations", "--N", draw(size)]
    elif command == "qexpand":
        argv = ["qexpand", "--manifold", draw(_manifold_args()),
                "--qorder", draw(st.integers(-1, 2).map(str))]
    else:
        argv = ["blowup", "verify", "--N", draw(st.integers(-1, 3).map(str)),
                "--qorder", draw(st.integers(-1, 2).map(str))]
    return argv + draw(st.sampled_from(
        [[], [], ["--format", "json"], ["--format", "xml"]]))


@settings(max_examples=80, deadline=None)
@seed(20261018)
@given(argv=_argvs())
def test_cli_fuzz_exits_0_1_or_2(argv):
    out = io.StringIO()
    assert main(argv, out=out) in (0, 1, 2)
