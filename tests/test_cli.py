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

from ellgenus.cli import Opt, UsageError, _parse_options, main
from ellgenus.cohomology_models import catalog, cp_model
from ellgenus.genus_engine import evaluate
from ellgenus import manifold_json, twisted_bundles
from ellgenus.manifold_json import COUNT_LIMITS, MANIFOLD_TYPES
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


# One case per count field of the schema, each over its limit.
OVER_LIMIT = [
    ("n", {"type": "cp", "n": COUNT_LIMITS["n"] + 1}),
    ("n", {"type": "cp", "n": 100000}),
    ("dim", {"type": "chern_numbers", "dim": COUNT_LIMITS["dim"] + 1}),
    ("trivial", {"type": "twisted_bundle", "base": {"type": "cp", "n": 1},
                 "E": {"trivial": COUNT_LIMITS["trivial"] + 1}}),
    ("trivial", {"type": "twisted_bundle", "base": {"type": "cp", "n": 1},
                 "F": {"trivial": 10 ** 6}}),
]


def _forbid_models(monkeypatch):
    # every constructor a count field reaches fails the test if it runs
    def built(*args, **kwargs):
        raise AssertionError("a model was built")

    for module, name in ((manifold_json, "cp_model"),
                         (manifold_json, "ChernVector"),
                         (twisted_bundles, "twisted_proj_bundle_model")):
        monkeypatch.setattr(module, name, built)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("field,manifold", OVER_LIMIT)
def test_json_count_over_its_limit_exits_2_before_any_algebra(
        field, manifold, fmt, monkeypatch):
    _forbid_models(monkeypatch)
    rc, text = run("genus", "eval", "--genus", "todd", "--manifold",
                   json.dumps(manifold), "--format", fmt)
    assert rc == 2
    assert text.count("\n") == 1
    error = (json.loads(text)["error"] if fmt == "json"
             else text.removeprefix("error: ").rstrip("\n"))
    value = (manifold.get(field) or manifold.get("E", {}).get(field)
             or manifold["F"][field])
    assert error == (f"manifold JSON: field {field!r} must be at most "
                     f"{COUNT_LIMITS[field]}, got {value}")


@pytest.mark.parametrize("field", sorted(COUNT_LIMITS))
def test_json_count_at_its_limit_is_read(field, monkeypatch):
    # the limit itself passes the check and reaches the constructor
    reached = []
    monkeypatch.setattr(manifold_json, "cp_model",
                        lambda n: reached.append(("n", n)) or cp_model(1))
    monkeypatch.setattr(manifold_json, "ChernVector",
                        lambda dim, numbers: reached.append(("dim", dim)))
    monkeypatch.setattr(
        twisted_bundles, "twisted_proj_bundle_model",
        lambda base, **kw: reached.append(("trivial", kw["e_trivial"])))
    limit = COUNT_LIMITS[field]
    obj = {"n": {"type": "cp", "n": limit},
           "dim": {"type": "chern_numbers", "dim": limit},
           "trivial": {"type": "twisted_bundle", "base": {"type": "cp",
                                                          "n": 1},
                       "E": {"trivial": limit}}}[field]
    manifold_json.model_from_json(obj)
    assert (field, limit) in reached


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
