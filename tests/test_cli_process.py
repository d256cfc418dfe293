"""The command line in a fresh interpreter, as a user runs it.

Which package modules each command executes: `import ellgenus.cli` runs
cli, algebra_kernel and genus_engine alone, and loads neither argparse nor
json.  cli binds every other module lazily, and the others import the
cohomology models, the elliptic ODE, the universal genus and the
polynomial representations where they use them, so a command that does
not read a module never compiles or runs it: a genus at a rational point
needs no polynomial ring, a catalog CPn no twisted bundle, and only a
manifold given as JSON reads the JSON schema.  And a reader that closes
the pipe early (`| head`) ends the command with exit status 2 and one
line on stderr, not a traceback.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORE = {"cli", "algebra_kernel", "genus_engine"}
DEFERRED = {path.stem for path in (ROOT / "src" / "ellgenus").glob("*.py")
            if path.stem != "__init__"} - CORE

# Prints the exit status of main(argv), or null for "import" alone, the
# ellgenus modules that have run and which of argparse and json were
# loaded.  The command line comes as arguments, so that the script loads
# json only to print its report.  A lazily loaded module that has not run
# yet is not of type types.ModuleType.
SCRIPT = """
import io, sys, types
import ellgenus.cli
argv = sys.argv[2:] if sys.argv[1] == "run" else None
status = None if argv is None else ellgenus.cli.main(argv, out=io.StringIO())
executed = sorted(name.split(".", 1)[1] for name, m in sys.modules.items()
                  if name.startswith("ellgenus.")
                  and type(m) is types.ModuleType)
stdlib = sorted(name for name in ("argparse", "json") if name in sys.modules)
import json
print(json.dumps({"status": status, "executed": executed, "stdlib": stdlib}))
"""


def _env():
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _seeded_point(seed):
    rng = random.Random(seed)
    return ",".join(str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))) for _ in range(4))


@pytest.mark.parametrize("argv,expected", [
    (None, set()),
    (["universal", "coeffs", "--order", "18"],
     {"elliptic_ode", "universal_elliptic", "weighted_poly"}),
    # at a rational point the ODE runs over QQ: no polynomial ring
    (["genus", "eval", f"--genus={_seeded_point(16)}",
      "--manifold", "catalog:CP6", "--order", "14"],
     {"cohomology_models", "elliptic_ode"}),
    # a WeightedPoly value, printed as text
    (["genus", "eval", "--genus", "phi_ell", "--manifold", "catalog:CP3"],
     {"cohomology_models", "elliptic_ode", "universal_elliptic",
      "weighted_poly"}),
    (["genus", "eval", "--genus", "todd", "--manifold", "catalog:W5"],
     {"cohomology_models", "twisted_bundles"}),
    (["genus", "eval", "--genus", "todd", "--manifold",
      '{"type": "cp", "n": 3}'], {"cohomology_models", "manifold_json"}),
    # the Poincare series is two int lists
    (["leveln", "relations", "--N", "6"],
     {"level_n", "elliptic_ode", "universal_elliptic", "weighted_poly"}),
    # the coefficient rings run on int lists in jacobi_q itself
    (["qexpand", "--manifold", "catalog:K3", "--qorder", "8"],
     {"jacobi_q", "cohomology_models"}),
    (["qexpand", "--manifold", "catalog:W2", "--qorder", "6",
      "--format", "json"], {"jacobi_q", "cohomology_models"}),
    (["verify", "all"], DEFERRED - {"manifold_json"}),
], ids=["import", "universal", "genus-eval", "genus-eval-phi-ell",
        "genus-eval-bundle", "genus-eval-inline-json", "leveln", "qexpand",
        "qexpand-json", "verify"])
def test_command_executes_only_the_modules_it_uses(argv, expected):
    args = ["import"] if argv is None else ["run", *argv]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *args],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] in (None, 0)
    assert set(report["executed"]) == CORE | expected
    # no command loads argparse; json only where JSON is read or written
    reads_json = any(a == "json" or a.startswith("{") for a in argv or [])
    assert report["stdlib"] == (["json"] if reads_json else [])


@pytest.mark.parametrize("argv", [
    # fits the stdout buffer: the pipe breaks at the flush after the command
    ["universal", "coeffs", "--order", "3"],
    # larger than the buffer: the pipe breaks inside the command's writes
    ["universal", "coeffs", "--order", "18"],
    # an input error, reported on stdout
    ["genus", "eval", "--genus", "todd", "--manifold", "catalog:NOPE"],
])
def test_closed_stdout_exits_2_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ellgenus.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_env(), text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,status", [
    (["--help"], 0),
    (["genus", "eval", "--genus", "todd", "--manifold", "catalog:W2",
      "--order", "x"], 2),
    (["bogus"], 2),
])
def test_usage_and_argument_errors_under_m(argv, status):
    # help on stdout; a bad argument as one line on stderr, stdout empty
    proc = subprocess.run([sys.executable, "-m", "ellgenus.cli", *argv],
                          capture_output=True, env=_env(), text=True,
                          timeout=120)
    assert proc.returncode == status
    if status == 0:
        assert proc.stdout.startswith("usage: ellgenus ")
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
