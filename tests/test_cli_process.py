"""The command line in a fresh interpreter, as a user runs it.

Which package modules each command executes: `import ellgenus.cli` runs
cli, algebra_kernel and genus_engine alone.  cli binds every other module
lazily, and the others import the cohomology models, the universal genus
and the polynomial representations where they use them, so a command
that does not read a module never compiles or runs it.  And a reader that
closes the pipe early (`| head`) ends the command with exit status 2 and
one line on stderr, not a traceback.
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

# Prints the exit status of main(argv), or null when argv is null (import
# only), and the ellgenus modules that have run.  A lazily loaded module
# that has not run yet is not of type types.ModuleType.
SCRIPT = """
import io, json, sys, types
import ellgenus.cli
argv = json.loads(sys.argv[1])
status = None if argv is None else ellgenus.cli.main(argv, out=io.StringIO())
executed = sorted(name.split(".", 1)[1] for name, m in sys.modules.items()
                  if name.startswith("ellgenus.")
                  and type(m) is types.ModuleType)
print(json.dumps({"status": status, "executed": executed}))
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
     {"universal_elliptic", "weighted_poly"}),
    (["genus", "eval", f"--genus={_seeded_point(16)}",
      "--manifold", "catalog:CP6", "--order", "14"],
     {"cohomology_models", "universal_elliptic", "weighted_poly"}),
    # a WeightedPoly value, printed as text
    (["genus", "eval", "--genus", "phi_ell", "--manifold", "catalog:CP3"],
     {"cohomology_models", "universal_elliptic", "weighted_poly"}),
    (["leveln", "relations", "--N", "6"],
     {"level_n", "universal_elliptic", "weighted_poly", "dense_poly"}),
    (["qexpand", "--manifold", "catalog:K3", "--qorder", "8"],
     {"jacobi_q", "cohomology_models", "dense_poly"}),
    (["qexpand", "--manifold", "catalog:W2", "--qorder", "6",
      "--format", "json"], {"jacobi_q", "cohomology_models", "dense_poly"}),
    (["verify", "all"], DEFERRED),
], ids=["import", "universal", "genus-eval", "genus-eval-phi-ell", "leveln",
        "qexpand", "qexpand-json", "verify"])
def test_command_executes_only_the_modules_it_uses(argv, expected):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] in (None, 0)
    assert set(report["executed"]) == CORE | expected


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
