"""The benchmark's tracer (bench/tracer.py) still finds every name it wraps.

The tracer looks the package's functions and classes up by name, among
them the aliases algebra_kernel.MultiPoly and blowup.flag_pushforward.
The names it reads from algebra_kernel that live in weighted_poly,
jacobi_q or level_n are forwarded by algebra_kernel.__getattr__, and no
other name is.  Its three function names there are aliases of the int
kernels the package runs: poly_divmod and poly_gcd of jacobi_q's
synthetic division and Euclidean step, resultant_in of level_n's node
resultant, so each is timed in the commands that run it.
The tier-1 suite does not run a traced benchmark, so a renamed or deleted
name would show nowhere else, and neither would a blow-up kernel that no
longer goes through the traced pushforward.

bench/traced_cli.py also finds the modules to trace in sys.modules right
after `import ellgenus.cli`, and the criteria as cli.criterion_N and
cli.CRITERIA; the last tests run that script as it is.  The tracer wraps
universal_elliptic.solve_h, which is elliptic_ode.solve_h re-exported, in
every module that binds it, so a genus at a point, which calls it through
elliptic_ode alone, is still traced.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellgenus import (algebra_kernel, elliptic_ode, jacobi_q, level_n,
                     universal_elliptic)

ROOT = Path(__file__).resolve().parent.parent


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_algebra_kernel_forwards_exactly_the_traced_names():
    tracer = _bench_tracer()
    traced = {attr for mod, attr, _ in tracer.FUNCTIONS
              if mod == "algebra_kernel"} | set(tracer.MUL_CLASSES)
    assert set(algebra_kernel._MOVED) == traced - set(vars(algebra_kernel))
    for name, home in algebra_kernel._MOVED.items():
        module = importlib.import_module(f"ellgenus.{home}")
        assert getattr(algebra_kernel, name) is getattr(module, name)
    homes = {importlib.import_module(f"ellgenus.{home}")
             for home in set(algebra_kernel._MOVED.values())}
    others = set().union(*map(vars, homes)) - set(vars(algebra_kernel)) - set(
        algebra_kernel._MOVED)
    for name in sorted(others) + ["no_such_name"]:
        with pytest.raises(AttributeError):
            getattr(algebra_kernel, name)


def test_traced_function_names_alias_live_kernels():
    assert algebra_kernel.poly_divmod is jacobi_q._divmod_monic
    assert algebra_kernel.poly_gcd is jacobi_q._combine
    assert algebra_kernel.resultant_in is level_n._resultant


def test_universal_elliptic_reexports_the_ode():
    for name in ("QuarticData", "ABCDPoint", "abcd_to_q", "q_to_abcd",
                 "solve_h", "q_of_h"):
        assert getattr(universal_elliptic, name) is getattr(elliptic_ode,
                                                             name)


SCRIPT = """
import importlib, json
import tracer
names = ("algebra_kernel", "blowup", "cli", "cohomology_models",
         "genus_engine", "jacobi_q", "level_n", "universal_elliptic",
         "weighted_poly")
modules = [importlib.import_module("ellgenus." + n) for n in names]
tr = tracer.Tracer()
tracer.install(tr, modules)
x, y = modules[-1].PolyRing("x", "y").gens()
(x + y) * (x - y)
modules[1].verify_elliptic_identity(2, 3, xorder=2)
print(json.dumps(sorted(tr.stats)))
"""


def _env(*dirs):
    path = os.pathsep.join(
        p for p in (*map(str, dirs), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_tracer_installs_and_times_polynomial_products():
    env = _env(ROOT / "bench", ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    assert "algebra_kernel.mul.WeightedPoly" in spans
    assert "algebra_kernel.mul.MultiPoly" in spans
    assert "blowup.verify_elliptic_identity" in spans
    assert "blowup.flag_pushforward" in spans


CRITERION_SPANS = {f"cli.criterion_{i}" for i in range(1, 11)}


@pytest.mark.parametrize("argv,spans", [
    (["qexpand", "--manifold", "catalog:K3", "--qorder", "8"],
     {"jacobi_q.chi_y_loop", "algebra_kernel.poly_divmod"}),
    (["leveln", "relations", "--N", "3"],
     {"level_n.compute_level_data", "algebra_kernel.resultant_in"}),
    (["genus", "eval", "--genus=1/2,-3,2/7,5", "--manifold", "catalog:CP6",
      "--order", "14"], {"universal_elliptic.solve_h"}),
    (["verify", "all"], CRITERION_SPANS
     | {"jacobi_q.chi_y_loop", "level_n.compute_level_data",
        "algebra_kernel.poly_gcd"}),
], ids=["qexpand", "leveln", "genus-eval-point", "verify"])
def test_traced_cli_matches_untraced_stdout(argv, spans, tmp_path):
    env = _env(ROOT / "src")
    plain = subprocess.run([sys.executable, "-m", "ellgenus.cli", *argv],
                           env=env, capture_output=True, timeout=120)
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(trace),
         *argv], env=env, capture_output=True, timeout=120)
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    assert spans <= set(json.loads(trace.read_text())["stats"])
