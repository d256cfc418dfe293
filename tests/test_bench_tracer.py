"""The benchmark's tracer (bench/tracer.py) still finds every name it wraps.

The tracer looks the package's functions and classes up by name, among
them the aliases algebra_kernel.MultiPoly and blowup.flag_pushforward and
algebra_kernel.poly_gcd, which nothing in the package calls.
The tier-1 suite does not run a traced benchmark, so a renamed or deleted
name would show nowhere else, and neither would a blow-up kernel that no
longer goes through the traced pushforward.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib, json
import tracer
names = ("algebra_kernel", "blowup", "cli", "cohomology_models",
         "genus_engine", "jacobi_q", "level_n", "universal_elliptic")
modules = [importlib.import_module("ellgenus." + n) for n in names]
tr = tracer.Tracer()
tracer.install(tr, modules)
x, y = modules[0].PolyRing("x", "y").gens()
(x + y) * (x - y)
modules[1].verify_elliptic_identity(2, 3, xorder=2)
print(json.dumps(sorted(tr.stats)))
"""


def test_tracer_installs_and_times_polynomial_products():
    path = os.pathsep.join(
        p for p in (str(ROOT / "bench"), str(ROOT / "src"),
                    os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    assert "algebra_kernel.mul.WeightedPoly" in spans
    assert "algebra_kernel.mul.MultiPoly" in spans
    assert "blowup.verify_elliptic_identity" in spans
    assert "blowup.flag_pushforward" in spans
