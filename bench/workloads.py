"""Workload command lists and the correctness gate.

Every fixed command has its exit status and stdout digest recorded in
expected.json (see record.py).  Seeded ``genus eval`` commands are checked
by evaluating the recorded phi_ell(CP6) polynomial at the same point with
Fraction, a route independent of ``specialize``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

FIXED = {
    "ode": [
        "universal coeffs --order 18",
        "leveln relations --N 6",
    ],
    "qexpand": [
        "qexpand --manifold catalog:K3 --qorder 8",
        "qexpand --manifold catalog:W4 --qorder 6",
        "qexpand --manifold catalog:W2 --qorder 6 --format json",
    ],
    "verify_all": [
        "verify all",
    ],
}
SEEDED_EVALS = {"ode": 2}
EVAL_MANIFOLD = "CP6"
EVAL_ORDER = 14
# Recorded once; its polynomial is the reference for seeded evaluations.
REFERENCE = "genus eval --genus phi_ell --manifold catalog:CP6 --format json"
WORKLOADS = list(FIXED)


def fr_str(x):
    """The CLI's rational format, rebuilt here so the check does not use
    the code under test."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def seeded_points(seed, count):
    """count points (A, B, C, D) of small nonzero rationals, fixed by seed."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for _ in range(4))
            for _ in range(count)]


def parse_monomial(text):
    """"A^4*B" -> exponent tuple over (A, B, C, D)."""
    exps = dict.fromkeys("ABCD", 0)
    if text != "1":
        for factor in text.split("*"):
            var, _, k = factor.partition("^")
            exps[var] += int(k or 1)
    return tuple(exps[v] for v in "ABCD")


def eval_pairs(pairs, point):
    """Value at point of a polynomial given as [monomial, "p/q"] pairs."""
    total = Fraction(0)
    for mon, coeff in pairs:
        term = Fraction(coeff)
        for x, k in zip(point, parse_monomial(mon)):
            term *= x ** k
        total += term
    return total


@dataclass
class Command:
    argv: list
    expect_status: int
    expect_sha256: str = ""
    expect_stdout: bytes = b""

    @property
    def label(self):
        return " ".join(self.argv)

    def check(self, status, stdout):
        """None if the output is correct, else a one-line reason."""
        if status != self.expect_status:
            return f"exit status {status}, expected {self.expect_status}"
        if self.expect_sha256:
            if hashlib.sha256(stdout).hexdigest() != self.expect_sha256:
                return "stdout digest differs from the recorded output"
        elif stdout != self.expect_stdout:
            return "stdout differs from the Fraction cross-check"
        return None


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def eval_command(point, reference_pairs):
    sel = ",".join(fr_str(x) for x in point)
    value = eval_pairs(reference_pairs, point)
    line = f"phi_ell|({sel})({EVAL_MANIFOLD}) = {fr_str(value)}\n"
    # "--genus=" form: a point starting with "-" is not an option
    argv = ["genus", "eval", f"--genus={sel}", "--manifold",
            f"catalog:{EVAL_MANIFOLD}", "--order", str(EVAL_ORDER)]
    return Command(argv, 0, expect_stdout=line.encode())


def commands(workload, seed, expected):
    """The workload's command list with their checks, in seeded order."""
    cmds = []
    for label in FIXED[workload]:
        rec = expected["commands"][label]
        cmds.append(Command(label.split(), rec["status"], rec["sha256"]))
    pairs = expected["reference"]["value"]
    for point in seeded_points(seed, SEEDED_EVALS.get(workload, 0)):
        cmds.append(eval_command(point, pairs))
    random.Random(seed).shuffle(cmds)
    return cmds
