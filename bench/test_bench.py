"""Self-tests of the benchmark's own logic; no ellgenus process is started.

    python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_seeded_points_are_deterministic():
    assert workloads.seeded_points(7, 2) == workloads.seeded_points(7, 2)
    assert workloads.seeded_points(7, 2) != workloads.seeded_points(8, 2)
    expected = workloads.load_expected()
    first = [c.label for c in workloads.commands("ode", 7, expected)]
    assert first == [c.label for c in workloads.commands("ode", 7, expected)]
    assert len(first) == 4


def test_self_time_on_a_synthetic_span_tree():
    # A[0,10] { B[1,3], C[4,8] { A[5,6] } }
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    tr.enter("A")
    tr.enter("B")
    tr.exit()
    tr.enter("C")
    tr.enter("A")
    tr.exit()
    tr.exit()
    tr.exit()
    # inclusive time counts the outer A only; self time counts both
    assert tr.stats == {"A": [2, 10, 5], "B": [1, 2, 2], "C": [1, 4, 3]}
    assert tr.edges == {(None, "A"): 1, ("A", "B"): 1, ("A", "C"): 1,
                        ("C", "A"): 1}


def test_wrapped_function_keeps_result_and_span_on_error():
    tr = tracer.Tracer()
    double = tr.wrap(lambda x: 2 * x, "double")
    assert double(4) == 8

    def boom():
        raise ValueError("no")

    try:
        tr.wrap(boom, "boom")()
    except ValueError:
        pass
    assert tr.stats["double"][0] == 1 and tr.stats["boom"][0] == 1
    assert not tr._stack


def _fake_child(argv, workdir, deadline):
    # setup runs are ["python", "-c", code]; CLI runs append the arguments
    label = " ".join(argv[3:])
    return run.Result(0, f"out {label}".encode(), 0.01, 0.01, 1000, False)


def _expected_for(workload):
    return {"commands": {
        label: {"status": 0,
                "sha256": hashlib.sha256(f"out {label}".encode()).hexdigest()}
        for label in workloads.FIXED[workload]},
        "reference": {"value": []}}


def test_corrupted_expected_output_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "run_child", _fake_child)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = _expected_for("qexpand")
    ok = run.run_workload("qexpand", 1, 0, 0, spec, expected)
    assert ok["correct"] and (ok["attempted"], ok["failed"]) == (3, 0)

    label = workloads.FIXED["qexpand"][1]
    expected["commands"][label]["sha256"] = "0" * 64
    bad = run.run_workload("qexpand", 1, 0, 0, spec, expected)
    assert not bad["correct"] and (bad["attempted"], bad["failed"]) == (3, 1)


def test_seeded_eval_is_checked_against_the_fraction_route():
    pairs = [["A^2*B", "1/2"], ["D", "-3"], ["1", "1"]]
    point = (Fraction(2), Fraction(3, 5), Fraction(-1), Fraction(1, 3))
    assert workloads.eval_pairs(pairs, point) == Fraction(6, 5)
    cmd = workloads.eval_command(point, pairs)
    good = b"phi_ell|(2,3/5,-1,1/3)(CP6) = 6/5\n"
    assert cmd.check(0, good) is None
    assert cmd.check(0, good.replace(b"6/5", b"7/5")) is not None
    assert cmd.check(2, good) is not None


def test_slowdown_is_the_mean_probe_time_over_the_interval():
    probe = speed.SpeedProbe(period=1.0)
    ref = speed.REFERENCE_S
    for end, factor in [(1, 1), (2, 2), (3, 4), (4, 1), (10, 3)]:
        probe.add(end, factor * ref)
    # probes ending in [1.5, 3.5 + period] are those at 2, 3 and 4
    assert abs(probe.slowdown(1.5, 3.5) - 7 / 3) < 1e-12
    # none in [6, 7 + period]: the nearest one, at 4, is used
    assert abs(probe.slowdown(6.0, 6.5) - 1) < 1e-12
    assert abs(probe.slowdown(8.5, 8.6) - 3) < 1e-12


def test_every_per_layer_metric_names_a_traced_span():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    spans = {span for _, _, span in tracer.FUNCTIONS if isinstance(span, str)}
    spans |= {f"algebra_kernel.mul.{c}" for c in tracer.MUL_CLASSES}
    spans |= {tracer.PRODUCT_SPANS + m for m in ("formal", "cyclotomic")}
    values = run.layer_metrics(names, {}, {}, 1.0, 1.0)
    assert set(values) == set(names)
    for name in names:
        span, field = name.rsplit(".", 1)
        assert span in spans or span in ("cli", "trace", tracer.PRODUCT_SPEC), name
        assert field in ("s", "self_s", "calls", "hit_ratio", "coverage",
                         "overhead"), name
