"""The ellgenus benchmark: closed-loop CLI workloads, one process at a time.

    python3 bench/run.py --workload ode|qexpand|verify_all|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each command runs in a fresh interpreter, as a CLI user runs it,
and every output is checked (workloads.py).

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median time to start an interpreter and import ellgenus.cli
  wall_s       wall time of one pass over the command list
  cpu_s        user+system CPU of one pass's child processes
  peak_rss_mb  largest child max-RSS of one pass
Passes repeat while another one fits in --seconds (at least one runs);
each metric is a median over passes.  Times are in reference seconds: each
child's times are divided by how much slower than a reference core its CPU
ran meanwhile, as a probe on the same CPU measured it (speed.py).
failed_frac is printed with them; in the result line it is carried by
"attempted" and "failed".

--trace 1 runs the command list once untraced and twice traced
(traced_cli.py), checks that traced stdout is byte-identical to untraced
stdout and that every call count repeats exactly, and reports the
per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
CLI_MAIN = "import sys; from ellgenus.cli import main; sys.exit(main())"
SETUP_CODE = "import ellgenus.cli"
SETUP_PER_PASS = 5
# Every child is killed at this many seconds after the run starts, so the
# run ends within the 180 s the benchmark contract allows.
DEADLINE_S = 165


@dataclass
class Result:
    """One child process: its output, exit status and resource use."""
    status: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool
    start: float = 0.0
    end: float = 0.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir, deadline):
    """Run argv to completion; rusage is this child's alone (os.wait4)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return Result(proc.returncode, out_path.read_bytes(), end - start,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  timed_out.is_set(), start, end)


def cli_argv(cmd):
    return [sys.executable, "-c", CLI_MAIN, *cmd.argv]


def traced_argv(cmd, trace_path):
    return [sys.executable, str(TRACED_CLI), str(trace_path), *cmd.argv]


def failure(cmd, res):
    if res.timed_out:
        return "timed out"
    return cmd.check(res.status, res.stdout)


def setup_samples(count, workdir, deadline):
    """Results of count fresh `import ellgenus.cli` interpreters."""
    results = []
    for _ in range(count):
        res = run_child([sys.executable, "-c", SETUP_CODE], workdir, deadline)
        if res.status != 0:
            raise RuntimeError("importing ellgenus.cli failed: "
                               + (workdir / "stderr").read_text()[-500:])
        results.append(res)
    return results


def run_e2e(cmds, seconds, workdir, deadline):
    """Closed loop of passes over cmds while another pass fits in seconds.

    Set-up samples are taken before every pass, so that they and the
    commands see the same machine load.  A metric is the median over
    passes, per command where it sums over commands.  Times are in
    reference seconds (speed.py).
    """
    with speed.SpeedProbe() as probe:
        setup_samples(1, workdir, deadline)  # writes the bytecode cache
        setup, passes, errors = [], [], []
        start = time.monotonic()
        while True:
            setup += setup_samples(SETUP_PER_PASS, workdir, deadline)
            results = []
            for cmd in cmds:
                res = run_child(cli_argv(cmd), workdir, deadline)
                why = failure(cmd, res)
                if why:
                    errors.append(f"{cmd.label}: {why}")
                results.append(res)
            passes.append(results)
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds \
                    or time.monotonic() >= deadline:
                break
    for res in setup + [r for p in passes for r in p]:
        slow = probe.slowdown(res.start, res.end)
        res.wall_s /= slow
        res.cpu_s /= slow
    by_cmd = list(zip(*passes))
    metrics = {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "wall_s": sum(statistics.median(r.wall_s for r in rs) for rs in by_cmd),
        "cpu_s": sum(statistics.median(r.cpu_s for r in rs) for rs in by_cmd),
        "peak_rss_mb": statistics.median(
            max(r.maxrss_kb for r in p) / 1024 for p in passes),
    }
    walls = [sum(r.wall_s for r in p) for p in passes]
    slowdown = statistics.median(probe.durations) / speed.REFERENCE_S
    return metrics, len(cmds) * len(passes), errors, walls, slowdown


def run_traced_pass(cmds, workdir, deadline, tag):
    results, traces = [], []
    for i, cmd in enumerate(cmds):
        path = workdir / f"trace-{tag}-{i}.json"
        path.unlink(missing_ok=True)
        res = run_child(traced_argv(cmd, path), workdir, deadline)
        results.append(res)
        traces.append(json.loads(path.read_text()) if path.exists()
                      else {"stats": {}, "edges": []})
    return results, traces


def layer_metrics(names, stats, edges, traced_wall, untraced_wall):
    """Per-layer values from merged trace aggregates."""
    def stat(name, field):
        st = stats.get(name)
        return st[("calls", "s", "self_s").index(field)] if st else 0

    requests = stat(tracer.PRODUCT_SPEC, "calls")
    builds = sum(n for (p, c), n in edges.items()
                 if p == tracer.PRODUCT_SPEC and c.startswith(tracer.PRODUCT_SPANS))
    root_s = stat(tracer.ROOT_SPAN, "s")
    special = {
        f"{tracer.PRODUCT_SPEC}.hit_ratio":
            (requests - builds) / requests if requests else 0.0,
        "cli.self_s": stat(tracer.ROOT_SPAN, "self_s"),
        "trace.coverage":
            1 - stat(tracer.ROOT_SPAN, "self_s") / root_s if root_s else 0.0,
        "trace.overhead": traced_wall / untraced_wall - 1,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            span, field = name.rsplit(".", 1)
            out[name] = stat(span, field)
    return out


def run_traced(cmds, names, workdir, deadline):
    errors = []
    untraced = [run_child(cli_argv(cmd), workdir, deadline) for cmd in cmds]
    for cmd, res in zip(cmds, untraced):
        why = failure(cmd, res)
        if why:
            errors.append(f"{cmd.label}: {why}")
    passes = [run_traced_pass(cmds, workdir, deadline, tag) for tag in (1, 2)]
    for i, cmd in enumerate(cmds):
        for results, _ in passes:
            res, base = results[i], untraced[i]
            why = failure(cmd, res)
            if not why and (res.stdout != base.stdout or res.status != base.status):
                why = "traced output differs from untraced output"
            if not why and tracer.call_counts(passes[0][1][i]) != tracer.call_counts(passes[1][1][i]):
                why = "call counts differ between the two traced runs"
            if why:
                errors.append(f"{cmd.label} (traced): {why}")
    untraced_wall = sum(r.wall_s for r in untraced)
    per_pass = [layer_metrics(names, *tracer.merge(traces),
                              sum(r.wall_s for r in results), untraced_wall)
                for results, traces in passes]
    # counts repeat exactly (checked above); the rest take the median
    metrics = {name: per_pass[0][name] if name.endswith(".calls")
               else statistics.median(p[name] for p in per_pass)
               for name in names}
    return metrics, 3 * len(cmds), errors


def run_workload(workload, seed, seconds, trace, spec, expected):
    deadline = time.monotonic() + DEADLINE_S
    cmds = workloads.commands(workload, seed, expected)
    workdir = ROOT / ".bench_build" / "ellgenus-bench" / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            group = spec["per_layer"]
            metrics, attempted, errors = run_traced(
                cmds, [m["name"] for m in group], workdir, deadline)
            note = "1 untraced pass, 2 traced passes"
        else:
            group = spec["end_to_end"]
            metrics, attempted, errors, walls, slowdown = run_e2e(
                cmds, seconds, workdir, deadline)
            note = (f"{len(walls)} passes of "
                    + ", ".join(f"{w:.3f}" for w in walls)
                    + f" reference s; median probe slowdown {slowdown:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(errors)
    print(f"workload {workload}, seed {seed}, trace {trace}: {len(cmds)} commands, {note}")
    units = {m["name"]: m["unit"] for m in group}
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} ({failed}/{attempted})")
    for line in errors:
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ellgenus" / "cli.py").is_file():
        print(f"error: no ellgenus sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    speed.pin_to_one_cpu()
    expected = workloads.load_expected()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  spec, expected)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
