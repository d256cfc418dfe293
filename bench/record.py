"""Record the expected output of every fixed benchmark command.

    python3 bench/record.py

Run at a commit whose CLI output is known to be right.  Writes
bench/expected.json: exit status and stdout digest of each fixed command,
and the phi_ell(CP6) polynomial that checks the seeded evaluations.
"""

import hashlib
import json
import shutil
import sys
import time

import run
import workloads


def main():
    workdir = run.ROOT / ".bench_build" / "ellgenus-bench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 3600
    commands = {}
    labels = [label for w in workloads.WORKLOADS for label in workloads.FIXED[w]]
    for label in labels + [workloads.REFERENCE]:
        cmd = workloads.Command(label.split(), 0)
        res = run.run_child(run.cli_argv(cmd), workdir, deadline)
        if res.timed_out:
            sys.exit(f"{label}: timed out")
        commands[label] = {"status": res.status,
                           "sha256": hashlib.sha256(res.stdout).hexdigest(),
                           "bytes": len(res.stdout)}
        print(f"{label}: status {res.status}, {len(res.stdout)} bytes, "
              f"{res.wall_s:.2f} s", flush=True)
    shutil.rmtree(workdir)
    reference = json.loads(res.stdout)
    del commands[workloads.REFERENCE]
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"commands": commands,
                   "reference": {"command": workloads.REFERENCE,
                                 "value": reference["value"]}},
                  fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
