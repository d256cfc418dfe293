"""Run one ellgenus CLI command with outside-in tracing.

    python3 bench/traced_cli.py TRACE_OUT ellgenus-args...

Installs the wrappers from tracer.py, runs ``ellgenus.cli.main`` on the
arguments under a root span "cli.main", writes the aggregated spans to
TRACE_OUT as JSON and exits with the command's status.  Stdout is the
command's own stdout, unchanged.
"""

import json
import sys

import tracer


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import ellgenus.cli

    modules = [m for name, m in sys.modules.items()
               if name.startswith("ellgenus.") and m is not None]
    tr = tracer.Tracer()
    tracer.install(tr, modules)
    tr.enter(tracer.ROOT_SPAN)
    try:
        status = ellgenus.cli.main(argv)
    finally:
        tr.exit()
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tr.to_json(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
