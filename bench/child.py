"""One benchmark operation: a liouville_lab CLI invocation in this process.

    BENCH_SPAWN_T=<t> python3 bench/child.py TIMINGS TRACE -- <cli argv>

Runs ``liouville_lab.cli.main(argv)``, the same entry point as
``python -m liouville_lab``, and writes a JSON file TIMINGS with the exit
code and two times:

* ``setup_s``: from BENCH_SPAWN_T (CLOCK_MONOTONIC, read by the parent just
  before it spawned this process) until the package is imported and the
  arguments are parsed, i.e. until the subcommand is dispatched;
* ``run_s``: the subcommand itself, up to its verdict written out.

TRACE is ``-`` for an untraced operation; otherwise the layer trace of
``layers.Tracer`` is written there.
"""

import json
import os
import sys
import time


def main(argv):
    timings_path, trace_path, sep, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py TIMINGS TRACE -- <cli argv>")
    spawned = float(os.environ["BENCH_SPAWN_T"])

    from liouville_lab import cli

    tracer = None
    if trace_path != "-":
        import layers
        tracer = layers.Tracer()
        tracer.install()

    marks = {}

    def timed(command):
        def run(args):
            marks["parsed"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                return command(args)
            finally:
                sys.stdout.flush()
                marks["done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return run

    for name, command in list(cli._DISPATCH.items()):
        cli._DISPATCH[name] = timed(command)

    rc = cli.main(cli_argv)
    timings = {"rc": rc, "package": os.path.realpath(cli.__file__)}
    if "done" in marks:
        timings["setup_s"] = marks["parsed"] - spawned
        timings["run_s"] = marks["done"] - marks["parsed"]
    with open(timings_path, "w", encoding="utf-8") as fh:
        json.dump(timings, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
