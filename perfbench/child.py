"""Child processes of the benchmark, each a fresh interpreter.

    python3 perfbench/child.py setup <workload>
        Repeat one workload's set-up and print its wall time in seconds,
        measured from the top of this file. For cli-cold the set-up is
        import gsmoment alone.
    python3 perfbench/child.py cli <trace.json> <gsmoment arguments...>
        The traced command line: time import gsmoment, install the span
        wrappers, call gsmoment.cli.main with the arguments, write the
        spans to trace.json and exit with main's code.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import gsmoment
        if argv[1] == "ball-solve":
            import workloads
            workloads.ball_setup(gsmoment)
        print(perf_counter() - T0)
        return 0
    if mode == "cli":
        import tracing
        tracer = tracing.Tracer()
        t_import = perf_counter()
        import gsmoment  # noqa: F401
        tracer.record("import.gsmoment", t_import, perf_counter())
        import gsmoment.cli
        tracer.install()
        code = tracer.call("cli.main", gsmoment.cli.main, argv[2:])
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        return code
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
