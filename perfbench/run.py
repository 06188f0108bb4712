"""gsmoment benchmark.

    python3 perfbench/run.py --workload {ball-solve,cli-cold,halfplane}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it
holds the run stamp, sample counts and tail percentiles; the same
report, with the spans of a traced run, goes to
perfbench/out/<workload>-seed<N>-trace<0|1>.json.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def stamp(seed):
    import mpmath
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ball-solve", "cli-cold", "halfplane"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gsmoment",
                                       "__init__.py")):
        print("error: no gsmoment sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, HERE)
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             tracer, T_START)
    if tracer is not None:
        metrics, layers = tracing.layer_metrics(tracer.spans)
    else:
        metrics, layers = run.end_to_end(), None

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "timings": run.timings(),
        "layers": layers,
        "known_faults": run.known_faults,
        "unexpected_failures": run.unexpected,
    }
    os.makedirs(workloads.OUT, exist_ok=True)
    path = os.path.join(workloads.OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(report, setup_samples=run.setup_samples,
                       ops=list(zip(run.labels, run.times)),
                       spans=tracer.dump() if tracer else None), fh)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
