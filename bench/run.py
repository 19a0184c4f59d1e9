"""The kgzsl benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 bench/run.py --workload train-attr --seed 0 --seconds 25 --trace 0

Workloads are train-attr, infer-wide and sample-big (see workloads.py).
Standard output carries a report line (environment, checks, quality,
layer shares) and, last, the result object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, from untraced ops; with --trace 1 they are the
per-layer ones from a traced run.  Exits 1 when an output check fails
(no metrics are published then) and 2 when the program's sources are
not next to the benchmark.
"""

import os
import sys

# one BLAS thread, set before numpy loads: the load is one process, one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "kgzsl")):
        print(f"no kgzsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps({"report": report}, sort_keys=True))
    for failure in report["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
