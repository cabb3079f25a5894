"""Seeded benchmark of certified local queries in localmrf.

Run from the repository root:

    python3 bench/run.py --workload grid_query --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is 1 when an answer fails a
correctness check and 2 when the package source is not there to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One BLAS thread: the benchmark is one closed-loop client in one process.
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
DEFAULT_SEED = 0


def parse(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "localmrf", "__init__.py")):
        print(f"no localmrf package under {src}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, src)
    import localbench  # imports numpy, scipy and localmrf

    import_s = time.perf_counter() - start
    import localmrf

    if os.path.dirname(os.path.abspath(localmrf.__file__)) != os.path.join(src, "localmrf"):
        print(f"localmrf imported from {localmrf.__file__}, not {src}", file=sys.stderr)
        return 2
    args = parse(argv, sorted(localbench.WORKLOADS))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    result, lines = localbench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root, import_s, BLAS_THREADS
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
