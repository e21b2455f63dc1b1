"""Count the minor page faults one benchmark operation takes.

    python3 scripts/faults_per_op.py --checkout DIR --workload infer_b2 --seed 1 --ops 20

Imports ``fusionneck`` from ``DIR/src`` and the workloads from ``DIR/bench``,
so any checkout (a ``git archive`` of another commit included) can be
measured with the same script.  Runs the workload's set-up, a few untimed
warm-up operations, then ``--ops`` operations back to back, reading
``getrusage(RUSAGE_SELF).ru_minflt`` around each one.  Prints one JSON line:
the checkout, workload, seed, the per-operation counts and their median.
Scratch files go to a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

WARMUP_OPS = 3


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=20)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads

    with tempfile.TemporaryDirectory(prefix="faults-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        workload.setup()
        for i in range(WARMUP_OPS):
            workload.op(i)
        counts = []
        for i in range(WARMUP_OPS, WARMUP_OPS + args.ops):
            before = minor_faults()
            workload.op(i)
            counts.append(minor_faults() - before)
    print(json.dumps({
        "checkout": str(checkout),
        "workload": args.workload,
        "seed": args.seed,
        "faults_per_op": counts,
        "median": statistics.median(counts),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
