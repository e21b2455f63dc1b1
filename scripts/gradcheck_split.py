"""Time ``tensor.grad_check`` on verify's tiny-neck cases with the sweep split off and on.

    python3 scripts/gradcheck_split.py --cases 6

Runs the ``neck_forward`` gradient case of ``fusionneck verify`` (the same
seeds, shapes and epsilon) once in one process and once shared among every
usable CPU (at least two processes), alternating which goes first, and
checks that the two errors are equal.  Prints one line per case, then one
JSON line: the wall time of each mode summed over the cases, whether every
pair of errors was equal, and the max RSS of this process and of its reaped
workers (``RUSAGE_CHILDREN``).  Exit code 1 means some pair differed.
Imports ``fusionneck`` from the ``src/`` beside this script; Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fusionneck import tensor, verify  # noqa: E402

CASE = "neck_forward"


def timed_check(case_seed: int, processes: int) -> tuple[float, float]:
    """(error, wall seconds) of one grad_check of the case, swept by ``processes`` processes."""
    rng = tensor.Rng(9000 + case_seed).split(zlib.crc32(CASE.encode()) % (2 ** 31))  # as verify._grad_errors
    loss, params = verify._case_neck(rng)
    tensor._sweep_processes = lambda predicted_s: processes
    start = time.perf_counter()
    err = tensor.grad_check(loss, params, verify.NECK_EPS)
    return err, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=verify.GRAD_SEEDS, help="neck seeds to check (verify runs 20)")
    args = parser.parse_args(argv)
    if args.cases < 1:
        parser.error("--cases must be at least 1")
    split = max(2, len(os.sched_getaffinity(0)))
    wall = {"one_process_s": 0.0, "split_s": 0.0}
    equal = True
    for case in range(args.cases):
        order = [1, split] if case % 2 == 0 else [split, 1]
        results = {n: timed_check(case, n) for n in order}
        (err_one, s_one), (err_split, s_split) = results[1], results[split]
        wall["one_process_s"] += s_one
        wall["split_s"] += s_split
        equal &= repr(err_one) == repr(err_split)
        print(f"case {case}: error {err_one!r} / {err_split!r}, {s_one * 1e3:.0f} ms in one process, "
              f"{s_split * 1e3:.0f} ms in {split}")
    print(json.dumps({
        "cases": args.cases,
        "processes": split,
        **{k: round(v, 3) for k, v in wall.items()},
        "errors_equal": equal,
        "parent_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker_max_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
