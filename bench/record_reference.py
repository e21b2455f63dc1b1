"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py

writes ``bench/reference.json`` from the library in this checkout: the level
statistics of ``cmd_forward`` at the default config and ``DEFAULT_SEED``,
and the evaluation result of the ``eval_8k`` scene files at ``DEFAULT_SEED``.
Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import ROOT, import_library


def main() -> int:
    import_library()
    import workloads
    from fusionneck import cli

    infer = workloads.InferB2(workloads.DEFAULT_SEED, ROOT)
    report = cli.cmd_forward(infer.run_config(workloads.DEFAULT_SEED))
    levels = {
        level: {field: stats[field] for field in workloads.LEVEL_FIELDS}
        for level, stats in report["levels"].items()
    }
    workdir = tempfile.mkdtemp(prefix="reference-", dir=ROOT)
    try:
        paths = workloads.write_scene_files(workloads.DEFAULT_SEED, workloads.Path(workdir))
        result = workloads.evaluate_files(*paths)
    finally:
        shutil.rmtree(workdir)
    doc = {"seed": workloads.DEFAULT_SEED, "infer_b2_levels": levels, "eval_8k_result": result}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
