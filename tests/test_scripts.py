"""Smoke tests: each script under ``scripts/`` still runs against this checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_json_line(script: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_gradcheck_split_errors_equal():
    assert last_json_line("gradcheck_split.py", "--cases", "1")["errors_equal"] is True


def test_faults_per_op_counts_each_op():
    doc = last_json_line("faults_per_op.py", "--checkout", ".", "--workload", "eval_8k", "--seed", "1", "--ops", "1")
    assert len(doc["faults_per_op"]) == 1
