"""End-to-end smoke runs of ``run.py``: gates, output schema, refusal.

Each case starts ``run.py --smoke`` as a subprocess (forked workers, a
chat server process), about 30 s for all of them, so the file is not
named ``test_*.py`` and the repository's default test run leaves it out.
Run it by name from the repository root:

    python -m pytest perfbench/smoke_runs.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _assert_metric_schema(metrics: list[dict]) -> None:
    assert metrics
    for m in metrics:
        assert set(m) == {"name", "value", "unit", "n"}
        assert isinstance(m["name"], str) and isinstance(m["unit"], str) and m["unit"]
        assert isinstance(m["n"], int) and m["n"] >= 0
        assert np.isfinite(m["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_passes_gates_and_schema(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    full = json.loads(
        (tmp_path / ".perfbench" / f"report-{workload}-s3-t1.json").read_text()
    )
    _assert_metric_schema(full["end_to_end"])
    _assert_metric_schema(full["per_layer"])
    assert {m["name"] for m in DECLARED["end_to_end"]} <= {
        m["name"] for m in full["end_to_end"]
    }
    assert (tmp_path / ".perfbench" / f"trace-{workload}-s3-t1.json").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
