"""Fast self-test of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py      (from the repository root)

Runs every workload with the smallest batch (its digest keys only) on the
default seed, whose outputs are known to be correct, and checks that every
metric BENCHMARK.json names is reported with its unit, that nothing fails,
that the recorded output digest matches, and that the counts of two traced
runs are identical.  The file is not named test_*.py, so the repository's
own test suite does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
ATTACK_WORKLOADS = {"attack-lowrank-m28", "attack-twisted-m104", "oddq-m12"}
DEFAULT_SEED = 0


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, result file) of one run with the smallest batch."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "results" / f"{workload}.seed{DEFAULT_SEED}.trace{trace}.json"
    return line, json.loads(path.read_text())


def _check_listed(line: dict, listed: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {e["name"] for e in listed}
    for e in listed:
        assert line["metrics"][e["name"]]["unit"] == e["unit"], e["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    line, result = _run(workload, 0)
    _check_listed(line, BENCH["end_to_end"])
    for e in BENCH["end_to_end"]:
        assert line["metrics"][e["name"]]["value"] > 0, e["name"]
    metrics = result["metrics"]
    assert metrics["fail_rate"]["value"] == 0
    assert result["digest_checked"]
    assert ("attack_ext_ms_p50" in metrics) == (workload in ATTACK_WORKLOADS)
    assert set(result["stamp"]) >= {"git_sha", "python", "numpy", "nproc", "cpu_model"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first_line, first = _run(workload, 1)
    second_line, second = _run(workload, 1)
    _check_listed(first_line, BENCH["per_layer"])
    _check_listed(second_line, BENCH["per_layer"])

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    assert counts(first) == counts(second)
    phases = {k for k in first["metrics"] if k.startswith("attack.")}
    if workload in ATTACK_WORKLOADS:
        assert {"attack.stabilizer_ms", "attack.stab_dim", "attack.stabilizer.self_ms"} <= phases
    else:
        assert not phases


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
