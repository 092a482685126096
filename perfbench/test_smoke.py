"""Smoke check of the benchmark harness at tiny sizes: one grid point per
config, 64 MC realizations, one pass, one set-up process. It checks that
every workload runs, is correct and reports exactly the metrics that
BENCHMARK.json names; it has no timing gates. From the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run(workload):
    untraced, detail = run.run_workload(workload, seed=1, seconds=0, trace=False, tiny=True)
    traced, traced_detail = run.run_workload(workload, seed=1, seconds=0, trace=True, tiny=True)
    for line, info in ((untraced, detail), (traced, traced_detail)):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], info["wrong_examples"]
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert info["counters_repeat"]
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # A metric reads null only when a traced function has gone missing.
    assert traced_detail["absent_functions"] or all(m["value"] is not None for m in traced["metrics"].values())
    assert traced_detail["traced_rows_equal_untraced"]
    # Counters are deterministic: a second run repeats them.
    assert detail["counters"] == traced_detail["counters"]
    assert traced_detail["absent_functions"] or all(isinstance(v, int) for v in detail["counters"].values())
    if workload == "mc_presets":
        assert "mc_disagree_frac" in detail


def test_stress_keeps_known_failures():
    _, detail = run.run_workload("stress", seed=1, seconds=0, trace=False, tiny=True)
    assert detail["error_rows"] > 0
    assert "RankDeficient" in detail["row_errors_by_class"]


def test_exits_nonzero_without_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "stress", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
