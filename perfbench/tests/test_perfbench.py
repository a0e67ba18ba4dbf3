"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They start real servers on ephemeral ports and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _printed(stdout: str) -> dict:
    """metric name -> (value, unit) from the human-readable lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail([5, 1, 3]) == (5, 100.0)


def test_tiny_traced_run_prints_every_metric_with_its_unit():
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    units = {**run.END_TO_END, **run.PER_LAYER, **run.PRINTED_ONLY}
    for name, unit in units.items():
        assert name in printed, name
        assert printed[name][1] == unit, name
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}" for w in run.WORKLOAD_NAMES for m in run.PER_LAYER}
    assert set(result["metrics"]) == expected
    assert printed["failed_frac"][0] == 0


def test_reading_back_with_the_wrong_key_fails_every_read():
    proc = _run("--workload", "audit-readback", "--seed", "3", "--seconds", "1",
                "--fault", "wrong-key")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "decrypts to bytes that were not sent" in proc.stderr
    # Failed reads give no latency sample, so none were passed as good.
    assert "readback_p50_ms" not in _printed(proc.stdout)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sensor-stream", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
