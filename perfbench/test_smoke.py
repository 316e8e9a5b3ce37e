"""Smoke test of the benchmark, run as ``python3 -m pytest perfbench``.

Runs every workload in its fast smoke mode, untraced and traced, and checks
that each metric ``BENCHMARK.json`` names is printed with its unit, that no
session failed, and that the exact counts repeat for a given seed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that are counts: identical on every run of one seed.
EXACT = ("emulator.cycles_per_session", "emulator.faults", "branch_filter.branches_per_session",
         "loop_monitor.sessions_in_L", "loop_monitor.distinct_paths",
         "loop_monitor.path_overflow_sessions", "hash_engine.words_absorbed",
         "hash_engine.compression_ratio", "isa.build_cfg.calls_per_session",
         "attestation.report_codec.bytes_per_session", "attestation.decode_loop_path.calls",
         "attestation.nonce_store.size", "repo.src_lines")


def bench(workload: str, trace: int, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), f"{name} not printed with its unit"
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = result_of(bench(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    second = result_of(bench(workload, 1))["metrics"]
    assert {k: first[k]["value"] for k in EXACT} == {k: second[k]["value"] for k in EXACT}


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
