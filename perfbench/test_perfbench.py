"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Takes a few minutes: each workload's traced round runs twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "MB", "ratio")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code():
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    assert declared <= set(run.WORKLOADS)
    for name, (_, stressed_on, _) in layers.LAYER_METRICS.items():
        assert not stressed_on or declared & set(stressed_on), f"{name} is stressed by no declared workload"
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _, _) in layers.LAYER_METRICS.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    line = _result(_run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {m: v["unit"] for m, v in line["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_are_exercised_and_counts_repeat(workload):
    first, second = (_result(_run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layers.LAYER_METRICS)
    for name, (unit, stressed_on, _) in layers.LAYER_METRICS.items():
        if workload in stressed_on:
            assert first["metrics"][name]["value"] > 0, f"{name} recorded nothing on {workload}"
        if unit in EXACT_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name


def test_program_id_follows_the_sources(tmp_path, monkeypatch):
    shutil.copytree(run.SRC / "cometric", tmp_path / "src" / "cometric",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    shutil.copy(HERE / "workloads.py", tmp_path / "perfbench")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "HERE", tmp_path / "perfbench")
    before = run.program_id()
    assert run.program_id() == before
    with open(tmp_path / "src" / "cometric" / "curvature.py", "a") as fh:
        fh.write("\n")
    assert run.program_id() != before


def test_fails_without_the_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run("--workload", "match", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
