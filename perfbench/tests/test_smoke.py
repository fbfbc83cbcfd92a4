"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench/tests

Runs every workload at tiny sizes (--smoke) through the same processes,
checks and tracer as the timed benchmark, and checks the result format
against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
    res = _result(proc)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["trace.coverage_failures"]["value"] == 0, proc.stdout
    assert "# coverage checks: all passed" in proc.stdout


def test_untraced_smoke_run_reports_end_to_end_metrics():
    proc = _run("--workload", "lee-resample", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    res = _result(proc)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert "fail_ratio" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "krust-catalog", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_import_and_restores_them():
    import maxsurf.cli  # noqa: F401
    from maxsurf import meshcheck, rational, weierstrass

    before = (rational.integrate_to_many, weierstrass.integrate_to_many, meshcheck.krust_pipeline,
              maxsurf.cli.krust_pipeline, rational.RationalHolomorphic.__dict__["_eval"])
    t = tracer.Tracer()
    t.install()
    try:
        assert weierstrass.integrate_to_many is rational.integrate_to_many is not before[0]
        assert maxsurf.cli.krust_pipeline is meshcheck.krust_pipeline is not before[2]
        assert all(t.bindings[a] >= n for a, n in layers.MIN_BINDINGS.items())
        assert not t.missing
    finally:
        t.uninstall()
    after = (rational.integrate_to_many, weierstrass.integrate_to_many, meshcheck.krust_pipeline,
             maxsurf.cli.krust_pipeline, rational.RationalHolomorphic.__dict__["_eval"])
    assert all(a is b for a, b in zip(before, after))
