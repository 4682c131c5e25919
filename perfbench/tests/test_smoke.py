"""Smoke tests for the benchmark, kept out of the main suite.

    python3 -m pytest perfbench/tests -q

Each workload runs once at the smallest size, untraced and traced.  The
tests check the answers and that every metric BENCHMARK.json names is
printed with its unit; they assert nothing about wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "\nerror_rate 0.0 " in out.stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} " in out.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _run(tmp_path, "whitehead", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_rebinds_every_import_site():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import xmlift
        from perfbench.tracer import Tracer

        original = xmlift.groups.make_group
        tracer = Tracer()
        tracer.install()
        try:
            wrapped = xmlift.groups.make_group
            assert wrapped is not original
            assert xmlift.catalog.make_group is wrapped is xmlift.groupoid.make_group
            assert xmlift.make_group is wrapped
            xmlift.groups.make_group([[0, 1], [1, 0]])
        finally:
            tracer.uninstall()
        assert xmlift.groupoid.make_group is original
        totals = tracer.totals()
        assert totals["groups.make_group.calls"] == 1
        assert totals["groups.make_group.cells"] == 8
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(ROOT))
