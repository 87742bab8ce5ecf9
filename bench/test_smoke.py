"""Keeps the benchmark harness from rotting: D <= 64 runs end to end, checks included."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent


def _bench(workload: str, trace: int, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(wl.REFERENCE_SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("ladder-smoke", 0), ("ladder-smoke", 1), ("horizons-smoke", 1), ("sweep-smoke", 1)])
def test_smoke_run_passes_its_checks(workload, trace):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    names = [name for name, _unit in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    printed = {line.split()[1] for line in out.stdout.splitlines() if "median of" in line}
    assert printed == {name for name, _unit in run.END_TO_END + (run.PER_LAYER if trace else ())}
    if trace:
        w = wl.WORKLOADS[workload]
        assert result["metrics"]["volume.build.calls"]["value"] == len(w.volume_sizes)
        assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_checks_catch_a_wrong_output(tmp_path):
    w = wl.WORKLOADS["ladder-smoke"]
    inp = wl.generate(w, wl.REFERENCE_SEED, tmp_path)
    good = (wl.REFERENCE_DIR / f"{w.name}.csv").read_bytes()
    checks = wl.Checks()
    wl.check_output(inp, good, good, checks, "reference")
    assert checks.attempted == wl.checks_per_command(inp) and checks.failed == 0

    lines = good.decode().splitlines()
    cells = lines[1].split(",")
    cells[5] = "-1.0"  # e_telescoped
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    checks = wl.Checks()
    wl.check_output(inp, bad.encode(), good, checks, "tampered")
    # nonnegativity, e == e_telescoped, rerun identity and reference all fail
    assert checks.failed == 4


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("ladder-smoke", 0, tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(w["name"] in wl.WORKLOADS for w in spec["workloads"])
