"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at m=6 (sampled-m9 on 24 dissections) for a single
timed sweep: once untraced, twice traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in MANIFEST["workloads"]]


def run(workload: str, trace: int, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "5", "--seconds", "0", "--trace", str(trace), "--m", "6", "--sample", "24"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(out: dict) -> dict:
    return {name: entry["unit"] for name, entry in out["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = result(run(workload, 0))
    assert units(out) == {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert all(entry["value"] > 0 for entry in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_runs_emit_every_layer_metric_with_repeatable_counts(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

    def calls(out):
        return {k: v["value"] for k, v in out["metrics"].items() if k.endswith(".calls")}

    assert calls(first) == calls(second)
    assert calls(first)["complexes.generic_iso.calls"] == 0
    # layer self times plus the driver's own account for the traced sweep
    assert first["metrics"]["trace.accounted_frac"]["value"] == pytest.approx(1, abs=0.05)


def test_manifest_matches_the_code():
    import spans
    import workloads

    assert NAMES == list(workloads.WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == workloads.manifest_why(workloads.WORKLOADS[entry["name"]])
    for wl in workloads.WORKLOADS.values():
        assert set(wl.moves) | set(wl.flat) <= set(spans.GROUPS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]]
    assert per_layer == [(name, *spans.unit_and_better(name)) for name in spans.PER_LAYER]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("nested", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
