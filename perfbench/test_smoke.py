"""Smoke test of the benchmark at tiny size (not part of Tier-1).

    python -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks that every
metric named in ``BENCHMARK.json`` is emitted with its unit and that the
output check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    done = run_bench("--workload", "all", "--seed", "0", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCHMARK[section]:
            entry = result["metrics"].get(f"{workload}/{metric['name']}")
            assert entry is not None, f"{workload}: {metric['name']} missing"
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
