"""Short runs of every workload through the benchmark command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

END_TO_END = {"setup_s", "instances_per_s", "instance_ms_p50", "instance_ms_p90", "peak_rss_mb"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def benchmark_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", ["campaign_lowdim", "campaign_highdim", "instance_check"])
def test_workload_runs_clean(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    units = benchmark_metrics("end_to_end")
    assert set(units) == END_TO_END == set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_traced_run_reports_every_layer():
    done = run_bench("--workload", "instance_check", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    units = benchmark_metrics("per_layer")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert result["metrics"]["cli.load_ms"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", "campaign_lowdim", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
