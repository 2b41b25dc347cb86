"""The benchmark's own tests: tiny-size runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    for section, table in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.PER_LAYER),
    ):
        assert {
            metric["name"]: (metric["unit"], metric["better"])
            for metric in DECLARED[section]
        } == table
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    end_to_end = _declared("end_to_end")
    assert end_to_end["setup_s"] == "s"
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = _result(
        _bench(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", trace, "--scale", "tiny",
        )
    )
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, metric in metrics.items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(metric["value"] > 0 for metric in metrics.values())
    else:
        assert metrics["ratio.packets_delivered"]["value"] == 1.0
        assert metrics["rounds.total"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_time_within_wall_time(workload, tmp_path):
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "workloads.py"),
            "--workload", workload, "--seed", "2", "--seconds", "1",
            "--traced", "1", "--scale", "tiny", "--outdir", str(tmp_path),
        ],
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0
    assert 0 < record["self_s_total"] <= record["traced_s"]
    spans = Path(record["spans"]["path"]).read_text().splitlines()
    assert len(spans) == record["spans"]["kept"] > 0
    first = json.loads(spans[0])
    assert set(first) == {"id", "parent", "name", "op", "start", "end"}


def test_rounds_are_identical_across_runs_of_one_seed(tmp_path):
    records = []
    for seconds in ("0.5", "1.5"):
        completed = subprocess.run(
            [
                sys.executable, str(BENCH / "workloads.py"),
                "--workload", "churn-serve", "--seed", "4",
                "--seconds", seconds, "--traced", "1", "--scale", "tiny",
                "--outdir", str(tmp_path),
            ],
            env=run.child_env(),
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert completed.returncode == 0, completed.stderr
        records.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    assert records[0]["digest"] == records[1]["digest"]
    assert records[0]["rounds"] == records[1]["rounds"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _bench(
        "--workload", "route-serve", "--seconds", "1", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
