"""Self-test of the benchmark on a reduced job list (the demo problems).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def demos_only(jobs):
    return [job for job in jobs if job.name.startswith("demo.")]


def measure(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                           "--trace", str(trace)])
    return run.measure(ROOT, args, select=demos_only)


def test_spec_matches_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_REPORTED)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_REPORTED)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_metrics_and_gate(workload):
    record = measure(workload, trace=0)
    summary = record["summary"]
    assert summary["correct"] and record["failed_frac"] == 0, record["failures"]
    for metric in SPEC["end_to_end"]:
        reported = summary["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_metrics_and_layer_split():
    record = measure("enumerate", trace=1)
    summary = record["summary"]
    assert summary["correct"], record["failures"]
    for metric in SPEC["per_layer"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    counts = {k: v["value"] for k, v in summary["metrics"].items()}
    assert counts["probe.vp_r3_16.count"] == 17
    assert counts["probe.table_r3_10.count"] == 286
    assert counts["probe.table_r3_14.count"] == 680
    assert counts["probe.series_r3_14.count"] == 680
    assert counts["probe.inverse_r3_14.count"] == 680
    assert counts["cone.contains_calls"] == 0
    assert counts["series.mul_calls"] == 0
    assert counts["enumeration.enumerate_calls"] > 0


def test_gate_catches_a_corrupted_reference():
    vpart, jobs = run.setup(ROOT, "table_series", 3)
    loop = run.Loop(vpart, demos_only(jobs))
    loop.run_pass(timed=False)
    loop.run_pass(timed=False)
    run.attach_references(loop.jobs)
    assert loop.check()[1] == 0
    victim = next(job for job in loop.jobs if job.expect_out)
    victim.expect_out = victim.expect_out.replace("1", "2", 1) + " "
    attempted, failed, messages = loop.check()
    assert attempted == 2 * len(loop.jobs)
    assert failed == 2 and victim.name in messages[0]


def test_generation_is_seeded():
    vpart = run.load_vpart(ROOT)
    first = [job.row() for job in workloads.build(vpart, "table_series", 5, ROOT)]
    again = [job.row() for job in workloads.build(vpart, "table_series", 5, ROOT)]
    other = [job.row() for job in workloads.build(vpart, "table_series", 6, ROOT)]
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode not in (0, 1)
    assert done.stdout == ""
