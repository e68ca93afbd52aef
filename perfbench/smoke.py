#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 perfbench/smoke.py

Runs every workload at the tiny sizes of ``workloads.TINY``, untraced and
traced, and checks that each run passes its checks and prints exactly the
metrics that ``BENCHMARK.json`` declares; that the traced run wrapped
``run_process`` under all its bindings; and that without the library
sources the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
PARALLEL = 2


def bench_cmd(workload: str, trace: int) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]


def check_result(name: str, stdout: str, expected: list[str]) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (name, sorted(result))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
    assert list(result["metrics"]) == expected, (name, sorted(set(expected) ^ set(result["metrics"])))
    for metric, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["unit"], (name, metric, m)


def main() -> int:
    t0 = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    jobs = [(w["name"], trace) for w in bench["workloads"] for trace in (0, 1)]
    while jobs:
        batch, jobs = jobs[:PARALLEL], jobs[PARALLEL:]
        procs = [
            (job, subprocess.Popen(bench_cmd(*job), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for job in batch
        ]
        for (workload, trace), proc in procs:
            stdout, stderr = proc.communicate(timeout=170)
            assert proc.returncode == 0, (workload, trace, stderr[-2000:])
            check_result(f"{workload}/trace{trace}", stdout, expected[trace])
            print(f"ok {workload} trace={trace}")

    with open(os.path.join(WORK, "result-process-trace1.json"), encoding="utf-8") as fh:
        bindings = json.load(fh)["bindings"]
    for module in ("process", "scenarios", "verification"):
        assert f"zitterlab.{module}.run_process" in bindings["process.run_process"], bindings["process.run_process"]
    assert len(bindings["fileio.write_csv"]) >= 5, bindings["fileio.write_csv"]
    print("ok bindings")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(bench_cmd("wave", 0), cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok no sources -> exit", proc.returncode)
    print(f"smoke passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
