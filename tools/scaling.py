#!/usr/bin/env python3
"""Time the default equivariance scenario at growing n_grid and write a BENCH file.

    python3 tools/scaling.py --pr N

It makes RUNS runs per grid.  Each run is one fresh interpreter that
parses ``scenario = equivariance`` with only ``n_grid`` set, then times
``run_scenario`` into a temporary directory.  It reports that wall time (import excluded) and its own
``ru_maxrss`` (import included), the same peak RSS that perfbench reports.
The runs go grid by grid in rounds, 256, 512, 1024, 256, ..., so that a
drift in machine speed falls on every grid alike.  The result goes to
``BENCH_pr<N>_scaling.json`` in the current directory: per grid the
quartiles and the largest value of each metric, and every run's numbers.
Quartiles are those of ``tools/bench_pairs.py``.  The exit status is 1 if
any run failed a scenario check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = (256, 512, 1024)
RUNS = 5
METRICS = {"wall_s": "s", "peak_rss_mb": "MB"}
CHILD = """\
import json, resource, sys, time
import numpy
from zitterlab import parse_config, run_scenario
cfg = parse_config(sys.argv[1])
start = time.perf_counter()
result = run_scenario(cfg, sys.argv[2])
wall_s = time.perf_counter() - start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "passed": result.passed, "numpy": numpy.__version__}))
"""


def plan(n_runs: int) -> list[int]:
    """The n_grid of each run, in order: every grid once per round."""
    return [n for _ in range(n_runs) for n in GRIDS]


def run_once(n_grid: int) -> dict:
    """{wall_s, peak_rss_mb, passed, numpy} of one run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c", CHILD, f"scenario = equivariance\nn_grid = {n_grid}\n", out]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Per grid and metric: its unit, quartiles and largest value."""
    summary = {}
    for n in sorted({r["n_grid"] for r in runs}):
        values = {name: [r[name] for r in runs if r["n_grid"] == n] for name in METRICS}
        summary[str(n)] = {
            name: {"unit": unit, **quartiles(values[name]), "max": max(values[name])} for name, unit in METRICS.items()
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)

    runs = []
    for n_grid in plan(RUNS):
        runs.append({"n_grid": n_grid, **run_once(n_grid)})
        print(f"# n_grid {n_grid}: wall_s {runs[-1]['wall_s']:.3f}, peak_rss_mb {runs[-1]['peak_rss_mb']:.1f}", file=sys.stderr)
    doc = {
        "scenario": "equivariance at its default config, n_grid set",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}, "
        f"numpy {runs[0]['numpy']}",
        "protocol": f"{RUNS} runs per grid, each in a fresh interpreter, grids alternated in rounds; "
        "wall_s times run_scenario alone, peak_rss_mb is the run's ru_maxrss. "
        "Quartiles by statistics.quantiles(method='inclusive').",
        "summary": summarize(runs),
        "runs": runs,
    }
    path = f"BENCH_pr{args.pr}_scaling.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(r["passed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
