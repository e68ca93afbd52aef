#!/usr/bin/env python3
"""Time one scenario at growing size, in fresh interpreters, and write a BENCH file.

    python3 tools/scaling.py --pr N [--series process_free|convergence|guided_process|free_gaussian] [--parent DIR]

A series is a scenario and the config key that grows: ``equivariance`` (the
default) sets ``n_grid`` to 256, 512 and 1024 in its default config,
``process_free`` sets ``T`` to 400, 800 and 1600 with ``velocity =
circular``, ``convergence`` sets ``T`` to 4, 8 and 16 in its default
config, ``guided_process`` sets ``n_grid`` to 128, 256 and 512 in its
default config, and ``free_gaussian`` sets ``T`` to 1, 2 and 4 in its
default config (201, 401 and 801 frames at 256^2).  It makes RUNS runs per
size.  Each run is one fresh interpreter that parses the config, then times
``run_scenario`` into a temporary directory.  It reports that wall time (import excluded) and its own
``ru_maxrss`` (import included), the same peak RSS that perfbench reports.
The runs go size by size in rounds, so that a drift in machine speed falls on
every size alike.  With ``--parent DIR``, a checkout of the parent commit,
every run is paired with a run of ``DIR/src`` at the same size.  Which side
runs first in each pair is drawn as ``tools/bench_pairs.py`` draws it, by
its ``plan`` seeded with the ``--pr`` number, and recorded as each run's
``first``.  The result goes to
``BENCH_pr<N>_scaling.json`` in the current directory: per size the
quartiles and the largest value of each metric, and every run's numbers,
the parent's under ``parent``.  Quartiles are those of
``tools/bench_pairs.py``.  The exit status is 1 if any run failed a scenario
check.
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
from bench_pairs import describe, plan as pair_plan, quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# series name: (what it runs, the key that grows, its sizes, the config with the size left open)
SERIES = {
    "equivariance": (
        "equivariance at its default config, n_grid set",
        "n_grid",
        (256, 512, 1024),
        "scenario = equivariance\nn_grid = {}\n",
    ),
    "process_free": (
        "process_free with velocity = circular, T set",
        "T",
        (400, 800, 1600),
        "scenario = process_free\nvelocity = circular\nT = {}\n",
    ),
    "convergence": (
        "convergence at its default config, T set",
        "T",
        (4, 8, 16),
        "scenario = convergence\nT = {}\n",
    ),
    "guided_process": (
        "guided_process at its default config, n_grid set",
        "n_grid",
        (128, 256, 512),
        "scenario = guided_process\nn_grid = {}\n",
    ),
    "free_gaussian": (
        "free_gaussian at its default config, T set",
        "T",
        (1, 2, 4),
        "scenario = free_gaussian\nT = {}\n",
    ),
}
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


def plan(n_runs: int, series: str = "equivariance") -> list[int]:
    """The size of each run, in order: every size once per round."""
    return [size for _ in range(n_runs) for size in SERIES[series][2]]


def run_once(config: str, root: str = ROOT) -> dict:
    """{wall_s, peak_rss_mb, passed, numpy} of one run of root's src in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c", CHILD, config, out]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[dict], key: str) -> dict:
    """Per size and metric: its unit, quartiles and largest value."""
    summary = {}
    for size in sorted({r[key] for r in runs}):
        values = {name: [r[name] for r in runs if r[key] == size] for name in METRICS}
        summary[str(size)] = {
            name: {"unit": unit, **quartiles(values[name]), "max": max(values[name])} for name, unit in METRICS.items()
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--series", choices=sorted(SERIES), default="equivariance")
    parser.add_argument("--parent", help="a checkout of the parent commit, run interleaved with this one")
    args = parser.parse_args(argv)

    scenario, key, _, config = SERIES[args.series]
    roots = {"change": ROOT, **({"parent": os.path.abspath(args.parent)} if args.parent else {})}
    commit = describe(roots["parent"]) if args.parent else None  # before any run, so a bad PARENT costs none
    runs = {side: [] for side in roots}
    sizes = plan(RUNS, args.series)
    for size, (_, drawn) in zip(sizes, pair_plan(len(sizes), args.pr)):
        order = sorted(roots, key=lambda side: side != drawn)  # the drawn side first
        for side in order:
            first = {"first": order[0]} if args.parent else {}
            runs[side].append({key: size, **first, **run_once(config.format(size), roots[side])})
            last = runs[side][-1]
            print(
                f"# {key} {size} {side}: wall_s {last['wall_s']:.3f}, peak_rss_mb {last['peak_rss_mb']:.1f}",
                file=sys.stderr,
            )
    protocol = f"{RUNS} runs per size, each in a fresh interpreter, sizes alternated in rounds"
    if args.parent:
        protocol += (
            "; every change run is paired with a parent run of the same size, the side that runs first "
            f"drawn by tools/bench_pairs.py's plan seeded with {args.pr} ('first')"
        )
    doc = {
        "scenario": scenario,
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}, "
        f"numpy {runs['change'][0]['numpy']}",
        "protocol": f"{protocol}. wall_s times run_scenario alone, peak_rss_mb is the run's ru_maxrss. "
        "Quartiles by statistics.quantiles(method='inclusive').",
        "summary": summarize(runs["change"], key),
        "runs": runs["change"],
    }
    if args.parent:
        doc["parent"] = {
            "commit": commit,
            "summary": summarize(runs["parent"], key),
            "runs": runs["parent"],
        }
    path = f"BENCH_pr{args.pr}_scaling.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(r["passed"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
