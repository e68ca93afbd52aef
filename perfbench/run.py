#!/usr/bin/env python3
"""zitterlab benchmark: run one workload in a closed loop and report metrics.

    python3 perfbench/run.py --workload wave --seed 1 --seconds 25 --trace 0

One client, one process: each scenario call starts after the previous one
returns, and the workload's scenarios are repeated until ``--seconds`` is
spent.  Every call writes into a fresh temporary directory under
``perfbench/work``; its files are hashed and the directory removed.  A
failed scenario check, a scenario that raises, or an output whose sha256
differs from the first pass's counts as a failed check.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (wall time of the
run's scenario calls divided by the number of passes over the workload),
``setup_s`` (median over fresh interpreters, one before each pass, of
``import zitterlab`` plus ``cli.parse_config`` of the workload's configs) and
``peak_rss_mb`` (this process's ``ru_maxrss``).  On a shared machine whose
speed changes in phases, pass times cluster in two modes; the median of a
few passes jumps between them, while time per pass over the whole run (the
closed loop's inverse throughput) does not.

``--trace 1`` alternates untraced passes with traced ones, for which the
public functions of every layer module are wrapped (see ``layers.py``); it
reports per-layer metrics (medians over traced passes) and writes the last
traced pass's spans to ``perfbench/work/spans-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import tracer as tracing
from workloads import WORKLOADS, config_texts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NPY_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: argv = [src dir, config text, ...].
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zitterlab
from zitterlab import cli
configs = [cli.parse_config(text) for text in sys.argv[2:]]
elapsed = time.perf_counter() - t0
if not zitterlab.__file__.startswith(sys.argv[1]):
    sys.exit("zitterlab was imported from " + zitterlab.__file__)
print(elapsed)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def measure_setup(texts: list[str], probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, *texts], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def import_library():
    if not os.path.isfile(os.path.join(SRC, "zitterlab", "__init__.py")):
        raise BenchError(f"no zitterlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import zitterlab
    from zitterlab import cli, scenarios

    if not zitterlab.__file__.startswith(SRC):
        raise BenchError(f"zitterlab was imported from {zitterlab.__file__}, not {SRC}")
    return cli, scenarios


def digest_tree(path: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(cli, scenarios, texts, trace=None) -> dict:
    """One pass over the workload's configs.  Returns wall time of the
    scenario calls, per-scenario times, check counts and output digests."""
    wall = 0.0
    scenario_s = {}
    checks = failed = 0
    digests = {}
    for index, text in enumerate(texts):
        cfg = cli.parse_config(text)
        out = tempfile.mkdtemp(prefix=f"{cfg.scenario}-", dir=WORK)
        try:
            t0 = time.perf_counter()
            try:
                if trace is None:
                    result = scenarios.run_scenario(cfg, out)
                else:
                    with trace.span(f"scenarios.{cfg.scenario}"):
                        result = scenarios.run_scenario(cfg, out)
            except Exception as exc:  # a raising scenario is a failed check; keep measuring
                print(f"# FAIL {cfg.scenario} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                result = None
            elapsed = time.perf_counter() - t0
            wall += elapsed
            scenario_s[cfg.scenario] = scenario_s.get(cfg.scenario, 0.0) + elapsed
            if result is None:
                checks += 1
                failed += 1
                continue
            for name, ok, detail in result.checks:
                checks += 1
                if not ok:
                    failed += 1
                    print(f"# FAIL {cfg.scenario}:{name} ({detail})", file=sys.stderr)
            for rel, digest in digest_tree(out).items():
                digests[f"{index}:{cfg.scenario}/{rel}"] = digest
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return {
        "traced": trace is not None,
        "wall_s": wall,
        "scenario_s": scenario_s,
        "checks": checks,
        "failed": failed,
        "digests": digests,
    }


def compare_digests(reference: dict, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) output-digest checks of passes against reference."""
    attempted = failed = 0
    for p in passes:
        for key in reference.keys() | p["digests"].keys():
            attempted += 1
            if reference.get(key) != p["digests"].get(key):
                failed += 1
                print(f"# FAIL digest {key} differs from the first pass", file=sys.stderr)
    return attempted, failed


def run_for(budget: float, *kinds) -> list[dict]:
    """Closed loop: run the pass kinds in turn, each at least once, and go on
    while the next pass is expected to fit the budget."""
    t0 = time.perf_counter()
    passes = []
    while len(passes) < len(kinds) or (
        time.perf_counter() - t0 + statistics.median(p["wall_s"] for p in passes) <= budget
    ):
        passes.append(kinds[len(passes) % len(kinds)]())
    return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (not a measurement)")
    args = parser.parse_args(argv)

    texts = config_texts(args.workload, args.seed, tiny=args.tiny)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} tiny={args.tiny}")
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    os.makedirs(WORK, exist_ok=True)
    record = {"args": vars(args), "environment": env, "configs": texts}
    cli, scenarios = import_library()
    record["effective_configs"] = [repr(cli.parse_config(t)) for t in texts]

    def untraced():
        return run_pass(cli, scenarios, texts)

    traced = []
    setup = []
    if args.trace == 0:
        # Probes are spread over the run so that they see the same speed
        # phases as the passes.
        def probed():
            setup.extend(measure_setup(texts, 1))
            return untraced()

        passes = run_for(args.seconds, probed)
        setup.extend(measure_setup(texts, (1 if args.tiny else SETUP_PROBES) - len(setup)))
    else:
        # The first untraced pass also warms up; after it, traced and untraced
        # passes alternate so that trace.overhead_s compares like with like.
        trace = tracing.Tracer()
        functions, methods = layers.targets()
        per_pass = []

        def traced_pass():
            trace.reset()
            record["bindings"] = tracing.install(trace, functions, methods, layers.HOOKS)
            try:
                p = run_pass(cli, scenarios, texts, trace)
            finally:
                tracing.uninstall(trace)
            per_pass.append(layers.per_layer(trace, p["wall_s"], p["scenario_s"]))
            return p

        everything = run_for(args.seconds, untraced, traced_pass)
        passes = [p for p in everything if not p["traced"]]
        traced = [p for p in everything if p["traced"]]
        with open(os.path.join(WORK, f"spans-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace.to_json(), fh)

    digest_attempted, digest_failed = compare_digests(passes[0]["digests"], passes[1:] + traced)
    attempted = sum(p["checks"] for p in passes + traced) + digest_attempted
    failed = sum(p["failed"] for p in passes + traced) + digest_failed

    walls = [p["wall_s"] for p in passes]
    if args.trace == 0:
        values = {
            "wall_s": walls,
            "setup_s": setup,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        reported = {"wall_s": statistics.fmean(walls), "setup_s": statistics.median(setup)}
        reported["peak_rss_mb"] = values["peak_rss_mb"][0]
        for name, samples in values.items():
            q1, q2, q3 = quartiles(samples)
            print(
                f"# {name}: {reported[name]:.6g} {END_TO_END_UNITS[name]} "
                f"(median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(samples)})"
            )
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in reported.items()}
    else:
        merged = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        warm = walls[1:] or walls
        merged["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(warm)
        merged["check_fail_ratio"] = failed / attempted
        units = dict(layers.METRICS)
        metrics = {name: {"value": merged[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"# {name}: {m['value']:.6g} {m['unit']}")
    print(f"# passes: untraced {len(passes)} traced {len(traced)}; checks {attempted} failed {failed}")

    record.update(passes=passes, traced=traced, setup_s=setup, metrics=metrics)
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
