#!/usr/bin/env python3
"""Run perfbench in pairs on two checkouts, in a seeded order, and write a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --pr 22 --workload ensemble --pairs 8 \\
        --seed 2201 --note "what the change does" [--check guided --check wave]
    python3 tools/bench_pairs.py CHECKOUT --aa --workload process --pairs 10 --seed 9301

PARENT and CHANGE are two checkouts of the repository.  With ``--aa`` the
one CHECKOUT is the parent and a copy of its tree in a temporary directory
(without ``.git``, ``__pycache__`` and ``work`` directories, such as
``perfbench/work``) is the change, so
the file measures how far two identical sides read apart.  Pair k runs
``python3 perfbench/run.py --workload W --seed <seed + k> --seconds S --trace 0``
once in each checkout, one run at a time, with S the ``run_seconds`` of
``BENCHMARK.json``.  Which side runs first in each pair is drawn from
``random.Random(seed)``: a shuffle of equal shares of parent-first and
change-first pairs (the parent takes the odd one out), recorded as each
pair's ``first``.  Each ``--check`` workload then runs as many pairs the
same way, with the seeds that follow and its own draw.  The result goes to
``BENCH_pr<N>_<W>.json`` (``BENCH_aa_<W>.json`` with ``--aa``) in the
current directory: the per-metric quartiles of each side, the pairs in which
the change read lower, the median of the paired ratios change/parent with its
sign-test interval (see :func:`sign_interval`), and every run's raw numbers.
Quartiles are ``statistics.quantiles(..., method="inclusive")``.  The exit
status is 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
    SECONDS = json.load(fh)["run_seconds"]


def plan(n_pairs: int, seed: int) -> list[tuple[int, str]]:
    """(seed, side that runs first) of each pair: seeds increase from seed,
    and the order of the sides is a shuffle by random.Random(seed) of
    ceil(n/2) parent-first and floor(n/2) change-first pairs."""
    firsts = [SIDES[k % 2] for k in range(n_pairs)]
    random.Random(seed).shuffle(firsts)
    return [(seed + k, first) for k, first in enumerate(firsts)]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def sign_interval(values: list[float], confidence: float = 0.95) -> dict:
    """The median of values and the sign-test interval for it: the k-th
    smallest and k-th largest value, k the largest count <= (n + 1) / 2 with
    P(B < k) <= (1 - confidence) / 2 for B ~ Binomial(n, 1/2), and at least 1.
    'coverage' is the interval's exact level, 1 - 2 P(B < k); it falls below
    confidence when n is too small (n < 6 at 0.95), and is 0 for n = 1."""
    n, ordered = len(values), sorted(values)

    def below(k):  # P(B < k)
        return sum(math.comb(n, i) for i in range(k)) / 2**n

    k = 1
    while k + 1 <= (n + 1) // 2 and below(k + 1) <= (1 - confidence) / 2:
        k += 1
    return {
        "median": statistics.median(values),
        "low": ordered[k - 1],
        "high": ordered[n - k],
        "coverage": 1 - 2 * below(k),
    }


def summarize(pairs: list[dict], units: dict) -> dict:
    """Per metric: its unit, each side's quartiles over the pairs, the count
    of pairs in which the change read lower, as "k/n", and the paired ratios
    change/parent as :func:`sign_interval`."""
    summary = {}
    for name in METRICS:
        lower = sum(p["change"][name] < p["parent"][name] for p in pairs)
        summary[name] = {
            "unit": units[name],
            **{side: quartiles([p[side][name] for p in pairs]) for side in SIDES},
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "ratio": sign_interval([p["change"][name] / p["parent"][name] for p in pairs]),
        }
    return summary


def run_once(checkout: str, workload: str, seed: int) -> tuple[dict, dict, dict]:
    """(run record, units, environment) of one perfbench run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{SECONDS:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env ") :])
    result = json.loads(lines[-1])
    record = {key: result[key] for key in ("correct", "attempted", "failed")}
    record.update({name: result["metrics"][name]["value"] for name in METRICS})
    return record, {name: result["metrics"][name]["unit"] for name in METRICS}, env


def run_pairs(checkouts: dict, workload: str, n_pairs: int, seed: int):
    """(pairs, units, environment) of the n_pairs pairs of plan(n_pairs, seed)."""
    pairs, units, env = [], {}, {}
    for pair_seed, first in plan(n_pairs, seed):
        pair = {"seed": pair_seed, "first": first}
        for side in (first, SIDES[1 - SIDES.index(first)]):
            pair[side], units, env = run_once(checkouts[side], workload, pair_seed)
            print(f"# {workload} seed {pair_seed} {side}: wall_s {pair[side]['wall_s']:.4g}", file=sys.stderr)
        pairs.append(pair)
    return pairs, units, env


def describe(checkout: str) -> str:
    """'<short hash>: <subject>' of the checkout's HEAD; exits with git's last
    line of error if it has none, as in a directory that is not a git work tree."""
    proc = subprocess.run(["git", "log", "-1", "--format=%h: %s"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"cannot describe {checkout}: {''.join(proc.stderr.strip().splitlines()[-1:])}")
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", help="omitted with --aa")
    parser.add_argument("--aa", action="store_true", help="run PARENT against a copy of itself")
    parser.add_argument("--pr", type=int, help="required without --aa")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--note", help="one line on what the change does; required without --aa")
    parser.add_argument("--check", action="append", default=[], help="a workload expected not to move")
    args = parser.parse_args(argv)
    if args.aa != (args.change is None) or not args.aa and (args.pr is None or args.note is None):
        parser.error("give either CHANGE with --pr and --note, or --aa")

    parent = os.path.abspath(args.parent)
    if not args.aa:
        return bench({"parent": parent, "change": os.path.abspath(args.change)}, args)
    with tempfile.TemporaryDirectory(prefix="bench-aa-") as tmp:
        copy = os.path.join(tmp, "copy")
        shutil.copytree(parent, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", "work"))
        return bench({"parent": parent, "change": copy}, args)


def bench(checkouts: dict, args) -> int:
    """Run the pairs and checks of args on checkouts, write the BENCH file and
    return the exit status."""
    parent = describe(checkouts["parent"])  # before any run, so a bad PARENT costs none
    pairs, units, env = run_pairs(checkouts, args.workload, args.pairs, args.seed)
    command = f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {SECONDS:g} --trace 0"
    doc = {
        "workload": args.workload,
        "command": command,
        "parent": parent,
        "change": "A/A: a copy of the parent's tree" if args.aa else args.note,
        "machine": f"{env['nproc']}-CPU {env['platform']}, Python {env['python']}, numpy {env['numpy']}",
        "protocol": f"{args.pairs} {args.workload} pairs (seeds {args.seed}..{args.seed + args.pairs - 1}); "
        "which side runs first is a shuffle by random.Random(first seed) of equal shares, recorded per pair "
        "as 'first'; each side runs from its own checkout directory, one run at a time. Quartiles by "
        "statistics.quantiles(method='inclusive'); 'ratio' is the median of the paired ratios change/parent "
        "and its sign-test interval, with the interval's exact coverage.",
        "summary": summarize(pairs, units),
        "pairs": pairs,
    }
    runs = list(pairs)
    if args.check:
        seed = args.seed + args.pairs
        checks = {"protocol": f"{args.pairs} pairs per workload, the same command and order rule"}
        for workload in args.check:
            check_pairs, units, _ = run_pairs(checkouts, workload, args.pairs, seed)
            checks[workload] = {"seeds": f"{seed}..{seed + args.pairs - 1}"}
            checks[workload].update(summary=summarize(check_pairs, units), pairs=check_pairs)
            runs += check_pairs
            seed += args.pairs
        doc["no_move_checks"] = checks
    path = f"BENCH_{'aa' if args.aa else f'pr{args.pr}'}_{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(p[side]["correct"] for p in runs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
