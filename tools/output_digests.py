#!/usr/bin/env python3
"""Print the sha256 of every output of the default scenarios and the benchmark configs.

    python3 tools/output_digests.py > digests.txt
    python3 tools/output_digests.py --keep DIR > digests.txt
    python3 tools/output_digests.py --write

It runs each of the scenarios at its default config, then each config of the
perfbench workloads (``perfbench/workloads.py``, read only) at seed 7, and
prints one ``<config index>:<file> <sha256>`` line per output file.  Two
trees give byte-identical outputs when ``diff`` of their two listings is
empty.  Each config runs in a fresh temporary directory, or with ``--keep
DIR`` in ``DIR/<config index>/``, which is left in place for
``tools/output_delta.py``.  ``--write`` writes the lines to GOLDEN
(``tests/data/output_digests.txt``) instead, under a header line that names
the numpy version and the machine (``platform.machine()``), unless a
scenario check fails; tier-1's golden test compares every run against that
file.  The exit status is 1 if any scenario check fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, config_texts  # noqa: E402

from zitterlab.cli import parse_config  # noqa: E402
from zitterlab.scenarios import SCENARIOS, run_scenario  # noqa: E402

SEED = 7
GOLDEN = os.path.join(ROOT, "tests", "data", "output_digests.txt")


def environment() -> str:
    """The header line of GOLDEN: the numpy version and the machine."""
    return f"# numpy {np.__version__}, machine {platform.machine()}"


def _digests(text: str, index: int, out: str):
    """Run one config into out: (its digest lines, its result)."""
    result = run_scenario(parse_config(text), out)
    lines = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            lines.append(f"{index}:{name} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines, result


def digest_lines(keep=None):
    """(lines, failures): the digest line of every output of every config, in
    order, and one line per failed scenario check.  With keep, config i's
    outputs are written to and left in keep/<i>/."""
    texts = [f"scenario = {name}\n" for name in SCENARIOS]
    for workload in WORKLOADS:
        texts += config_texts(workload, SEED)
    lines, failures = [], []
    for index, text in enumerate(texts):
        if keep:
            out = os.path.join(keep, str(index))
            os.makedirs(out)
            found, result = _digests(text, index, out)
        else:
            with tempfile.TemporaryDirectory() as out:
                found, result = _digests(text, index, out)
        lines += found
        failures += [f"FAIL {index}:{result.scenario}:{check} ({detail})" for check, ok, detail in result.checks if not ok]
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="write config i's outputs to DIR/<i>/ and keep them")
    parser.add_argument("--write", action="store_true", help=f"write the lines to {os.path.relpath(GOLDEN, ROOT)}")
    args = parser.parse_args(argv)
    lines, failures = digest_lines(args.keep)
    if args.write and not failures:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write("\n".join([environment(), *lines]) + "\n")
    elif not args.write:
        for line in lines:
            print(line)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
