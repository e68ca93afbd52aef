#!/usr/bin/env python3
"""Print the sha256 of every output of the default scenarios and the benchmark configs.

    python3 tools/output_digests.py > digests.txt
    python3 tools/output_digests.py --keep DIR > digests.txt

It runs each of the scenarios at its default config, then each config of the
perfbench workloads (``perfbench/workloads.py``, read only) at seed 7, and
prints one ``<config index>:<file> <sha256>`` line per output file.  Two
trees give byte-identical outputs when ``diff`` of their two listings is
empty.  Each config runs in a fresh temporary directory, or with ``--keep
DIR`` in ``DIR/<config index>/``, which is left in place for
``tools/output_delta.py``.  The exit status is 1 if any scenario check
fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, config_texts  # noqa: E402

from zitterlab.cli import parse_config  # noqa: E402
from zitterlab.scenarios import SCENARIOS, run_scenario  # noqa: E402

SEED = 7


def _digests(text: str, index: int, out: str):
    """Run one config into out and print the digest line of each output."""
    result = run_scenario(parse_config(text), out)
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            print(f"{index}:{name} {hashlib.sha256(fh.read()).hexdigest()}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="write config i's outputs to DIR/<i>/ and keep them")
    args = parser.parse_args(argv)
    texts = [f"scenario = {name}\n" for name in SCENARIOS]
    for workload in WORKLOADS:
        texts += config_texts(workload, SEED)
    failed = 0
    for index, text in enumerate(texts):
        if args.keep:
            out = os.path.join(args.keep, str(index))
            os.makedirs(out)
            result = _digests(text, index, out)
        else:
            with tempfile.TemporaryDirectory() as out:
                result = _digests(text, index, out)
        for check, ok, detail in result.checks:
            if not ok:
                failed += 1
                print(f"FAIL {index}:{result.scenario}:{check} ({detail})", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
