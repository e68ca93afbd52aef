"""The byte-identical gate: every output of the default scenarios and the
benchmark configs still has the sha256 recorded in
tests/data/output_digests.txt by ``python3 tools/output_digests.py --write``.

A change that moves an output on purpose regenerates that file in the same
commit, so the move shows as a diff of it.  FFT and BLAS bits may differ
between numpy builds and machines: where the file's header names another
environment than the running one, a mismatch skips with the moved files
named instead of failing."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def output_digests():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
        spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def moved_files(golden, lines):
    """The '<config index>:<file>' names whose digest differs between the
    two listings, or that only one of them holds, in listing order."""
    want = dict(line.rsplit(" ", 1) for line in golden)
    got = dict(line.rsplit(" ", 1) for line in lines)
    missing = [f"{name} (not written)" for name in want if name not in got]
    changed = [name for name in want if name in got and got[name] != want[name]]
    return changed + missing + [f"{name} (new)" for name in got if name not in want]


def test_outputs_match_the_golden_digests(output_digests):
    header, *golden = Path(output_digests.GOLDEN).read_text(encoding="utf-8").splitlines()
    lines, _ = output_digests.digest_lines()
    moved = moved_files(golden, lines)
    if not moved:
        return
    message = (
        f"{len(moved)} of {len(golden)} outputs moved: {', '.join(moved)}. Quote the move with "
        "`python3 tools/output_digests.py --keep A` in the parent tree and `--keep B` in this one, then "
        "`python3 tools/output_delta.py A B`; a change that moves outputs on purpose regenerates the file "
        "with `python3 tools/output_digests.py --write`."
    )
    running = output_digests.environment()
    if header != running:
        pytest.skip(f"digests recorded under '{header}', running under '{running}': {message}")
    pytest.fail(message)


def test_moved_files_are_named():
    golden = ["0:a.csv 11", "0:b.json 22", "1:c.csv 33"]
    assert moved_files(golden, golden) == []
    assert moved_files(golden, ["0:a.csv 11", "0:b.json 2f", "1:d.csv 44"]) == [
        "0:b.json",
        "1:c.csv (not written)",
        "1:d.csv (new)",
    ]
