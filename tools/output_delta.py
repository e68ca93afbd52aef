#!/usr/bin/env python3
"""Quote how far the numbers of each moved output file moved between two output trees.

    python3 tools/output_digests.py --keep A > a.txt     # in the first tree
    python3 tools/output_digests.py --keep B > b.txt     # in the second tree
    python3 tools/output_delta.py A B

A and B hold one subdirectory per config index, as ``output_digests.py
--keep`` leaves them.  For every file whose sha256 differs between A and B it
prints one line: the count of numbers that changed, the max absolute change
``|b - a|`` and the max relative change ``|b - a| / |a|`` over its numbers
(inf where a zero became nonzero).  The numbers are the cells of a CSV file,
the leaves of a JSON file and the values, half width and time of a ``.zlab``
frame (complex values compare by modulus).  A file whose structure or text
cells differ, or that only one tree has, is named as such.  Files with equal
digests print nothing.  The exit status is 0.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from zitterlab.fileio import read_zlab_frame  # noqa: E402


def _csv_cells(path):
    with open(path, newline="") as fh:
        return [cell for row in csv.reader(fh) for cell in row]


def _json_leaves(value):
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in [key, *_json_leaves(value[key])]]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _json_leaves(item)]
    return [value]


def _numbers(path):
    """(numbers, other): the numeric values of the file as one complex
    array, and everything else in it, in file order."""
    if path.endswith(".zlab"):
        values, half_width, time = read_zlab_frame(path)
        return np.concatenate([np.ravel(values), [half_width, time]]).astype(complex), []
    if path.endswith(".json"):
        with open(path) as fh:
            items = _json_leaves(json.load(fh))
    else:
        items = _csv_cells(path)
    numbers, other = [], []
    for item in items:
        try:
            if isinstance(item, bool):
                raise TypeError
            numbers.append(float(item))
        except (TypeError, ValueError):
            other.append(item)
    return np.array(numbers, dtype=complex), other


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def delta(a_path, b_path) -> str:
    """The quoted change from the file a_path to the file b_path."""
    (a, a_other), (b, b_other) = _numbers(a_path), _numbers(b_path)
    if a.shape != b.shape or a_other != b_other:
        return "structure or text differs"
    changed = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    diff = np.where(changed, np.abs(b - a), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(changed, diff / np.abs(a), 0.0)
    max_abs = float(diff.max()) if diff.size else 0.0
    max_rel = float(rel.max()) if rel.size else 0.0
    return f"{int(changed.sum())}/{a.size} numbers changed, max abs {max_abs:.3e}, max rel {max_rel:.3e}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_root, b_root = argv
    names = set()
    for root in (a_root, b_root):
        for index in os.listdir(root):
            names.update(os.path.join(index, name) for name in os.listdir(os.path.join(root, index)))
    order = sorted(names, key=lambda name: (int(os.path.dirname(name)), os.path.basename(name)))
    for name in order:
        a_path, b_path = os.path.join(a_root, name), os.path.join(b_root, name)
        label = name.replace(os.sep, ":", 1)
        if not (os.path.exists(a_path) and os.path.exists(b_path)):
            print(f"{label}: only in {a_root if os.path.exists(a_path) else b_root}")
        elif _digest(a_path) != _digest(b_path):
            print(f"{label}: {delta(a_path, b_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
