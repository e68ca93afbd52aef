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
frame (complex values compare by modulus).  When a JSON file gains or loses
keys, or a CSV file columns, the numbers present in both files are compared
and the added and removed keys or columns are named after them.  A file whose
shared text cells differ, whose CSV rows differ in count, or that only one
tree has, is named as such.  Files with equal digests print nothing.  The
exit status is 0.
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


def _csv_leaves(path):
    """{(column, row): cell} of a CSV file whose first row names the columns."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    return {(name, k): cell for k, row in enumerate(rows) for name, cell in zip(header, row)}, len(rows)


def _json_leaves(value, path=()):
    """{path: leaf} of a JSON value; a path holds the keys and list indices down to its leaf."""
    if not (isinstance(value, (dict, list)) and value):
        return {path: value}
    leaves = {}
    for key, item in sorted(value.items()) if isinstance(value, dict) else enumerate(value):
        leaves.update(_json_leaves(item, (*path, key)))
    return leaves


def _leaves(path):
    """({key: leaf} in file order, extent): the extent is a CSV file's row
    count or a .zlab frame's shape, and None for JSON."""
    if path.endswith(".zlab"):
        values, half_width, time = read_zlab_frame(path)
        return {(k,): leaf for k, leaf in enumerate([*np.ravel(values), half_width, time])}, values.shape
    if path.endswith(".json"):
        with open(path) as fh:
            return _json_leaves(json.load(fh)), None
    return _csv_leaves(path)


def _number(leaf):
    """leaf as a complex number, or None if it is not a number (a bool is not)."""
    if isinstance(leaf, bool):
        return None
    try:
        return complex(float(leaf) if isinstance(leaf, str) else leaf)
    except (TypeError, ValueError):
        return None


def _only_in(a, b) -> list[str]:
    """Names of the keys of a that b lacks, each cut after its first part
    that b has no key under, in a's order and without repeats."""
    prefixes = {key[:k] for key in b for k in range(1, len(key) + 1)}
    names = {}
    for key in a:
        if key not in b:
            k = next((k for k in range(1, len(key) + 1) if key[:k] not in prefixes), len(key))
            names[".".join(map(str, key[:k]))] = None
    return list(names)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def delta(a_path, b_path) -> str:
    """The quoted change from the file a_path to the file b_path."""
    (a_leaves, a_extent), (b_leaves, b_extent) = _leaves(a_path), _leaves(b_path)
    shared = [key for key in a_leaves if key in b_leaves]
    pairs = [(_number(a_leaves[key]), _number(b_leaves[key])) for key in shared]
    texts_differ = any(
        (x is None) != (y is None) or (x is None and a_leaves[key] != b_leaves[key])
        for key, (x, y) in zip(shared, pairs)
    )
    if a_extent != b_extent or texts_differ:
        return "structure or text differs"
    numeric = [(x, y) for x, y in pairs if x is not None]
    a = np.array([x for x, _ in numeric], dtype=complex)
    b = np.array([y for _, y in numeric], dtype=complex)
    changed = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    diff = np.where(changed, np.abs(b - a), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(changed, diff / np.abs(a), 0.0)
    max_abs = float(diff.max()) if diff.size else 0.0
    max_rel = float(rel.max()) if rel.size else 0.0
    quote = f"{int(changed.sum())}/{a.size} numbers changed, max abs {max_abs:.3e}, max rel {max_rel:.3e}"
    for word, names in (("added", _only_in(b_leaves, a_leaves)), ("removed", _only_in(a_leaves, b_leaves))):
        if names:
            quote += f"; {word} {', '.join(names)}"
    return quote


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
