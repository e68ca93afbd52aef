"""Atomic writers and streamed CSV writes: the bytes, the cleanup after a failure and the memory they hold."""

import os
import tracemalloc

import numpy as np
import pytest

from zitterlab import fileio
from zitterlab.fileio import atomic_write_bytes, atomic_write_text, write_csv, write_json


def one_shot_csv(header, rows) -> bytes:
    """The CSV as one string: header and rows joined, then encoded once."""
    lines = [",".join(header)] + [fileio._row_format(tuple(map(type, row))) % tuple(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_of_several_batches_equals_one_shot_text(tmp_path):
    n = 2 * fileio._CSV_BATCH_ROWS + 3
    rows = [(k, k * 0.1, "tag" if k % 2 else "", -k / 7.0) for k in range(n)]
    header = ["n", "t", "label", "x"]
    path = tmp_path / "rows.csv"
    write_csv(path, header, iter(rows))
    assert path.read_bytes() == one_shot_csv(header, rows)
    write_csv(path, header, rows[: fileio._CSV_BATCH_ROWS])  # exactly one batch
    assert path.read_bytes() == one_shot_csv(header, rows[: fileio._CSV_BATCH_ROWS])
    write_csv(path, header, [])
    assert path.read_bytes() == b"n,t,label,x\n"


def test_text_writer_takes_a_str_or_chunks(tmp_path):
    path = tmp_path / "t.txt"
    atomic_write_text(path, "αβ\nγ\n")
    assert path.read_bytes() == "αβ\nγ\n".encode("utf-8")
    atomic_write_text(path, iter(["α", "", "β\n"]))
    assert path.read_bytes() == "αβ\n".encode("utf-8")
    atomic_write_bytes(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"


def test_rows_that_raise_leave_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "run.csv"
    path.write_bytes(b"old\n")

    def rows():
        for k in range(fileio._CSV_BATCH_ROWS + fileio._CSV_BATCH_ROWS // 2):
            yield (k, 0.5 * k)
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_csv(path, ["n", "x"], rows())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["run.csv"]


def test_streamed_csv_holds_a_fraction_of_the_file(tmp_path):
    n, width = 50_000, 8
    rows = ((k, *(k * 1e-3 + c for c in range(width))) for k in range(n))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["n", *(f"c{c}" for c in range(width))], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)


def test_each_write_calls_one_public_writer(tmp_path, monkeypatch):
    calls = []

    def counted(name, writer):
        def wrapper(*args):
            calls.append(name)
            return writer(*args)

        return wrapper

    for name in ("atomic_write_text", "atomic_write_bytes"):
        monkeypatch.setattr(fileio, name, counted(name, getattr(fileio, name)))
    write_csv(tmp_path / "a.csv", ["x"], [[1.0], [2.0]])
    assert calls == ["atomic_write_text"]
    write_json(tmp_path / "b.json", {"x": 1.0})
    assert calls == ["atomic_write_text"] * 2
    fileio.write_zlab_frame(tmp_path / "c.zlab", np.zeros((2, 2)), 1.0, 0.0)
    assert calls == ["atomic_write_text"] * 2 + ["atomic_write_bytes"]
