"""Atomic writers and streamed CSV writes: the bytes, the cleanup after a failure and the memory they hold."""

import os
import tracemalloc

import numpy as np
import pytest

from zitterlab import fileio
from zitterlab.fileio import atomic_write_bytes, atomic_write_text, write_csv, write_csv_blocks, write_json


def one_shot_csv(header, columns) -> bytes:
    """The CSV as one string, each cell formatted by hand by its column's
    dtype: bools and ints as integers, strings as-is, other numbers with 17
    significant digits; header and rows joined, then encoded once."""
    texts = []
    for column in map(np.asarray, columns):
        if column.dtype.kind in "biu":
            texts.append([str(int(cell)) for cell in column])
        elif column.dtype.kind == "U":
            texts.append([str(cell) for cell in column])
        else:
            texts.append([f"{float(cell):.17g}" for cell in column])
    lines = [",".join(header)] + [",".join(row) for row in zip(*texts)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_of_several_batches_equals_one_shot_text(tmp_path):
    k = np.arange(2 * fileio._CSV_BATCH_ROWS + 3)
    columns = [k, k * 0.1, np.where(k % 2 == 1, "tag", ""), -k / 7.0]
    header = ["n", "t", "label", "x"]
    path = tmp_path / "rows.csv"
    write_csv(path, header, iter(columns))
    assert path.read_bytes() == one_shot_csv(header, columns)
    one_batch = [column[: fileio._CSV_BATCH_ROWS] for column in columns]
    write_csv(path, header, one_batch)
    assert path.read_bytes() == one_shot_csv(header, one_batch)
    write_csv(path, header, [])
    assert path.read_bytes() == b"n,t,label,x\n"
    write_csv(path, header, [column[:0] for column in columns])
    assert path.read_bytes() == b"n,t,label,x\n"


def test_blocks_of_rows_write_the_joined_columns(tmp_path):
    k = np.arange(2 * fileio._CSV_BATCH_ROWS + 3)
    columns = [k, k * 0.1, np.where(k % 2 == 1, "tag", ""), -k / 7.0]
    header = ["n", "t", "label", "x"]
    path = tmp_path / "rows.csv"
    cuts = [0, 5, 5, 600, len(k)]  # an empty block, and blocks that end inside a batch
    write_csv_blocks(path, header, ([column[a:b] for column in columns] for a, b in zip(cuts, cuts[1:])))
    assert path.read_bytes() == one_shot_csv(header, columns)
    # a bad block after a good one: the target stays as it was, and no temp file is left
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="header names"):
        write_csv_blocks(path, header, iter([columns, columns[:3]]))
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


NAN_A, NAN_B = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
SPECIAL = np.array([0.0, -0.0, NAN_A, NAN_B, np.inf, -np.inf, 5e-324])


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])  # one row, and rows that end on each side of a batch
def test_each_float_bit_pattern_keeps_its_own_text(tmp_path, n):
    # The float64 columns cycle through 0.0, -0.0, two NaN payloads, +-inf and
    # the smallest subnormal: 0.0 and -0.0 meet in row 0 (special, next) and
    # row 1 (special, mixed), and down each column.  0.1 sits in float16,
    # float32, float64 and longdouble columns, 2.5 fills a column over every
    # batch boundary, and bool, int, uint and str columns sit in between.
    k = np.arange(n)
    columns = [
        SPECIAL[k % 7],
        k % 3 == 0,
        np.full(n, 0.1, dtype=np.float16),
        -k,
        np.full(n, 0.1, dtype=np.float32),
        (k % 256).astype(np.uint8),
        np.where(k % 2 == 0, "-0", "nan"),
        SPECIAL[(k + 1) % 7],
        np.full(n, np.longdouble(1) / 10),
        np.where(k % 5 == 0, 0.1, -SPECIAL[k % 7]),
        np.full(n, 2.5),
    ]
    header = ["special", "flag", "f16", "int", "f32", "uint", "label", "next", "long", "mixed", "same"]
    path = tmp_path / "bits.csv"
    write_csv(path, header, columns)
    text = path.read_bytes()
    assert text == one_shot_csv(header, columns)
    rows = [b"0,1,0.0999755859375,0,0.10000000149011612,0,-0,-0,0.10000000000000001,0.10000000000000001,2.5"]
    rows.append(b"-0,0,0.0999755859375,-1,0.10000000149011612,1,nan,nan,0.10000000000000001,0,2.5")
    assert text.splitlines()[1:3] == rows[:n]


@pytest.mark.parametrize(
    "header, columns",
    [
        (["a", "b"], [[1.0]]),
        (["a"], [[1.0], [2.0]]),
        (["a", "b"], [[1.0], [1.0, 2.0]]),
        (["a"], [np.zeros((2, 2))]),
        (["a"], [[2**70, 1]]),
        (["a"], [[1.0 + 2.0j]]),
        (["a"], [np.array([b"x"])]),
        (["x"], [["one", 2.0, 0.1]]),
        (["x", "y"], [[1.0, 2.0], ("a", 3)]),
    ],
    ids=["fewer_columns", "more_columns", "ragged", "two_d", "object", "complex", "bytes", "str_and_float", "str_and_int"],
)
def test_bad_columns_raise_before_any_file_is_made(tmp_path, monkeypatch, header, columns):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    made = []
    monkeypatch.setattr(fileio, "_atomic_write", lambda *args: made.append(args))
    with pytest.raises(ValueError):
        write_csv(path, header, columns)
    assert made == []
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_text_writer_takes_a_str_or_chunks(tmp_path):
    path = tmp_path / "t.txt"
    atomic_write_text(path, "αβ\nγ\n")
    assert path.read_bytes() == "αβ\nγ\n".encode("utf-8")
    atomic_write_text(path, iter(["α", "", "β\n"]))
    assert path.read_bytes() == "αβ\n".encode("utf-8")
    atomic_write_bytes(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"


def test_chunks_that_raise_leave_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "run.csv"
    path.write_bytes(b"old\n")

    def chunks():
        yield "n,x\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write_text(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["run.csv"]


@pytest.mark.parametrize("width", [8, 21])  # 21 float columns: run.csv's width
def test_streamed_csv_holds_a_fraction_of_the_file(tmp_path, width):
    n = 50_000
    k = np.arange(n)
    columns = [k, *(k * 1e-3 + c for c in range(width))]  # made before tracing: only the write is measured
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["n", *(f"c{c}" for c in range(width))], columns)
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
    write_csv(tmp_path / "a.csv", ["x"], [[1.0, 2.0]])
    assert calls == ["atomic_write_text"]
    write_json(tmp_path / "b.json", {"x": 1.0})
    assert calls == ["atomic_write_text"] * 2
    fileio.write_zlab_frame(tmp_path / "c.zlab", np.zeros((2, 2)), 1.0, 0.0)
    assert calls == ["atomic_write_text"] * 2 + ["atomic_write_bytes"]
