"""Deterministic file output helpers: 17-digit CSV cells, atomic writes, ZLAB frames."""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
import tempfile

import numpy as np

ZLAB_MAGIC = b"ZLAB"
ZLAB_VERSION = 1

# Rows formatted per chunk of a CSV write.
_CSV_BATCH_ROWS = 1024


def atomic_write_text(path, text) -> None:
    """Write text, a str or an iterable of str chunks, to path as UTF-8, atomically."""
    chunks = (text,) if isinstance(text, str) else text
    _atomic_write(path, (chunk.encode("utf-8") for chunk in chunks))


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write payload to path, atomically."""
    _atomic_write(path, (payload,))


def _atomic_write(path, chunks) -> None:
    """Write each bytes chunk in turn to a temp file beside path, then rename it
    over path, so readers never see partials.  The temp file is removed on any
    exception, one raised by the chunks iterator included."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(value):
    """value with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path, payload: dict) -> None:
    """RFC 8259 JSON with sorted keys: a NaN or infinite float is written as null."""
    atomic_write_text(path, json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


@functools.lru_cache(maxsize=256)
def _row_format(cell_types: tuple) -> str:
    """%-format of one CSV row: ints verbatim, strings as-is, and every other
    number with 17 significant digits (round-trip safe)."""
    return ",".join(
        "%d" if issubclass(t, (int, np.integer)) else "%s" if issubclass(t, str) else "%.17g" for t in cell_types
    )


def write_csv(path, header, rows) -> None:
    """rows: iterable of sequences, each rendered by one cached %-format.  The
    text goes to :func:`atomic_write_text` in batches of _CSV_BATCH_ROWS rows,
    so the file is never held whole."""
    atomic_write_text(path, _csv_batches(header, rows))


def _csv_batches(header, rows):
    """The CSV text of header and rows, one str per batch of rows."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while batch := list(itertools.islice(rows, _CSV_BATCH_ROWS)):
        lines = []
        for row in batch:
            row = tuple(row)
            lines.append(_row_format(tuple(map(type, row))) % row)
        lines.append("")  # so that the batch ends in a newline
        yield "\n".join(lines)


def write_zlab_frame(path, values: np.ndarray, box_half_width: float, time: float) -> None:
    """Binary frame: magic 'ZLAB', u32 version, u32 N, f64 L, f64 t, then N*N
    complex values as interleaved little-endian f64 pairs, row-major."""
    values = np.asarray(values, dtype=np.complex128)
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError(f"frame must be square, got {values.shape}")
    header = ZLAB_MAGIC + struct.pack("<IIdd", ZLAB_VERSION, n, float(box_half_width), float(time))
    interleaved = np.empty((n, n, 2), dtype="<f8")
    interleaved[..., 0] = values.real
    interleaved[..., 1] = values.imag
    atomic_write_bytes(path, header + interleaved.tobytes())


def read_zlab_frame(path):
    """Inverse of :func:`write_zlab_frame`; returns (values, box_half_width, time)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != ZLAB_MAGIC:
        raise ValueError("not a ZLAB frame")
    version, n, box_half_width, time = struct.unpack("<IIdd", blob[4 : 4 + 24])
    if version != ZLAB_VERSION:
        raise ValueError(f"unsupported ZLAB version {version}")
    flat = np.frombuffer(blob[28:], dtype="<f8")
    if flat.size != 2 * n * n:
        raise ValueError("ZLAB payload size mismatch")
    pairs = flat.reshape(n, n, 2)
    return pairs[..., 0] + 1j * pairs[..., 1], box_half_width, time
