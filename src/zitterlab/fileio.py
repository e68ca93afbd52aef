"""Deterministic file output helpers: 17-digit CSV cells, atomic writes, ZLAB frames."""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

ZLAB_MAGIC = b"ZLAB"
ZLAB_VERSION = 1

# Rows formatted per chunk of a CSV write.  A batch holds one str per distinct
# float, and the repeats that the batch formats once sit mostly within rows,
# so 512 rows hold half the memory of 1,024 at about the same speed.
_CSV_BATCH_ROWS = 512

# %-format of a CSV cell by its column's dtype kind: bools and ints verbatim,
# strings as-is, and floats with 17 significant digits (round-trip safe).
_CSV_CELL_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "U": "%s", "f": "%.17g"}


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


def write_csv(path, header, columns) -> None:
    """columns: one array-like per header name, all of one length; no columns
    at all writes the header alone.  Each column's cell format is
    _CSV_CELL_FORMATS of its dtype kind.  The text goes to
    :func:`atomic_write_text` in batches of _CSV_BATCH_ROWS rows, so the file
    is never held whole (see :func:`_csv_batches`).  Raises ValueError,
    before any file is made, on a column count other than the header's,
    columns that differ in length, a dtype that is not bool, int, uint,
    float or str, or a str column built from items that are not all str
    (numpy would write its numbers by str(), outside the %.17g rule)."""
    given = list(columns)
    columns = [np.asarray(column) for column in given]
    for column, array in zip(given, columns):
        if array.dtype.kind == "U" and not isinstance(column, np.ndarray):
            if not all(isinstance(item, str) for item in column):
                raise ValueError(f"a str column holds items that are not str: {array[:3].tolist()}")
    if columns and len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    if len({column.shape for column in columns}) > 1 or columns and columns[0].ndim != 1:
        raise ValueError(f"columns must be 1-D and of one length, got shapes {[c.shape for c in columns]}")
    dtypes = [column.dtype for column in columns]
    if any(dtype.kind not in _CSV_CELL_FORMATS for dtype in dtypes):
        raise ValueError(f"column dtypes must be bool, int, uint, float or str, got {dtypes}")
    atomic_write_text(path, _csv_batches(header, columns))


def _csv_batches(header, columns):
    """The CSV text of header and columns, one str per batch of rows.  Within a
    batch the float columns are cast to float64 (exact for float16 and
    float32, and what %.17g does to a longdouble) and keyed by their bits, so
    each distinct bit pattern is formatted once, all of them by one % call,
    and its str is shared by every cell that holds it; 0.0 and -0.0, and NaNs
    of different payloads, are different keys.  Bool, int and uint cells are
    formatted by %d, and str cells are written as they are."""
    yield ",".join(header) + "\n"
    floats = [k for k, column in enumerate(columns) if column.dtype.kind == "f"]
    for start in range(0, len(columns[0]) if columns else 0, _CSV_BATCH_ROWS):
        block = [column[start : start + _CSV_BATCH_ROWS] for column in columns]
        cells = [None] * len(block)
        for k, column in enumerate(block):
            if column.dtype.kind == "U":
                cells[k] = column.tolist()
            elif column.dtype.kind != "f":
                cells[k] = [_CSV_CELL_FORMATS[column.dtype.kind] % cell for cell in column.tolist()]
        if floats:
            bits = np.stack([block[k] for k in floats], dtype=np.float64).view(np.uint64)
            distinct, inverse = np.unique(bits, return_inverse=True)
            values = distinct.view(np.float64).tolist()
            formats = ",".join([_CSV_CELL_FORMATS["f"]] * len(values))  # %.17g writes no comma
            texts = np.array((formats % tuple(values)).split(","), dtype=object)
            for k, shared in zip(floats, texts[inverse.reshape(bits.shape)]):
                cells[k] = shared.tolist()
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


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
