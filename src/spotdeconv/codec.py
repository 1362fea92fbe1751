"""File formats: the binary tensor codec and the CSV table formats.

Binary tensors (.f64t): magic b"SPTD", little-endian u32 version (1),
u32 ndim (2 or 3), ndim u64 dimensions, then the row-major (k fastest for
3-D) float64 payload. Round-trips are bit-exact.

CSV tables, all written by write_table: a header row, then rows of numbers.
Detections ("row,col,pseudo_likelihood", each Detection written as the row
it is) and ground truth ("row,col") are read back too; the solver trace and
the threshold sweep are outputs only.
"""

import csv
import math
import struct
from itertools import chain

import numpy as np

from .detection import Detection

MAGIC = b"SPTD"
VERSION = 1

DETECTIONS_HEADER = list(Detection._fields)
GROUND_TRUTH_HEADER = ["row", "col"]
TRACE_HEADER = ["iteration", "objective"]
SWEEP_HEADER = ["threshold", "TP", "FP", "FN", "precision", "recall", "f1"]


class CodecError(ValueError):
    """Malformed tensor file; message includes the byte offset."""


def write_tensor(path, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"only 2-D/3-D tensors supported, got ndim={arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CodecError(f"bad magic {data[:4]!r} at byte offset 0")
    if len(data) < 12:
        raise CodecError(f"truncated header: file is {len(data)} bytes, need >= 12")
    version, ndim = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise CodecError(f"unsupported version {version} at byte offset 4")
    if ndim not in (2, 3):
        raise CodecError(f"bad ndim {ndim} at byte offset 8")
    header_end = 12 + 8 * ndim
    if len(data) < header_end:
        raise CodecError(
            f"truncated dimensions: file is {len(data)} bytes, need >= {header_end}"
        )
    shape = struct.unpack_from(f"<{ndim}Q", data, 12)
    expected = header_end + 8 * math.prod(shape)
    if len(data) != expected:
        raise CodecError(
            f"payload length mismatch at byte offset {header_end}: "
            f"expected {expected} bytes total, got {len(data)}"
        )
    try:  # numpy refuses dims whose product overflows, even when one of them is 0
        arr = np.frombuffer(data, dtype="<f8", offset=header_end).reshape(shape)
    except ValueError as exc:
        raise CodecError(f"bad dimensions {shape} at byte offset 12: {exc}") from None
    return arr.astype(np.float64)


def write_table(path, header, rows):
    """Write a headed CSV table, the mirror of _read_table: each value, a Python
    or numpy int or float, as its str, the shortest string that reads back
    bit-exactly. Lines end in CRLF, as the csv module writes them; no number
    needs quoting. The table is formatted by one % over the flattened rows and
    written once; %s is str, where numpy 2's repr would write np.float64(...)."""
    values = tuple(chain.from_iterable(rows))
    line = ",".join(["%s"] * len(header)) + "\r\n"
    text = ",".join(header) + "\r\n" + (line * (len(values) // len(header))) % values
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_detections_csv(path, dets):
    write_table(path, DETECTIONS_HEADER, dets)


def _read_table(path, header):
    """Rows of a headed CSV table as lists of finite floats.

    A wrong header, a row of the wrong width, or a value that is not a
    finite number raises ValueError naming the file and line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(
                f"{path}: expected header {','.join(header)!r}, got {found}"
            )
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(
                    f"{where}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{where}: non-numeric value in {row}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{where}: non-finite value in {row}")
            rows.append(values)
    return rows


def read_detections_csv(path):
    return [Detection(*row) for row in _read_table(path, DETECTIONS_HEADER)]


def write_ground_truth_csv(path, gt):
    write_table(path, GROUND_TRUTH_HEADER, gt)


def read_ground_truth_csv(path):
    return [(r, c) for r, c in _read_table(path, GROUND_TRUTH_HEADER)]
