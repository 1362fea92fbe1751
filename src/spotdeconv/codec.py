"""File formats: the binary tensor codec and the CSV table formats.

Binary tensors (.f64t): magic b"SPTD", little-endian u32 version (1),
u32 ndim (2 or 3), ndim u64 dimensions, then the row-major (k fastest for
3-D) float64 payload. Round-trips are bit-exact.

CSV tables, all written by write_table: a header row, then rows of numbers.
Detections ("row,col,pseudo_likelihood") and ground truth ("row,col") are
written from and read back as (D, 3) and (G, 2) float64 arrays; the solver
trace and the threshold sweep are outputs only. An unreadable table, not
UTF-8 text included, raises ValueError naming its file and, past the header, its line.
"""

import csv
import math
import os
import stat
import struct

import numpy as np

MAGIC = b"SPTD"
VERSION = 1

DETECTIONS_HEADER = ["row", "col", "pseudo_likelihood"]
GROUND_TRUTH_HEADER = ["row", "col"]
TRACE_HEADER = ["iteration", "objective"]
SWEEP_HEADER = ["threshold", "TP", "FP", "FN", "precision", "recall", "f1"]


class CodecError(ValueError):
    """Malformed tensor file; message includes the byte offset."""


def write_tensor(path, arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim not in (2, 3):
        raise ValueError(f"only 2-D/3-D tensors supported, got ndim={arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sII{arr.ndim}Q", MAGIC, VERSION, arr.ndim, *arr.shape))
        fh.write(arr)


def _check_length(header_end, expected, size):
    if size != expected:
        raise CodecError(f"payload length mismatch at byte offset {header_end}: "
                         f"expected {expected} bytes total, got {size}")


def read_tensor(path):
    """Any well-formed tensor file, NaN and empty ones included, as one array."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise CodecError(f"bad magic {head[:4]!r} at byte offset 0")
        if len(head) < 12:
            raise CodecError(f"truncated header: file is {len(head)} bytes, need >= 12")
        version, ndim = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise CodecError(f"unsupported version {version} at byte offset 4")
        if ndim not in (2, 3):
            raise CodecError(f"bad ndim {ndim} at byte offset 8")
        header_end = 12 + 8 * ndim
        dims = fh.read(8 * ndim)
        if len(dims) < 8 * ndim:
            raise CodecError(f"truncated dimensions: file is {12 + len(dims)} bytes, "
                             f"need >= {header_end}")
        shape = struct.unpack(f"<{ndim}Q", dims)
        expected = header_end + 8 * math.prod(shape)
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):  # a claim past the file's size allocates nothing
            _check_length(header_end, expected, info.st_size)
        try:  # numpy refuses dims whose product overflows, even when one of them is 0
            arr = np.empty(shape, dtype="<f8")
        except ValueError as exc:
            raise CodecError(f"bad dimensions {shape} at byte offset 12: {exc}") from None
        # A pipe's length is known only once read: the payload, then what follows it.
        _check_length(header_end, expected, header_end + fh.readinto(arr) + len(fh.read()))
    return arr


def write_table(path, header, values):
    """Write a headed CSV table, the mirror of _read_table, from its values in
    row-major order: each value, a Python or numpy int or float, as its str,
    the shortest string that reads back bit-exactly. Lines end in CRLF, as the
    csv module writes them; no number needs quoting. The table is formatted by
    one % over the values and written once; %s is str, where numpy 2's repr
    would write np.float64(...)."""
    values = tuple(values)
    line = ",".join(["%s"] * len(header)) + "\r\n"
    text = ",".join(header) + "\r\n" + (line * (len(values) // len(header))) % values
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _read_table(path, header):
    """A headed CSV table of finite numbers as a (rows, len(header)) float64 array.

    Any fault, a field past the csv module's limit included, raises ValueError
    naming the file and, past the header, the line its record starts on. A byte
    that is not UTF-8 reads as a lone surrogate, which no header or number holds.
    """
    rows, line = [], 1  # line: where the record being read starts
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"{path}: expected header {','.join(header)!r}, got {found}")
            line = reader.line_num + 1
            for row in reader:
                where = f"{path}, line {line}"
                if len(row) != len(header):
                    raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    raise ValueError(f"{where}: non-numeric value in {row}") from None
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{where}: non-finite value in {row}")
                rows.append(values)
                line = reader.line_num + 1
        except csv.Error as exc:  # a stray quote, a field past the module's limit
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, len(header))


def write_detections_csv(path, dets):
    """Write the (D, 3) detections, or a list of rows, from one flat list of
    floats, none of which the garbage collector tracks."""
    write_table(path, DETECTIONS_HEADER, np.asarray(dets, dtype=np.float64).ravel().tolist())


def read_detections_csv(path):
    """The detections as a (D, 3) float64 array, (0, 3) for a header alone."""
    return _read_table(path, DETECTIONS_HEADER)


def write_ground_truth_csv(path, gt):
    write_table(path, GROUND_TRUTH_HEADER, np.asarray(gt, dtype=np.float64).ravel().tolist())


def read_ground_truth_csv(path):
    """The ground truth as a (G, 2) float64 array, (0, 2) for a header alone."""
    return _read_table(path, GROUND_TRUTH_HEADER)
