import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spotdeconv import codec
from spotdeconv.detection import Detection


def test_roundtrip_random_tensors(tmp_path):
    rng = np.random.default_rng(60)
    path = tmp_path / "t.f64t"
    for i in range(100):
        ndim = 2 if i % 2 == 0 else 3
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        arr = rng.standard_normal(shape)
        codec.write_tensor(path, arr)
        back = codec.read_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_2x2_file_is_60_bytes(tmp_path):
    path = tmp_path / "img.f64t"
    codec.write_tensor(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert path.stat().st_size == 60


def test_header_layout(tmp_path):
    path = tmp_path / "img.f64t"
    codec.write_tensor(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
    data = path.read_bytes()
    assert data[:4] == b"SPTD"
    assert int.from_bytes(data[4:8], "little") == 1
    assert int.from_bytes(data[8:12], "little") == 2
    assert int.from_bytes(data[12:20], "little") == 2
    assert int.from_bytes(data[20:28], "little") == 2


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.f64t"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(codec.CodecError, match="magic"):
        codec.read_tensor(path)


def test_bad_version_and_ndim(tmp_path):
    path = tmp_path / "bad.f64t"
    path.write_bytes(b"SPTD" + struct.pack("<II", 9, 2) + struct.pack("<2Q", 1, 1) + b"\x00" * 8)
    with pytest.raises(codec.CodecError, match="version"):
        codec.read_tensor(path)
    path.write_bytes(b"SPTD" + struct.pack("<II", 1, 4) + b"\x00" * 8)
    with pytest.raises(codec.CodecError, match="ndim"):
        codec.read_tensor(path)


@pytest.mark.parametrize("shape", [(4,), (1, 2, 2, 1)], ids=["1d", "4d"])
def test_write_tensor_refuses_ndim(tmp_path, shape):
    path = tmp_path / "t.f64t"
    with pytest.raises(ValueError, match=f"only 2-D/3-D tensors supported, got ndim={len(shape)}"):
        codec.write_tensor(path, np.zeros(shape))
    assert not path.exists()


def test_truncated_payload_reports_lengths(tmp_path):
    path = tmp_path / "t.f64t"
    codec.write_tensor(path, np.zeros((2, 2)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(codec.CodecError, match="expected 60 bytes total, got 52"):
        codec.read_tensor(path)


def _read_or_codec_error(path, data):
    path.write_bytes(data)
    try:
        assert isinstance(codec.read_tensor(path), np.ndarray)
    except codec.CodecError:
        pass


_fuzz = settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
_small_tensors = arrays(np.float64, array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=4))


@_fuzz
@given(arr=_small_tensors, data=st.data())
def test_read_tensor_truncated_or_flipped(tmp_path, arr, data):
    path = tmp_path / "t.f64t"
    codec.write_tensor(path, arr)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    _read_or_codec_error(path, raw[:cut])
    at = data.draw(st.integers(0, len(raw) - 1))
    flipped = bytearray(raw)
    flipped[at] ^= data.draw(st.integers(1, 255))
    _read_or_codec_error(path, bytes(flipped))


@_fuzz
@given(
    version=st.sampled_from([1, 1, 2, 2**32 - 1]),
    dims=st.lists(st.one_of(st.integers(0, 4), st.sampled_from([2**32, 2**63, 2**64 - 1]),
                            st.integers(0, 2**64 - 1)), min_size=0, max_size=4),
    ndim_delta=st.sampled_from([0, 0, 0, 1, -1]),
    payload=st.binary(max_size=80),
)
# 2^32 x 2^32 elements: a 64-bit product wraps to 0 and matches the empty payload.
@example(version=1, dims=[2**32, 2**32], ndim_delta=0, payload=b"")
def test_read_tensor_random_headers(tmp_path, version, dims, ndim_delta, payload):
    ndim = max(len(dims) + ndim_delta, 0)
    header = b"SPTD" + struct.pack("<II", version, ndim) + struct.pack(f"<{len(dims)}Q", *dims)
    _read_or_codec_error(tmp_path / "t.f64t", header + payload)


def test_detections_csv_roundtrip(tmp_path):
    path = tmp_path / "det.csv"
    dets = [
        Detection(row=1.5, col=2.0, pseudo_likelihood=0.75),
        Detection(row=0.0, col=3.0, pseudo_likelihood=0.25),
    ]
    codec.write_detections_csv(path, dets)
    assert path.read_text().splitlines()[0] == "row,col,pseudo_likelihood"
    assert codec.read_detections_csv(path) == dets


def test_detection_is_its_csv_row(tmp_path):
    rng = np.random.default_rng(62)
    values = rng.standard_normal((100, 3)) * 10.0 ** rng.integers(-300, 300, (100, 3))
    dets = [Detection(*row) for row in values.tolist()] + [Detection(0.1, 1 / 3, 5e-324)]
    for d in dets:
        assert tuple(d) == (d.row, d.col, d.pseudo_likelihood)
    path = tmp_path / "det.csv"
    codec.write_detections_csv(path, dets)
    back = codec.read_detections_csv(path)
    assert back == dets
    assert np.array(back).tobytes() == np.array(dets).tobytes()


def test_ground_truth_csv_roundtrip(tmp_path):
    path = tmp_path / "gt.csv"
    gt = [(1.0, 2.0), (3.5, 4.25)]
    codec.write_ground_truth_csv(path, gt)
    assert path.read_text().splitlines()[0] == "row,col"
    assert codec.read_ground_truth_csv(path) == gt


def test_write_table_is_bit_exact(tmp_path):
    rng = np.random.default_rng(61)
    points = rng.standard_normal((100, 2)) * 10.0 ** rng.integers(-300, 300, (100, 2))
    path = tmp_path / "gt.csv"
    codec.write_ground_truth_csv(path, points)  # rows of numpy float64 scalars
    assert codec.read_ground_truth_csv(path) == [tuple(p) for p in points.tolist()]
    codec.write_table(path, codec.TRACE_HEADER, [(1, 0.1), (np.int64(2), np.float64(1e-300))])
    assert path.read_bytes() == b"iteration,objective\r\n1,0.1\r\n2,1e-300\r\n"


def test_csv_bad_header(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("x,y,p\n1,2,3\n")
    with pytest.raises(ValueError, match="expected header"):
        codec.read_detections_csv(path)
    with pytest.raises(ValueError, match="expected header"):
        codec.read_ground_truth_csv(path)


def test_write_table_bytes(tmp_path):
    # Python and numpy ints and floats each as their str, inf as "inf",
    # every line ending in CRLF.
    rows = [
        (1, 0.1, 2.5e-300),
        (np.int64(2), np.float64(0.1), np.float64(1e300)),
        (np.int32(-3), float("inf"), np.inf),
        (0, np.float64(-0.0), 5e-324),
    ]
    path = tmp_path / "t.csv"
    codec.write_table(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == (
        b"a,b,c\r\n1,0.1,2.5e-300\r\n2,0.1,1e+300\r\n-3,inf,inf\r\n0,-0.0,5e-324\r\n")
    codec.write_table(path, ["a", "b", "c"], [])
    assert path.read_bytes() == b"a,b,c\r\n"
