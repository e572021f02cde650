"""Blob and netpbm serialization: exact headers, exact round trips."""

import numpy as np
import pytest

from attnfuse.blobio import HEADER, MAGIC, read_blob, write_blob
from attnfuse.errors import ContractViolation
from attnfuse.imageio import quantize, read_pgm, read_ppm, write_pgm, write_ppm


def test_blob_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(7),
              np.array(2.5)]
    path = tmp_path / "data.bin"
    write_blob(path, 0xDEADBEEF, arrays)
    back = read_blob(path, 0xDEADBEEF, [(3, 4), (7,), ()])
    for a, b in zip(arrays, back):
        assert np.array_equal(a, b)
        assert b.dtype == np.float64
        assert not b.flags.writeable


def test_blob_header_layout(tmp_path):
    path = tmp_path / "data.bin"
    write_blob(path, 7, [np.zeros(2)])
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert len(raw) == HEADER.size + 16
    magic, version, config_hash = HEADER.unpack_from(raw)
    assert (magic, version, config_hash) == (MAGIC, 1, 7)


def test_blob_validation(tmp_path):
    path = tmp_path / "data.bin"
    write_blob(path, 7, [np.zeros(2)])
    with pytest.raises(ContractViolation):
        read_blob(path, 8, [(2,)])                 # wrong hash
    with pytest.raises(ContractViolation):
        read_blob(path, 7, [(3,)])                 # declared too long
    with pytest.raises(ContractViolation):
        read_blob(path, 7, [(1,)])                 # trailing bytes
    # 2**64 values: an int64 product of the sizes wraps to 0
    with pytest.raises(ContractViolation, match="payload shorter") as exc:
        read_blob(path, 7, [(2 ** 32, 2 ** 32)])
    assert "data.bin" in str(exc.value)
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ContractViolation):
        read_blob(path, 7, [(2,)])                 # bad magic
    path.write_bytes(b"AT")
    with pytest.raises(ContractViolation):
        read_blob(path, 7, [(2,)])                 # truncated header


def test_quantize_rounds_half_up():
    got = quantize(np.array([-3.0, 0.49, 0.5, 1.49, 1.5, 254.5, 300.0]))
    assert got.dtype == np.uint8
    assert list(got) == [0, 0, 1, 1, 2, 255, 255]


def test_pgm_round_trip_and_header(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12
    assert np.array_equal(read_pgm(path), gray)


def test_ppm_round_trip_and_interleaving(tmp_path):
    rgb = np.zeros((3, 2, 2), dtype=np.uint8)
    rgb[0, 0, 0] = 255   # red top-left
    rgb[2, 1, 1] = 99    # blue bottom-right
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    body = raw[len(b"P6\n2 2\n255\n"):]
    assert body[0] == 255 and body[1] == 0 and body[2] == 0
    assert body[-1] == 99
    assert np.array_equal(read_ppm(path), rgb)


def test_float_frames_are_quantized_on_write(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.4, 0.5], [254.6, -3.0]]))
    assert np.array_equal(read_pgm(path), np.array([[0, 1], [255, 0]],
                                                   dtype=np.uint8))


def test_identical_pixels_identical_bytes(tmp_path):
    rgb = np.random.default_rng(1).integers(0, 256, (3, 5, 4)).astype(np.uint8)
    write_ppm(tmp_path / "a.ppm", rgb)
    write_ppm(tmp_path / "b.ppm", rgb)
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_netpbm_validation(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 3)
    with pytest.raises(ContractViolation):
        read_pgm(path)                              # short payload
    path.write_bytes(b"P5\n2 2\n127\n" + b"\0" * 4)
    with pytest.raises(ContractViolation):
        read_pgm(path)                              # wrong maxval
    path.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
    with pytest.raises(ContractViolation):
        read_pgm(path)                              # magic mismatch
    with pytest.raises(ContractViolation):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(ContractViolation):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))
