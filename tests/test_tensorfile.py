import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchsmooth.errors import FormatError
from patchsmooth.tensorfile import read_tensor, write_tensor


def test_roundtrip_f32(tmp_path):
    path = tmp_path / "a.pnct"
    array = np.arange(15, dtype=np.float32).reshape(3, 5)
    write_tensor(array, path)
    back, meta = read_tensor(path)
    assert back.dtype == np.dtype("<f4")
    assert back.tobytes() == array.tobytes()
    assert meta == {}


def test_roundtrip_u32_with_meta(tmp_path):
    path = tmp_path / "tokens.pnct"
    array = np.array([[1, 2], [3, 4]], dtype=np.uint32)
    write_tensor(array, path, meta={"grid": [2, 2], "patch_order": "row-major"})
    back, meta = read_tensor(path)
    np.testing.assert_array_equal(back, array)
    assert meta["patch_order"] == "row-major"


def test_write_read_identity_is_bitwise(tmp_path):
    path = tmp_path / "b.pnct"
    rng = np.random.default_rng(0)
    array = rng.normal(size=(4, 3, 2)).astype(np.float32)
    write_tensor(array, path)
    first = path.read_bytes()
    back, _ = read_tensor(path)
    write_tensor(back, tmp_path / "c.pnct")
    assert (tmp_path / "c.pnct").read_bytes() == first


@given(
    st.integers(1, 4),
    st.sampled_from(["f32", "u32"]),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_all_ranks_and_dtypes(rank, kind, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
    if kind == "f32":
        array = rng.normal(size=shape).astype(np.float32)
    else:
        array = rng.integers(0, 2**32 - 1, size=shape, dtype=np.uint32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pnct"
        write_tensor(array, path, meta={"seed": seed})
        back, meta = read_tensor(path)
    assert back.shape == shape
    assert back.tobytes() == array.tobytes()
    assert meta == {"seed": seed}


def test_truncated_file_names_lengths(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones((2, 2), dtype=np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-6])
    with pytest.raises(FormatError, match="expected .* bytes"):
        read_tensor(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones(3, dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="bad magic"):
        read_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones(3, dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_tensor(path)


def test_corrupted_payload_fails_crc(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones((2, 3), dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 0xFF  # flip payload bits, keep length
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum mismatch"):
        read_tensor(path)


def test_no_temp_files_left_behind(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones(4, dtype=np.float32), path)
    assert [p.name for p in tmp_path.iterdir()] == ["t.pnct"]


@pytest.mark.parametrize("values", [[-1, 2], [1, 2**33 + 5], [2**32]])
def test_ints_outside_u32_rejected(tmp_path, values):
    with pytest.raises(FormatError):
        write_tensor(np.array(values), tmp_path / "t.pnct")
    assert list(tmp_path.iterdir()) == []


def test_int_arrays_stored_as_u32(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.array([1, 2, 3]), path)
    back, _ = read_tensor(path)
    assert back.dtype == np.dtype("<u4")
