import functools
import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchsmooth.errors import FormatError, PatchSmoothError
from patchsmooth.pool import (
    PoolMode,
    PromptPool,
    PromptSpec,
    ScoreGrid,
    load_grid,
    load_pool,
    save_grid,
    save_pool,
)
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


def test_corrupted_crc_fails(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones((2, 3), dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01  # flip one bit of the stored CRC
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum mismatch"):
        read_tensor(path)


def reference_encoding(array, code, meta_bytes=b""):
    """The PNCL layout of the module docstring, spelled out with struct and zlib."""
    stored = np.asarray(array).astype("<f4" if code == 1 else "<u4")
    blob = b"PNCL" + struct.pack("<III", 1, code, stored.ndim)
    blob += b"".join(struct.pack("<Q", n) for n in stored.shape)
    blob += struct.pack("<I", len(meta_bytes)) + meta_bytes
    blob += stored.tobytes(order="C")
    return blob + struct.pack("<I", zlib.crc32(blob))


@pytest.mark.parametrize("array, code", [
    pytest.param(np.array(1.5, dtype=np.float32), 1, id="rank-0"),
    pytest.param(np.zeros((2, 0, 3), dtype=np.float32), 1, id="zero-size"),
    pytest.param(np.array([[0, 1], [2**32 - 1, 7]], dtype=np.uint32), 2, id="u32"),
    pytest.param(np.arange(6).reshape(2, 3), 2, id="int64-as-u32"),
    pytest.param(np.array([[0.1, 1 / 3], [2.0**-140, -7.25]]), 1, id="f64-narrowed"),
    pytest.param(np.arange(12, dtype=np.float32).reshape(3, 4).T, 1, id="transposed-view"),
    pytest.param(np.arange(24, dtype=np.float64).reshape(4, 6)[::2, 1::2], 1, id="strided-view"),
])
@pytest.mark.parametrize("meta", [None, {"kind": "t", "grid": [2, 2]}], ids=["no-meta", "meta"])
def test_bytes_match_reference_encoding(tmp_path, array, code, meta):
    path = tmp_path / "t.pnct"
    write_tensor(array, path, meta=meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode() if meta else b""
    assert path.read_bytes() == reference_encoding(array, code, meta_bytes)
    back, back_meta = read_tensor(path)
    assert back.shape == np.shape(array) and back_meta == (meta or {})
    assert back.tobytes() == np.asarray(array).astype(back.dtype).tobytes()


def test_read_returns_read_only_array(tmp_path):
    path = tmp_path / "t.pnct"
    write_tensor(np.ones((2, 3), dtype=np.float32), path)
    array, _ = read_tensor(path)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 2.0


def sealed(body: bytes) -> bytes:
    """``body`` followed by its valid CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_overflowing_shape_is_format_error(tmp_path):
    # rank 2, dims (2**32, 2**32): the element count wraps to 0 in int64
    path = tmp_path / "t.pnct"
    path.write_bytes(sealed(b"PNCL" + struct.pack("<IIIQQI", 1, 1, 2, 2**32, 2**32, 0)))
    assert path.stat().st_size == 40
    with pytest.raises(FormatError, match="expected .* bytes"):
        read_tensor(path)


@pytest.mark.parametrize("dims", [(2**63, 0), (2**40, 2**40, 0)])
def test_empty_shape_beyond_index_range_is_format_error(tmp_path, dims):
    path = tmp_path / "t.pnct"
    path.write_bytes(sealed(b"PNCL" + struct.pack(f"<III{len(dims)}QI", 1, 1, len(dims), *dims, 0)))
    with pytest.raises(FormatError, match="describe no array"):
        read_tensor(path)


def test_sidecar_must_be_a_json_object(tmp_path):
    path = tmp_path / "t.pnct"
    meta = b"[1, 2]"
    path.write_bytes(sealed(b"PNCL" + struct.pack("<IIIQI", 1, 1, 1, 1, len(meta)) + meta
                            + struct.pack("<f", 1.0)))
    with pytest.raises(FormatError, match="sidecar"):
        read_tensor(path)


@pytest.mark.parametrize("meta", [b"[" * 200_000 + b"]" * 200_000, b"1" * 5000],
                         ids=["too-deep", "long-int"])
def test_sidecar_the_parser_cannot_hold_is_format_error(tmp_path, meta):
    path = tmp_path / "t.pnct"
    path.write_bytes(sealed(b"PNCL" + struct.pack("<IIIQI", 1, 1, 1, 1, len(meta)) + meta
                            + struct.pack("<f", 1.0)))
    with pytest.raises(FormatError, match=f"{path}: invalid JSON sidecar"):
        read_tensor(path)


@functools.cache
def pncl_files() -> dict[str, bytes]:
    """A pool file and a grid file as ``save_pool``/``save_grid`` write them."""
    rng = np.random.default_rng(5)
    prompts = tuple(PromptSpec(f"x{i}", f"x{i}.out", "q", (2, 2)) for i in range(2))
    pool = PromptPool(probs=rng.dirichlet(np.ones(5), size=(2, 4)), pair_indices=[1, 2],
                      prompts=prompts, mode=PoolMode.Q, m=2)
    grid = ScoreGrid(probs=rng.dirichlet(np.ones(5), size=4), prompt=prompts[0])
    with tempfile.TemporaryDirectory() as tmp:
        save_pool(pool, Path(tmp) / "p.pnct")
        save_grid(grid, Path(tmp) / "g.pnct")
        return {"pool": (Path(tmp) / "p.pnct").read_bytes(),
                "grid": (Path(tmp) / "g.pnct").read_bytes()}


@given(
    kind=st.sampled_from(["pool", "grid"]),
    # header and sidecar offsets are drawn more often than payload ones
    flips=st.lists(st.tuples(st.one_of(st.integers(0, 96), st.integers(0, 10**4)),
                             st.integers(1, 255)), max_size=4),
    word=st.none() | st.tuples(st.integers(0, 64), st.integers(0, 2**64 - 1)),
    cut=st.none() | st.integers(0, 10**4),
    reseal=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_mutated_files_raise_only_library_errors(kind, flips, word, cut, reseal):
    blob = bytearray(pncl_files()[kind])
    for position, mask in flips:
        blob[position % len(blob)] ^= mask
    if word is not None:
        blob[word[0]:word[0] + 8] = struct.pack("<Q", word[1])
    if cut is not None:
        del blob[cut % (len(blob) + 1):]
    if reseal and len(blob) >= 4:
        # a valid CRC lets the mutation reach the parser
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.pnct"
        path.write_bytes(bytes(blob))
        for reader in (read_tensor, load_pool, load_grid):
            try:
                reader(path)
            except PatchSmoothError:
                pass
